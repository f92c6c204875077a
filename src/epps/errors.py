"""Exception hierarchy shared across the package, and the text-file reader
that turns undecodable input into one of them.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3;
an OSError that names a file, such as a directory given as a file, is a
data error too.
A fit of data without signal raises neither: it searches a bounded box, so
it always ends, and `FitResult.degenerate_reasons` names what it could not
determine.
"""

import os


class EppsError(Exception):
    """Base class for all package errors."""


class DataError(EppsError):
    """Malformed, inconsistent or insufficient input data."""


class NumericalError(EppsError):
    """A numerical procedure failed or produced an invalid result."""


def read_text(path):
    """The contents of a UTF-8 text file, newlines translated as in text
    mode; a byte sequence that is not UTF-8 raises DataError naming the file
    and the byte offset.  `path` must be a path: an integer, which `open`
    would take as a file descriptor, raises DataError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise DataError(f"not a file path: {path!r}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: invalid UTF-8 at byte {exc.start}") from None
