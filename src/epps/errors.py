"""Exception hierarchy shared across the package, and the text-file reader
that turns undecodable input into one of them.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
A fit of data without signal raises neither: it searches a bounded box, so
it always ends, and `FitResult.degenerate_reasons` names what it could not
determine.
"""


class EppsError(Exception):
    """Base class for all package errors."""


class DataError(EppsError):
    """Malformed, inconsistent or insufficient input data."""


class NumericalError(EppsError):
    """A numerical procedure failed or produced an invalid result."""


def read_text(path):
    """The contents of a UTF-8 text file, newlines translated as in text
    mode; a byte sequence that is not UTF-8 raises DataError naming the file
    and the byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: invalid UTF-8 at byte {exc.start}") from None
