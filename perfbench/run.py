"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Steps, each in its own process:

1. set-up time: a fresh interpreter importing ``epps.cli``, timed several
   times after one untimed import that compiles the bytecode;
2. inputs: the workload writes its seeded inputs into a scratch directory
   (``.bench_work/`` in the checkout), untimed;
3. measurement: one single-threaded process runs a warm-up job, then jobs
   for S seconds, and checks every job's outputs.

Times are scaled to a fixed machine speed: each timed import and job sits
between two passes of a reference computation, and ``setup_s`` and
``job_s`` are summed wall time over summed reference time, times the
reference's nominal time (see pace.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it are a
human-readable summary.  Exits non-zero, printing no result, when the
package cannot be imported or a step fails to finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("run_async", "estimate_ticks", "mc_deconv", "theory_sweep")
SETUP_SAMPLES = 3  # timed imports before the measurement, and as many after
STEP_TIMEOUT = 170  # seconds; one run must end within 180

# One thread per process for every BLAS/OpenMP runtime numpy may load, and a
# fixed hash seed so that nothing depends on string-hash order.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    paths = [os.path.join(ROOT, "src"), BENCH]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run(cmd, what, timeout=STEP_TIMEOUT):
    """Run a child to completion; its stdout is returned, stderr passed on."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def setup_samples(samples):
    """Wall times from starting an interpreter to `epps.cli` imported, each
    with the reference computation's times just before and after it (see
    pace.py).

    The child stamps the wall clock right after the import; the parent
    stamps it right before the start.
    """
    probe = [sys.executable, "-c",
             "import epps.cli, time; print(repr(time.time()))"]
    out = []
    pace.reference_seconds()  # untimed: the first pass touches its data
    ref = pace.reference_seconds()
    for _ in range(samples):
        start = time.time()
        seconds = float(_run(probe, "importing epps.cli").split()[-1]) - start
        after = pace.reference_seconds()
        out.append((seconds, ref, after))
        ref = after
    return out


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(ROOT, "src", "epps", "cli.py")):
        raise BenchError(f"no package source under {ROOT}/src/epps")
    # The first import compiles the bytecode and is not timed.  Set-up is
    # sampled before and after the measurement, so that it spans the same
    # stretch of machine time as the jobs.
    _run([sys.executable, "-c", "import epps.cli"], "importing epps.cli")
    setup = [] if trace else setup_samples(SETUP_SAMPLES)
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        worker = [sys.executable, os.path.join(BENCH, "worker.py")]
        args = ["--workload", workload, "--seed", str(seed), "--work", work]
        _run(worker + ["prepare"] + args, "preparing inputs")
        _run(worker + ["measure"] + args + ["--seconds", str(seconds),
                                            "--trace", str(trace)],
             "measuring", timeout=STEP_TIMEOUT + seconds)
        with open(os.path.join(work, "result.json"), "r",
                  encoding="utf-8") as fh:
            result = json.load(fh)
        if not trace:
            setup += setup_samples(SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, setup


def report(workload, result, setup, trace):
    """Summary lines, then the final JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"# workload {workload}: {result['jobs']} timed jobs after one "
          f"warm-up, wall time median {result['job_wall_s']:.4f} s "
          f"(min {min(result['job_times']):.4f}, "
          f"max {max(result['job_times']):.4f})")
    print(f"# checks: {'ok' if failed == 0 else 'FAILED'}; error_rate "
          f"{failed / attempted:.4g} ratio ({failed} of {attempted} jobs)")
    for msg in result["failures"]:
        print("#   " + msg.replace("\n", "\n#   "))
    print("# env: " + json.dumps(result["env"], sort_keys=True))
    if trace:
        import spans

        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        units.update({"trace.job_s": "s", "trace.overhead_s": "s"})
        print("# span                          busy_s     self_s   calls")
        for name, (busy, own, calls) in sorted(result["spans"].items()):
            print(f"# {name:<28} {busy:9.4f} {own:9.4f} {calls:7.0f}")
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in result["layers"].items()}
    else:
        print(f"# reference median {result['reference_s']:.4f} s beside "
              f"jobs (scaled to {pace.REFERENCE_S} s); set-up wall times: "
              + ", ".join(f"{x:.4f}" for x, _, _ in setup))
        metrics = {
            "job_s": {"value": result["job_s"], "unit": "s"},
            "setup_s": {"value": pace.scaled(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, setup = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result, setup, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
