"""One workload in one single-threaded process.

    python3 perfbench/worker.py prepare --workload W --seed N --work DIR
    python3 perfbench/worker.py measure --workload W --seed N --work DIR \
        --seconds S --trace 0|1

`prepare` writes the workload's inputs and `facts.json` into DIR.  `measure`
runs one warm-up job, then jobs until S seconds have passed, each followed by
one pass of the reference computation of pace.py, checks every job's outputs
outside the timed region, and writes `result.json` into DIR.  With --trace 1,
timed jobs alternate between traced and untraced, are not paced, and the
result carries the per-layer metrics of the traced ones.

Run by run.py, which pins the thread counts and PYTHONPATH first.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy
import scipy

import pace
import spans
import workloads


def _environment(seed):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or "unknown", "seed": seed,
            "threads": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def _run_job(workload, ctx, tracer=None):
    """Run one job, traced if a tracer is given, then check its outputs
    untraced.  Returns (seconds, failures); only the job is timed."""
    ctx.reset()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install(workloads)
    start = time.perf_counter()
    error = None
    try:
        outcome = workload.job(ctx)
    except Exception:
        error = traceback.format_exc()
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if error is not None:
        return elapsed, ["raised:\n" + error]
    try:
        failures = workload.check(ctx, outcome)
    except Exception:
        return elapsed, ["check raised:\n" + traceback.format_exc()]
    if tracer is not None:
        failures += [f"traced job opened no {name} span: its call site is "
                     f"gone, so its metrics would read 0"
                     for name in tracer.unopened(workload.spans)]
    return elapsed, failures


def measure(workload, ctx, seconds, trace):
    if hasattr(workload, "probe"):
        workload.probe(ctx)
    tracer = spans.Tracer() if trace else None
    attempted, failed, failures = 0, 0, []
    untraced, passed, traced, layer_runs, span_tables = [], [], [], [], []
    paced = []

    def one(traced_job):
        nonlocal attempted, failed
        elapsed, problems = _run_job(workload, ctx,
                                     tracer if traced_job else None)
        attempted += 1
        if problems:
            failed += 1
            failures.extend(p for p in problems if p not in failures)
        return elapsed, problems

    # Warm-up: fills caches and finishes lazy imports; not timed.  A traced
    # warm-up too, so one-off costs of the tracer stay out of traced jobs.
    # Untraced jobs are each timed between two passes of the reference
    # computation (pace.py); traced jobs are not paced.
    one(False)
    if trace:
        one(True)
    else:
        pace.reference_seconds()
        ref = pace.reference_seconds()
    start = time.perf_counter()
    while True:
        for traced_job in ((False, True) if trace else (False,)):
            elapsed, problems = one(traced_job)
            if traced_job:
                traced.append(elapsed)
                layer_runs.append(tracer.metrics(ctx))
                span_tables.append(tracer.span_table())
            else:
                untraced.append(elapsed)
                if not trace:
                    after = pace.reference_seconds()
                    paced.append((elapsed, ref, after))
                    if not problems:
                        passed.append(paced[-1])
                    ref = after
        if time.perf_counter() - start >= seconds:
            break

    # A job that failed says nothing about speed; it counts in `failed`.
    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "jobs": len(untraced),
              "job_wall_s": statistics.median(untraced),
              "job_times": untraced,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if not trace:
        result["job_s"] = pace.scaled(passed or paced)
        result["reference_s"] = statistics.median(
            [paced[0][1]] + [after for _, _, after in paced])
    else:
        result.update(_layer_result(traced, untraced, layer_runs, span_tables))
        if result["nondeterministic"]:
            result["failed"] = max(result["failed"], 1)
            result["failures"].append(
                "counts differ between traced jobs: "
                + ", ".join(result["nondeterministic"]))
    return result


def _layer_result(traced, untraced, layer_runs, span_tables):
    """Medians of per-layer times over traced jobs; counts of the first
    traced job, with the names of counts that differed between jobs."""
    metrics, nondeterministic = {}, []
    for name, unit, _how in spans.PER_LAYER:
        values = [run[name] for run in layer_runs]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                nondeterministic.append(name)
    metrics["trace.job_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(untraced))
    table = {name: [statistics.median(t[name][i] for t in span_tables
                                      if name in t) for i in range(3)]
             for name in span_tables[0]}
    return {"layers": metrics, "spans": table,
            "nondeterministic": nondeterministic}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    for mode in ("prepare", "measure"):
        sub = modes.add_parser(mode)
        sub.add_argument("--workload", required=True,
                         choices=sorted(workloads.WORKLOADS))
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--work", required=True)
        if mode == "measure":
            sub.add_argument("--seconds", type=float, required=True)
            sub.add_argument("--trace", type=int, choices=(0, 1),
                             required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    facts_path = os.path.join(args.work, "facts.json")
    if args.mode == "prepare":
        facts = workload.prepare(args.work, args.seed)
        with open(facts_path, "w", encoding="utf-8") as fh:
            json.dump(facts, fh)
        return 0
    with open(facts_path, "r", encoding="utf-8") as fh:
        ctx = workloads.Context(args.work, args.seed, json.load(fh))
    result = measure(workload, ctx, args.seconds, args.trace)
    result["env"] = _environment(args.seed)
    with open(os.path.join(args.work, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
