"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload (the three BENCHMARK.json gates and `run_async`):

* two traced runs at seed SEED report identical deterministic counts
  (every per-layer metric that is not a time: FFT calls and points, the
  circulant size, least-squares solves and evaluations, rows read, rejected
  and kept, singular theory points, ...);
* both runs check out with no failed job (error_rate 0), which includes
  that every traced job opens the spans its workload lists;
* the per-layer metrics are exactly those BENCHMARK.json names.

It then checks one untraced run's end-to-end metric names, and that run.py
exits non-zero without printing a result in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
Each run is short (one timed job), so the whole test takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

from report import ROOT, WORKLOADS, run_once

SEED = 7


def _bare_checkout_fails(spec):
    """run.py in a tree without the package must fail fast and print no
    result line."""
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1",
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and not proc.stdout.strip()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        before = len(problems)
        runs = []
        for _ in range(2):
            result, notes = run_once(workload, SEED, 1, True)
            if result is None:
                problems.append(f"{workload}: traced run failed: "
                                + " | ".join(notes[-3:]))
                break
            runs.append(result)
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of "
                                f"{result['attempted']} jobs failed")
            if set(result["metrics"]) != set(per_layer):
                problems.append(f"{workload}: per-layer metrics differ "
                                f"from BENCHMARK.json")
        if len(runs) == 2:
            counts = [name for name, unit in per_layer.items() if unit != "s"]
            moved = [name for name in counts
                     if runs[0]["metrics"][name] != runs[1]["metrics"][name]]
            if moved:
                problems.append(f"{workload}: counts differ between two "
                                f"runs at seed {SEED}: {moved}")
        print(f"{workload}: {'ok' if len(problems) == before else 'FAILED'}",
              flush=True)
    workload = spec["workloads"][0]["name"]
    result, notes = run_once(workload, SEED, 1, False)
    if result is None or set(result["metrics"]) != {
            m["name"] for m in spec["end_to_end"]}:
        problems.append(f"{workload}: untraced run lacks the end-to-end "
                        f"metrics of BENCHMARK.json")
    if not _bare_checkout_fails(spec):
        problems.append("run.py did not fail cleanly without the package")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
