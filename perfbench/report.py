"""Run every workload once and print its metrics as a table.

    python3 perfbench/report.py [--trace]

Runs `run.py` at seed SEED for `run_seconds` of BENCHMARK.json on each of the
four workloads in turn (the three that BENCHMARK.json gates and
`run_async`), one at a time so that no two measurements share the machine,
and prints job_s, setup_s, peak_rss_mb and error_rate with their units, plus
each workload's check result.  With --trace it also runs the traced pass and
prints the per-layer metrics, tracing overhead included, one column per
workload.
"""

import argparse
import json
import os
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS

SEED = 1


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def _value(metric):
    value = metric["value"]
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    ok = True
    print(f"seed {SEED}, {seconds} s per run")
    print(f"{'workload':<16}" + "".join(
        f"{m['name'] + ' (' + m['unit'] + ')':>18}" for m in spec["end_to_end"])
        + f"{'error_rate (ratio)':>20}  checks")
    layers = {}
    for name in WORKLOADS:
        result, notes = run_once(name, SEED, seconds, False)
        if result is None:
            ok = False
            print(f"{name:<16} run failed: " + " | ".join(notes[-3:]))
            continue
        ok = ok and result["correct"]
        rate = result["failed"] / result["attempted"]
        print(f"{name:<16}" + "".join(
            f"{_value(result['metrics'][m['name']]):>18}"
            for m in spec["end_to_end"])
            + f"{rate:>20.4g}  {'ok' if result['correct'] else 'FAILED'}")
        for line in notes:
            if line.startswith("#   "):
                print("    " + line[4:])
        if args.trace:
            traced, notes = run_once(name, SEED, seconds, True)
            ok = ok and traced is not None and traced["correct"]
            layers[name] = traced["metrics"] if traced else {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print()
        print(f"{'per-layer metric':<40}"
              + "".join(f"{n:>16}" for n in WORKLOADS))
        for metric, unit in units.items():
            cells = [_value(layers[n][metric]) if metric in layers[n]
                     else "-" for n in WORKLOADS]
            print(f"{metric + ' (' + unit + ')':<40}"
                  + "".join(f"{c:>16}" for c in cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
