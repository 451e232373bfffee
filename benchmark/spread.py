#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the acceptance check
takes it: each workload is run once per seed through the command of
BENCHMARK.json, and for each metric the distance between the first and
the third quartile of the values (statistics.quantiles, n=4) is given as
a share of their median, next to the metric's bound.

    python3 benchmark/spread.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]

Exits non-zero when a run fails or a spread (setup_s excepted, as in the
check) exceeds its bound. Run it on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    listed = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in listed}

    over = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(first, last + 1):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            started = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - started
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exit code {done.returncode}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} seed {seed}: {took:.1f} s, {result['attempted']} operations",
                  flush=True)
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / abs(median) if median else 0.0
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                over += 1
            elif bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  over a third of the bound"
            shown = "-" if bound is None else bound
            print(f"{workload} {name} median {median:.6g} spread {spread:.4f} bound {shown}{flag}",
                  flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
