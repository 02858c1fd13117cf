"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Runs the benchmark once per seed on each workload, one run at a time,
and prints for every end-to-end metric the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, next to the metric's bound and its third::

    python3 perfbench/spread.py --workloads tcp-read90 --seeds 1-5

A spread above a third of the bound means the benchmark is not steady
enough yet (``setup_s`` is exempt from the spread rule).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    worst = 0.0
    for workload in args.workloads:
        values = {metric["name"]: [] for metric in spec["end_to_end"]}
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
        print(f"{workload} over seeds {args.seeds[0]}..{args.seeds[-1]}, {args.seconds} s runs")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median if median else float("inf")
            third = metric["bound"] / 3
            if metric["name"] != "setup_s":
                worst = max(worst, share / third)
            flag = "" if share < third or metric["name"] == "setup_s" else "  <-- above bound/3"
            print(
                f"  {metric['name']:<18} median {median:>12.6g} {metric['unit']:<6}"
                f" spread {share:7.4f}  bound {metric['bound']:.2f} (third {third:.4f}){flag}"
            )
    print(f"largest spread as a share of bound/3: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
