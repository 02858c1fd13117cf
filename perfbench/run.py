"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tcp-read90 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a traced window and an untraced one and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  Any failed correctness check is
reported on standard error and makes the exit code 1.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tcp-read90", "inproc-write50", "sim-faults-open")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_units(trace: bool):
    """``{metric name: unit}`` that this run must print, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def pin_to_one_cpu():
    """Keep the one benchmark thread on one CPU for the whole run.

    Load generator and system under test share one thread and one event
    loop.  Left free, the scheduler moves that thread between the CPUs
    of a small VM mid-run; on a two-vCPU VM that cost up to a third of
    the TCP throughput and doubled its p99.  The highest-numbered CPU is
    taken because CPU 0 usually serves most interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import env
    import workloads

    import_s = time.perf_counter() - _STARTED
    ticks = env.read_cpu_ticks()
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    steal = env.steal_share(ticks, env.read_cpu_ticks())

    printed = set(outcome.metrics)
    if printed != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(printed ^ set(units))} differ from BENCHMARK.json"
        )
    print(f"workload    : {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in outcome.report:
        print(line)
    for name, value in outcome.metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print("fingerprint : " + json.dumps(env.fingerprint(ROOT, steal), sort_keys=True))
    for problem in outcome.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if outcome.problems else 0


if __name__ == "__main__":
    sys.exit(main())
