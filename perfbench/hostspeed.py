"""Host speed reference for the wall-clock metrics.

On a shared virtual machine the speed of the host drifts by more than
the regression bounds within minutes: over 150 s of one run, the
wall-clock throughput of the TCP workload ranged over 1.7x while the
program did the same work.  Every wall-clock figure the benchmark
reports is therefore scaled to a nominal host: the benchmark times a
fixed pure-Python workload (dicts, sorting, JSON; code of the benchmark,
not of the program) during or right after each slice or round it
measures, and scales the window's median figures by ``median reference
time / NOMINAL_S``.  A change
to the program moves the scaled figure exactly as much as the raw one,
because the reference does not run program code.  The raw figures and
the reference times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import json
import time

#: Reference time of the nominal host (seconds); about this host's median.
NOMINAL_S = 0.020


def reference_s() -> float:
    """Wall time of one pass of the fixed reference workload.

    The collector is off while it runs, so the time does not depend on
    how many objects the program under test keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for index in range(20000):
            key = f"k{index % 997}"
            table[key] = {"op": "write", "key": key, "value": index, "counter": index, "writer": index % 8}
        rows = sorted(table.values(), key=lambda row: (row["counter"], row["writer"]))
        json.loads(json.dumps(rows))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def scale(reference: float) -> float:
    """Factor that turns a rate measured next to ``reference`` into a
    nominal-host rate (divide durations by it)."""
    return reference / NOMINAL_S
