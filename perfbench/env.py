"""Environment fingerprint printed with every benchmark result.

A number is only comparable with another measured on the same
interpreter, core count, optional accelerators and commit, and a noisy
run is explained by the share of CPU time the hypervisor stole while it
ran.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional, Tuple


def read_cpu_ticks() -> Optional[Tuple[int, int]]:
    """``(steal ticks, total ticks)`` of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(value) for value in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user, so it is left out of the total.
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def steal_share(start: Optional[Tuple[int, int]], end: Optional[Tuple[int, int]]) -> Optional[float]:
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, cpu_steal_share: Optional[float]) -> Dict[str, Any]:
    from repro.runtime.clock import accelerators

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "accelerators": accelerators(),
        "git_sha": git_sha(root),
        "cpu_steal_share": cpu_steal_share,
    }
