"""Timing wrappers for the traced run.

The traced run measures per-layer cost from outside the program: it
replaces a fixed list of synchronous layer functions with wrappers that
count calls and accumulate *self time* (a span's duration minus the
time its traced children took), then puts the originals back.  Nothing
under ``src/`` knows it is being traced.

Only synchronous functions get a span.  A coroutine's wall span covers
whatever the event loop ran while it was suspended, including other
clients' work, so async entry points are measured through the counters
the layers already keep (transport calls, coordinator retries, ...).

The span stack is one list shared by every wrapper.  That is sound
because the traced functions run on the event-loop thread and never
suspend: a span always closes before another one opens at its level.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

#: Marker attribute set on every wrapper, so a leftover one is detectable.
WRAPPER_MARK = "__perfbench_probe__"


class Probe:
    """Calls and self time accumulated by one wrapped function."""

    __slots__ = ("name", "calls", "self_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.self_ns = 0

    def ns_per_call(self) -> float:
        return self.self_ns / self.calls if self.calls else 0.0


def targets() -> List[Tuple[str, Any, str]]:
    """``(probe name, owner, attribute)`` for every traced function.

    The owner is the module or class the callers look the function up
    on at call time, so replacing the attribute reaches every call site.
    """
    from repro.core.strategy import Strategy
    from repro.service import metrics, replica, transport, wire

    return [
        ("strategy.sample", Strategy, "sample_index"),
        ("wire.encode_request", wire, "encode_request"),
        ("wire.decode_request", wire, "decode_request"),
        ("wire.encode_response", wire, "encode_response"),
        ("wire.decode_response", wire, "decode_response"),
        ("wire.pack_frames", wire, "pack_frames"),
        ("wire.feed", wire.FrameDecoder, "feed"),
        ("replica.handle", replica.Replica, "handle"),
        ("metrics.record_op", metrics.ServiceMetrics, "record_op"),
        # Client side of the binary transport: the synchronous submit
        # fast path and the reply callback.
        ("transport.client.submit", transport.BinaryTcpTransport, "submit"),
        ("transport.client.data_received", transport._BinChannel, "data_received"),
        # Server side: the replica connection's request callback.
        ("transport.server.data_received", transport._ReplicaProtocol, "data_received"),
    ]


def _current(owner: Any, attr: str) -> Any:
    # Class attributes are read from the class dict so the raw function,
    # not a bound or inherited one, is what gets saved and compared.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def leftover_wrappers() -> List[str]:
    """Names of traced functions that are currently wrapped."""
    return [
        name
        for name, owner, attr in targets()
        if hasattr(_current(owner, attr), WRAPPER_MARK)
    ]


class Tracer:
    """Installs the wrappers, collects their probes, removes them."""

    def __init__(self) -> None:
        self.probes: Dict[str, Probe] = {}
        self._saved: List[Tuple[Any, str, Any]] = []
        # Child-time accumulators of the open spans; slot 0 collects the
        # duration of every top-level span.
        self._stack: List[int] = [0]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        leftovers = leftover_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers left from an earlier trace: {leftovers}")
        for name, owner, attr in targets():
            original = _current(owner, attr)
            probe = self.probes.setdefault(name, Probe(name))
            setattr(owner, attr, self._wrap(original, probe))
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every original and verify nothing is left wrapped."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if _current(owner, attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")
        leftovers = leftover_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers still installed: {leftovers}")

    def _wrap(self, original: Callable[..., Any], probe: Probe) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                probe.calls += 1
                probe.self_ns += elapsed - children

        setattr(wrapper, WRAPPER_MARK, probe.name)
        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def self_ns(self, *prefixes: str) -> int:
        """Summed self time of the probes whose name starts with a prefix."""
        return sum(
            probe.self_ns
            for name, probe in self.probes.items()
            if name.startswith(prefixes)
        )

    def total_self_ns(self) -> int:
        return sum(probe.self_ns for probe in self.probes.values())
