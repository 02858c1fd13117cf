"""The benchmark's three workloads and the load loops they share.

Every workload drives the serving stack only through its public entry
points (``Coordinator``, ``make_replicas``, the transports,
``start_tcp_replicas``, ``VirtualClock``/``run_virtual``, the LPs) and
receives its inputs — the operation schedule and the arrival times —
generated here from ``--seed``.  Load comes from one process, one
thread and one event loop; closed loops run ``CLIENTS`` coroutines.

* ``tcp-read90`` — h-triangle(15) over binary wire v2 on localhost,
  replicas served on the same loop.  Throughput is the median over
  wall-clock slices; the reported latencies come from an in-process
  twin of the workload, because wall-clock percentiles on a shared host
  do not repeat within any allowed bound (they are printed).
* ``inproc-write50`` — h-grid(4x4), half writes, on the in-process
  transport.  Latency is accounted virtual time.  The window repeats one
  seeded round on fresh replicas, so every round is bit-identical.
* ``sim-faults-open`` — h-T-grid(4x4) with the split read/write LP on
  the virtual-time transport: 2 ms FIFO replicas, iid crash epochs and
  Poisson arrivals at a fixed base rate.  Rounds repeat exactly too.

``max_rate_ops_s`` comes from an open-loop ladder under virtual time on
the workload's own system, strategy and operation mix, over 2 ms FIFO
replicas (with the workload's crash rate), so it is exact per seed.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.analysis.capacity import read_write_capacity
from repro.analysis.load import optimal_strategy
from repro.core.quorum_system import QuorumSystem
from repro.runtime.clock import VirtualClock, run_virtual
from repro.runtime.rng import RngStreams
from repro.scenarios.scorecard import digest
from repro.service import (
    DEFAULT_TIMEOUT_MS,
    BinaryTcpTransport,
    Coordinator,
    InProcessTransport,
    OperationFailed,
    ServiceMetrics,
    SimTransport,
    WorkloadConfig,
    build_schedule,
    make_replicas,
    start_tcp_replicas,
)
from repro.systems import HierarchicalGrid, HierarchicalTGrid, HierarchicalTriangle

import hostspeed
from tracing import Tracer, leftover_wrappers

#: Concurrent closed-loop clients (coroutines on the one event loop).
CLIENTS = 8
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Wall-clock slice of the TCP window; throughput is the median over
#: slices, with a host reference timed after each.
SLICE_S = 0.5
#: Ops of the in-process twin of the TCP workload that its reported
#: latencies come from.
TWIN_OPS = 4000
#: Consecutive TCP ops per latency sample; percentiles are the median
#: over samples.  1000 is the smallest sample whose p99 has ten ops
#: beyond it.  Short samples keep a host stall (about one a second here,
#: delaying the eight ops in flight) out of most of them, so the median
#: does not flip with the host's stall rate.
LATENCY_CHUNK = 1000
#: Key popularity ~ 1/rank^SKEW (zipf).
SKEW = 0.8
#: Length of the cycled TCP schedule (the window wraps around it).
TCP_SCHEDULE_OPS = 1 << 17
#: TCP request deadline.  On localhost a timeout is a stall of the host,
#: not a fault; a long deadline keeps stalls from turning into retries.
TCP_TIMEOUT_MS = 1000.0

#: FIFO service time of a modelled replica: 500 requests/s each.
REPLICA_SERVICE_MS = 2.0
#: Request deadline under virtual time.
SIM_TIMEOUT_MS = 100.0
#: Operations per iid crash epoch.
OPS_PER_EPOCH = 50
#: p99 latency limit of the capacity ladder.  A crashed quorum member
#: costs one full 100 ms timeout plus backoff and a retry (about 130 ms
#: at p99 with 1% crashes); 250 ms leaves room for that and for a second
#: fallback, but not for queues that grow with the offered rate.
LATENCY_LIMIT_MS = 250.0
#: Offered rates of the ladder (ops/s), lowest first.  Every workload
#: meets the limit at 800 ops/s; the LP predicts about 1900 ops/s for the
#: fault workload, and the top rung sits above it.
LADDER_OPS_S = tuple(range(800, 2401, 200))
#: Virtual length of one rung.  With 3 s rungs the crash draws of one
#: seed in three moved the fault workload's answer by a rung; with 5 s,
#: one in ten.
RUNG_MS = 5000.0
#: Arrivals between two host references inside an open-loop round.
REFERENCE_EVERY = 250
#: What the benchmark imports from the program, timed in a fresh
#: interpreter as the first part of every set-up.
IMPORTS = (
    "import numpy, repro.analysis.capacity, repro.analysis.load, repro.runtime.clock,"
    " repro.scenarios.scorecard, repro.service, repro.systems"
)


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape."""

    name: str
    build: Callable[[], QuorumSystem]
    read_fraction: float
    keys: int
    split_lp: bool
    fault_free: bool
    crash_rate: float = 0.0
    round_ops: int = 0  # ops per repeated round (0: one continuous window)
    base_rate: float = 0.0  # open-loop arrivals per second (0: closed loop)


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "tcp-read90",
            lambda: HierarchicalTriangle.of_size(15),
            read_fraction=0.9,
            keys=1024,
            split_lp=False,
            fault_free=True,
        ),
        Spec(
            "inproc-write50",
            lambda: HierarchicalGrid.halving(4, 4),
            read_fraction=0.5,
            keys=64,
            split_lp=False,
            fault_free=True,
            round_ops=4000,
        ),
        Spec(
            "sim-faults-open",
            lambda: HierarchicalTGrid.halving(4, 4),
            read_fraction=0.9,
            keys=64,
            split_lp=True,
            fault_free=False,
            crash_rate=0.01,
            round_ops=6000,
            base_rate=600.0,
        ),
    )
}


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile; ``inf`` (a failed op) sorts last."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def misses_allowed(count: int) -> int:
    """Ops that may exceed the limit while the p99 still meets it."""
    return count - -(-99 * count // 100)


def key_name(index: int) -> str:
    return f"k{index:04d}"  # the key format of build_schedule


def solve(spec: Spec, system: QuorumSystem):
    if spec.split_lp:
        return read_write_capacity(system, read_fraction=spec.read_fraction).strategy
    return optimal_strategy(system)


def schedule_for(spec: Spec, streams: RngStreams, name: str, ops: int) -> List[Tuple[str, str]]:
    config = WorkloadConfig(
        ops=ops, read_fraction=spec.read_fraction, keys=spec.keys, skew=SKEW
    )
    return build_schedule(streams.stream(name), config)


class Ledger:
    """The values of every key that a read may still return.

    Values are unique, so a read result names the write it came from.
    A read may return the newest acknowledged write of its key or any
    write that is unacknowledged, in flight or failed (a failed write may
    still have reached some replicas), never an older one.  Acknowledged
    values below the newest are dropped as soon as they are superseded,
    so the ledger stays as small as the key space.
    """

    def __init__(self) -> None:
        # key -> {value: (counter, writer) once acknowledged, else None}
        self.live: Dict[str, Dict[str, Optional[Tuple[int, int]]]] = {}

    def issue(self, key: str, value: str) -> None:
        self.live.setdefault(key, {})[value] = None

    def ack(self, key: str, value: str, counter: int, writer: int) -> None:
        versions = self.live[key]
        stamp = (counter, writer)
        newest = self._newest(versions)
        if newest is not None and stamp < newest:
            del versions[value]  # acknowledged, but already superseded
            return
        if newest is not None:
            del versions[next(v for v, s in versions.items() if s == newest)]
        versions[value] = stamp

    def check(self, key: str, value: Any, counter: int, writer: int) -> Optional[str]:
        versions = self.live.get(key, {})
        if value not in versions:
            return f"{key}: read {value!r} at {(counter, writer)}, not the newest acknowledged write nor a pending one"
        stamp, read = versions[value], (counter, writer)
        if stamp is not None and stamp != read:
            return f"{key}: {value!r} read at {read}, acknowledged at {stamp}"
        newest = self._newest(versions)
        if newest is not None and read < newest:
            return f"{key}: {value!r} read at {read}, older than the acknowledged {newest}"
        return None

    @staticmethod
    def _newest(versions: Dict[str, Optional[Tuple[int, int]]]) -> Optional[Tuple[int, int]]:
        return max((s for s in versions.values() if s is not None), default=None)


async def run_op(coordinator: Coordinator, kind: str, key: str, index: int, ledger: Ledger):
    if kind == "read":
        return await coordinator.read(key)
    value = f"v{index}"
    ledger.issue(key, value)
    result = await coordinator.write(key, value)
    ledger.ack(key, value, result.counter, result.writer)
    return result


async def preload(coordinator: Coordinator, keys: int, ledger: Ledger) -> None:
    for index in range(keys):
        key, value = key_name(index), f"p{index}"
        ledger.issue(key, value)
        result = await coordinator.write(key, value)
        ledger.ack(key, value, result.counter, result.writer)


async def readback(coordinator: Coordinator, keys: int, ledger: Ledger) -> List[str]:
    problems = []
    for index in range(keys):
        key = key_name(index)
        result = await coordinator.read(key)
        problem = ledger.check(key, result.value, result.counter, result.writer)
        if problem is not None:
            problems.append(problem)
    return problems


def coordinator(system, transport, strategy, streams, name, ident, timeout, metrics=None):
    return Coordinator(
        system,
        transport,
        strategy,
        coordinator_id=ident,
        seed=streams.seed_for(name),
        timeout=timeout,
        metrics=metrics if metrics is not None else ServiceMetrics(system.n),
    )


class Counts:
    """Layer counters of one op phase: after minus before."""

    FIELDS = (
        "calls",
        "write_deliveries",
        "writes_ignored",
        "frames",
        "coalesced",
        "bytes",
    )

    def __init__(self, transport: Any, replicas: Sequence[Any]) -> None:
        self.values = {
            "calls": int(transport.calls),
            "write_deliveries": sum(r.writes_applied + r.writes_ignored for r in replicas),
            "writes_ignored": sum(r.writes_ignored for r in replicas),
            "frames": getattr(transport, "frames_sent", 0),
            "coalesced": getattr(transport, "coalesced_ops", 0),
            "bytes": getattr(transport, "bytes_sent", 0) + getattr(transport, "bytes_received", 0),
        }

    def since(self, before: "Counts") -> Dict[str, int]:
        return {name: self.values[name] - before.values[name] for name in self.FIELDS}


class Meter:
    """Wall and CPU time of op phases, with the tracer on during them."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        if tracer is None and leftover_wrappers():
            raise CheckFailed(f"untraced window with wrappers installed: {leftover_wrappers()}")
        self.tracer = tracer
        self.cpu_s = 0.0
        self._wall = self._cpu = 0.0
        self.references: List[float] = []

    def reference(self) -> None:
        """Time the host reference inside a phase, off the phase's clocks."""
        wall, cpu = time.perf_counter(), time.process_time()
        self.references.append(hostspeed.reference_s())
        self._wall += time.perf_counter() - wall
        self._cpu += time.process_time() - cpu

    def take_references(self) -> List[float]:
        taken, self.references = self.references, []
        return taken

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.install()
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def stop(self) -> float:
        wall = time.perf_counter() - self._wall
        self.cpu_s += time.process_time() - self._cpu
        if self.tracer is not None:
            self.tracer.remove()
        return wall


@dataclass
class Window:
    """What one timed window measured.

    ``rates`` holds the ops per wall second of every slice or round, and
    ``p50s``/``p99s`` the wall-clock percentiles of every TCP latency
    sample, or the virtual-time ones of the first round.  Throughput is
    the median rate scaled to the nominal host by the median of the host
    references timed during the window (see :mod:`hostspeed`); one
    reference sample is too noisy to scale one slice by.
    """

    ops: int = 0
    failed: int = 0
    reads: int = 0
    retries: int = 0
    repairs: int = 0
    timeouts: int = 0
    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(Counts.FIELDS, 0))
    rates: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    p50s: List[float] = field(default_factory=list)
    p99s: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    cpu_s: float = 0.0

    def add(self, metrics: ServiceMetrics, counts: Dict[str, int]) -> None:
        self.ops += metrics.ops_attempted
        self.failed += metrics.ops_failed
        self.reads += metrics.ops_by_kind.get("read", 0)
        self.retries += metrics.retries
        self.repairs += metrics.read_repairs
        self.timeouts += metrics.timeouts + metrics.unavailable
        for name, value in counts.items():
            self.counts[name] += value

    def add_slice(self, ops: int, wall: float, meter: Meter) -> None:
        """Record one slice or round with the host references taken
        during it, or with one timed right after it."""
        self.references.extend(meter.take_references() or [hostspeed.reference_s()])
        self.rates.append(ops / wall)

    @property
    def factor(self) -> float:
        """Multiply a rate, divide a duration, to scale it to the nominal host."""
        return hostspeed.scale(statistics.median(self.references))

    @property
    def throughput(self) -> float:
        return statistics.median(self.rates) * self.factor


@dataclass
class SetupTimes:
    lp_s: float
    start_s: float
    preload_s: float
    total_s: float
    import_s: float = 0.0
    reference: float = 0.0  # host reference timed right after this set-up

    def add_imports(self, seconds: float) -> None:
        self.import_s = seconds
        self.total_s += seconds
        self.reference = hostspeed.reference_s()


def import_seconds() -> float:
    """Interpreter start-up plus :data:`IMPORTS` in a fresh process."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORTS],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Closed loop over TCP: one cluster, a wall-clock window cut in slices
# ----------------------------------------------------------------------
class TcpCluster:
    """h-triangle replicas served on this loop, dialled over wire v2."""

    def __init__(self, spec: Spec, streams: RngStreams) -> None:
        self.spec = spec
        self.streams = streams
        self.next_index = itertools.count()

    async def start(self) -> SetupTimes:
        started = time.perf_counter()
        self.system = self.spec.build()
        solved = time.perf_counter()
        self.strategy = solve(self.spec, self.system)
        lp_done = time.perf_counter()
        self.replicas = make_replicas(self.system)
        self.servers, addresses = await start_tcp_replicas(self.replicas, base_port=0)
        self.transport = BinaryTcpTransport(addresses)
        await asyncio.gather(
            *(self.transport.call(rid, {"op": "ping"}, TCP_TIMEOUT_MS) for rid in addresses)
        )
        dialled = time.perf_counter()
        self.ledger = Ledger()
        await preload(self._coordinator("preload", CLIENTS), self.spec.keys, self.ledger)
        preloaded = time.perf_counter()
        self.clients = [self._coordinator(f"client.{c}", c) for c in range(CLIENTS)]
        return SetupTimes(
            lp_s=lp_done - solved,
            start_s=dialled - lp_done,
            preload_s=preloaded - dialled,
            total_s=preloaded - started,
        )

    def _coordinator(self, name: str, ident: int) -> Coordinator:
        return coordinator(
            self.system, self.transport, self.strategy, self.streams, name, ident, TCP_TIMEOUT_MS
        )

    async def stop(self) -> None:
        await self.transport.close()
        for server in self.servers:
            server.close()
            await server.wait_closed()

    async def window(self, schedule: Sequence[Tuple[str, str]], seconds: float, meter: Meter) -> Window:
        metrics = ServiceMetrics(self.system.n)
        for client in self.clients:
            client.metrics = metrics
        window = Window()
        before = Counts(self.transport, self.replicas)
        latencies: List[float] = []  # in completion order
        for _ in range(max(1, round(seconds / SLICE_S))):
            done = len(latencies)
            meter.start()
            until = time.perf_counter() + SLICE_S

            async def client_loop(client: Coordinator) -> None:
                while True:
                    started = time.perf_counter()
                    if started >= until:
                        return
                    index = next(self.next_index)
                    kind, key = schedule[index % len(schedule)]
                    try:
                        await run_op(client, kind, key, index, self.ledger)
                    except OperationFailed:
                        pass  # counted by the coordinator's metrics
                    latencies.append((time.perf_counter() - started) * 1000.0)

            await asyncio.gather(*(client_loop(client) for client in self.clients))
            window.add_slice(len(latencies) - done, meter.stop(), meter)
        for start in range(0, len(latencies) - LATENCY_CHUNK + 1, LATENCY_CHUNK):
            sample = latencies[start : start + LATENCY_CHUNK]
            window.p50s.append(percentile(sample, 50))
            window.p99s.append(percentile(sample, 99))
        window.cpu_s = meter.cpu_s
        window.add(metrics, Counts(self.transport, self.replicas).since(before))
        reader = self._coordinator("readback", CLIENTS + 1)
        window.problems = await readback(reader, self.spec.keys, self.ledger)
        return window


def run_tcp(spec: Spec, seed: int, windows: Sequence[Tuple[float, Optional[Tracer]]]):
    streams = RngStreams(seed)
    schedule = schedule_for(spec, streams, "schedule", TCP_SCHEDULE_OPS)

    async def main():
        setups = []
        cluster = None
        for _ in range(SETUP_REPEATS):
            if cluster is not None:
                await cluster.stop()
            cluster = TcpCluster(spec, streams)
            imported = import_seconds()
            setups.append(await cluster.start())
            setups[-1].add_imports(imported)
        try:
            results = []
            for seconds, tracer in windows:
                results.append(await cluster.window(schedule, seconds, Meter(tracer)))
            return setups, results
        finally:
            await cluster.stop()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Repeated rounds: in-process closed loop and virtual-time open loop
# ----------------------------------------------------------------------
class RoundWorld:
    """System and strategy shared by the rounds; replicas are fresh each."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed

    def build(self) -> float:
        """Build the system and solve its LP; returns the LP's seconds."""
        self.system = self.spec.build()
        solved = time.perf_counter()
        self.strategy = solve(self.spec, self.system)
        return time.perf_counter() - solved

    def setup(self) -> SetupTimes:
        started = time.perf_counter()
        lp_s = self.build()
        streams = RngStreams(self.seed)
        if self.spec.base_rate:
            clock = VirtualClock()
            start_s, preload_s = run_virtual(self._bring_up(streams, clock), clock=clock)
        else:
            start_s, preload_s = asyncio.run(self._bring_up(streams, None))
        return SetupTimes(lp_s, start_s, preload_s, time.perf_counter() - started)

    async def _bring_up(self, streams, clock) -> Tuple[float, float]:
        started = time.perf_counter()
        transport, _ = self.transport(streams, "setup", clock, self.spec.crash_rate)
        dialled = time.perf_counter()
        await preload(self.coordinator(transport, streams, "setup.preload", CLIENTS), self.spec.keys, Ledger())
        return dialled - started, time.perf_counter() - dialled

    def transport(self, streams, prefix, clock, crash_rate):
        replicas = make_replicas(self.system)
        seed = streams.seed_for(f"{prefix}.transport")
        if clock is None:
            return InProcessTransport(replicas, seed=seed), replicas
        transport = SimTransport(
            replicas,
            clock=clock,
            seed=seed,
            service_time_ms=REPLICA_SERVICE_MS,
            crash_rate=crash_rate,
        )
        return transport, replicas

    def coordinator(self, transport, streams, name, ident, metrics=None):
        timeout = SIM_TIMEOUT_MS if isinstance(transport, SimTransport) else DEFAULT_TIMEOUT_MS
        return coordinator(self.system, transport, self.strategy, streams, name, ident, timeout, metrics)

    # -- one closed-loop round on the in-process transport ------------
    def closed_round(self, schedule, meter: Meter) -> Tuple[ServiceMetrics, Dict[str, int], float, List[float], List[str]]:
        streams = RngStreams(self.seed)

        async def main():
            transport, replicas = self.transport(streams, "round", None, 0.0)
            ledger = Ledger()
            await preload(self.coordinator(transport, streams, "round.preload", CLIENTS), self.spec.keys, ledger)
            metrics = ServiceMetrics(self.system.n)
            clients = [
                self.coordinator(transport, streams, f"round.client.{c}", c, metrics)
                for c in range(CLIENTS)
            ]
            latencies: List[float] = []
            next_index = itertools.count()

            async def client_loop(client: Coordinator) -> None:
                while True:
                    index = next(next_index)
                    if index >= len(schedule):
                        return
                    kind, key = schedule[index]
                    try:
                        result = await run_op(client, kind, key, index, ledger)
                    except OperationFailed as exc:
                        latencies.append(exc.latency)
                    else:
                        latencies.append(result.latency)

            before = Counts(transport, replicas)
            meter.start()
            await asyncio.gather(*(client_loop(client) for client in clients))
            wall = meter.stop()
            counts = Counts(transport, replicas).since(before)
            reader = self.coordinator(transport, streams, "round.readback", CLIENTS + 1)
            problems = await readback(reader, self.spec.keys, ledger)
            return metrics, counts, wall, latencies, problems

        return asyncio.run(main())

    # -- one open-loop round on the virtual-time transport ------------
    def open_round(
        self,
        schedule,
        rate: float,
        meter: Optional[Meter],
        *,
        prefix: str = "round",
        crash_rate: float,
        max_in_flight: Optional[float] = None,
        check: bool = True,
    ):
        """One seeded round of Poisson arrivals under virtual time.

        With ``max_in_flight`` set (a ladder rung) the round stops early
        once it has failed: more misses than its p99 allows, or more ops
        in flight than that bound.
        """
        streams = RngStreams(self.seed)
        clock = VirtualClock()

        async def main():
            transport, replicas = self.transport(streams, prefix, clock, crash_rate)
            ledger = Ledger()
            await preload(self.coordinator(transport, streams, f"{prefix}.preload", CLIENTS), self.spec.keys, ledger)
            metrics = ServiceMetrics(self.system.n)
            clients = [
                self.coordinator(transport, streams, f"{prefix}.client.{c}", c, metrics)
                for c in range(CLIENTS)
            ]
            gaps = streams.stream(f"{prefix}.arrivals").exponential(1000.0 / rate, len(schedule))
            origin = clock.now()
            due_times = origin + np.cumsum(gaps)
            latencies: List[float] = []
            misses = in_flight = peak_in_flight = 0
            pending: List[asyncio.Task] = []

            async def one(client: Coordinator, index: int, due: float) -> None:
                nonlocal misses, in_flight
                kind, key = schedule[index]
                try:
                    await run_op(client, kind, key, index, ledger)
                    latency = clock.now() - due
                except OperationFailed:
                    latency = math.inf
                finally:
                    in_flight -= 1
                latencies.append(latency)
                if latency > LATENCY_LIMIT_MS:
                    misses += 1

            before = Counts(transport, replicas)
            if meter is not None:
                meter.start()
            aborted = False
            for index, due in enumerate(due_times.tolist()):
                if max_in_flight is not None and (
                    misses > misses_allowed(len(schedule)) or in_flight > max_in_flight
                ):
                    aborted = True
                    break
                delay = due - clock.now()
                if delay > 0:
                    await clock.sleep(delay)
                if crash_rate and index % OPS_PER_EPOCH == 0:
                    transport.resample_crashes()
                if meter is not None and index % REFERENCE_EVERY == REFERENCE_EVERY - 1:
                    meter.reference()
                in_flight += 1
                peak_in_flight = max(peak_in_flight, in_flight)
                pending.append(asyncio.ensure_future(one(clients[index % CLIENTS], index, due)))
            if aborted:
                for task in pending:
                    task.cancel()
            await asyncio.gather(*pending, return_exceptions=aborted)
            wall = meter.stop() if meter is not None else 0.0
            counts = Counts(transport, replicas).since(before)
            problems: List[str] = []
            if check and not aborted:
                transport.recover()
                reader = self.coordinator(transport, streams, f"{prefix}.readback", CLIENTS + 1)
                problems = await readback(reader, self.spec.keys, ledger)
            return metrics, counts, wall, latencies, problems, peak_in_flight, aborted

        return run_virtual(main(), clock=clock)

    def window(self, schedule, seconds: float, meter: Meter) -> Window:
        window = Window()
        spent = 0.0
        while spent < seconds or not window.rates:
            started = time.perf_counter()
            if self.spec.base_rate:
                metrics, counts, wall, latencies, problems, _, _ = self.open_round(
                    schedule, self.spec.base_rate, meter, crash_rate=self.spec.crash_rate
                )
            else:
                metrics, counts, wall, latencies, problems = self.closed_round(schedule, meter)
            window.add(metrics, counts)
            window.add_slice(metrics.ops_attempted, wall, meter)
            spent += time.perf_counter() - started
            window.digests.append(digest(metrics.to_dict()))
            window.problems.extend(problems)
            if not window.p50s:  # every round repeats the first, digest-checked
                window.p50s.append(percentile(latencies, 50))
                window.p99s.append(percentile(latencies, 99))
        window.cpu_s = meter.cpu_s
        return window

    def ladder(self) -> Tuple[float, List[str]]:
        """Highest rung whose p99 meets the limit, with no growing backlog.

        Failed ops count as misses.  A rung's backlog has grown when more
        ops are in flight at an arrival than the rate can finish within
        the limit (Little's law).  The ladder stops at the first failing
        rung, and a rung stops as soon as it has failed, so the collapse
        past capacity is never simulated in full.
        """
        best = 0.0
        rungs = []
        for rate in LADDER_OPS_S:
            count = int(rate * RUNG_MS / 1000.0)
            streams = RngStreams(self.seed)
            schedule = schedule_for(self.spec, streams, f"ladder.{rate}.schedule", count)
            backlog = rate * LATENCY_LIMIT_MS / 1000.0
            _, _, _, latencies, _, peak, aborted = self.open_round(
                schedule,
                rate,
                None,
                prefix=f"ladder.{rate}",
                crash_rate=self.spec.crash_rate,
                max_in_flight=backlog,
                check=False,
            )
            if aborted:
                rungs.append(f"{rate}:fail(peak_in_flight={peak})")
                break
            p99 = percentile(latencies, 99)
            if p99 > LATENCY_LIMIT_MS:
                rungs.append(f"{rate}:fail(p99={p99:.1f})")
                break
            rungs.append(f"{rate}:p99={p99:.1f}")
            best = float(rate)
        return best, rungs


def run_rounds(spec: Spec, seed: int, windows: Sequence[Tuple[float, Optional[Tracer]]]):
    world = RoundWorld(spec, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        setups.append(world.setup())
        setups[-1].add_imports(imported)
    schedule = schedule_for(spec, RngStreams(seed), "schedule", spec.round_ops)
    results = []
    for seconds, tracer in windows:
        results.append(world.window(schedule, seconds, Meter(tracer)))
    return world, setups, results


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    report: List[str]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(spec: Spec, windows: Sequence[Window]) -> List[str]:
    problems = [problem for window in windows for problem in window.problems]
    if spec.fault_free:
        failed = sum(window.failed for window in windows)
        if failed:
            problems.append(f"{failed} ops failed on a fault-free workload")
    digests = {d for window in windows for d in window.digests}
    if len(digests) > 1:
        problems.append(f"rounds of one seed disagree: {len(digests)} distinct digests")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> Outcome:
    spec = SPECS[name]
    tracer = Tracer() if trace else None
    # The traced run measures a traced half and then an untraced half;
    # the untraced half must see every wrapper gone.
    plan = [(seconds / 2, tracer), (seconds / 2, None)] if trace else [(seconds, None)]
    world = None
    if spec.round_ops:
        world, setups, windows = run_rounds(spec, seed, plan)
    else:
        setups, windows = run_tcp(spec, seed, plan)
    setup = SetupTimes(
        *(statistics.median(getattr(s, name) for s in setups)
          for name in ("lp_s", "start_s", "preload_s", "total_s", "import_s", "reference"))
    )
    report = [
        f"setup       : median of {len(setups)} set-ups {setup.total_s:.3f} s (fresh-process"
        f" imports {setup.import_s:.3f}, lp {setup.lp_s:.4f}, transport {setup.start_s:.4f},"
        f" preload {setup.preload_s:.4f}); host reference {setup.reference * 1000:.2f} ms;"
        f" this process imported in {import_s:.3f} s"
    ]
    digests = [d for window in windows for d in window.digests]
    if digests:
        report.append(f"digest      : {digests[0]} ({len(set(digests))} distinct in {len(digests)} rounds)")
    attempted = sum(window.ops for window in windows)
    failed = sum(window.failed for window in windows)
    if trace:
        metrics = layer_metrics(windows[0], windows[1], tracer, setup, report)
    else:
        metrics = end_to_end(spec, world, seed, windows[0], setup, report)
    return Outcome(metrics, attempted, failed, check(spec, windows), report)


def end_to_end(spec, world, seed, window: Window, setup: SetupTimes, report: List[str]) -> Dict[str, float]:
    if world is None:
        world = RoundWorld(spec, seed)
        world.build()
    max_rate, rungs = world.ladder()
    report.append(f"ladder      : limit p99 <= {LATENCY_LIMIT_MS:.0f} ms; " + " ".join(rungs))
    wall = not spec.round_ops
    report.append(
        f"window      : {window.ops} ops ({window.failed} failed) in {len(window.rates)}"
        f" {'slices' if wall else 'rounds'}"
    )
    if wall:
        # Wall-clock percentiles are printed, not reported: on a shared
        # VM their spread over ten runs reached 0.47 of the median.
        # The reported ones come from the same system, strategy and mix
        # on the in-process transport, in accounted virtual time.
        twin = schedule_for(spec, RngStreams(seed), "twin.schedule", TWIN_OPS)
        latencies, problems = world.closed_round(twin, Meter(None))[3:]
        window.problems.extend(problems)
        p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
        report.append(
            f"latency     : reported from a {TWIN_OPS}-op in-process twin (virtual ms);"
            f" wall clock, median over {LATENCY_CHUNK}-op samples:"
            f" p50 {statistics.median(window.p50s):.3f} ms, p99 {statistics.median(window.p99s):.3f} ms"
        )
    else:
        p50, p99 = window.p50s[0], window.p99s[0]
    report.append(
        f"host        : raw {statistics.median(window.rates):.1f} ops/s next to a"
        f" median reference of {statistics.median(window.references) * 1000:.2f} ms"
        f" (nominal {hostspeed.NOMINAL_S * 1000:.1f} ms)"
    )
    return {
        "throughput_ops_s": window.throughput,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "availability": (window.ops - window.failed) / window.ops,
        "max_rate_ops_s": max_rate,
        "setup_s": setup.total_s / hostspeed.scale(setup.reference),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(traced: Window, plain: Window, tracer: Tracer, setup: SetupTimes, report: List[str]) -> Dict[str, float]:
    ops = traced.ops
    probes = tracer.probes

    def per_op_us(*prefixes: str) -> float:
        return tracer.self_ns(*prefixes) / 1000.0 / ops

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cpu_us = traced.cpu_s * 1e6 / ops
    layers = {
        "strategy": per_op_us("strategy."),
        "wire": per_op_us("wire."),
        "transport": per_op_us("transport."),
        "replica": per_op_us("replica."),
        "metrics": per_op_us("metrics."),
    }
    residual = cpu_us - sum(layers.values())
    overhead = (plain.throughput - traced.throughput) / plain.throughput
    report.append(
        f"attribution : cpu {cpu_us:.1f} us/op = "
        + " + ".join(f"{name} {value:.1f}" for name, value in layers.items())
        + f" + residual {residual:.1f}; unattributed share {ratio(residual, cpu_us):.3f};"
        f" trace overhead {overhead:.3f}; wrappers removed: {not leftover_wrappers()}"
    )
    metrics = {
        "strategy.sample.ns_per_call": probes["strategy.sample"].ns_per_call(),
        "strategy.sample.calls_per_op": probes["strategy.sample"].calls / ops,
        "coordinator.attempts_per_op": (ops + traced.retries) / ops,
        "coordinator.repairs_per_read": ratio(traced.repairs, traced.reads),
        "transport.calls_per_op": traced.counts["calls"] / ops,
        "transport.timeouts_per_op": traced.timeouts / ops,
        "transport.client_self_us_per_op": per_op_us("transport.client."),
        "transport.server_self_us_per_op": per_op_us("transport.server."),
        "transport.ops_per_frame": ratio(traced.counts["coalesced"], traced.counts["frames"]),
        "transport.bytes_per_op": traced.counts["bytes"] / ops,
    }
    for name in ("encode_request", "decode_request", "encode_response", "decode_response", "pack_frames", "feed"):
        metrics[f"wire.{name}.ns_per_call"] = probes[f"wire.{name}"].ns_per_call()
    metrics.update(
        {
            "wire.self_us_per_op": layers["wire"],
            "replica.handle.ns_per_call": probes["replica.handle"].ns_per_call(),
            "replica.self_us_per_op": layers["replica"],
            "replica.writes_ignored_share": ratio(
                traced.counts["writes_ignored"], traced.counts["write_deliveries"]
            ),
            "metrics.record_op.ns_per_call": probes["metrics.record_op"].ns_per_call(),
            "process.cpu_us_per_op": cpu_us,
            "residual.us_per_op": residual,
            "analysis.lp_s": setup.lp_s,
            "transport.start_s": setup.start_s,
            "coordinator.preload_s": setup.preload_s,
            "trace.overhead_share": overhead,
        }
    )
    return metrics
