"""The quorum fan-out: one ``submit`` primitive, collected by callback.

Three kinds of guard:

* **bit identity** — golden digests of seeded runs.  They were computed
  before the coordinator switched from one task per contacted replica
  (``ensure_future(transport.call(...))`` collected by ``asyncio.wait``)
  to futures from ``Transport.submit`` collected by done-callbacks, and
  the switch left them unchanged.  A later change to the fan-out or to
  event order that moves them must update them on purpose and say why;
* **no tasks** — the coordinator creates no asyncio task per quorum
  phase on the in-process and virtual-time transports;
* **the submit contract** of those two transports: the future comes back
  synchronously, failures take exactly the deadline, the FIFO slot is
  taken at submission, a cancelled request is never applied, and errors
  raised while delivering land on the future.
"""

import asyncio
import gc

import pytest

from repro.cli import build_system
from repro.core import ExplicitQuorumSystem, Strategy, Universe
from repro.core.errors import ServiceError
from repro.runtime import VirtualClock, run_virtual
from repro.scenarios.scorecard import digest
from repro.service import (
    ChaosConfig,
    Coordinator,
    InProcessTransport,
    Replica,
    ReplicaUnavailable,
    SimTransport,
    make_replicas,
    run_chaos,
    run_kv_benchmark,
)
from repro.service.transport import DEFAULT_TIMEOUT_MS, Reply, Transport
from repro.systems import MajorityQuorumSystem

# ----------------------------------------------------------------------
# Bit identity
# ----------------------------------------------------------------------
CHAOS_HTRIANG = {
    "trace": "59f6a4216f19a11fbe427e7277082349c5f78e204f324cfaac345d0588d8ded1",
    "metrics": "73c30ffe30dc7af7c82c58481c9a47b5e02ae1442122ebebb1cd9404c8664561",
}
CHAOS_HGRID_READ_WRITE = {
    "trace": "52175a75348a3761446e36572bdf2ae09659447d42cc4bda12fc427124195c44",
    "metrics": "09a951768c996c8ab58029c0125b2dfe54d4d88ac015f1ae7a677da96c2e66a5",
}
CHAOS_HGRID_HEDGED = {
    "trace": "2e64f2bb75c9d8d4dfa6ad22f6e96a21d9622acdacd15be52a3c39700d056418",
    "metrics": "089f49ac4cc61be64bbbc2ce7da9bee612eece447ecd2c9fe040e05228a3e6b1",
}
KVBENCH_HTRIANG = "1f9e10f8e80bd50333263b0eb4f07924ab45c1ed7b2b11b78335720888c7db16"
KVBENCH_HGRID_HEDGED = "0714dc807ba0cfbb8ae0aeb1aed80740cf7ae1c8a8e02c2be5f1381335d8a375"


class TestBitIdentity:
    def test_sim_chaos_htriang(self):
        report = run_chaos(
            build_system("htriang:15"), seed=7, config=ChaosConfig(ops=200), mode="sim"
        )
        assert report.hashes == CHAOS_HTRIANG

    def test_sim_chaos_hgrid_read_write(self):
        report = run_chaos(
            build_system("hgrid:4x4"),
            seed=7,
            config=ChaosConfig(ops=200, read_write=True),
            mode="sim",
        )
        assert report.hashes == CHAOS_HGRID_READ_WRITE

    def test_sim_chaos_deferred_hedging(self):
        report = run_chaos(
            build_system("hgrid:4x4"),
            seed=7,
            config=ChaosConfig(ops=200, hedge_spares=1, hedge_delay_ms=2.0),
            mode="sim",
        )
        assert report.hashes == CHAOS_HGRID_HEDGED

    def test_inprocess_kvbench(self):
        report = run_kv_benchmark(build_system("htriang:15"), seed=7, ops=2000)
        assert digest(report.to_dict()) == KVBENCH_HTRIANG

    def test_inprocess_kvbench_upfront_hedging(self):
        report = run_kv_benchmark(
            build_system("hgrid:4x4"), seed=7, ops=2000, hedge_spares=2
        )
        assert digest(report.to_dict()) == KVBENCH_HGRID_HEDGED


# ----------------------------------------------------------------------
# No tasks per quorum phase
# ----------------------------------------------------------------------
async def mixed_batch(coordinator, transport):
    """Writes, reads that find stale members (read repair), and reads
    past a crashed replica; returns the tasks created meanwhile."""
    loop = asyncio.get_running_loop()
    created = []
    original = loop.create_task

    def create_task(coro, **kwargs):
        created.append(coro)
        return original(coro, **kwargs)

    loop.create_task = create_task
    try:
        for index in range(40):
            await coordinator.write(f"k{index % 5}", index)
            await coordinator.read(f"k{(index + 2) % 5}")
        transport.crash(4)
        for index in range(10):
            await coordinator.read(f"k{index % 5}")
        transport.recover()
        await coordinator.drain()
    finally:
        del loop.create_task
    return created


def service(transport_factory, **kwargs):
    system = MajorityQuorumSystem.of_size(5)
    replicas = make_replicas(system)
    transport = transport_factory(replicas)
    coordinator = Coordinator(system, transport, seed=3, **kwargs)
    return transport, coordinator


class TestNoTasks:
    def test_inprocess_phases_create_no_task(self):
        transport, coordinator = service(lambda r: InProcessTransport(r, seed=1))
        created = asyncio.run(mixed_batch(coordinator, transport))
        assert created == []
        assert coordinator.metrics.read_repairs > 0
        assert coordinator.metrics.unavailable > 0

    def test_sim_phases_create_no_task(self):
        clock = VirtualClock()
        transport, coordinator = service(
            lambda r: SimTransport(r, clock=clock, seed=1, service_time_ms=1.0)
        )
        created = run_virtual(mixed_batch(coordinator, transport), clock=clock)
        assert created == []
        assert coordinator.metrics.read_repairs > 0
        assert coordinator.metrics.unavailable > 0

    @pytest.mark.parametrize("delay_ms", [0.0, 3.0])
    def test_hedged_phases_create_no_task(self, delay_ms):
        clock = VirtualClock()
        transport, coordinator = service(
            lambda r: SimTransport(r, clock=clock, seed=1),
            hedge_spares=1,
            hedge_delay_ms=delay_ms,
        )

        created = run_virtual(mixed_batch(coordinator, transport), clock=clock)
        assert created == []
        assert coordinator.metrics.hedges_issued > 0


# ----------------------------------------------------------------------
# The submit contract
# ----------------------------------------------------------------------
WRITE = {"op": "write", "key": "k", "value": 1, "counter": 1, "writer": 0}


def inprocess(replicas):
    return InProcessTransport(replicas, seed=0), asyncio.run


def sim(replicas, **kwargs):
    clock = VirtualClock()
    transport = SimTransport(replicas, clock=clock, seed=0, **kwargs)
    return transport, lambda main: run_virtual(main, clock=clock)


class Exploding(Replica):
    def handle(self, request):
        raise RuntimeError(f"replica {self.replica_id} exploded")


def record_loop_errors():
    """Route the running loop's exception-handler calls into a list."""
    errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda _loop, context: errors.append(context)
    )
    return errors


@pytest.mark.parametrize("make", [inprocess, sim], ids=["inprocess", "sim"])
class TestSubmitContract:
    def test_future_returned_before_any_loop_turn(self, make):
        replicas = [Replica(0)]
        transport, run = make(replicas)

        async def main():
            future = transport.submit(0, WRITE)
            # Submitted, drawn and counted, but not yet delivered.
            assert isinstance(future, asyncio.Future)
            assert not future.done()
            assert int(transport.calls) == 1
            assert replicas[0].writes_applied == 0
            reply = await future
            assert reply.payload["applied"]

        run(main())
        assert replicas[0].writes_applied == 1

    def test_cancelled_before_delivery_never_applies(self, make):
        replicas = [Replica(0)]
        transport, run = make(replicas)

        async def main():
            future = transport.submit(0, WRITE)
            future.cancel()
            await asyncio.sleep(0.1)  # well past the sampled latency

        run(main())
        assert replicas[0].writes_applied == 0

    def test_replica_exception_lands_on_the_future(self, make):
        transport, run = make([Exploding(0)])

        async def main():
            errors = record_loop_errors()
            future = transport.submit(0, {"op": "read", "key": "k"})
            with pytest.raises(RuntimeError, match="exploded"):
                await asyncio.wait_for(future, 1.0)
            return errors

        assert run(main()) == []


class TestSimSubmit:
    def test_crashed_replica_fails_at_exactly_the_deadline(self):
        transport, run = sim([Replica(0)])
        transport.crash(0)
        failed_at = []

        async def main():
            start = transport.clock.now()
            future = transport.submit(0, {"op": "read", "key": "k"}, timeout=25.0)
            future.add_done_callback(lambda _: failed_at.append(transport.clock.now()))
            await asyncio.sleep(0.024)
            assert not future.done()
            with pytest.raises(ReplicaUnavailable):
                await future
            return start

        start = run(main())
        assert failed_at == [pytest.approx(start + 25.0, abs=1e-9)]

    def test_fifo_slot_is_reserved_at_submit(self):
        transport, run = sim([Replica(0)], service_time_ms=2.0)

        async def main():
            now = transport.clock.now()
            first = transport.submit(0, {"op": "ping"})
            assert transport._busy_until[0] == pytest.approx(now + 2.0)
            second = transport.submit(0, {"op": "ping"})
            assert transport._busy_until[0] == pytest.approx(now + 4.0)
            return await first, await second

        first, second = run(main())
        # The second request queued behind the first one's service time.
        assert second.latency >= transport.base_latency + 4.0
        assert first.latency >= transport.base_latency + 2.0

    def test_wire_check_error_lands_on_the_future(self):
        transport, run = sim([Replica(0)], wire_check=True)

        async def main():
            errors = record_loop_errors()
            future = transport.submit(0, {"op": "read", "key": "k", "extra": {1, 2}})
            with pytest.raises((ServiceError, TypeError)):
                await asyncio.wait_for(future, 1.0)
            return errors

        assert run(main()) == []


# ----------------------------------------------------------------------
# An unexpected error leaves nothing behind
# ----------------------------------------------------------------------
class Scripted(Transport):
    """Task-free transport with a fixed reply delay (seconds) per replica."""

    def __init__(self, replicas, delays):
        self.replicas = {replica.replica_id: replica for replica in replicas}
        self.delays = delays

    def submit(self, replica_id, request, timeout=DEFAULT_TIMEOUT_MS):
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def deliver():
            if future.cancelled():
                return
            try:
                future.set_result(Reply(self.replicas[replica_id].handle(request), 1.0))
            except Exception as exc:
                future.set_exception(exc)

        loop.call_later(self.delays[replica_id], deliver)
        return future

    async def call(self, replica_id, request, timeout=DEFAULT_TIMEOUT_MS):
        return await self.submit(replica_id, request, timeout)


class TestUnexpectedError:
    def test_rest_of_batch_retrieved_and_in_flight_cancelled(self):
        system = ExplicitQuorumSystem(Universe.of_size(4), [{0, 1, 2, 3}], name="one")
        strategy = Strategy(system, list(system.minimal_quorums()), [1.0])
        # Replicas 0 and 1 fail in the same batch; 2 and 3 are still in
        # flight when the coordinator gives up on the phase.
        replicas = [Exploding(0), Exploding(1), Replica(2), Replica(3)]
        transport = Scripted(replicas, {0: 0.001, 1: 0.001, 2: 0.5, 3: 0.5})
        coordinator = Coordinator(system, transport, strategy, seed=0)
        clock = VirtualClock()

        async def main():
            errors = record_loop_errors()
            with pytest.raises(RuntimeError, match="replica 0 exploded"):
                await coordinator.write("k", 1)
            await asyncio.sleep(1.0)  # past the in-flight replies' delay
            gc.collect()
            return errors

        assert run_virtual(main(), clock=clock) == []
        # Replica 1's error was retrieved (no "never retrieved" report
        # above) and the in-flight writes were cancelled, not applied.
        assert replicas[2].writes_applied == replicas[3].writes_applied == 0
