"""The quorum fan-out: one ``submit_many`` primitive, collected through
``notify``.

Eight kinds of guard:

* **bit identity** — golden digests of seeded runs.  They were computed
  before the coordinator switched from one task per contacted replica
  (``ensure_future(transport.call(...))`` collected by ``asyncio.wait``)
  to futures from ``Transport.submit`` collected by done-callbacks, and
  the switch left them unchanged, as did the later switches from
  done-callbacks to the transports' ``notify`` and from one delivery
  handle per request to one per fan-out.  A change to the fan-out
  or to event order that moves them must update them on purpose and say
  why;
* **no tasks** — the coordinator creates no asyncio task per quorum
  phase on the in-process and virtual-time transports;
* **the submit contract** of those two transports: the future comes back
  synchronously, failures take exactly the deadline, the FIFO slot is
  taken at submission, a cancelled request is never applied, and errors
  raised while delivering land on the future;
* **the notify contract** of every native transport: ``notify`` runs
  once per resolved request, never for a cancelled one, never inside
  ``submit`` or ``submit_many``;
* **the delivery batch** of the in-process transport: a raising
  ``notify`` is reported to the loop and the rest of the fan-out is
  still delivered;
* **hop counts** — a k-member fan-out on the in-process transport
  schedules one delivery handle plus one wake of the collecting task,
  and a k-member read on the virtual-time transport wakes its task once;
* **cancellation** — a quorum phase whose caller is cancelled cancels
  its in-flight requests, hedged or not;
* **the gather contract** of ``Coordinator._gather``: outcomes in target
  order, errors returned rather than raised, in-flight requests
  cancelled with the caller.
"""

import asyncio
import gc

import pytest

from repro.cli import build_system
from repro.core import ExplicitQuorumSystem, Strategy, Universe
from repro.core.errors import ServiceError
from repro.runtime import VirtualClock, run_virtual
from repro.scenarios import ChaosConfig, run_chaos
from repro.scenarios.scorecard import digest
from repro.service import (
    BinaryTcpTransport,
    Coordinator,
    InProcessTransport,
    Replica,
    ReplicaUnavailable,
    RequestTimeout,
    SimTransport,
    make_replicas,
    run_kv_benchmark,
    start_tcp_replicas,
)
from repro.service import wire
from repro.service.transport import (
    DEFAULT_TIMEOUT_MS,
    Reply,
    Transport,
    _deliver_all,
)
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

    def submit(self, replica_id, request, timeout=DEFAULT_TIMEOUT_MS, notify=None):
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def deliver():
            if future.cancelled():
                return
            try:
                future.set_result(Reply(self.replicas[replica_id].handle(request), 1.0))
            except Exception as exc:
                future.set_exception(exc)
            if notify is not None:
                notify(future)

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


# ----------------------------------------------------------------------
# The notify contract
# ----------------------------------------------------------------------
class Notified:
    """A ``notify`` that records each call and whether it ran inside
    ``submit``."""

    def __init__(self):
        self.futures = []
        self.inside_submit = []
        self.submitting = False

    def __call__(self, future):
        assert future.done() and not future.cancelled()
        self.futures.append(future)
        self.inside_submit.append(self.submitting)

    def submit(self, transport, *args, **kwargs):
        self.submitting = True
        try:
            return transport.submit(*args, notify=self, **kwargs)
        finally:
            self.submitting = False

    def submit_many(self, transport, targets, request_for, timeout):
        self.submitting = True
        try:
            return transport.submit_many(targets, request_for, timeout, self)
        finally:
            self.submitting = False


@pytest.mark.parametrize("make", [inprocess, sim], ids=["inprocess", "sim"])
class TestNotifyContract:
    def test_reply_notified_once_after_submit_returns(self, make):
        transport, run = make([Replica(0)])
        notified = Notified()

        async def main():
            future = notified.submit(transport, 0, WRITE)
            assert notified.futures == []
            reply = await future
            assert reply.payload["applied"]
            await asyncio.sleep(0.1)
            return future

        future = run(main())
        assert notified.futures == [future]
        assert notified.inside_submit == [False]

    @pytest.mark.parametrize("failure", ["crash", "timeout"])
    def test_failure_notified_once_after_submit_returns(self, make, failure):
        transport, run = make([Replica(0)])
        transport.base_latency = 10.0
        if failure == "crash":
            transport.crash(0)
        notified = Notified()

        async def main():
            future = notified.submit(transport, 0, WRITE, timeout=5.0)
            assert notified.futures == []
            with pytest.raises((ReplicaUnavailable, RequestTimeout)):
                await future
            await asyncio.sleep(0.1)
            return future

        future = run(main())
        assert notified.futures == [future]
        assert notified.inside_submit == [False]

    def test_cancelled_request_never_notified(self, make):
        transport, run = make([Replica(0)])
        notified = Notified()

        async def main():
            notified.submit(transport, 0, WRITE).cancel()
            await asyncio.sleep(0.1)

        run(main())
        assert notified.futures == []

    def test_fan_out_notifies_each_request_once_after_it_returns(self, make):
        replicas = [Replica(rid) for rid in range(4)]
        transport, run = make(replicas)
        transport.crash(2)
        notified = Notified()
        targets = [3, 0, 2, 1]
        asked = []

        def request_for(rid):
            asked.append(rid)
            return {"op": "ping"}

        async def main():
            futures = notified.submit_many(
                transport, targets, request_for, DEFAULT_TIMEOUT_MS
            )
            assert notified.futures == []
            await asyncio.sleep(0.1)
            return futures

        futures = run(main())
        assert asked == targets
        assert int(transport.calls) == 4
        assert sorted(map(id, notified.futures)) == sorted(map(id, futures))
        assert notified.inside_submit == [False] * 4
        if make is inprocess:
            # One delivery step, in target order.
            assert notified.futures == futures
        for rid, future in zip(targets, futures):
            if rid == 2:
                assert isinstance(future.exception(), ReplicaUnavailable)
            else:
                assert future.result().payload["replica"] == rid


class TestDeliveryBatch:
    def test_a_raising_notify_is_reported_and_the_batch_goes_on(self):
        replicas = [Replica(rid) for rid in range(3)]
        transport = InProcessTransport(replicas, seed=0)
        transport.crash(1)
        notified = []

        def notify(future):
            notified.append(future)
            if len(notified) == 1:
                raise RuntimeError("collector broke")

        async def main():
            errors = record_loop_errors()
            futures = transport.submit_many(
                [0, 1, 2], lambda rid: WRITE, DEFAULT_TIMEOUT_MS, notify
            )
            await asyncio.sleep(0)
            return futures, errors

        futures, errors = asyncio.run(main())
        assert notified == futures
        assert isinstance(futures[1].exception(), ReplicaUnavailable)
        assert [replica.writes_applied for replica in replicas] == [1, 0, 1]
        assert len(errors) == 1
        assert isinstance(errors[0]["exception"], RuntimeError)
        assert errors[0]["future"] is futures[0]

    def test_no_targets_schedule_nothing(self):
        transport = InProcessTransport([Replica(0)], seed=0)

        async def fan_out_to_nobody():
            assert transport.submit_many([], dict, DEFAULT_TIMEOUT_MS, print) == []

        async def main():
            return await scheduled_during(fan_out_to_nobody())

        assert asyncio.run(main()) == []
        assert transport.calls == 0


async def slow_binary_server(delay):
    """A binary v2 server that answers every request ``delay`` seconds
    late, so a short deadline expires first and the reply arrives after.
    Returns the server, its port and an event set once the client hung up.
    """
    hung_up = asyncio.Event()

    async def handle(reader, writer):
        writer.write(wire.hello_frame())
        decoder = wire.FrameDecoder()
        while True:
            data = await reader.read(4096)
            if not data:
                break
            for _, flags, count, body in decoder.feed(data):
                if flags & wire.FLAG_HELLO:
                    continue
                offset = 0
                out = []
                for _ in range(count):
                    rpc_id, _request, offset = wire.decode_request(body, offset)
                    out.append(wire.encode_response(rpc_id, {"ok": True}))
                await asyncio.sleep(delay)
                for frame in wire.pack_frames(out):
                    writer.write(frame)
        writer.close()
        hung_up.set()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1], hung_up


class TestBinaryNotifyContract:
    def test_reply_notified_once_and_cancelled_never(self):
        async def main():
            replicas = [Replica(0)]
            servers, addresses = await start_tcp_replicas(replicas)
            transport = BinaryTcpTransport(addresses)
            notified = Notified()
            await transport.call(0, {"op": "ping"})  # dial the channel
            cancelled = notified.submit(transport, 0, WRITE)
            cancelled.cancel()
            future = notified.submit(transport, 0, {"op": "read", "key": "k"})
            assert notified.futures == []
            await future
            await transport.close()
            for server in servers:
                server.close()
                await server.wait_closed()
            return notified, future

        notified, future = asyncio.run(main())
        assert notified.futures == [future]
        assert notified.inside_submit == [False]

    def test_deadline_notifies_once_and_late_reply_does_not(self):
        async def main():
            server, port, hung_up = await slow_binary_server(delay=0.2)
            transport = BinaryTcpTransport({0: ("127.0.0.1", port)})
            await transport.call(0, {"op": "ping"}, timeout=5_000.0)
            notified = Notified()
            future = notified.submit(transport, 0, {"op": "ping"}, timeout=20.0)
            with pytest.raises(RequestTimeout):
                await future
            await asyncio.sleep(0.4)  # the late reply arrives and is dropped
            await transport.close()
            await hung_up.wait()
            server.close()
            await server.wait_closed()
            return notified, future

        notified, future = asyncio.run(main())
        assert notified.futures == [future]
        assert notified.inside_submit == [False]

    def test_failed_dial_notified_once(self):
        async def main():
            transport = BinaryTcpTransport({0: ("127.0.0.1", 1)})
            notified = Notified()
            future = notified.submit(transport, 0, {"op": "ping"})
            assert notified.futures == []
            with pytest.raises(ReplicaUnavailable):
                await future
            await asyncio.sleep(0)
            await transport.close()
            return notified, future

        notified, future = asyncio.run(main())
        assert notified.futures == [future]


# ----------------------------------------------------------------------
# Hop counts
# ----------------------------------------------------------------------
async def scheduled_during(awaitable):
    """Await ``awaitable``; return every callback passed to
    ``loop.call_soon`` meanwhile (future callbacks and task wake-ups
    included)."""
    loop = asyncio.get_running_loop()
    scheduled = []
    original = loop.call_soon

    def call_soon(callback, *args, **kwargs):
        scheduled.append(callback)
        return original(callback, *args, **kwargs)

    loop.call_soon = call_soon
    try:
        await awaitable
    finally:
        del loop.call_soon
    return scheduled


def single_quorum(n, quorum):
    system = MajorityQuorumSystem.of_size(n)
    return system, Strategy(system, [frozenset(quorum)], [1.0])


class TestHopCount:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_write_costs_one_delivery_handle_and_one_wake(self, n):
        k = n // 2 + 1
        system, strategy = single_quorum(n, range(k))
        replicas = make_replicas(system)
        transport = InProcessTransport(replicas, seed=1)
        coordinator = Coordinator(system, transport, strategy, seed=0)

        async def main():
            return await scheduled_during(coordinator.write("k", 1))

        scheduled = asyncio.run(main())
        assert sum(replica.writes_applied for replica in replicas) == k
        assert scheduled.count(_deliver_all) == 1
        assert len(scheduled) == 2

    def test_read_repair_costs_two_handles_and_two_wakes(self):
        system, strategy = single_quorum(5, {0, 1, 2})
        replicas = make_replicas(system)
        replicas[0].handle(WRITE)  # 1 and 2 are stale
        transport = InProcessTransport(replicas, seed=1)
        coordinator = Coordinator(system, transport, strategy, seed=0)

        async def main():
            return await scheduled_during(coordinator.read("k"))

        scheduled = asyncio.run(main())
        assert coordinator.metrics.read_repairs == 2
        # Read: 1 delivery handle + 1 wake; repair of 1 and 2: 1 + 1.
        assert scheduled.count(_deliver_all) == 2
        assert len(scheduled) == 4

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_sim_read_wakes_its_task_once(self, n):
        # Each reply is a timer at its own virtual instant; only the last
        # one can end the phase, so only the last one wakes the task.
        k = n // 2 + 1
        system, strategy = single_quorum(n, range(k))
        clock = VirtualClock()
        transport = SimTransport(make_replicas(system), clock=clock, seed=1)
        coordinator = Coordinator(system, transport, strategy, seed=0)

        async def main():
            return await scheduled_during(coordinator.read("k"))

        scheduled = run_virtual(main(), clock=clock)
        assert int(transport.calls) == k
        assert coordinator.metrics.read_repairs == 0
        assert len(scheduled) == 1

    def test_sim_read_past_a_crash_wakes_its_task_once(self):
        system, strategy = single_quorum(5, {0, 1, 2})
        clock = VirtualClock()
        transport = SimTransport(make_replicas(system), clock=clock, seed=1)
        transport.crash(1)
        coordinator = Coordinator(system, transport, strategy, seed=0, max_attempts=1)

        async def main():
            with pytest.raises(Exception, match="read"):
                await coordinator.read("k")

        scheduled = run_virtual(scheduled_during(main()), clock=clock)
        assert coordinator.metrics.unavailable == 1
        assert len(scheduled) == 1


class TestCancelledPhase:
    @pytest.mark.parametrize(
        "hedging",
        [{}, {"hedge_spares": 1}, {"hedge_spares": 1, "hedge_delay_ms": 2.0}],
        ids=["plain", "upfront-spare", "deferred-spare"],
    )
    def test_cancelled_write_cancels_its_requests(self, hedging):
        system = MajorityQuorumSystem.of_size(5)
        # {1, 2, 3} is never drawn, only hedged to.
        strategy = Strategy(system, [{0, 1, 2}, {1, 2, 3}], [1.0, 0.0])
        replicas = make_replicas(system)
        clock = VirtualClock()
        transport = SimTransport(replicas, clock=clock, seed=1)
        transport.crash(0)
        coordinator = Coordinator(system, transport, strategy, seed=0, **hedging)

        async def main():
            errors = record_loop_errors()
            task = asyncio.ensure_future(coordinator.write("k", 1))
            await asyncio.sleep(0)  # the write has fanned out
            assert int(transport.calls) >= 3
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(1.0)  # past every reply and the deadline
            gc.collect()
            return errors

        assert run_virtual(main(), clock=clock) == []
        assert sum(replica.writes_applied for replica in replicas) == 0


# ----------------------------------------------------------------------
# The gather contract
# ----------------------------------------------------------------------
def gather_service(replicas, delays):
    system = MajorityQuorumSystem.of_size(len(replicas))
    transport = Scripted(replicas, delays)
    return transport, Coordinator(system, transport, seed=0)


class TestGather:
    def test_outcomes_in_target_order(self):
        replicas = [Replica(i) for i in range(4)]
        # Replies land in reverse target order.
        _, coordinator = gather_service(
            replicas, {0: 0.004, 1: 0.003, 2: 0.002, 3: 0.001}
        )
        targets = [0, 2, 1, 3]
        outcomes = run_virtual(coordinator._gather(targets, {"op": "ping"}))
        assert [outcome.payload["replica"] for outcome in outcomes] == targets

    def test_no_targets(self):
        _, coordinator = gather_service([Replica(0)], {0: 0.001})
        assert run_virtual(coordinator._gather([], {"op": "ping"})) == []

    def test_transport_error_is_an_outcome(self):
        system = MajorityQuorumSystem.of_size(3)
        transport = InProcessTransport(make_replicas(system), seed=0)
        coordinator = Coordinator(system, transport, seed=0)
        transport.crash(1)

        async def main():
            errors = record_loop_errors()
            outcomes = await coordinator._gather([0, 1, 2], {"op": "ping"})
            return outcomes, errors

        outcomes, errors = asyncio.run(main())
        assert isinstance(outcomes[0], Reply) and isinstance(outcomes[2], Reply)
        assert isinstance(outcomes[1], ReplicaUnavailable)
        assert errors == []

    def test_unexpected_error_is_returned_and_surfaced_by_repair(self):
        replicas = [Replica(0), Exploding(1), Exploding(2)]
        _, coordinator = gather_service(replicas, {0: 0.001, 1: 0.001, 2: 0.002})
        best = {"ok": True, "counter": 2, "writer": 0, "value": "new"}
        stale = {"ok": True, "counter": 1, "writer": 0, "value": "old"}

        async def main():
            errors = record_loop_errors()
            outcomes = await coordinator._gather([1, 0], {"op": "ping"})
            assert isinstance(outcomes[0], RuntimeError)
            assert isinstance(outcomes[1], Reply)
            with pytest.raises(RuntimeError, match="replica 1 exploded"):
                await coordinator._repair_stale(
                    "k", best, {0: best, 1: stale, 2: stale}
                )
            gc.collect()
            return errors

        # Replica 2's error is retrieved too: nothing is logged.
        assert run_virtual(main()) == []

    def test_outer_cancellation_cancels_in_flight_requests(self):
        replicas = [Exploding(0), Replica(1), Replica(2)]
        transport, coordinator = gather_service(
            replicas, {0: 0.001, 1: 0.5, 2: 0.5}
        )

        async def main():
            errors = record_loop_errors()
            task = asyncio.ensure_future(coordinator._gather([0, 1, 2], WRITE))
            await asyncio.sleep(0.01)  # replica 0 has failed, 1 and 2 pending
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await asyncio.sleep(1.0)  # past the in-flight replies' delay
            gc.collect()
            return errors

        assert run_virtual(main()) == []
        assert replicas[1].writes_applied == replicas[2].writes_applied == 0
