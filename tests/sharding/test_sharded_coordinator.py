"""ShardedCoordinator: routing, live split/merge/grow, no lost writes."""

import asyncio

import pytest

from repro.cli import build_system
from repro.core.errors import ServiceError
from repro.runtime import RngStreams, VirtualClock, run_virtual
from repro.sharding import ShardMap, ShardedCoordinator, build_sim_backend_factory


def make_sharded(shards=2, spec="majority:3", seed=0, clock=None, **factory_kw):
    clock = clock if clock is not None else VirtualClock()
    systems = [build_system(spec) for _ in range(shards)]
    shard_map = ShardMap.uniform(systems, specs=[spec] * shards)
    factory = build_sim_backend_factory(clock, RngStreams(seed), **factory_kw)
    return clock, ShardedCoordinator(shard_map, factory)


def run(clock, coro):
    return run_virtual(coro, clock=clock)


KEYS = [f"k{i:03d}" for i in range(40)]


class TestRouting:
    def test_write_read_round_trip_across_shards(self):
        clock, sharded = make_sharded(shards=3)

        async def main():
            for index, key in enumerate(KEYS):
                await sharded.write(key, f"v{index}")
            for index, key in enumerate(KEYS):
                result = await sharded.read(key)
                assert result.value == f"v{index}"
                assert not result.stale
            # The workload actually spread over multiple shards.
            assert len(sharded._backends) > 1
            await sharded.close()

        run(clock, main())

    def test_lease_ttl_wires_quorum_leases_into_every_shard(self):
        clock, sharded = make_sharded(shards=2, lease_ttl=3)
        stats = {}

        async def main():
            for index, key in enumerate(KEYS):
                await sharded.write(key, index)
            for key in KEYS:
                assert (await sharded.read(key)).value is not None
            for shard_id, backend in sharded._backends.items():
                stats[shard_id] = (
                    sum(replica.joins_served for replica in backend.replicas),
                    backend.coordinator.metrics.lease_renewals,
                )
            await sharded.close()

        run(clock, main())
        assert len(stats) == 2
        for joins, renewals in stats.values():
            # Every shard's coordinator ran real join handshakes.
            assert joins > 0 and renewals > 0

    def test_load_is_tracked_per_shard(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            for key in KEYS:
                await sharded.write(key, 1)
            await sharded.close()

        run(clock, main())
        load = sharded.tracker.snapshot()
        assert sum(entry["ops"] for entry in load.values()) == len(KEYS)


class TestLiveSplit:
    def test_split_moves_keys_and_loses_nothing(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            for index, key in enumerate(KEYS):
                await sharded.write(key, f"v{index}")
            event = await sharded.split_shard("s0")
            assert event.ok
            assert event.kind == "split"
            assert sharded.map.version == 2
            assert {"s0.0", "s0.1"} <= set(sharded.map.shard_ids)
            for index, key in enumerate(KEYS):
                result = await sharded.read(key)
                assert result.value == f"v{index}"
            await sharded.close()

        run(clock, main())

    def test_writes_during_split_are_queued_not_lost(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            for key in KEYS:
                await sharded.write(key, "before")

            async def writer():
                # Issued while the split is in flight: must block until
                # the flip, then land in the new epoch.
                return await sharded.write(KEYS[0], "during")

            split_task = asyncio.ensure_future(sharded.split_shard("s0"))
            write_task = asyncio.ensure_future(writer())
            event = await split_task
            ack = await write_task
            assert event.ok
            assert ack.counter > 0
            result = await sharded.read(KEYS[0])
            assert result.value == "during"
            await sharded.close()

        run(clock, main())

    def test_timestamps_survive_migration(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            acks = {key: await sharded.write(key, key) for key in KEYS}
            await sharded.split_shard("s0")
            for key in KEYS:
                result = await sharded.read(key)
                assert (result.counter, result.writer) == (
                    acks[key].counter,
                    acks[key].writer,
                )
            await sharded.close()

        run(clock, main())


class TestMergeAndGrow:
    def test_merge_adjacent_shards(self):
        clock, sharded = make_sharded(shards=3)

        async def main():
            for index, key in enumerate(KEYS):
                await sharded.write(key, index)
            event = await sharded.merge_shards("s0", "s1")
            assert event.ok
            assert "s0+s1" in sharded.map
            for index, key in enumerate(KEYS):
                assert (await sharded.read(key)).value == index
            await sharded.close()

        run(clock, main())

    def test_grow_keeps_id_and_data(self):
        clock, sharded = make_sharded(shards=2, spec="htriang:6")

        async def main():
            for index, key in enumerate(KEYS):
                await sharded.write(key, index)
            before_n = sharded.map.shard("s0").system.n
            event = await sharded.grow_shard("s0")
            assert event.ok
            assert event.kind == "grow"
            assert sharded.map.shard("s0").system.n > before_n
            for index, key in enumerate(KEYS):
                assert (await sharded.read(key)).value == index
            await sharded.close()

        run(clock, main())

    def test_grow_requires_growable_system(self):
        clock, sharded = make_sharded(shards=1, spec="majority:3")

        async def main():
            with pytest.raises(ServiceError):
                await sharded.grow_shard("s0")
            await sharded.close()

        run(clock, main())


class TestHotDetectionIntegration:
    def test_split_hottest_fires_only_when_skewed(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            # Uniform-ish low traffic: no split.
            for key in KEYS:
                await sharded.write(key, 0)
            assert await sharded.split_hottest(min_ops=200) is None
            # Hammer one key far past the threshold: its shard gets hot.
            hot_key = KEYS[0]
            for _ in range(300):
                await sharded.read(hot_key)
            event = await sharded.split_hottest(factor=1.5, min_ops=50)
            assert event is not None and event.ok
            assert sharded.map.version == 2
            await sharded.close()

        run(clock, main())


class TestReshardLog:
    def test_snapshot_records_history(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            await sharded.write("k", 1)
            await sharded.split_shard("s0")
            await sharded.close()

        run(clock, main())
        snap = sharded.snapshot()
        assert snap["map_version"] == 2
        assert len(snap["reshards"]) == 1
        assert snap["reshards"][0]["ok"] is True
        assert snap["reshards"][0]["from_version"] == 1
        assert snap["reshards"][0]["to_version"] == 2

    def test_concurrent_reshards_rejected(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            for key in KEYS:
                await sharded.write(key, 0)
            first = asyncio.ensure_future(sharded.split_shard("s0"))
            await asyncio.sleep(0)  # let the first migration register
            with pytest.raises(ServiceError):
                await sharded.split_shard("s1")
            event = await first
            assert event.ok
            await sharded.close()

        run(clock, main())


def break_census(backend, exc):
    """Make one replica of ``backend`` raise ``exc`` on the key census."""
    replica = backend.replicas[0]
    handle = replica.handle

    def broken(request):
        if request.get("op") == "keys":
            raise exc
        return handle(request)

    replica.handle = broken


class TestCensusFailures:
    """A census reply that is an error other than a transport failure is
    a bug, not a non-responder: it must not be retried away."""

    def test_replica_bug_propagates(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            for key in KEYS:
                await sharded.write(key, 0)
            break_census(sharded._backends["s0"], RuntimeError("census bug"))
            with pytest.raises(RuntimeError, match="census bug"):
                await sharded.split_shard("s0")
            # The old epoch is restored and keeps serving.
            assert sharded.resharding_log[-1].detail == "census bug"
            assert sharded.map.version == 1
            for key in KEYS:
                await sharded.write(key, 1)
            await sharded.close()

        run(clock, main())

    def test_service_error_aborts_with_its_reason(self):
        clock, sharded = make_sharded(shards=2)

        async def main():
            for key in KEYS:
                await sharded.write(key, 0)
            break_census(sharded._backends["s0"], ServiceError("codec drift"))
            event = await sharded.split_shard("s0")
            assert not event.ok
            assert event.detail == "codec drift"
            assert sharded.map.version == 1
            await sharded.close()

        run(clock, main())
