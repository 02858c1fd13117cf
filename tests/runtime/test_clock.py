"""Tests for the clock layer: wall/virtual clocks and the virtual loop."""

import asyncio
import time

import pytest

from repro.core import SimulationError
from repro.runtime import VirtualClock, VirtualTimeLoop, WallClock, run_virtual


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=42.0).now() == 42.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance(10.5)
        clock.advance(4.5)
        assert clock.now() == 15.0

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(100.0)
        assert clock.now() == 100.0

    def test_never_rewinds(self):
        clock = VirtualClock(start=50.0)
        with pytest.raises(SimulationError):
            clock.advance(-1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(49.0)


class TestWallClock:
    def test_now_tracks_monotonic(self):
        clock = WallClock()
        before = time.monotonic() * 1000.0
        now = clock.now()
        after = time.monotonic() * 1000.0
        assert before <= now <= after

    def test_sleep_is_real(self):
        clock = WallClock()
        started = time.monotonic()
        asyncio.run(clock.sleep(30.0))
        assert time.monotonic() - started >= 0.025


class TestVirtualTimeLoop:
    def test_long_sleep_is_instant(self):
        clock = VirtualClock()

        async def main():
            await asyncio.sleep(3600.0)  # one virtual hour
            return clock.now()

        started = time.monotonic()
        now_ms = run_virtual(main(), clock=clock)
        assert now_ms == pytest.approx(3_600_000.0)
        assert time.monotonic() - started < 1.0

    def test_clock_sleep_means_milliseconds(self):
        clock = VirtualClock()

        async def main():
            await clock.sleep(250.0)
            return clock.now()

        assert run_virtual(main(), clock=clock) == pytest.approx(250.0)

    def test_sleep_ordering_preserved(self):
        clock = VirtualClock()
        order = []

        async def sleeper(name, delay_ms):
            await clock.sleep(delay_ms)
            order.append((name, clock.now()))

        async def main():
            await asyncio.gather(
                sleeper("slow", 30.0), sleeper("fast", 10.0), sleeper("mid", 20.0)
            )

        run_virtual(main(), clock=clock)
        assert order == [
            ("fast", pytest.approx(10.0)),
            ("mid", pytest.approx(20.0)),
            ("slow", pytest.approx(30.0)),
        ]

    def test_wait_for_timeout_fires_virtually(self):
        clock = VirtualClock()

        async def main():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.Event().wait(), timeout=5.0)
            return clock.now()

        assert run_virtual(main(), clock=clock) == pytest.approx(5000.0)

    def test_deadlock_raises_instead_of_hanging(self):
        async def main():
            await asyncio.Event().wait()  # nothing will ever set it

        with pytest.raises(SimulationError, match="deadlock"):
            run_virtual(main())

    def test_loop_time_is_clock_seconds(self):
        clock = VirtualClock(start=2000.0)
        loop = VirtualTimeLoop(clock=clock)
        try:
            assert loop.time() == pytest.approx(2.0)
        finally:
            loop.close()

    def test_creates_own_clock_when_none_given(self):
        async def main():
            await asyncio.sleep(1.0)
            return asyncio.get_running_loop().clock.now()

        assert run_virtual(main()) == pytest.approx(1000.0)

    def test_teardown_reports_straggler_errors(self):
        reported = []
        stragglers = []

        async def straggler():
            try:
                await asyncio.sleep(10.0)
            except asyncio.CancelledError:
                raise RuntimeError("failed while cancelled")

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: reported.append(context))
            stragglers.append(asyncio.ensure_future(straggler()))
            await asyncio.sleep(0.001)

        run_virtual(main())
        assert len(reported) == 1
        assert "run_virtual() shutdown" in reported[0]["message"]
        assert isinstance(reported[0]["exception"], RuntimeError)
        assert reported[0]["task"] is stragglers[0]

    def test_teardown_is_quiet_for_clean_cancellation(self):
        reported = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: reported.append(context))
            asyncio.ensure_future(asyncio.sleep(10.0))

        run_virtual(main())
        assert reported == []


class TestVirtualClockSleepNeedsItsLoop:
    def test_under_a_stock_loop_raises(self):
        clock = VirtualClock()
        started = time.monotonic()
        with pytest.raises(SimulationError, match="VirtualTimeLoop"):
            asyncio.run(clock.sleep(50.0))
        assert time.monotonic() - started < 0.04
        assert clock.now() == 0.0

    def test_under_a_loop_driving_another_clock_raises(self):
        clock = VirtualClock()
        with pytest.raises(SimulationError, match="VirtualTimeLoop"):
            run_virtual(clock.sleep(50.0), clock=VirtualClock())
        assert clock.now() == 0.0

    def test_under_its_own_loop_sleeps(self):
        clock = VirtualClock()
        run_virtual(clock.sleep(50.0), clock=clock)
        assert clock.now() == pytest.approx(50.0)
