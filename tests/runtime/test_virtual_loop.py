"""Differential tests for the discrete-event :class:`VirtualTimeLoop`.

The oracle is the loop it replaced, kept here (and only here): a stock
``SelectorEventLoop`` whose selector turns an idle wait into a clock
jump.  Hypothesis generates scripts of nested ``call_soon`` /
``call_later`` / ``call_at`` callbacks with cancels, bulk-cancelled timer
sets that trip the heap compaction, and coroutine programs of future
chains, ``asyncio.sleep`` and ``wait_for`` timeouts.  Whenever every
timer deadline in a script is distinct, both loops must run the same
callbacks in the same order at the same ``clock.now()``.  (On equal
deadlines the stock heap order is arbitrary; the new loop fires them
FIFO, tested separately.)
"""

from __future__ import annotations

import asyncio
import os
import selectors
from typing import Any, List, Optional

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import SimulationError
from repro.runtime import VirtualClock, VirtualTimeLoop, run_virtual


# ----------------------------------------------------------------------
# Oracle: the selector-wrapping loop, as it was
# ----------------------------------------------------------------------
class _TimeJumpingSelector:
    def __init__(self, wrapped: selectors.BaseSelector, clock: VirtualClock) -> None:
        self._wrapped = wrapped
        self._clock = clock

    def select(self, timeout: Optional[float] = None) -> List[Any]:
        events = self._wrapped.select(0)
        if events:
            return events
        if timeout is None:
            raise SimulationError("virtual-time deadlock")
        if timeout > 0:
            self._clock.advance(timeout * 1000.0)
        return []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._wrapped, name)


class SelectorVirtualLoop(asyncio.SelectorEventLoop):
    def __init__(self, clock: VirtualClock) -> None:
        super().__init__()
        self.clock = clock
        self._selector = _TimeJumpingSelector(self._selector, self.clock)

    def time(self) -> float:
        return self.clock.now() / 1000.0


class _Recording:
    """Mixin recording every timer deadline handed to ``call_at``
    (``call_later`` and ``wait_for`` both funnel through it)."""

    def call_at(self, when, callback, *args, context=None):
        self.deadlines.append(when)
        return super().call_at(when, callback, *args, context=context)


class RecordingOracle(_Recording, SelectorVirtualLoop):
    pass


class RecordingLoop(_Recording, VirtualTimeLoop):
    pass


LOOPS = (RecordingLoop, RecordingOracle)


def drive(loop_class, build):
    """Run ``build(loop, log)`` on a fresh loop until its work drains.

    ``build`` returns a coroutine to run to completion, or a
    :class:`Script` that stops the loop once no callback is pending.
    Returns the log and every timer deadline scheduled.
    """
    clock = VirtualClock()
    loop = loop_class(clock)
    loop.deadlines = []
    log: List[Any] = []
    try:
        work = build(loop, log)
        if isinstance(work, Script):
            if work.pending:
                loop.run_forever()
        else:
            loop.run_until_complete(work)
        log.append(("end", clock.now()))
    finally:
        loop.close()
    return log, loop.deadlines


def assert_same_run(build):
    (new_log, new_deadlines), (old_log, old_deadlines) = (
        drive(loop_class, build) for loop_class in LOOPS
    )
    assume(len(set(old_deadlines)) == len(old_deadlines))
    assert new_deadlines == old_deadlines
    assert new_log == old_log


# ----------------------------------------------------------------------
# Script generators
# ----------------------------------------------------------------------
#: Delays in seconds: zero, microsecond-grained sub-second values, and
#: waits longer than the 24 h cap on one clock jump.
delays = st.one_of(
    st.just(0.0),
    st.integers(1, 10**6).map(lambda us: us / 1e6),
    st.floats(86_400.5, 300_000.0),
)

#: A callback's body: what it schedules and cancels when it runs.
#: Actions are ("soon", body) | ("later", s, body) | ("at", s, body) |
#: ("cancel", k), the last cancelling the k-th handle (mod count).
callback_actions = st.recursive(
    st.just([]),
    lambda children: st.lists(
        st.one_of(
            st.tuples(st.just("soon"), children),
            st.tuples(st.just("later"), delays, children),
            st.tuples(st.just("at"), delays, children),
            st.tuples(st.just("cancel"), st.integers(0, 50)),
        ),
        max_size=4,
    ),
    max_leaves=25,
)


class Script:
    """Plays callback actions on a loop, logging ``(label, clock.now())``
    per callback run, and stops the loop once none is pending."""

    def __init__(self, loop, log) -> None:
        self.loop = loop
        self.log = log
        self.handles: List[Any] = []
        self.pending = set()

    def play(self, actions) -> "Script":
        for action in actions:
            self.schedule(action)
        return self

    def schedule(self, action) -> None:
        loop = self.loop
        kind = action[0]
        if kind == "cancel":
            if self.handles:
                label, handle = self.handles[action[1] % len(self.handles)]
                handle.cancel()
                self.pending.discard(label)
            return
        label = len(self.handles)
        body = action[-1]
        if kind == "soon":
            handle = loop.call_soon(self.run, label, body)
        elif kind == "later":
            handle = loop.call_later(action[1], self.run, label, body)
        else:
            handle = loop.call_at(loop.time() + action[1], self.run, label, body)
        self.handles.append((label, handle))
        self.pending.add(label)

    def run(self, label, body) -> None:
        self.pending.discard(label)
        self.log.append((label, self.loop.clock.now()))
        self.play(body)
        if not self.pending:
            self.loop.stop()


def play_callbacks(actions):
    return lambda loop, log: Script(loop, log).play(actions)


def play_bulk_cancel(count, kept, actions):
    """``count`` timers with fewer than a third kept, then the script:
    the next iteration finds > 100 timers, most of them cancelled, and
    compacts the heap."""
    def build(loop, log):
        script = Script(loop, log).play(
            [("later", 0.5 + index / 1000.0, []) for index in range(count)]
        )
        script.play([("cancel", index) for index in range(count) if index not in kept])
        return script.play(actions)

    return build


#: One task's steps: ("sleep", s) | ("wait", future, timeout) |
#: ("resolve", future).
task_steps = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), delays),
        st.tuples(st.just("wait"), st.integers(0, 7), delays),
        st.tuples(st.just("resolve"), st.integers(0, 7)),
    ),
    max_size=6,
)


def play_tasks(tasks, chained):
    def build(loop, log):
        futures = [loop.create_future() for _ in range(8)]

        def resolve(index, value):
            if not futures[index].done():
                futures[index].set_result(value)

        for index in chained:
            # Future chain: settling future i settles future i+1 next turn.
            futures[index % 7].add_done_callback(
                lambda _, nxt=index % 7 + 1: resolve(nxt, "chained")
            )

        async def task(name, steps):
            for position, step in enumerate(steps):
                if step[0] == "sleep":
                    await asyncio.sleep(step[1])
                    outcome = "slept"
                elif step[0] == "wait":
                    try:
                        outcome = await asyncio.wait_for(
                            asyncio.shield(futures[step[1]]), timeout=step[2]
                        )
                    except asyncio.TimeoutError:
                        outcome = "timeout"
                else:
                    resolve(step[1], f"{name}.{position}")
                    outcome = "resolved"
                log.append((name, position, outcome, loop.clock.now()))

        async def main():
            await asyncio.gather(
                *(task(name, steps) for name, steps in enumerate(tasks))
            )

        return main()

    return build


HYPOTHESIS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
class TestSameOrderAsSelectorLoop:
    @HYPOTHESIS
    @given(actions=callback_actions)
    def test_callback_scripts(self, actions):
        assert_same_run(play_callbacks(actions))

    @HYPOTHESIS
    @given(
        bulk=st.integers(101, 180).flatmap(
            lambda count: st.tuples(
                st.just(count), st.sets(st.integers(0, count - 1), max_size=count // 3)
            )
        ),
        actions=callback_actions,
    )
    def test_compaction_path(self, bulk, actions):
        count, kept = bulk
        assert_same_run(play_bulk_cancel(count, kept, actions))

    @HYPOTHESIS
    @given(
        tasks=st.lists(task_steps, min_size=1, max_size=4),
        chained=st.sets(st.integers(0, 6), max_size=4),
    )
    def test_coroutine_scripts(self, tasks, chained):
        assert_same_run(play_tasks(tasks, chained))

    def test_compaction_actually_runs(self):
        clock = VirtualClock()
        loop = VirtualTimeLoop(clock)
        try:
            handles = [loop.call_later(1.0 + i, lambda: None) for i in range(150)]
            for handle in handles[:100]:
                handle.cancel()
            loop.call_soon(loop.stop)
            loop.run_forever()
            assert len(loop._scheduled) == 50
            assert loop._timer_cancelled_count == 0
            assert not any(handle._scheduled for handle in handles[:100])
        finally:
            loop.close()

    def test_wait_beyond_a_day_jumps_in_capped_steps(self):
        script = [("later", 200_000.0, []), ("at", 90_000.0, [])]
        logs = [drive(loop_class, play_callbacks(script))[0] for loop_class in LOOPS]
        assert logs[0] == logs[1]
        assert [now for _, now in logs[0]] == pytest.approx(
            [90_000_000.0, 200_000_000.0, 200_000_000.0]
        )


# ----------------------------------------------------------------------
# Deliberate differences and loop hygiene
# ----------------------------------------------------------------------
class TestEqualDeadlines:
    def test_fire_in_scheduling_order(self):
        clock = VirtualClock()
        order = []

        async def main():
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 1.0
            for index in range(40):
                if index % 2:
                    loop.call_at(deadline, order.append, index)
                else:
                    loop.call_later(1.0, order.append, index)
            loop.call_later(0.5, order.append, "early")
            await asyncio.sleep(2.0)

        run_virtual(main(), clock=clock)
        assert order == ["early"] + list(range(40))

    def test_sleepers_with_equal_deadlines_wake_fifo(self):
        woke = []

        async def sleeper(name):
            await asyncio.sleep(0.25)
            woke.append(name)

        async def main():
            await asyncio.gather(*(sleeper(name) for name in "abcdefgh"))

        run_virtual(main())
        assert woke == list("abcdefgh")


class TestDeadlock:
    def test_idle_with_no_timers_raises(self):
        clock = VirtualClock()

        async def main():
            await asyncio.sleep(3.0)
            await asyncio.get_running_loop().create_future()

        with pytest.raises(SimulationError, match="deadlock"):
            run_virtual(main(), clock=clock)
        assert clock.now() == pytest.approx(3000.0)

    def test_both_loops_deadlock_at_the_same_instant(self):
        for loop_class in LOOPS:
            clock = VirtualClock()
            loop = loop_class(clock)
            loop.deadlines = []

            async def main():
                await asyncio.sleep(1.5)
                await asyncio.Event().wait()

            task = loop.create_task(main())
            try:
                with pytest.raises(SimulationError, match="deadlock"):
                    loop.run_until_complete(task)
            finally:
                task.cancel()
                loop.close()
            assert clock.now() == pytest.approx(1500.0)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestNoFileDescriptors:
    def test_run_virtual_opens_no_fds(self):
        async def main():
            await asyncio.sleep(0.001)
            return asyncio.get_running_loop().time()

        before = len(os.listdir("/proc/self/fd"))
        for _ in range(1000):
            run_virtual(main())
        assert len(os.listdir("/proc/self/fd")) == before

    def test_an_open_loop_holds_no_fd(self):
        before = len(os.listdir("/proc/self/fd"))
        loop = VirtualTimeLoop()
        try:
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            loop.close()
