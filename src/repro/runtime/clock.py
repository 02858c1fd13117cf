"""Clocks and the virtual-time event loop.

The service layer measures time in **milliseconds** (latencies, timeouts,
backoffs all carry ``_ms`` suffixes); asyncio measures loop time in
seconds.  The :class:`Clock` protocol adopts the service convention —
``now()`` returns milliseconds, ``sleep`` takes milliseconds — and
:class:`VirtualTimeLoop` does the 1000× bridge exactly once, so sim and
service code agree on units without sprinkling conversions.

Two implementations:

* :class:`WallClock` — real time.  ``now()`` is ``time.monotonic()`` in
  ms, ``sleep`` awaits a real ``asyncio.sleep``.
* :class:`VirtualClock` — manually advanced time.  On its own it is a
  plain counter (the discrete-event :class:`~repro.sim.engine.Simulator`
  drives one directly); paired with :class:`VirtualTimeLoop` it also
  makes ordinary asyncio code run under simulated time: whenever the
  loop has no ready callback it advances the clock to the earliest
  timer's deadline instead of waiting, so ``await asyncio.sleep(3600)``
  completes in microseconds of wall time while ``clock.now()`` moves
  forward 3 600 000 ms.

:class:`VirtualTimeLoop` is a selector-free discrete-event loop on
``asyncio.BaseEventLoop``.  One iteration drops cancelled timers
(compacting the heap, as the stock loop does, once more than half of
over 100 timers are cancelled), jumps the clock to the earliest
deadline if nothing is ready (the same arithmetic, 24 h cap included,
as the stock loop's selector timeout), moves every due timer to the
ready queue and runs that batch in FIFO order.  Timers with equal deadlines fire in the order they were
scheduled.  It opens no file descriptor, so real I/O — sockets, pipes,
subprocesses, signal handlers — is not supported under virtual time;
TCP paths run on ``asyncio.run``.

:func:`run_virtual` is the ``asyncio.run`` analogue: it runs a coroutine
to completion on a fresh :class:`VirtualTimeLoop`.  Determinism note —
the loop never *reorders* ready callbacks, it only fast-forwards idle
waits, so a program that is deterministic under ``asyncio.run`` with a
seeded RNG is byte-for-byte deterministic (and enormously faster) under
:func:`run_virtual`.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from abc import ABC, abstractmethod
from asyncio.events import Handle as _Handle
from asyncio.events import TimerHandle as _TimerHandle
from contextvars import copy_context
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Coroutine, Optional, TypeVar

from ..core.errors import SimulationError

__all__ = [
    "Clock",
    "WallClock",
    "VirtualClock",
    "VirtualTimeLoop",
    "run_virtual",
    "install_uvloop",
    "accelerators",
]

_T = TypeVar("_T")

_new = object.__new__

# The stock loop's limits (``asyncio.base_events``): the longest single
# wait, and when cancelled timers are compacted out of the heap.
_MAXIMUM_JUMP_S = 24 * 3600
_MIN_SCHEDULED_TIMER_HANDLES = 100
_MIN_CANCELLED_TIMER_HANDLES_FRACTION = 0.5


class Clock(ABC):
    """Source of time for transports, fault schedules and metrics.

    ``now()`` returns the current time in milliseconds; ``sleep``
    suspends the calling coroutine for ``delay_ms`` milliseconds of
    *this clock's* time (real for :class:`WallClock`, simulated for
    :class:`VirtualClock` under a :class:`VirtualTimeLoop`).
    """

    @abstractmethod
    def now(self) -> float:
        """Current time in milliseconds."""

    @abstractmethod
    async def sleep(self, delay_ms: float) -> None:
        """Suspend for ``delay_ms`` milliseconds of clock time."""


class WallClock(Clock):
    """Real time: monotonic milliseconds, real asyncio sleeps."""

    def now(self) -> float:
        return time.monotonic() * 1000.0

    async def sleep(self, delay_ms: float) -> None:
        await asyncio.sleep(max(0.0, delay_ms) / 1000.0)


class VirtualClock(Clock):
    """Manually advanced simulated time, starting at ``start`` ms.

    ``advance``/``advance_to`` move time forward (never backward).
    ``sleep`` awaits an ``asyncio.sleep`` and therefore only makes
    progress on a :class:`VirtualTimeLoop` driving this very clock —
    i.e. inside ``run_virtual(main, clock=clock)``; on any other loop it
    raises :class:`~repro.core.errors.SimulationError`.  Synchronous
    users (the discrete-event engine) call ``advance_to`` directly and
    never sleep.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        if delta_ms < 0:
            raise SimulationError(f"cannot advance time by {delta_ms} ms")
        self._now += delta_ms
        return self._now

    def advance_to(self, deadline_ms: float) -> float:
        if deadline_ms < self._now:
            raise SimulationError(
                f"cannot rewind virtual clock from {self._now} to {deadline_ms}"
            )
        self._now = float(deadline_ms)
        return self._now

    async def sleep(self, delay_ms: float) -> None:
        loop = asyncio.get_running_loop()
        if not isinstance(loop, VirtualTimeLoop) or loop.clock is not self:
            # Anywhere else the sleep would take real time (a stock loop)
            # or leave this clock frozen (a loop driving another clock).
            raise SimulationError(
                "VirtualClock.sleep needs a VirtualTimeLoop driving this "
                "clock; run it under run_virtual(main, clock=clock)"
            )
        await asyncio.sleep(max(0.0, delay_ms) / 1000.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now!r})"


class VirtualTimeLoop(asyncio.BaseEventLoop):
    """A selector-free discrete-event loop whose ``time()`` is a
    :class:`VirtualClock`.

    All asyncio timing — ``asyncio.sleep``, ``asyncio.wait(...,
    timeout=)``, ``loop.call_later`` — runs against the virtual clock,
    which jumps forward whenever the loop has nothing ready.  Loop time
    is the clock's millisecond value divided by 1000, so a coroutine's
    ``await asyncio.sleep(0.004)`` and a transport's ``await
    clock.sleep(4)`` mean the same thing.

    Ready callbacks stay in the base loop's ``_ready`` deque; timers
    live in a heap of ``(when, seq, handle)`` tuples, so the heap
    compares in C and equal deadlines fire in the order they were
    scheduled.  See the module docstring for what one iteration does
    and for what virtual time does not support.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        super().__init__()
        self.clock = clock if clock is not None else VirtualClock()
        self._timer_seq = itertools.count()

    def time(self) -> float:
        return self.clock.now() / 1000.0

    # -- scheduling ---------------------------------------------------
    # The fast paths build Handle/TimerHandle objects field by field:
    # the stock constructors look up ``loop.get_debug()`` per handle to
    # decide on a source traceback, which only debug mode keeps.
    def call_soon(
        self, callback: Callable[..., Any], *args: Any, context: Any = None
    ) -> asyncio.Handle:
        if self._debug:
            return super().call_soon(callback, *args, context=context)
        if self._closed:
            raise RuntimeError("Event loop is closed")
        handle = _new(_Handle)
        handle._callback = callback
        handle._args = args
        handle._loop = self
        handle._context = copy_context() if context is None else context
        handle._cancelled = False
        handle._repr = None
        handle._source_traceback = None
        self._ready.append(handle)
        return handle

    def call_at(
        self, when: float, callback: Callable[..., Any], *args: Any, context: Any = None
    ) -> asyncio.TimerHandle:
        if when is None:
            raise TypeError("when cannot be None")
        if self._closed:
            raise RuntimeError("Event loop is closed")
        if self._debug:
            self._check_thread()
            self._check_callback(callback, "call_at")
            timer = _TimerHandle(when, callback, args, self, context)
        else:
            timer = _new(_TimerHandle)
            timer._callback = callback
            timer._args = args
            timer._loop = self
            timer._context = copy_context() if context is None else context
            timer._cancelled = False
            timer._repr = None
            timer._source_traceback = None
            timer._when = when
        timer._scheduled = True
        heappush(self._scheduled, (when, next(self._timer_seq), timer))
        return timer

    def _write_to_self(self) -> None:
        # ``call_soon_threadsafe`` wakes a blocked selector this way; this
        # loop never blocks, so there is nothing to wake.
        pass

    # -- one iteration ------------------------------------------------
    def _run_once(self) -> None:
        scheduled = self._scheduled
        count = len(scheduled)
        if (
            count > _MIN_SCHEDULED_TIMER_HANDLES
            and self._timer_cancelled_count / count > _MIN_CANCELLED_TIMER_HANDLES_FRACTION
        ):
            live = []
            for entry in scheduled:
                if entry[2]._cancelled:
                    entry[2]._scheduled = False
                else:
                    live.append(entry)
            heapify(live)
            self._scheduled = scheduled = live
            self._timer_cancelled_count = 0
        else:
            while scheduled and scheduled[0][2]._cancelled:
                self._timer_cancelled_count -= 1
                heappop(scheduled)[2]._scheduled = False

        ready = self._ready
        if not ready and not self._stopping:
            if not scheduled:
                raise SimulationError(
                    "virtual-time deadlock: event loop is idle with no scheduled "
                    "timers; some coroutine awaits an event that can never arrive"
                )
            # The wait the stock loop would hand its selector, jumped.
            timeout = scheduled[0][0] - self.time()
            if timeout > _MAXIMUM_JUMP_S:
                timeout = _MAXIMUM_JUMP_S
            if timeout > 0:
                self.clock.advance(timeout * 1000.0)

        end_time = self.time() + self._clock_resolution
        while scheduled and scheduled[0][0] < end_time:
            timer = heappop(scheduled)[2]
            timer._scheduled = False
            ready.append(timer)

        # Run this batch only: callbacks it schedules wait for the next
        # iteration, exactly as on the stock loop.
        popleft = ready.popleft
        for _ in range(len(ready)):
            handle = popleft()
            if not handle._cancelled:
                handle._run()
        handle = None  # break the cycle an exception would keep alive


def run_virtual(
    main: Coroutine[Any, Any, _T], *, clock: Optional[VirtualClock] = None
) -> _T:
    """Run ``main`` to completion under virtual time; the ``asyncio.run``
    of the simulation world.

    Creates a fresh :class:`VirtualTimeLoop` (over ``clock`` when given,
    so callers can share one clock between the loop and their
    transports), runs the coroutine, then cancels stragglers and closes
    the loop exactly like ``asyncio.run`` does.
    """
    loop = VirtualTimeLoop(clock=clock)
    try:
        return loop.run_until_complete(main)
    finally:
        try:
            _cancel_all_tasks(loop)
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()


# ----------------------------------------------------------------------
# Optional accelerators (the ``repro[perf]`` extra)
# ----------------------------------------------------------------------
def install_uvloop() -> bool:
    """Install the uvloop event-loop policy when the environment has it.

    Returns ``True`` when uvloop is now the policy, ``False`` when the
    import failed — callers gate on the return value instead of
    requiring the dependency, so the wall-clock serving stack merely
    runs slower without the ``repro[perf]`` extra, never breaks.  Only
    affects loops created *after* the call (``asyncio.run``, cluster
    workers); never touches a loop that is already running, and is
    deliberately ignored by the virtual-time machinery above, which
    runs its own loop.
    """
    try:  # pragma: no cover - depends on environment
        import uvloop
    except ImportError:
        return False
    uvloop.install()  # pragma: no cover - depends on environment
    return True  # pragma: no cover - depends on environment


def accelerators() -> dict:
    """Which optional performance dependencies are importable.

    The ``quorumtool serve`` / ``kvbench`` startup banner prints this so
    a benchmark number always states what it was measured with.
    """
    report = {}
    for name in ("orjson", "uvloop"):
        try:
            __import__(name)
        except ImportError:
            report[name] = False
        else:
            report[name] = True
    return report


def _cancel_all_tasks(loop: asyncio.AbstractEventLoop) -> None:
    tasks = [task for task in asyncio.all_tasks(loop) if not task.done()]
    if not tasks:
        return
    for task in tasks:
        task.cancel()
    loop.run_until_complete(asyncio.gather(*tasks, return_exceptions=True))
    # A straggler that raised while being cancelled is reported, not
    # dropped — the same report ``asyncio.run`` makes.
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            loop.call_exception_handler(
                {
                    "message": "unhandled exception during run_virtual() shutdown",
                    "exception": task.exception(),
                    "task": task,
                }
            )
