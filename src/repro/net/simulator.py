"""Deterministic discrete-event simulator.

All timed behaviour in the reproduction — message latency, GossipSub
heartbeats, block mining, epoch ticks, clock drift — runs on this event
loop.  Determinism matters: every experiment seeds its own
:class:`random.Random`, so runs are exactly reproducible.

The simulator is deliberately minimal: a time-ordered heap of callbacks, a
``schedule`` primitive, recurring tickers built on top of it, and run-until
loops.  No threads, no asyncio; simulated seconds are just floats.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.errors import NetworkError


class EventHandle:
    """One scheduled callback; returned by :meth:`Simulator.schedule`.

    The queue holds ``(time, sequence, handle)`` tuples: ``sequence`` is
    unique, so the heap orders on the first two fields in C and never
    compares handles.
    """

    __slots__ = ("_time", "_cancelled", "_callback")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self._time = time
        self._cancelled = False
        #: ``None`` once the event has run.
        self._callback: Callable[[], None] | None = callback

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def time(self) -> float:
        return self._time


class Simulator:
    """A single-threaded discrete-event loop.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run(until=10.0)
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._sequence = itertools.count()
        self._processed = 0
        #: The handle :meth:`schedule_at` returned last; work due at its instant
        #: may join it while nothing was scheduled since (``Network.send`` does).
        self.last_scheduled: EventHandle | None = None

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise NetworkError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``when``."""
        if not when >= self.now:  # also refuses NaN
            raise NetworkError(f"cannot schedule at {when} < now {self.now}")
        handle = self.last_scheduled = EventHandle(when, callback)
        heapq.heappush(self._queue, (when, next(self._sequence), handle))
        return handle

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        start_delay: float | None = None,
    ) -> Callable[[], None]:
        """Recurring ticker; returns a stop function.

        Used for GossipSub heartbeats, block mining, and epoch advancement.
        """
        if not interval > 0:  # also refuses NaN
            raise NetworkError("ticker interval must be positive")
        stopped = False

        def tick() -> None:
            if stopped:
                return
            callback()
            if not stopped:
                self.schedule(interval, tick)

        self.schedule(interval if start_delay is None else start_delay, tick)

        def stop() -> None:
            nonlocal stopped
            stopped = True

        return stop

    # -- execution --------------------------------------------------------------

    def step(self, until: float = float("inf")) -> bool:
        """Process the next event due by ``until``; False when there is none."""
        queue = self._queue
        while queue:
            when, _, event = queue[0]
            if event._cancelled:
                heapq.heappop(queue)
                continue
            if when > until:
                return False
            heapq.heappop(queue)
            if when < self.now:
                raise NetworkError("event queue went backwards in time")
            self.now = when
            callback, event._callback = event._callback, None
            self._processed += 1  # before the callback: one that raises still ran
            callback()
            return True
        return False

    def run(self, until: float) -> None:
        """Process every event with time <= ``until``; clock ends at ``until``."""
        if until < self.now:
            raise NetworkError(f"cannot run until {until} < now {self.now}")
        while self.step(until):
            pass
        self.now = until

    def run_until_idle(self, *, max_time: float = float("inf"), max_events: int = 10_000_000) -> None:
        """Drain the queue (bounded by ``max_time`` / ``max_events``)."""
        events = 0
        while self.step(max_time):
            events += 1
            if events > max_events:
                raise NetworkError(f"exceeded {max_events} events; runaway ticker?")

    @property
    def pending_events(self) -> int:
        """Queued events neither run nor cancelled."""
        return sum(not event._cancelled for _, _, event in self._queue)

    @property
    def processed_events(self) -> int:
        return self._processed
