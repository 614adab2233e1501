"""The async crypto executor: worker lanes for pairing work.

The §III-F routing decision makes relay peers do Groth16 pairing checks on
every relayed message, and until this subsystem existed the
:class:`~repro.pipeline.batch_verifier.BatchVerifier` ran those checks
*inside* the relay callback — the event loop stalled on crypto exactly
when a flood made batching most valuable.  Production gossip stacks
decouple the two with worker pools; this module models that decoupling so
queueing delay and CPU occupancy become first-class simulated quantities.

Three implementations of one interface (:class:`CryptoExecutor`):

* :class:`SynchronousCryptoExecutor` — ``workers=0``: runs the work inline
  at submit time and delivers the result before ``submit`` returns.  This
  is the pinned default; with it, every verdict, stat, and event ordering
  is bit-identical to the pre-executor code.
* :class:`SimulatedCryptoExecutor` — N simulated worker lanes over the
  discrete-event :class:`~repro.net.simulator.Simulator`.  Jobs wait in
  per-priority FIFO queues (relay verdicts ahead of service-path
  re-validation ahead of background witness work), a free lane runs the
  job's crypto immediately but *delivers the result at simulated
  completion time* — start + pairings × per-pairing cost, read from the
  shared :class:`~repro.zksnark.groth16.PairingCounter` and the
  :class:`~repro.exec.costs.CryptoCostModel`.
* :class:`ThreadPoolCryptoExecutor` — a real
  :mod:`concurrent.futures`-backed pool with the same priority-class
  admission, for wall-clock benchmark runs (E13's threaded arm).

Priority is a *class*, not a number to tune: :attr:`Priority.RELAY` for
verdicts the mesh is waiting on, :attr:`Priority.SERVICE` for
store/filter/lightpush re-validation, :attr:`Priority.BACKGROUND` for
witness precomputation.  Within a class, jobs run in submission order.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import ProtocolError
from repro.exec.costs import CryptoCostModel
from repro.net.simulator import EventHandle, Simulator
from repro.telemetry.registry import MetricsRegistry, NullRegistry, NULL_REGISTRY
from repro.zksnark.groth16 import PairingCounter


class Priority(IntEnum):
    """Scheduling classes, strongest first (lower value wins)."""

    #: Relay verdicts the mesh is stalled on — never starved.
    RELAY = 0
    #: Service-path re-validation (store / filter / lightpush).
    SERVICE = 1
    #: Witness precomputation and other deferrable crypto.
    BACKGROUND = 2


@dataclass
class PriorityClassStats:
    """Per-class queueing accounting."""

    submitted: int = 0
    completed: int = 0
    queue_delay_total: float = 0.0
    queue_delay_max: float = 0.0

    @property
    def mean_queue_delay(self) -> float:
        return self.queue_delay_total / self.completed if self.completed else 0.0


@dataclass
class ExecutorStats:
    """What the executor makes measurable: delay, occupancy, inline time.

    ``inline_seconds`` is the modeled crypto time charged *inside the
    caller's stack* — the full service time for a synchronous executor,
    only the submit overhead for an async one.  E13's relay-callback
    latency is this figure divided by callbacks.
    """

    classes: dict[Priority, PriorityClassStats] = field(
        default_factory=lambda: {p: PriorityClassStats() for p in Priority}
    )
    jobs_submitted: int = 0
    jobs_completed: int = 0
    #: Jobs whose result was delivered early by :meth:`CryptoExecutor.drain`.
    jobs_drained: int = 0
    #: Modeled crypto seconds executed in the caller's stack (see above).
    inline_seconds: float = 0.0
    #: Modeled seconds of lane service time (queue wait excluded).
    service_seconds: float = 0.0
    #: Busy seconds accumulated per lane (empty for the sync executor).
    lane_busy_seconds: list[float] = field(default_factory=list)

    def occupancy(self, elapsed: float) -> float:
        """Mean fraction of lane capacity in use over ``elapsed`` seconds."""
        if not self.lane_busy_seconds or elapsed <= 0:
            return 0.0
        return sum(self.lane_busy_seconds) / (elapsed * len(self.lane_busy_seconds))

    def _record_submit(self, priority: Priority) -> None:
        self.jobs_submitted += 1
        self.classes[priority].submitted += 1

    def _record_complete(self, priority: Priority, queue_delay: float) -> None:
        self.jobs_completed += 1
        cls = self.classes[priority]
        cls.completed += 1
        cls.queue_delay_total += queue_delay
        cls.queue_delay_max = max(cls.queue_delay_max, queue_delay)


class _ExecutorMetrics:
    """The executor's series, shared by all three flavours.

    Queue depth and busy lanes are gauges bound to ``queued`` / ``busy``
    (an executor that models no queue reads 0); the wait and service
    histograms are handles interned once — a no-op with telemetry off.
    """

    __slots__ = ("wait", "service")

    def __init__(
        self,
        registry: "MetricsRegistry | NullRegistry | None",
        peer: str,
        queued: Callable[[], int] = lambda: 0,
        busy: Callable[[], int] = lambda: 0,
    ) -> None:
        reg = NULL_REGISTRY if registry is None else registry
        reg.bind("executor_queue_depth", queued, "gauge", peer=peer)
        reg.bind("executor_busy_lanes", busy, "gauge", peer=peer)
        self.wait = {
            p: reg.histogram(
                "executor_queue_wait_seconds", peer=peer, priority=p.name.lower()
            )
            for p in Priority
        }
        self.service = {
            p: reg.histogram(
                "executor_service_seconds", peer=peer, priority=p.name.lower()
            )
            for p in Priority
        }


@runtime_checkable
class CryptoExecutor(Protocol):
    """The seam every validation layer submits pairing work through."""

    stats: ExecutorStats
    workers: int

    def submit(
        self,
        work: Callable[[], Any],
        on_done: Callable[[Any], None],
        *,
        priority: Priority = Priority.RELAY,
    ) -> None:
        """Queue ``work``; ``on_done(result)`` fires when the job completes."""

    def drain(self) -> None:
        """Deliver every outstanding result now (peer shutdown path)."""

    def pin_synchronous(self) -> None:
        """Run every subsequent submit inline in the caller (peer stopped).

        Every holder of this executor — the batch verifier *and* the
        shared proof checkers handed to store/filter/lightpush — degrades
        to inline verification at once: a stopped peer never schedules
        crypto to fire at a later simulated time.
        """

    def unpin(self) -> None:
        """Undo :meth:`pin_synchronous` (peer restart)."""


def _run_inline(
    stats: ExecutorStats,
    metrics: _ExecutorMetrics,
    work: Callable[[], Any],
    on_done: Callable[[Any], None],
    priority: Priority,
    *,
    counter: PairingCounter | None = None,
    cost_model: CryptoCostModel | None = None,
) -> None:
    """Run ``work`` in the caller's stack; deliver before returning.

    The one inline body: ``workers=0`` and every pinned (stopped-peer)
    executor.  The job waited zero seconds and its modeled pairing time
    is charged to the caller; no lane busy time is attributed — a
    stopped peer's occupancy over simulated time is not meaningful.
    """
    stats._record_submit(priority)
    before = counter.evaluations if counter is not None else 0
    try:
        result = work()
    finally:
        if counter is not None and cost_model is not None:
            modeled = cost_model.seconds_for_pairings(counter.evaluations - before)
            stats.inline_seconds += modeled
            stats.service_seconds += modeled
            metrics.service[priority].observe(modeled)
        metrics.wait[priority].observe(0.0)
        stats._record_complete(priority, 0.0)
    on_done(result)


class SynchronousCryptoExecutor:
    """``workers=0``: crypto inline in the caller, exactly like the seed.

    ``submit`` runs the work and delivers the result before returning, so
    callers built against the async interface degrade to the pre-executor
    behaviour with zero extra simulator events — the property the
    equivalence suites pin down.
    """

    workers = 0

    def __init__(
        self,
        *,
        counter: PairingCounter | None = None,
        cost_model: CryptoCostModel | None = None,
        registry: "MetricsRegistry | NullRegistry | None" = None,
        peer: str = "",
    ) -> None:
        self.counter = counter
        self.cost_model = cost_model or CryptoCostModel()
        self.stats = ExecutorStats()
        self.metrics = _ExecutorMetrics(registry, peer)

    def submit(
        self,
        work: Callable[[], Any],
        on_done: Callable[[Any], None],
        *,
        priority: Priority = Priority.RELAY,
    ) -> None:
        _run_inline(
            self.stats, self.metrics, work, on_done, priority,
            counter=self.counter, cost_model=self.cost_model,
        )

    def drain(self) -> None:  # nothing is ever outstanding
        return None

    def pin_synchronous(self) -> None:  # already inline
        return None

    def unpin(self) -> None:
        return None


@dataclass
class _SimJob:
    priority: Priority
    work: Callable[[], Any]
    on_done: Callable[[Any], None]
    submitted_at: float


class SimulatedCryptoExecutor:
    """N worker lanes on the discrete-event simulator.

    A free lane takes the oldest job of the strongest non-empty priority
    class, executes its crypto immediately (the pairing checks are cheap
    HMACs here), and *delivers the result at simulated completion time*:
    dispatch + pairings-executed × ``cost_model.seconds_per_pairing``.
    The pairing count is read as a delta on the shared ``counter``, so
    whatever the job actually did — one classical check, an RLC batch, a
    full fallback sweep — is what occupies the lane.

    The caller's stack is only charged ``submit_overhead_seconds`` of
    modeled inline time per job: relay callbacks return immediately.
    """

    def __init__(
        self,
        simulator: Simulator,
        workers: int,
        *,
        counter: PairingCounter | None = None,
        cost_model: CryptoCostModel | None = None,
        registry: "MetricsRegistry | NullRegistry | None" = None,
        peer: str = "",
    ) -> None:
        if workers < 1:
            raise ProtocolError(
                "SimulatedCryptoExecutor needs workers >= 1 "
                "(use SynchronousCryptoExecutor for workers=0)"
            )
        self.simulator = simulator
        self.workers = workers
        self.counter = counter
        self.cost_model = cost_model or CryptoCostModel()
        self.stats = ExecutorStats()
        self.stats.lane_busy_seconds = [0.0] * workers
        self.metrics = _ExecutorMetrics(
            registry, peer, lambda: self.queued_jobs, lambda: self.busy_lanes
        )
        self._queues: dict[Priority, deque[_SimJob]] = {p: deque() for p in Priority}
        self._idle_lanes: list[int] = list(range(workers))
        #: lane -> (completion event handle, deliver closure) while busy.
        self._in_flight: dict[int, tuple[EventHandle, Callable[[], None]]] = {}
        self._pinned = False

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        work: Callable[[], Any],
        on_done: Callable[[Any], None],
        *,
        priority: Priority = Priority.RELAY,
    ) -> None:
        if self._pinned:
            _run_inline(
                self.stats, self.metrics, work, on_done, priority,
                counter=self.counter, cost_model=self.cost_model,
            )
            return
        self.stats._record_submit(priority)
        self.stats.inline_seconds += self.cost_model.submit_overhead_seconds
        job = _SimJob(priority, work, on_done, self.simulator.now)
        self._queues[priority].append(job)
        self._dispatch_idle_lanes()

    @property
    def queued_jobs(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def busy_lanes(self) -> int:
        return len(self._in_flight)

    # -- lane machinery ------------------------------------------------------

    def _next_job(self) -> _SimJob | None:
        for priority in Priority:
            queue = self._queues[priority]
            if queue:
                return queue.popleft()
        return None

    def _dispatch_idle_lanes(self) -> None:
        while self._idle_lanes:
            job = self._next_job()
            if job is None:
                return
            lane = self._idle_lanes.pop()
            self._dispatch(lane, job)

    def _dispatch(self, lane: int, job: _SimJob) -> None:
        now = self.simulator.now
        queue_delay = now - job.submitted_at
        before = self.counter.evaluations if self.counter is not None else 0
        result = job.work()
        evaluations = (
            self.counter.evaluations - before if self.counter is not None else 0
        )
        service = self.cost_model.seconds_for_pairings(evaluations)
        self.stats.service_seconds += service
        self.stats.lane_busy_seconds[lane] += service
        self.metrics.wait[job.priority].observe(queue_delay)
        self.metrics.service[job.priority].observe(service)
        delivered = False

        def deliver() -> None:
            nonlocal delivered
            if delivered:
                return
            delivered = True
            self._in_flight.pop(lane, None)
            self.stats._record_complete(job.priority, queue_delay)
            try:
                job.on_done(result)
            finally:
                self._idle_lanes.append(lane)
                self._dispatch_idle_lanes()

        handle = self.simulator.schedule(service, deliver)
        self._in_flight[lane] = (handle, deliver)

    # -- shutdown ------------------------------------------------------------

    def drain(self) -> None:
        """Deliver every in-flight and queued result at the current instant.

        Used by a stopping peer: parked verdicts must land *now*, not at a
        simulated time the peer will never reach.  In-flight completions
        are delivered early (their events cancelled); queued jobs run
        inline in priority order.
        """
        while self._in_flight or self.queued_jobs:
            in_flight = sorted(self._in_flight.items())
            for lane, (handle, deliver) in in_flight:
                handle.cancel()
                self.stats.jobs_drained += 1
                deliver()  # frees the lane; may dispatch + re-fill _in_flight
            # Any still-queued jobs were dispatched by the deliveries above
            # (lanes freed), so the loop terminates once queues are empty.

    def pin_synchronous(self) -> None:
        self._pinned = True

    def unpin(self) -> None:
        self._pinned = False


class ThreadPoolCryptoExecutor:
    """Real worker threads behind the same interface, for wall-clock runs.

    A :class:`concurrent.futures.ThreadPoolExecutor` does the running; a
    small admission layer in front of it keeps the priority-class
    semantics (at most ``workers`` jobs in flight, the strongest class
    admitted first as slots free up) that a bare pool's internal FIFO
    queue cannot express.

    ``on_done`` fires on a worker thread — callers (the E13 threaded arm)
    must make their callbacks thread-safe.  The simulation never uses this
    class; it exists so the benchmark can compare the modeled latencies
    against a real pool on real hardware.
    """

    def __init__(
        self,
        workers: int,
        *,
        registry: "MetricsRegistry | NullRegistry | None" = None,
        peer: str = "",
    ) -> None:
        if workers < 1:
            raise ProtocolError("ThreadPoolCryptoExecutor needs workers >= 1")
        self.workers = workers
        self.stats = ExecutorStats()
        self.metrics = _ExecutorMetrics(registry, peer)
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._lock = threading.Lock()
        self._sequence = itertools.count()
        #: heap of (priority, sequence, work, on_done, submitted_at)
        self._heap: list[tuple[int, int, Callable[[], Any], Callable[[Any], None], float]] = []
        self._in_flight = 0
        self._idle = threading.Condition(self._lock)
        self._pinned = False
        #: Exceptions that escaped a job on a worker thread; re-raised (the
        #: first of them) by :meth:`drain` so failures cannot vanish into a
        #: discarded future.
        self._errors: list[Exception] = []

    def submit(
        self,
        work: Callable[[], Any],
        on_done: Callable[[Any], None],
        *,
        priority: Priority = Priority.RELAY,
    ) -> None:
        if self._pinned:
            # Wall-clock pool: no pairing counter models its service time.
            _run_inline(self.stats, self.metrics, work, on_done, priority)
            return
        with self._lock:
            self.stats._record_submit(priority)
            heapq.heappush(
                self._heap,
                (int(priority), next(self._sequence), work, on_done, time.perf_counter()),
            )
            self._admit_locked()

    def _admit_locked(self) -> None:
        while self._in_flight < self.workers and self._heap:
            entry = heapq.heappop(self._heap)
            self._in_flight += 1
            self._pool.submit(self._run, entry)

    def _run(
        self,
        entry: tuple[int, int, Callable[[], Any], Callable[[Any], None], float],
    ) -> None:
        priority, _, work, on_done, submitted_at = entry
        started = time.perf_counter()
        try:
            # on_done runs while the slot is still held, so drain() cannot
            # return before the last callback has finished.
            on_done(work())
        except Exception as exc:
            # The pool's future is discarded, so an escaping exception
            # would otherwise vanish silently (with the verdict).
            with self._lock:
                self._errors.append(exc)
        finally:
            with self._lock:
                self._in_flight -= 1
                self.stats._record_complete(Priority(priority), started - submitted_at)
                self.stats.service_seconds += time.perf_counter() - started
                self.metrics.wait[Priority(priority)].observe(started - submitted_at)
                self.metrics.service[Priority(priority)].observe(
                    time.perf_counter() - started
                )
                self._admit_locked()
                if self._in_flight == 0 and not self._heap:
                    self._idle.notify_all()

    def drain(self) -> None:
        """Block until every submitted job has run; re-raise the first
        exception any of them leaked on its worker thread."""
        with self._idle:
            self._idle.wait_for(lambda: self._in_flight == 0 and not self._heap)
            if self._errors:
                errors, self._errors = self._errors, []
                raise errors[0]

    def pin_synchronous(self) -> None:
        self._pinned = True

    def unpin(self) -> None:
        self._pinned = False

    def shutdown(self) -> None:
        self.drain()
        self._pool.shutdown(wait=True)
