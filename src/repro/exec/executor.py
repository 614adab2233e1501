"""The async crypto executor: worker lanes for pairing work.

The §III-F routing decision makes relay peers do Groth16 pairing checks on
every relayed message, and until this subsystem existed the
:class:`~repro.pipeline.batch_verifier.BatchVerifier` ran those checks
*inside* the relay callback — the event loop stalled on crypto exactly
when a flood made batching most valuable.  Production gossip stacks
decouple the two with worker pools; this module models that decoupling so
queueing delay and CPU occupancy become first-class simulated quantities.

One class, :class:`SimulatedCryptoExecutor`, whatever the lane count:

* ``workers >= 1`` — N simulated worker lanes over the discrete-event
  :class:`~repro.net.simulator.Simulator`.  Jobs wait in per-priority
  FIFO queues (relay verdicts ahead of service-path re-validation ahead
  of background witness work), a free lane runs the job's crypto
  immediately but *delivers the result at simulated completion time* —
  start + pairings × per-pairing cost, read from the shared
  :class:`~repro.zksnark.groth16.PairingCounter` and the
  :class:`~repro.exec.costs.CryptoCostModel`.  ``idle`` counts the lanes
  free now, so a batcher can split its window across all of them.
* ``workers=0`` — no lanes: every submit runs inline and returns the
  result itself (a lane submit returns ``None``; its ``on_done`` fires at
  simulated completion); ``idle`` reads 1, the caller's stack.  This
  default is bit-identical to the pre-executor code, and the state a
  stopped peer's executor is pinned to (``pin_synchronous``).
  :class:`SynchronousCryptoExecutor` is the zero-lane constructor.

Priority is a *class*, not a number to tune: :attr:`Priority.RELAY` for
verdicts the mesh is waiting on, :attr:`Priority.SERVICE` for
store/filter/lightpush re-validation, :attr:`Priority.BACKGROUND` for
witness precomputation.  Within a class, jobs run in submission order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.exec.costs import CryptoCostModel
from repro.net.simulator import Simulator
from repro.telemetry.disttrace import DISABLED, Disabled
from repro.telemetry.registry import MetricsRegistry
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
    #: Jobs whose result :meth:`SimulatedCryptoExecutor.drain` delivered early.
    jobs_drained: int = 0
    #: Modeled crypto seconds executed in the caller's stack (see above).
    inline_seconds: float = 0.0
    #: Modeled seconds of lane service time (queue wait excluded).
    service_seconds: float = 0.0
    #: Busy seconds accumulated per lane (empty with zero lanes).
    lane_busy_seconds: list[float] = field(default_factory=list)

    def occupancy(self, elapsed: float) -> float:
        """Mean fraction of lane capacity in use over ``elapsed`` seconds."""
        if not self.lane_busy_seconds or elapsed <= 0:
            return 0.0
        return sum(self.lane_busy_seconds) / (elapsed * len(self.lane_busy_seconds))

    @property
    def jobs_submitted(self) -> int:
        return sum(cls.submitted for cls in self.classes.values())


class SimulatedCryptoExecutor:
    """The seam every validation layer submits pairing work through:
    ``workers`` lanes on the simulator.

    A free lane takes the oldest job of the strongest non-empty priority
    class, executes its crypto immediately (the pairing checks are cheap
    HMACs here), and *delivers the result at simulated completion time*:
    dispatch + pairings-executed × ``cost_model.seconds_per_pairing``.  The pairing
    count is read as a delta on the shared ``counter``, so whatever the
    job actually did — one classical check, an RLC batch, a full fallback
    sweep — is what occupies the lane.  The caller's stack is only
    charged ``submit_overhead_seconds`` of modeled inline time per job:
    relay callbacks return immediately.

    ``workers=0`` (no simulator needed) is crypto inline in the caller,
    exactly like the seed: ``submit`` runs the work and returns its
    result, with zero simulator events — the property the equivalence
    suites pin down.
    """

    def __init__(
        self,
        simulator: Simulator | None,
        workers: int,
        *,
        counter: PairingCounter | None = None,
        cost_model: CryptoCostModel | None = None,
        registry: "MetricsRegistry | Disabled" = DISABLED,
        peer: str = "",
    ) -> None:
        if workers < 0:
            raise ProtocolError("workers must be >= 0")
        if workers and simulator is None:
            raise ProtocolError("workers >= 1 needs a simulator")
        self.simulator = simulator
        self.workers = workers
        self.counter = counter
        self.cost_model = cost_model or CryptoCostModel()
        self.stats = ExecutorStats()
        self.stats.lane_busy_seconds = [0.0] * workers
        # Queue depth and busy lanes are bound gauges (both read 0 with zero
        # lanes, marked by each lane pass); the wait and service histograms
        # are handles interned once per class — and skipped with telemetry off.
        self._observed = registry.enabled
        self._moved = registry.marker(
            registry.bind("executor_queue_depth", lambda: self.queued_jobs, "gauge", peer=peer),
            registry.bind("executor_busy_lanes", lambda: self.busy_lanes, "gauge", peer=peer),
        )
        self.served: Callable[[], None] = registry.marker()  # set by a closing pipeline
        classes = {p: p.name.lower() for p in Priority}
        self._wait = {
            p: registry.histogram("executor_queue_wait_seconds", peer=peer, priority=c)
            for p, c in classes.items()
        }
        self._service = {
            p: registry.histogram("executor_service_seconds", peer=peer, priority=c)
            for p, c in classes.items()
        }
        #: Per class, FIFO of (work, args, on_done, waiting since).
        self._queues: dict[Priority, deque[tuple[Any, ...]]] = {p: deque() for p in Priority}
        self._idle_lanes: list[int] = list(range(workers))
        #: lane -> (completion handle, priority, wait, on_done, args, result).
        self._in_flight: dict[int, tuple[Any, ...]] = {}
        #: Submits run in the caller's stack: always with zero lanes, and
        #: while pinned (peer stopped) with any.
        self.inline = workers == 0
        #: Called once, then cleared, the next time a lane frees, before the
        #: lane takes a queued job: a batcher's cue to hand its window over.
        self.on_lane_free: Callable[[], None] | None = None

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        work: Callable[..., Any],
        on_done: Callable[..., None] | None = None,
        *,
        priority: Priority = Priority.RELAY,
        args: tuple[Any, ...] = (),
        since: float | None = None,
    ) -> Any:
        """Run ``work(*args)``: its result if it ran inline, else ``None``;
        ``on_done(*args, result)``, if given, fires on completion.  A lane
        job's wait runs from ``since`` (a batch's oldest job), else now."""
        self.stats.classes[priority].submitted += 1
        if not self.inline:
            self.stats.inline_seconds += self.cost_model.submit_overhead_seconds
            since = self.simulator.now if since is None else since
            self._queues[priority].append((work, args, on_done, since))
            self._dispatch_idle_lanes()
            return None
        # Zero wait, the modeled pairing time charged to the caller, and no
        # lane busy time (a stopped peer has no occupancy).
        result, service = self._execute(priority, work, args, 0.0)
        self.stats.inline_seconds += service
        self._finish(priority, 0.0)
        if on_done is not None:
            on_done(*args, result)
        return result

    def _execute(
        self, priority: Priority, work: Callable[..., Any], args: tuple[Any, ...], wait: float
    ) -> tuple[Any, float]:
        """Run ``work(*args)`` and book its service time — the pairings it
        executed on the shared counter; returns ``(result, service)``."""
        counter = self.counter
        before = counter.evaluations if counter is not None else 0
        result = work(*args)
        service = self.cost_model.seconds_for_pairings(
            counter.evaluations - before if counter is not None else 0
        )
        self.stats.service_seconds += service
        self.served()
        if self._observed:
            self._wait[priority].observe(wait)
            self._service[priority].observe(service)
        return result, service

    def _finish(self, priority: Priority, wait: float) -> None:
        cls = self.stats.classes[priority]
        cls.completed += 1
        cls.queue_delay_total += wait
        cls.queue_delay_max = max(cls.queue_delay_max, wait)

    @property
    def queued_jobs(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def busy_lanes(self) -> int:
        return len(self._in_flight)

    @property
    def idle(self) -> int:
        """How many jobs submitted now would start now (inline: one)."""
        return 1 if self.inline else len(self._idle_lanes)

    # -- lane machinery ------------------------------------------------------

    def _dispatch_idle_lanes(self) -> None:
        """Run the oldest job of the strongest non-empty class on each idle
        lane now, and schedule its completion one service time later.  A job
        queued or landed always passes here, so this marks queue and lanes."""
        self._moved()
        queues, idle = self._queues, self._idle_lanes
        while idle:
            for priority, queue in queues.items():  # strongest first, as built
                if queue:
                    break
            else:
                return
            work, args, on_done, submitted_at = queue.popleft()
            lane = idle.pop()
            wait = self.simulator.now - submitted_at
            result, service = self._execute(priority, work, args, wait)
            self.stats.lane_busy_seconds[lane] += service
            handle = self.simulator.schedule(service, lambda lane=lane: self._complete(lane))
            self._in_flight[lane] = (handle, priority, wait, on_done, args, result)

    def _complete(self, lane: int) -> None:
        """Land ``lane``'s job: finish it, call its ``on_done``, then free
        the lane, signal ``on_lane_free`` and refill it."""
        _, priority, wait, on_done, args, result = self._in_flight.pop(lane)
        try:
            self._finish(priority, wait)
            if on_done is not None:
                on_done(*args, result)
        finally:
            self._idle_lanes.append(lane)
            hook, self.on_lane_free = self.on_lane_free, None
            if hook is not None:
                hook()
            self._dispatch_idle_lanes()

    # -- shutdown ------------------------------------------------------------

    def drain(self) -> None:
        """Deliver every in-flight and queued result at the current instant.

        Used by a stopping peer: parked verdicts must land *now*, not at a
        simulated time the peer will never reach.  Each pass completes, in
        lane order, the jobs in flight when it began (their events
        cancelled); a freed lane takes the next queued job, which the next
        pass completes.  Nothing is ever outstanding with zero lanes.  A
        job queued while nothing is in flight waits on lanes held by
        completing jobs (an ``on_done`` called this drain): it runs here,
        lane-less, and lands at once.
        """
        while self._in_flight or self.queued_jobs:
            if not self._in_flight:
                priority = next(p for p, queue in self._queues.items() if queue)
                work, args, on_done, submitted_at = self._queues[priority].popleft()
                wait = self.simulator.now - submitted_at
                result, _ = self._execute(priority, work, args, wait)
                self._finish(priority, wait)
                self.stats.jobs_drained += 1
                if on_done is not None:
                    on_done(*args, result)
            for lane, entry in sorted(self._in_flight.items()):
                if self._in_flight.get(lane) is not entry:
                    continue  # completed by an on_done of this pass
                entry[0].cancel()
                self.stats.jobs_drained += 1
                self._complete(lane)

    def pin_synchronous(self) -> None:
        """Run every subsequent submit inline in the caller (peer stopped).

        Every holder of this executor — the batch verifier *and* the
        proof checker handed to store/filter/lightpush — degrades to
        inline verification at once: a stopped peer never schedules
        crypto to fire at a later simulated time.
        """
        self.inline = True

    def unpin(self) -> None:
        """Undo :meth:`pin_synchronous` (peer restart)."""
        self.inline = self.workers == 0


class SynchronousCryptoExecutor(SimulatedCryptoExecutor):
    """The zero-lane executor, for holders without a simulator.

    A constructor only: ``submit`` and everything else is inherited, so
    there is one inline body and one class for tracing to wrap.
    """

    def __init__(
        self,
        *,
        counter: PairingCounter | None = None,
        cost_model: CryptoCostModel | None = None,
        registry: "MetricsRegistry | Disabled" = DISABLED,
        peer: str = "",
    ) -> None:
        super().__init__(
            None, 0, counter=counter, cost_model=cost_model,
            registry=registry, peer=peer,
        )
