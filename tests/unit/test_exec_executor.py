"""Unit tests for the crypto executor lanes, priorities, and cost model."""

import pytest

from repro.errors import ProtocolError
from repro.exec.costs import (
    DEFAULT_COST_MODEL,
    SECONDS_PER_PAIRING,
    SECONDS_PER_VERIFY,
    CryptoCostModel,
)
from repro.exec.executor import (
    Priority,
    SimulatedCryptoExecutor,
    SynchronousCryptoExecutor,
)
from repro.net.simulator import Simulator
from repro.telemetry import MetricsRegistry
from repro.zksnark.groth16 import PAIRINGS_PER_VERIFY, PairingCounter


def pairing_work(counter: PairingCounter, evaluations: int, result="done"):
    """A job whose only observable effect is burning pairing evaluations."""

    def work():
        counter.evaluations += evaluations
        return result

    return work


class TestCostModel:
    def test_anchored_to_the_papers_verify_figure(self):
        assert SECONDS_PER_VERIFY == pytest.approx(0.030)
        assert SECONDS_PER_PAIRING == pytest.approx(0.030 / PAIRINGS_PER_VERIFY)
        assert PAIRINGS_PER_VERIFY * DEFAULT_COST_MODEL.seconds_per_pairing == pytest.approx(0.030)

    def test_batch_follows_the_n_plus_3_rule(self):
        model = CryptoCostModel(seconds_per_pairing=0.001)
        assert model.batch_verify_seconds(16) == pytest.approx(0.019)
        assert model.batch_verify_seconds(0) == 0.0
        assert model.seconds_for_pairings(7) == pytest.approx(0.007)

    def test_rejects_nonpositive_pairing_cost(self):
        with pytest.raises(ProtocolError):
            CryptoCostModel(seconds_per_pairing=0.0)


class TestSynchronousExecutor:
    def test_runs_inline_and_charges_full_service_time(self):
        counter = PairingCounter()
        executor = SynchronousCryptoExecutor(counter=counter)
        results = []
        executor.submit(pairing_work(counter, 4, "a"), results.append)
        assert results == ["a"]  # delivered before submit returned
        assert executor.workers == 0
        assert executor.stats.jobs_submitted == 1
        assert executor.stats.inline_seconds == pytest.approx(
            4 * SECONDS_PER_PAIRING
        )
        assert executor.stats.classes[Priority.RELAY].completed == 1

    def test_drain_is_a_no_op(self):
        SynchronousCryptoExecutor().drain()

    def test_is_the_one_class_with_zero_lanes(self):
        # A constructor only: tracing wraps ``submit`` on both names, so
        # the subclass must inherit it rather than define its own.
        assert issubclass(SynchronousCryptoExecutor, SimulatedCryptoExecutor)
        assert SynchronousCryptoExecutor.submit is SimulatedCryptoExecutor.submit


class TestSimulatedExecutor:
    def make(self, workers: int, sim=None, counter=None):
        sim = sim or Simulator()
        counter = counter or PairingCounter()
        return sim, counter, SimulatedCryptoExecutor(sim, workers, counter=counter)

    def test_zero_workers_is_the_inline_executor(self):
        sim, counter, executor = self.make(0)
        seen = []
        executor.submit(pairing_work(counter, 4, "inline"), seen.append)
        assert seen == ["inline"]  # delivered before submit returned
        assert sim.pending_events == 0 and sim.processed_events == 0
        assert executor.stats.lane_busy_seconds == []
        assert executor.stats.inline_seconds == pytest.approx(4 * SECONDS_PER_PAIRING)
        executor.pin_synchronous()
        executor.unpin()  # nothing to go back to: still inline
        executor.submit(pairing_work(counter, 4, "again"), seen.append)
        assert seen == ["inline", "again"]
        executor.drain()
        assert sim.pending_events == 0

    def test_rejects_negative_workers_and_lanes_without_a_simulator(self):
        with pytest.raises(ProtocolError):
            SimulatedCryptoExecutor(Simulator(), -1)
        with pytest.raises(ProtocolError, match="simulator"):
            SimulatedCryptoExecutor(None, 2)

    def test_single_lane_serializes_service_times(self):
        sim, counter, executor = self.make(1)
        completions = []
        for name in ("first", "second"):
            executor.submit(
                pairing_work(counter, 4, name),
                lambda r: completions.append((r, sim.now)),
            )
        assert completions == []  # nothing lands inside the submit call
        sim.run_until_idle()
        assert completions == [
            ("first", pytest.approx(4 * SECONDS_PER_PAIRING)),
            ("second", pytest.approx(8 * SECONDS_PER_PAIRING)),
        ]
        # The second job queued behind the first for one service time.
        relay = executor.stats.classes[Priority.RELAY]
        assert relay.queue_delay_max == pytest.approx(4 * SECONDS_PER_PAIRING)

    def test_more_lanes_run_in_parallel(self):
        sim, counter, executor = self.make(2)
        completions = []
        for name in ("a", "b"):
            executor.submit(
                pairing_work(counter, 4, name),
                lambda r: completions.append((r, sim.now)),
            )
        sim.run_until_idle()
        assert [t for _, t in completions] == [
            pytest.approx(4 * SECONDS_PER_PAIRING),
            pytest.approx(4 * SECONDS_PER_PAIRING),
        ]
        assert executor.stats.occupancy(4 * SECONDS_PER_PAIRING) == pytest.approx(1.0)

    def test_priority_classes_beat_fifo_across_classes(self):
        sim, counter, executor = self.make(1)
        order = []
        # Occupy the lane, then queue BACKGROUND, SERVICE, RELAY in that
        # submission order: they must complete in class order.
        executor.submit(pairing_work(counter, 4, "busy"), order.append)
        executor.submit(
            pairing_work(counter, 4, "background"),
            order.append,
            priority=Priority.BACKGROUND,
        )
        executor.submit(
            pairing_work(counter, 4, "service"), order.append, priority=Priority.SERVICE
        )
        executor.submit(
            pairing_work(counter, 4, "relay"), order.append, priority=Priority.RELAY
        )
        sim.run_until_idle()
        assert order == ["busy", "relay", "service", "background"]

    def test_fifo_within_a_class(self):
        sim, counter, executor = self.make(1)
        order = []
        executor.submit(pairing_work(counter, 4, "busy"), order.append)
        for name in ("s1", "s2", "s3"):
            executor.submit(
                pairing_work(counter, 4, name), order.append, priority=Priority.SERVICE
            )
        sim.run_until_idle()
        assert order == ["busy", "s1", "s2", "s3"]

    def test_async_submit_charges_only_overhead_inline(self):
        sim, counter, executor = self.make(1)
        executor.submit(pairing_work(counter, 400), lambda r: None)
        assert executor.stats.inline_seconds == pytest.approx(
            executor.cost_model.submit_overhead_seconds
        )
        sim.run_until_idle()
        assert executor.stats.service_seconds == pytest.approx(
            400 * SECONDS_PER_PAIRING
        )

    def test_drain_delivers_in_flight_and_queued_jobs_now(self):
        sim, counter, executor = self.make(1)
        delivered = []
        for name in ("x", "y", "z"):
            executor.submit(pairing_work(counter, 4, name), delivered.append)
        executor.drain()
        assert delivered == ["x", "y", "z"]
        assert executor.stats.jobs_drained >= 1
        assert executor.queued_jobs == 0 and executor.busy_lanes == 0
        # The cancelled completion events must not fire a second delivery.
        sim.run_until_idle()
        assert delivered == ["x", "y", "z"]

    def test_pin_synchronous_runs_submits_inline(self):
        sim, counter, executor = self.make(1)
        executor.pin_synchronous()
        seen = []
        executor.submit(pairing_work(counter, 4, "inline"), seen.append)
        assert seen == ["inline"]  # delivered before submit returned
        assert executor.stats.inline_seconds == pytest.approx(
            4 * SECONDS_PER_PAIRING
        )
        sim.run_until_idle()  # no lane event may fire later
        assert seen == ["inline"]
        executor.unpin()
        executor.submit(pairing_work(counter, 4, "lane"), seen.append)
        assert seen == ["inline"]
        sim.run_until_idle()
        assert seen == ["inline", "lane"]

    def test_pinned_inline_jobs_are_observed_like_the_sync_executor(self):
        # A stopped peer's inline jobs must not vanish from the exposition:
        # pinned lanes and workers=0 share one inline body, observations
        # included.
        def observed(executor, registry, counter):
            executor.submit(pairing_work(counter, 4), lambda _: None)
            return {
                name: registry.histogram(name, peer="p", priority="relay").count
                for name in ("executor_queue_wait_seconds", "executor_service_seconds")
            }

        counter, sync_registry, pinned_registry = (
            PairingCounter(), MetricsRegistry(), MetricsRegistry(),
        )
        sync = SynchronousCryptoExecutor(
            counter=counter, registry=sync_registry, peer="p"
        )
        pinned = SimulatedCryptoExecutor(
            Simulator(), 2, counter=counter, registry=pinned_registry, peer="p"
        )
        pinned.pin_synchronous()
        assert (
            observed(pinned, pinned_registry, counter)
            == observed(sync, sync_registry, counter)
            == {"executor_queue_wait_seconds": 1, "executor_service_seconds": 1}
        )
        assert pinned.stats.lane_busy_seconds == [0.0, 0.0]

    def test_zero_cost_job_still_delivers_asynchronously(self):
        sim, counter, executor = self.make(1)
        seen = []
        executor.submit(lambda: "free", seen.append)
        assert seen == []
        sim.run_until_idle()
        assert seen == ["free"]

