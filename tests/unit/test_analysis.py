"""Unit tests for metrics and reporting."""

from types import SimpleNamespace

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.analysis.reporting import (
    ExperimentReport,
    format_bytes,
    format_seconds,
    format_table,
    summarize,
)
from repro.net.simulator import Simulator


class TestLatencySummary:
    def test_of_samples(self):
        summary = summarize([0.1, 0.2, 0.3, 0.4])
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.25)
        assert summary.p50 == pytest.approx(0.25)
        assert summary.maximum == 0.4

    def test_empty(self):
        summary = summarize([])
        assert summary.count == 0 and summary.mean == 0.0


class FakeRelay:
    def __init__(self) -> None:
        self.callbacks = []

    def subscribe(self, callback) -> None:
        self.callbacks.append(callback)

    def deliver(self, payload: bytes) -> None:
        for callback in self.callbacks:
            callback(SimpleNamespace(payload=payload))


def fleet(sim: Simulator, *peer_ids: str) -> SimpleNamespace:
    """What a tracker reads of a deployment: its simulator and peers."""
    return SimpleNamespace(
        simulator=sim,
        peers={peer_id: SimpleNamespace(relay=FakeRelay()) for peer_id in peer_ids},
    )


class TestDeliveryTracker:
    def test_latency_measurement(self):
        sim = Simulator()
        dep = fleet(sim, "peer-a")
        tracker = DeliveryTracker(dep)
        tracker.mark_published(b"m")
        sim.schedule(0.5, lambda: dep.peers["peer-a"].relay.deliver(b"m"))
        sim.run_until_idle()
        assert tracker.latencies(b"m") == [0.5]
        assert tracker.delivery_count(b"m") == 1
        assert tracker.dissemination_time(b"m") == 0.5

    def test_unknown_payload(self):
        tracker = DeliveryTracker(fleet(Simulator()))
        assert tracker.latencies(b"nope") == []
        assert tracker.dissemination_time(b"nope") is None
        assert tracker.delivery_count(b"nope") == 0

    def test_a_second_delivery_to_a_peer_keeps_the_first_time(self):
        sim = Simulator()
        dep = fleet(sim, "peer-a", "peer-b")
        tracker = DeliveryTracker(dep)
        tracker.mark_published(b"m")
        sim.schedule(0.5, lambda: dep.peers["peer-a"].relay.deliver(b"m"))
        sim.schedule(0.7, lambda: dep.peers["peer-b"].relay.deliver(b"m"))
        # Republished later (say, in the next epoch): peer-a gets it again.
        sim.schedule(30.0, lambda: dep.peers["peer-a"].relay.deliver(b"m"))
        sim.run_until_idle()
        assert sorted(tracker.latencies(b"m")) == [0.5, 0.7]
        assert tracker.delivery_count(b"m") == 2
        assert tracker.dissemination_time(b"m") == 0.7

    def test_unmarked_payloads_are_counted_but_have_no_latency(self):
        sim = Simulator()
        dep = fleet(sim, "peer-a")
        tracker = DeliveryTracker(dep)
        dep.peers["peer-a"].relay.deliver(b"unmarked")
        assert tracker.delivery_count(b"unmarked") == 1
        assert tracker.latencies(b"unmarked") == []


class TestReporting:
    def test_table_alignment(self):
        table = format_table(("name", "value"), [("a", 1), ("long-name", 2.5)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all("|" in line for line in (lines[0], lines[2], lines[3]))

    def test_format_bytes(self):
        assert format_bytes(100) == "100 B"
        assert "KB" in format_bytes(2048)
        assert "MB" in format_bytes(67_000_000)

    def test_format_seconds(self):
        assert format_seconds(2.0) == "2 s"
        assert "ms" in format_seconds(0.03)
        assert "us" in format_seconds(0.00003)

    def test_experiment_report(self):
        report = ExperimentReport(
            experiment="E1", claim="test claim", headers=("a", "b")
        )
        report.add_row(1, 2)
        report.add_note("a note")
        rendered = report.render()
        assert "E1" in rendered and "test claim" in rendered and "a note" in rendered

    def test_row_arity_checked(self):
        report = ExperimentReport(experiment="E", claim="c", headers=("a", "b"))
        with pytest.raises(ValueError):
            report.add_row(1)
