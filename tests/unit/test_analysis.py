"""Unit tests for metrics and reporting."""

import pytest

from repro.analysis.metrics import DeliveryTracker, LatencySummary, mean
from repro.analysis.reporting import (
    ExperimentReport,
    format_bytes,
    format_seconds,
    format_table,
)
from repro.net.simulator import Simulator


class TestLatencySummary:
    def test_of_samples(self):
        summary = LatencySummary.of([0.1, 0.2, 0.3, 0.4])
        assert summary.count == 4
        assert summary.mean == pytest.approx(0.25)
        assert summary.p50 == pytest.approx(0.25)
        assert summary.maximum == 0.4

    def test_empty(self):
        assert LatencySummary.of([]).count == 0

    def test_p95_near_top(self):
        summary = LatencySummary.of(list(range(100)))
        assert 90 <= summary.p95 <= 99


class TestDeliveryTracker:
    def test_latency_measurement(self):
        sim = Simulator()
        tracker = DeliveryTracker(sim)
        tracker.mark_published(b"m")
        callback = tracker.on_delivery("peer-a")
        sim.schedule(0.5, lambda: callback(type("M", (), {"payload": b"m"})()))
        sim.run_until_idle()
        assert tracker.latencies(b"m") == [0.5]
        assert tracker.delivery_count(b"m") == 1
        assert tracker.dissemination_time(b"m") == 0.5

    def test_unknown_payload(self):
        tracker = DeliveryTracker(Simulator())
        assert tracker.latencies(b"nope") == []
        assert tracker.dissemination_time(b"nope") is None


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

    def test_mean_helper(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0
