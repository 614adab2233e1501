"""Shared benchmark utilities.

Every benchmark prints an :class:`ExperimentReport` reproducing the
corresponding rows of the paper's evaluation (the README's experiment
paragraphs record paper-vs-measured).  Reports are also appended to
``benchmarks/reports/<experiment>.txt`` so the tables survive pytest's
output capture.  Benchmarks that run with telemetry enabled additionally
drop a JSON :class:`~repro.telemetry.export.TelemetrySnapshot` next to
the table (``snapshot_sink``) — CI uploads these as artifacts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.telemetry.export import TelemetrySnapshot, write_snapshot

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_sink():
    REPORT_DIR.mkdir(exist_ok=True)

    def sink(report: ExperimentReport) -> None:
        rendered = report.render()
        print("\n" + rendered)
        path = REPORT_DIR / f"{report.experiment}.txt"
        path.write_text(rendered + "\n", encoding="utf-8")

    return sink


@pytest.fixture(scope="session")
def snapshot_sink():
    """Persist a telemetry snapshot as ``reports/<name>.telemetry.json``."""
    REPORT_DIR.mkdir(exist_ok=True)

    def sink(name: str, snapshot: TelemetrySnapshot) -> pathlib.Path:
        path = REPORT_DIR / f"{name}.telemetry.json"
        write_snapshot(snapshot, path)
        return path

    return sink
