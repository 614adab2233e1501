"""Experiment metrics and report rendering."""

from repro.analysis.metrics import DeliveryTracker
from repro.analysis.reporting import (
    ExperimentReport,
    format_bytes,
    format_seconds,
    format_table,
)

__all__ = [
    "DeliveryTracker",
    "ExperimentReport",
    "format_bytes",
    "format_seconds",
    "format_table",
]
