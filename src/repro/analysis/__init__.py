"""Experiment metrics and report rendering."""

from repro.analysis.metrics import (
    DeliveryTracker,
    LatencySummary,
    NullifierMapLoad,
    mean,
    nullifier_map_load,
)
from repro.analysis.reporting import (
    ExperimentReport,
    format_bytes,
    format_seconds,
    format_table,
)

__all__ = [
    "DeliveryTracker",
    "LatencySummary",
    "NullifierMapLoad",
    "mean",
    "nullifier_map_load",
    "ExperimentReport",
    "format_bytes",
    "format_seconds",
    "format_table",
]
