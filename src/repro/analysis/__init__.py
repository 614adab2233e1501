"""Experiment metrics and report rendering."""

from repro.analysis.metrics import (
    DeliveryTracker,
    LatencySummary,
    NullifierMapLoad,
    SpamContainment,
    mean,
    nullifier_map_load,
    spam_containment,
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
    "SpamContainment",
    "mean",
    "nullifier_map_load",
    "spam_containment",
    "ExperimentReport",
    "format_bytes",
    "format_seconds",
    "format_table",
]
