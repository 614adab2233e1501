"""The reference delta computation the live export path is held to.

:func:`compute_deltas` diffs two whole ``MetricsRegistry.collect()``
passes — the obvious statement of OTLP delta temporality.  The exporter
does not run it: it diffs the live metric objects against what it last
sent (:class:`repro.telemetry.otlp.DeltaTracker`), and the property suite
checks, tick by tick, that the two agree.
"""

from __future__ import annotations

from typing import Mapping

from repro.telemetry.otlp import (
    CounterDelta,
    GaugeValue,
    HistogramDelta,
    MetricDelta,
    labels_of,
)
from repro.telemetry.registry import DEFAULT_BUCKETS


def compute_deltas(
    current: Mapping[str, dict], previous: Mapping[str, dict]
) -> tuple[MetricDelta, ...]:
    """Diff two registry ``collect()`` passes into wire deltas.

    A metric appears in the output when it changed since ``previous`` —
    or on **first sight** (even at zero), so the collector's key set
    matches the peer's registry exactly.
    """
    deltas: list[MetricDelta] = []
    for key, entry in current.items():
        prev = previous.get(key)
        labels = labels_of(entry["labels"])
        if entry["kind"] == "counter":
            delta = entry["value"] - (prev["value"] if prev else 0)
            if prev is None or delta != 0:
                deltas.append(CounterDelta(entry["name"], labels, delta))
        elif entry["kind"] == "gauge":
            if prev is None or entry["value"] != prev["value"]:
                deltas.append(GaugeValue(entry["name"], labels, entry["value"]))
        else:
            count_delta = entry["count"] - (prev["count"] if prev else 0)
            if prev is not None and count_delta == 0:
                continue
            prev_buckets = prev["buckets"] if prev else None
            sparse = tuple(
                (index, count - (prev_buckets[index] if prev_buckets else 0))
                for index, count in enumerate(entry["buckets"])
                if count != (prev_buckets[index] if prev_buckets else 0)
            )
            le = tuple(entry["le"])
            deltas.append(
                HistogramDelta(
                    name=entry["name"],
                    labels=labels,
                    count_delta=count_delta,
                    sum_total=entry["sum"],
                    min_total=entry["min"],
                    max_total=entry["max"],
                    bucket_deltas=sparse,
                    le=None if le == DEFAULT_BUCKETS else le,
                )
            )
    return tuple(deltas)
