"""End-to-end fleet benchmark: four workloads, normalised host time, per-layer spans.

See README.md.  ``python3 benchmarks/e2e/run.py`` runs one workload once (the
driver's contract); ``python -m benchmarks.e2e`` runs the whole suite and
writes a ledger.
"""
