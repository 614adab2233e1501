"""E9 — the Thr formula (§III-F).

Thr = ceil((NetworkDelay + ClockAsynchrony) / T) is supposed to be the
*smallest* gap threshold that never drops honest traffic.  The experiment
sweeps Thr for networks with real link latency and real clock drift and
measures the honest false-drop rate: it should fall to zero at (or just
below) the formula's value, while larger Thr only grows the spam window.
"""

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.analysis.reporting import ExperimentReport
from repro.core.config import RLNConfig, compute_max_epoch_gap
from repro.core.deployment import RLNDeployment
from repro.core.validator import ValidationOutcome
from repro.net.clock import DriftModel
from repro.net.latency import UniformLatency, dissemination_bound

PEERS = 14
EPOCH_LENGTH = 1.0  # short epochs make gaps visible
MESSAGES = 10


def run_arm(thr: int, *, max_offset: float, seed: int) -> float:
    """Returns the honest false-drop fraction at gap threshold ``thr``."""
    latency = UniformLatency(0.05, 0.4)
    config = RLNConfig(
        epoch_length=EPOCH_LENGTH, max_epoch_gap=thr, tree_depth=8, root_window=10
    )
    dep = RLNDeployment.create(
        peer_count=PEERS,
        degree=4,
        seed=seed,
        config=config,
        latency=latency,
        drift=DriftModel(max_offset),
    )
    dep.register_all()
    dep.form_meshes(5.0)
    tracker = DeliveryTracker(dep)
    publishers = dep.peer_ids()
    for i in range(MESSAGES):
        dep.peer(publishers[i % PEERS]).publish(b"honest-%d" % i, force=True)
        dep.run(2.5)
    dep.run(5.0)
    expected = MESSAGES * PEERS
    delivered = sum(
        tracker.delivery_count(b"honest-%d" % i) for i in range(MESSAGES)
    )
    dropped_for_gap = sum(
        p.validator.stats.count(ValidationOutcome.INVALID_EPOCH_GAP)
        for p in dep.peers.values()
    )
    false_drop = 1.0 - delivered / expected
    return false_drop, dropped_for_gap


@pytest.fixture(scope="module")
def sweep():
    max_offset = 1.0  # ClockAsynchrony = 2 s
    latency = UniformLatency(0.05, 0.4)
    network_delay = dissemination_bound(latency, PEERS, 4)
    formula_thr = compute_max_epoch_gap(network_delay, 2 * max_offset, EPOCH_LENGTH)
    rows = []
    for thr in (1, 2, formula_thr, formula_thr + 2):
        false_drop, gap_drops = run_arm(thr, max_offset=max_offset, seed=90 + thr)
        rows.append((thr, false_drop, gap_drops))
    return formula_thr, rows


def test_thr_formula_sufficient(sweep, report_sink, benchmark):
    formula_thr, rows = sweep
    report = ExperimentReport(
        experiment="E9",
        claim=f"Thr formula (§III-F): computed Thr = {formula_thr} for this network",
        headers=("Thr", "honest false-drop rate", "gap drops observed"),
    )
    for thr, false_drop, gap_drops in rows:
        marker = " (formula)" if thr == formula_thr else ""
        report.add_row(f"{thr}{marker}", f"{false_drop:.3f}", gap_drops)
    report.add_note(
        "ClockAsynchrony = 2 s, worst-case dissemination from the latency "
        "model; false drops vanish at the formula's Thr"
    )
    report_sink(report)

    by_thr = {thr: false_drop for thr, false_drop, _ in rows}
    # At the formula's threshold (and above) honest traffic never drops.
    assert by_thr[formula_thr] == 0.0
    assert by_thr[formula_thr + 2] == 0.0
    # Thr = 1 with 2 s of drift on 1 s epochs must visibly drop messages.
    assert by_thr[1] > 0.05

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
