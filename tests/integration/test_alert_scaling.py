"""A deterministic budget on what alerting costs as the fleet grows.

Counts, not seconds: over ten simulated seconds of a collector-on
deployment the number of sampling passes must not depend on the peer
count (one per distinct fold instant plus one per evaluation), and the
matcher calls — the unit of work a selection does — may grow no faster
than the stored entries do.  A scan per rule per fold makes both
quadratic: ≈ 2× the passes and ≈ 4× the matcher calls for 2× the peers.
"""

from repro.core.deployment import RLNDeployment
from repro.telemetry import CollectorOptions, alerts

SIMULATED_SECONDS = 10.0


def alerting_cost(peer_count, monkeypatch):
    counts = {"passes": 0, "matches": 0}
    real_sample = alerts.RuleEngine.sample
    real_matches = alerts._matches

    def counted_sample(self, now, states):
        counts["passes"] += 1
        return real_sample(self, now, states)

    def counted_matches(entry, name, matchers):
        counts["matches"] += 1
        return real_matches(entry, name, matchers)

    deployment = RLNDeployment.create(
        peer_count=peer_count,
        degree=4,
        seed=7,
        collector=CollectorOptions(interval=1.0, alerting=True),
    )
    deployment.register_all()
    deployment.form_meshes()
    with monkeypatch.context() as patch:
        patch.setattr(alerts.RuleEngine, "sample", counted_sample)
        patch.setattr(alerts, "_matches", counted_matches)
        deployment.run(SIMULATED_SECONDS)
    collector = deployment.collector
    assert collector.stats.lost_batches == 0 and collector.firing() == []
    assert len(collector.peers()) == peer_count
    return counts


def test_alerting_cost_scales_with_entries_not_rules_times_peers(monkeypatch):
    small = alerting_cost(8, monkeypatch)
    large = alerting_cost(16, monkeypatch)
    # every export tick's batches land at one instant: one pass for all of
    # them, plus the evaluation ticker's — whatever the peer count
    assert small["passes"] == large["passes"]
    assert small["passes"] <= 3.5 * SIMULATED_SECONDS
    assert 0 < large["matches"] <= 2.5 * small["matches"]
