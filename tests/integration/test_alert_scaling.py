"""A deterministic budget on what alerting costs as the fleet grows.

Counts, not seconds: over ten simulated seconds of a collector-on
deployment in which every peer publishes once (so the window holds
folds), the number of sampling passes must not depend on the peer count
(one per distinct fold instant plus one per evaluation), and the matcher
calls — the unit of work a selection does — may grow no faster than the
stored entries do.  A scan per rule per fold makes both quadratic: ≈ 2×
the passes and ≈ 4× the matcher calls for 2× the peers.

The engine keeps each selection per index version, so a version's
selections cost at most one full pass from scratch, the fold's version
costs exactly that, and a pass over a version an evaluation has already
read calls the matcher not at all.
"""

from functools import partial

from repro.core.deployment import RLNDeployment
from repro.telemetry import CollectorOptions, alerts

SIMULATED_SECONDS = 10.0


def alerting_cost(peer_count, monkeypatch):
    passes = []  # [index version, evaluation?, matcher calls], one per pass
    evaluating = []
    real_sample = alerts.RuleEngine.sample
    real_evaluate = alerts.RuleEngine.evaluate
    real_matches = alerts._matches

    def counted_sample(self, now, states):
        if not evaluating:  # an evaluation's own sample is part of its pass
            passes.append([states.version, False, 0])
        return real_sample(self, now, states)

    def counted_evaluate(self, now, states, **kwargs):
        passes.append([states.version, True, 0])
        evaluating.append(now)
        try:
            return real_evaluate(self, now, states, **kwargs)
        finally:
            evaluating.pop()

    def counted_matches(entry, name, matchers):
        passes[-1][2] += 1
        return real_matches(entry, name, matchers)

    deployment = RLNDeployment.create(
        peer_count=peer_count,
        degree=4,
        seed=7,
        collector=CollectorOptions(interval=1.0, alerting=True),
    )
    deployment.register_all()
    deployment.form_meshes()
    collector = deployment.collector
    batches = collector.stats.batches
    with monkeypatch.context() as patch:
        patch.setattr(alerts.RuleEngine, "sample", counted_sample)
        patch.setattr(alerts.RuleEngine, "evaluate", counted_evaluate)
        patch.setattr(alerts, "_matches", counted_matches)
        for number, peer in enumerate(deployment.peers.values()):
            # one publish per peer, spread over the first eight seconds
            payload = b"scaling|%d" % number
            deployment.simulator.schedule(number % 8, partial(peer.publish, payload))
        deployment.run(SIMULATED_SECONDS)
        # one pass from scratch over the final index: every selection once
        full = alerts.RuleEngine([state.rule for state in collector.engine._states.values()])
        full.evaluate(deployment.simulator.now, collector._index)
    assert collector.stats.batches > batches  # the window holds folds
    assert collector.stats.lost_batches == 0 and collector.firing() == []
    assert len(collector.peers()) == peer_count
    return passes[:-1], passes[-1][2]


def per_version(passes):
    """Matcher calls per index version, and the calls of every pass over a
    version that an earlier evaluation already read."""
    calls, evaluated, repeat = {}, set(), []
    for version, evaluation, matches in passes:
        calls[version] = calls.get(version, 0) + matches
        if version in evaluated:
            repeat.append(matches)
        if evaluation:
            evaluated.add(version)
    return calls, repeat


def test_alerting_cost_scales_with_entries_not_rules_times_peers(monkeypatch):
    small, small_full = alerting_cost(8, monkeypatch)
    large, large_full = alerting_cost(16, monkeypatch)
    # every export tick's batches land at one instant: one pass for all of
    # them, plus the evaluation ticker's — whatever the peer count
    assert len(small) == len(large)
    assert len(small) <= 3.5 * SIMULATED_SECONDS
    for passes, full in ((small, small_full), (large, large_full)):
        calls, repeat = per_version(passes)
        # a version's selections cost at most one full pass; a fold's, once
        # an evaluation read it, exactly that; a re-read of a version costs
        # nothing
        assert max(calls.values()) == full
        assert set(repeat) == {0}
    # a full pass walks the selected entries: twice the peers, at most
    # 2.5× the calls, and so for the window as a whole
    assert large_full <= 2.5 * small_full
    total = [sum(matches for _, _, matches in passes) for passes in (small, large)]
    assert total[1] <= 2.5 * total[0]

