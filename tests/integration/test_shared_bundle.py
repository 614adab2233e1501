"""One bundle object is shared by every peer it reaches, and it remembers
what it derives (payload binding, statement, verdict-cache key).  A fleet
must still judge a re-used proof on what it is attached to now: the same
``RateLimitProof`` on a second payload is a payload mismatch everywhere,
and a forged proof over an accepted statement is an invalid proof, never a
cached verdict."""

import dataclasses

import pytest

from repro.analysis.metrics import DeliveryTracker
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.validator import ValidationOutcome

DEPTH = 8


@pytest.fixture()
def accepted():
    """A fleet in which one valid bundle has been accepted by every peer,
    its delivery record, and the accepted message."""
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=1, tree_depth=DEPTH)
    dep = RLNDeployment.create(peer_count=8, degree=4, seed=29, config=config)
    dep.register_all()
    dep.form_meshes(5.0)
    tracker = DeliveryTracker(dep)
    message = dep.peer("peer-001").publish(b"the bound payload")
    dep.run(2.0)
    assert tracker.delivery_count(b"the bound payload") == len(dep.peers)
    return dep, tracker, message


def inject(dep, origin: str, message):
    """Push ``message`` into ``origin``'s relay; return each peer's outcome deltas."""
    before = {
        name: dict(peer.validator.stats.outcomes) for name, peer in dep.peers.items()
    }
    dep.peer(origin).relay.publish(message)
    dep.run(3.0)
    deltas = {}
    for name, peer in dep.peers.items():
        delta = {
            outcome: count - before[name][outcome]
            for outcome, count in peer.validator.stats.outcomes.items()
            if count != before[name][outcome]
        }
        if delta:
            deltas[name] = delta
    return deltas


def test_a_proof_reattached_to_a_second_payload_mismatches_at_every_receiver(accepted):
    dep, tracker, message = accepted
    replay = dataclasses.replace(message, payload=b"a second payload")
    assert replay.rate_limit_proof is message.rate_limit_proof  # the very object
    deltas = inject(dep, "peer-005", replay)
    assert deltas  # someone received it
    for name, delta in deltas.items():
        assert set(delta) == {ValidationOutcome.PAYLOAD_MISMATCH}, name
    assert tracker.delivery_count(b"a second payload") == 1  # the injector's own app


def test_a_forged_proof_over_an_accepted_statement_is_never_a_cached_verdict(accepted):
    dep, _, message = accepted
    # Same payload and statement, a garbage proof, a new content topic (so
    # a new message id the seen-caches have not witnessed).
    forged = dataclasses.replace(
        message,
        content_topic=message.content_topic + "/forged",
        rate_limit_proof=message.rate_limit_proof.forged_copy(),
    )
    cached_before = sum(p.validator.stats.proofs_cached for p in dep.peers.values())
    deltas = inject(dep, "peer-005", forged)
    assert deltas
    for name, delta in deltas.items():
        assert set(delta) == {ValidationOutcome.INVALID_PROOF}, name
    assert sum(p.validator.stats.proofs_cached for p in dep.peers.values()) == cached_before
