"""Integration: every relay-path counter of a small fleet under attack, pinned.

An 8-peer fleet runs honest rounds while one attacker injects three kinds
of forged bundle — a garbage proof over a consistent statement (costs a
pairing check at hop 1), a proof bound to another payload (a cheap-check
reject) and a bundle ten epochs stale (a prefilter drop) — fast enough to
overflow its neighbours' per-peer token buckets; then a member signals
twice in one epoch and is slashed.  It runs in two shapes: inline
(``batch_size=1``, zero crypto lanes, every verdict landing in the relay
callback) and batched (``batch_size=4`` over two lanes).

Each shape's record is split into three named parts, one SHA-256 each,
so a change can state which part it may move:

* ``checks`` — the fleet's pairing work and what every peer counted while
  judging: ``ValidatorStats`` outcomes, ``proofs_verified`` and
  ``proofs_cached``; ``PipelineStats`` (admitted, deferred, drops),
  ``PrefilterStats`` and ``RateLimitStats``; ``BatchVerifierStats`` plus
  the verifier's ``cache_hits``, ``verified`` and ``joined_in_flight``;
  ``ExecutorStats`` per priority class and in total; protocol stats;
* ``routing`` — how copies moved: router stats per peer, the bytes billed
  per protocol and the simulator's processed-event count;
* ``deliveries`` — what each peer delivered and when: its list of
  (payload, simulated delivery time).

A change to how a receipt is checked, batched, executed or counted must
leave ``checks`` and ``deliveries`` alone; only a change to which copies
are sent may move ``routing``.  No part depends on ``PYTHONHASHSEED``
(``tests/integration/test_hash_seed_independence.py`` runs them under
three seeds).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import DEFAULT_CONTENT_TOPIC, RateLimitProof, ValidationOutcome
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.epoch import external_nullifier
from repro.pipeline import PipelineConfig
from repro.pipeline.prefilter import PrefilterOutcome
from repro.pipeline.ratelimit import BucketSpec
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof
from repro.zksnark.rln_circuit import RLNPublicInputs

#: Small enough that a burst of forgeries overflows it, large enough that
#: honest forwarding mostly does not.
BUCKET = BucketSpec(capacity=12.0, refill_per_second=6.0)

SHAPES = {
    "inline": PipelineConfig(batch_size=1, workers=0, peer_bucket=BUCKET),
    "batched": PipelineConfig(
        batch_size=4, workers=2, batch_deadline=0.05, peer_bucket=BUCKET
    ),
}

GOLDEN = {
    # ``checks`` re-pinned when the prefilter lost its dedup gate; the only
    # key gone is ``prefilter_dropped["DUPLICATE_ID"]``, 0 on every peer.
    "batched": {
        "checks": "376765ef2428637487167047f12ba89e34c94d6f7d4723b413d7ddeaa84bcfa5",
        # Re-pinned when peers with a pending verdict began announcing
        # what they hold (IDONTWANT) and being spared copies of it.
        "routing": "74917c00c9a066bd4e54423c62c11ad3e04aa95ea9547396b1813703b474f3da",
        "deliveries": "77c0183884cf8500bfe906ac444fdb63df28b0636245257fb81cfe65a7ff6f09",
    },
    "inline": {
        "checks": "0c065af24a9ab1e60a83f28b664050c73f891ea1e98b6e0453c1bf8f49ef3586",
        "routing": "4cd146258a6ff9e4145150de53f71ce3e554d5c501b65dcd322e43f4296bf0f3",
        "deliveries": "f6e509fde7387e73793b5b3a7dded411bf80a2b10dc007ea38b460bf86f82e8c",
    },
}

KINDS = ("garbage-proof", "unbound", "stale")


def forge(peer, payload: bytes, kind: str) -> WakuMessage:
    """A hostile bundle over ``peer``'s identity, built without proving."""
    epoch = peer.current_epoch() - (10 if kind == "stale" else 0)
    bound = payload + b"|other" if kind == "unbound" else payload
    root = peer.group.root
    public = RLNPublicInputs.for_message(
        peer.identity, bound, external_nullifier(epoch), root
    )
    seed = hashlib.sha256(payload).digest()
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=epoch,
        root=root,
        proof=Proof(a=seed, b=seed + seed, c=seed[::-1]),
    )
    return WakuMessage(
        payload=payload,
        content_topic=DEFAULT_CONTENT_TOPIC,
        timestamp=peer.unix_now(),
        rate_limit_proof=bundle,
    )


def run_fleet(pipeline_config: PipelineConfig) -> tuple[RLNDeployment, dict, dict]:
    deployment = RLNDeployment.create(
        peer_count=8,
        degree=3,
        seed=29,
        config=RLNConfig(epoch_length=1.0, max_epoch_gap=2),
        pipeline_config=pipeline_config,
    )
    counter = deployment.prover.pairing_counter  # shared per process: take deltas
    before = dataclasses.asdict(counter)
    ids = deployment.peer_ids()
    deliveries: dict[str, list] = {peer_id: [] for peer_id in ids}
    simulator = deployment.simulator
    for peer_id in ids:
        log = deliveries[peer_id]
        deployment.peers[peer_id].relay.subscribe(
            lambda message, log=log: log.append((message.payload.hex(), simulator.now))
        )
    deployment.register_all()
    deployment.form_meshes()
    attacker, spammer = deployment.peers[ids[0]], deployment.peers[ids[5]]
    for number in range(4):
        for index, peer_id in enumerate(ids):
            deployment.peers[peer_id].publish(b"guard|%d|%d" % (number, index))
        if number in (1, 2):
            for serial in range(30):
                kind = KINDS[serial % 3] if serial % 10 else KINDS[0]
                payload = b"hostile|%d|%d" % (number, serial)
                attacker.relay.publish(forge(attacker, payload, kind))
        deployment.run(1.0)
    spammer.publish(b"signal|1", force=True)
    spammer.publish(b"signal|2", force=True)
    deployment.run(30.0)  # commit and reveal each need a block
    pairings = {
        name: value - before[name] for name, value in dataclasses.asdict(counter).items()
    }
    return deployment, pairings, deliveries


def relay_record(deployment: RLNDeployment, pairings: dict, deliveries: dict) -> dict:
    """The fleet's relay path as JSON-ready values, by named part."""
    peers, routers = {}, {}
    for peer_id in deployment.peer_ids():
        peer = deployment.peers[peer_id]
        pipeline = peer.pipeline
        validator = peer.validator.stats
        verifier = pipeline.batch_verifier
        executor = pipeline.executor.stats
        peers[peer_id] = {
            "outcomes": {o.name: n for o, n in validator.outcomes.items()},
            "proofs_verified": validator.proofs_verified,
            "proofs_cached": validator.proofs_cached,
            "admitted": pipeline.stats.admitted,
            "deferred": pipeline.stats.deferred,
            "drops": pipeline.stats.drops,
            "prefilter_passed": pipeline.prefilter.stats.passed,
            "prefilter_dropped": {
                o.name: pipeline.prefilter.stats.counts[o.slot]
                for o in PrefilterOutcome
                if o is not PrefilterOutcome.PASS
            },
            "ratelimit": dataclasses.asdict(pipeline.ratelimiter.stats),
            "batches": dataclasses.asdict(verifier.stats),
            "cache_hits": verifier.cache_hits,
            "verified": verifier.verified,
            "joined_in_flight": verifier.joined_in_flight,
            "executor_classes": {
                p.name: dataclasses.asdict(c) for p, c in executor.classes.items()
            },
            "executor": {
                "jobs_drained": executor.jobs_drained,
                "inline_seconds": executor.inline_seconds,
                "service_seconds": executor.service_seconds,
                "lane_busy_seconds": executor.lane_busy_seconds,
            },
            "protocol": dataclasses.asdict(peer.stats),
        }
        # A counter still at zero is left out, so a router counter added
        # later leaves the digest of a fleet that never ticks it alone.
        routers[peer_id] = {
            name: value
            for name, value in dataclasses.asdict(peer.router_stats).items()
            if value != 0
        }
    return {
        "checks": {"peers": peers, "pairings": pairings},
        "routing": {
            "routers": routers,
            "bytes": deployment.network.protocol_bytes(),
            "events": deployment.simulator.processed_events,
        },
        "deliveries": deliveries,
    }


def relay_digests(record: dict) -> dict[str, str]:
    """One SHA-256 per named part of a :func:`relay_record`."""
    return {
        part: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for part, value in record.items()
    }


def shape_digests(shape: str) -> dict[str, str]:
    return relay_digests(relay_record(*run_fleet(SHAPES[shape])))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_relay_path_counters_are_pinned(shape):
    deployment, pairings, deliveries = run_fleet(SHAPES[shape])
    record = relay_record(deployment, pairings, deliveries)
    peers = record["checks"]["peers"].values()
    # The run is the one the digest was taken from: every attack landed.
    outcomes = ValidationOutcome
    assert sum(p["outcomes"][outcomes.INVALID_PROOF.name] for p in peers) > 0
    assert sum(p["outcomes"][outcomes.PAYLOAD_MISMATCH.name] for p in peers) > 0
    assert sum(p["outcomes"][outcomes.INVALID_EPOCH_GAP.name] for p in peers) > 0
    assert sum(p["ratelimit"]["limited_by_peer"] for p in peers) > 0
    assert deployment.total_spam_detected() > 0
    assert relay_digests(record) == GOLDEN[shape]


if __name__ == "__main__":  # pragma: no cover - reprints the pins
    print(json.dumps({shape: shape_digests(shape) for shape in sorted(SHAPES)}, indent=4))
