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
        batch_size=4, workers=2, peer_bucket=BUCKET
    ),
}

GOLDEN = {
    # ``checks`` re-pinned when the prefilter lost its dedup gate; the only
    # key gone is ``prefilter_dropped["DUPLICATE_ID"]``, 0 on every peer.
    # All three parts re-pinned when a batch began leaving as soon as a
    # lane could take it, and a deferred forward began waiting one link
    # latency past its first copy: the same 264 jobs and outcomes in 103
    # batches (106), 789 pairings (774), 224 202 gossipsub bytes (231 268),
    # 1 385 events (1 156), the same 325 deliveries, mean time 22.701 s
    # (22.742 s).  ``size_flushes`` and ``deadline_flushes`` are gone.
    # All three re-pinned when a window began being split among the idle
    # lanes and a batch's lane wait began running from its oldest job's
    # arrival: the same 264 jobs and outcomes in 157 batches (103), 915
    # pairings (789), relay wait max 0.1725 s (0), 218 662 gossipsub bytes
    # (220 250), 222 IDONTWANT frames (227), 77 duplicates (81), 1 611
    # events (1 512), the same 325 deliveries, mean time 22.689 s (22.701 s).
    "batched": {
        "checks": "07ad0d5f10e2de65868d92f42df4905f0f5ca47aa1408ffb04582ebd262d588f",
        # Re-pinned when peers with a pending verdict began announcing
        # what they hold (IDONTWANT) and being spared copies of it, and
        # again when that IDONTWANT stopped going to the peer that sent
        # the copy of every id it lists.  The degree-3 meshes never exceed
        # ``D_EAGER``, so lazy push moves neither shape.  Re-pinned when
        # each mesh peer's IDONTWANT began listing only the ids it is not
        # known to hold: 227 frames (256), 503 forwards (487), 81 duplicates
        # (65), 220 250 gossipsub bytes (224 202), 1 512 events (1 385);
        # ``checks`` and ``deliveries`` unchanged.
        "routing": "40ec72e1f79f2f18de739236bdb7c801aa4504816a4e110c27973dd76e4fbc45",
        "deliveries": "2c6ef304a76b2644f3561111bcbabf2b281bec245bf0cbda64de44c17b638219",
    },
    # Re-pinned when an inline verdict's forward moved to the end of its
    # instant, past every peer whose copy came in that instant: fewer
    # copies (``routing``); each peer delivers the same (payload, time)
    # pairs, in another order within an instant (``deliveries``); so
    # peer-007's bucket sees receipts in another order and sheds two more
    # that a later copy re-validates (``checks``: ``ratelimit`` 28 -> 30).
    # ``checks`` re-pinned again when ``size_flushes`` and
    # ``deadline_flushes`` left ``BatchVerifierStats``: the parent's record
    # without those two keys hashes to this digest.
    "inline": {
        "checks": "e8f496b6e860c8b75e8ee1b38f4a03ac9827c5d1198caf085faca4f315a08984",
        "routing": "aa78badc135eaff35d115a94f12afd8aa54bc7ed06e92e2231350802d53d92ed",
        "deliveries": "861439d2716d54e55454c71c1e7bb77ba5fbd0c2c13e629a90a739e5aafd6915",
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
