"""End-to-end distributed revocation over a real deployment.

Botnet double-signal -> multi-observer slash race -> unified
``MemberRemoved`` -> every replica zeroes the leaf -> the block's zero
write flows to shard-scoped and light views -> every peer class rejects the
slashed member's *fresh* proofs against its locally-accepted roots.
"""

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.epoch import external_nullifier
from repro.core.messages import RateLimitProof
from repro.core.validator import BundleValidator, ValidationOutcome
from repro.pipeline import PipelineConfig
from repro.revocation import RevocationTracker
from repro.treesync import ShardSyncManager
from repro.waku.message import WakuMessage
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

DEPTH = 8
SHARD_DEPTH = 3
OBSERVERS = ("peer-001", "peer-002", "peer-003")


@pytest.fixture()
def deployment():
    config = RLNConfig(
        epoch_length=30.0,
        max_epoch_gap=2,
        tree_depth=DEPTH,
        shard_depth=SHARD_DEPTH,
    )
    # Registration happens inside the tests: the shard-scoped views must
    # subscribe to the membership feed before the first event.
    return RLNDeployment.create(
        peer_count=8, degree=4, seed=7, config=config, auto_slash=False
    )


class TestRevocationEndToEnd:
    def test_double_signal_to_network_wide_exclusion(self, deployment):
        dep = deployment
        spammer = dep.peer("peer-007")
        anchor = dep.peer("peer-000")  # an honest full peer

        # Shard-scoped and light views, fed from the anchor's manager
        # (the block's ShardUpdate on the home feed, its digest on the
        # light feed — what the two topics would carry).  Subscribed
        # before the first registration so the home shard replays.
        shard_view = ShardSyncManager(
            home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        light_view = ShardSyncManager(
            home_shard=None, depth=DEPTH, shard_depth=SHARD_DEPTH
        )
        anchor.group.on_shard_update(shard_view.apply)
        anchor.group.on_shard_update(lambda e: light_view.apply(e.digest()))

        dep.register_all()
        dep.form_meshes(5.0)
        assert shard_view.commit() == light_view.commit() == anchor.group.root

        # Routing peers that will race the slash.
        coordinators = {
            name: dep.peer(name).slashing_coordinator() for name in OBSERVERS
        }
        tracker = RevocationTracker(dep.simulator, poll_interval=0.1)
        for peer in dep.peers.values():
            peer.on_spam(tracker.spam_detected)
        for coordinator in coordinators.values():
            coordinator.on_removed(tracker.removed_on_chain)

        # The spammer's last honest state: witness + the root it folds to.
        stale_proof = spammer.group.merkle_proof(spammer.identity.pk)
        stale_root = spammer.group.root

        views = {
            **{f"full:{n}": p.group for n, p in dep.peers.items()},
            "sharded-view": shard_view,
            "light-view": light_view,
        }
        for name, view in views.items():
            tracker.watch_exclusion(name, view, stale_root)

        # --- the double signal -------------------------------------------
        spammer.publish(b"spam-a", force=True)
        dep.run(2.0)
        spammer.publish(b"spam-b", force=True)
        dep.run(2.0)
        assert tracker.spam_detected_at is not None

        # --- race, removal, propagation -----------------------------------
        dep.run(6 * dep.chain.block_interval)
        assert not dep.contract.is_member(spammer.identity.pk)
        outcomes = sorted(
            (c.stats.races_won, c.stats.races_lost)
            for c in coordinators.values()
        )
        assert outcomes == [(0, 1), (0, 1), (1, 0)]
        losers = [c for c in coordinators.values() if c.stats.races_lost]
        assert all(c.stats.gas_spent_wei > 0 and c.stats.net_wei < 0 for c in losers)
        winner = next(c for c in coordinators.values() if c.stats.races_won)
        assert winner.stats.rewards_wei == dep.contract.deposit
        assert all(c.cases[0].removed_at is not None for c in coordinators.values())

        # --- network-wide exclusion ----------------------------------------
        summary = tracker.summary()
        assert not tracker._watching
        assert summary["revocation_latency"] is not None
        assert summary["chain_latency"] > 0
        assert summary["propagation_latency"] is not None
        for name, view in views.items():
            assert not view.is_acceptable_root(stale_root), name

        # --- the slashed member's *fresh* proof is dead everywhere ---------
        # A stubborn spammer replays its pre-removal witness into a proof
        # for the current epoch.  Without the window collapse the stale
        # root would still sit inside every peer's root_window (only one
        # membership event — the removal itself — has happened since).
        epoch = anchor.current_epoch()
        payload = b"post-removal-spam"
        public = RLNPublicInputs.for_message(
            spammer.identity, payload, external_nullifier(epoch), stale_root
        )
        zk = dep.prover.prove(
            public,
            RLNWitness(identity=spammer.identity, merkle_proof=stale_proof),
        )
        message = WakuMessage(
            payload=payload,
            content_topic="t",
            rate_limit_proof=RateLimitProof(
                share_x=public.x,
                share_y=public.y,
                internal_nullifier=public.internal_nullifier,
                epoch=epoch,
                root=stale_root,
                proof=zk,
            ),
        )
        full_validator = anchor.validator
        shard_validator = BundleValidator(dep.config, dep.prover, shard_view)
        light_validator = BundleValidator(dep.config, dep.prover, light_view)
        for validator in (full_validator, shard_validator, light_validator):
            outcome, _ = validator.validate(message, epoch, b"fresh-spam")
            assert outcome is ValidationOutcome.UNKNOWN_ROOT

        # Honest members are unaffected: a proof against the *current*
        # root still validates everywhere.
        dep.run(dep.config.epoch_length + 1.0)
        honest = anchor._build_message(b"life goes on", "t", anchor.current_epoch())
        for validator in (shard_validator, light_validator):
            outcome, _ = validator.validate(
                honest, anchor.current_epoch(), b"honest-after"
            )
            assert outcome is ValidationOutcome.VALID

    def test_spammer_light_client_observes_its_own_revocation(self, deployment):
        dep = deployment
        dep.register_all()
        dep.form_meshes(5.0)
        spammer = dep.peer("peer-006")
        anchor = dep.peer("peer-000")
        # The witness protocol runs point-to-point: serve from a direct
        # neighbor of the fetching peer.
        service_host = dep.peer(sorted(dep.network.neighbors(spammer.peer_id))[0])
        service_host.witness_service()
        # Detection needs both conflicting shares, and the second signal
        # never travels past the spammer's direct connections — so the
        # racing coordinator must live on a neighbor.
        coordinator = service_host.slashing_coordinator()

        from repro.witness import WitnessClient

        client = WitnessClient(
            spammer.peer_id,
            dep.network,
            dep.simulator,
            (service_host.peer_id,),
            anchor.group,
            tree_depth=DEPTH,
        )
        anchor.group.on_shard_update(client.on_shard_event)
        index = spammer.group.index_of(spammer.identity.pk)
        got = []
        client.witness(index, got.append, expected_leaf=spammer.identity.pk)
        dep.run(3.0)
        assert got

        spammer.publish(b"dbl-a", force=True)
        dep.run(2.0)
        spammer.publish(b"dbl-b", force=True)
        dep.run(6 * dep.chain.block_interval)
        assert not dep.contract.is_member(spammer.identity.pk)
        assert coordinator.stats.races_won == 1

        # The client pinned to the dead slot saw its zero write: the
        # slot is revoked, acquisitions fail locally without burning
        # provider round trips.
        assert client._revoked == {index}
        attempts_before = client.dispatcher.stats.attempts
        failures = []
        client.witness(index, got.append, failures.append)
        assert failures and "revoked" in failures[0].reason
        assert client.dispatcher.stats.attempts == attempts_before


def traced_conviction(**options) -> RLNDeployment:
    """A fully traced 8-peer fleet in which peer-007 double-signals and is
    slashed."""
    from repro.telemetry import CollectorOptions

    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
    dep = RLNDeployment.create(
        peer_count=8, degree=4, seed=7, config=config,
        collector=CollectorOptions(trace_sample=1.0), **options,
    )
    dep.register_all()
    dep.form_meshes(5.0)
    spammer = dep.peer("peer-007")
    spammer.publish(b"first", force=True)
    dep.run(2.0)
    spammer.publish(b"second", force=True)
    dep.run(6 * dep.chain.block_interval)
    dep.flush_telemetry()
    assert not dep.contract.is_member(spammer.identity.pk)
    return dep


def assert_revocations_hang_under_evidence(dep: RLNDeployment) -> None:
    """Each racing coordinator's revocation span hangs under its own
    evidence leaf, which hangs under the relay span that convicted."""
    racers = [p for p in dep.peers.values() if p.stats.slash_attempts]
    trees = [
        tree
        for tree in dep.collector.assembler.trees()
        if any(span.kind == "evidence" for span in tree.spans.values())
    ]
    assert len(trees) == 1 and trees[0].complete
    tree = trees[0]
    revocations = [s for s in tree.spans.values() if s.kind == "revocation"]
    assert sorted(s.peer for s in revocations) == sorted(p.peer_id for p in racers)
    for span in revocations:
        evidence = tree.spans[span.parent_id]
        assert evidence.kind == "evidence" and evidence.peer == span.peer
        hop = tree.spans[evidence.parent_id]
        assert hop.kind == "bundle" and hop.peer == span.peer
        assert hop in tree.relay_spans() and evidence.start == hop.end
        assert [stage for stage, _ in span.marks] == [
            "evidence", "commit-reveal", "member-removed",
        ]
        assert span.duration > dep.chain.block_interval  # commit, then reveal
    # Linked spans widen neither the relay accounting nor the hop depth.
    assert set(revocations).isdisjoint(tree.relay_spans())
    assert tree.hops == max(s.hop for s in tree.relay_spans())
    # The same spans fold into the per-peer revocation histograms.
    fleet = dep.collector.fleet_snapshot()
    assert fleet.value("traces_finished_total", kind="revocation") == len(racers)


def test_traced_conviction_hangs_one_revocation_span_per_racing_coordinator():
    """One timeline, one span: evidence → commit-reveal → member-removed
    rides the spam message's propagation tree under the evidence leaf."""
    assert_revocations_hang_under_evidence(traced_conviction())


def test_a_batched_traced_conviction_hands_its_context_over_the_evidence():
    """The production pipeline profile: the convicting verdict lands from
    a crypto lane, and the evidence still carries the hop's context."""
    dep = traced_conviction(pipeline_config=PipelineConfig(workers=2, batch_size=8))
    assert sum(p.pipeline.stats.deferred for p in dep.peers.values()) > 0
    assert_revocations_hang_under_evidence(dep)
