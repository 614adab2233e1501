"""E15 — distributed revocation: spam flood to network-wide member removal.

The §III-F economic argument closes only if a detected double-signal
ejects the spammer *everywhere*: on the contract, in every full tree, in
every shard-scoped and light view, and out of every witness cache.  This
harness measures that pipeline in three arms:

* **end-to-end (small network, real stack)** — a botnet
  double-signal on a live deployment; coordinators race commit-reveal;
  the tracker stamps detection → on-chain removal → network-wide
  exclusion, and the slashed member's fresh proof (stale witness, current
  epoch) is shown dead against full, sharded, and light validators;
* **propagation at scale (10k / 100k / 1M, both backends)** — what one
  removal costs each peer class: hash work (full tree vs home-shard
  replay vs O(1) foreign digest), wire bytes (the path-free ShardUpdate
  and its digest vs a path-carrying TreeUpdate), window collapse
  confirmed against the stale root,
  plus the §III-F nullifier-map memory story at scale; the end-to-end
  latency model on top is chain-bound, not size-bound;
* **slash-race winner distribution** — several observers at different
  distances from the spammer race the same evidence over many trials;
  proximity decides, losers burn gas (the §IV-A redundancy cost),
  exactly one stake is ever paid out.

As in E12/E14, the scale arms build tree structure over an injected
cheap hasher — node counts, message sizes, and hash-op counts are
structural invariants; real Poseidon at 1M members would take hours.
"""

import random

import pytest

from repro import testing
from repro.analysis.reporting import ExperimentReport, format_bytes, format_seconds
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.core.epoch import external_nullifier
from repro.core.messages import RateLimitProof
from repro.core.nullifier_log import NullifierLog
from repro.core.validator import BundleValidator, ValidationOutcome
from repro.crypto.field import FIELD_MODULUS, FieldElement, ZERO
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.crypto.shamir import Share
from repro.net.simulator import Simulator
from repro.revocation import RevocationTracker, SlashingCoordinator
from repro.telemetry import Telemetry
from repro.crypto.optimized_merkle import TreeUpdate
from repro.treesync import ShardSyncManager, ShardedMerkleForest, ShardUpdate
from repro.waku.message import WakuMessage
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

DEPTH = 20
SHARD_DEPTH = 10
SCALES = (10_000, 100_000, 1_000_000)

#: Deployment constants shared with the sibling experiments.
LINK_LATENCY = 0.05  # one-way, seconds
BLOCK_INTERVAL = 12.0
GOSSIP_HOPS = 3  # typical mesh eccentricity at paper-scale degree


def cheap_hash(left: FieldElement, right: FieldElement) -> FieldElement:
    """Accounting-only two-to-one mix (structure, not security)."""
    return FieldElement((left.value * 3 + right.value * 5 + 0x9E3779B9) % FIELD_MODULUS)


# ---------------------------------------------------------------------------
# Arm 1 — end to end on a live network (small scale, real crypto)
# ---------------------------------------------------------------------------


def test_end_to_end_exclusion(report_sink, snapshot_sink):
    config = RLNConfig(
        epoch_length=30.0,
        max_epoch_gap=2,
        tree_depth=8,
        shard_depth=3,
    )
    telemetry = Telemetry()
    dep = RLNDeployment.create(
        peer_count=10,
        degree=4,
        seed=15,
        config=config,
        auto_slash=False,
        telemetry=telemetry,
    )
    anchor = dep.peer("peer-000")
    shard_view = ShardSyncManager(home_shard=0, depth=8, shard_depth=3)
    light_view = ShardSyncManager(home_shard=None, depth=8, shard_depth=3)
    anchor.group.on_shard_update(shard_view.apply)
    anchor.group.on_shard_update(lambda e: light_view.apply(e.digest()))
    dep.register_all()
    dep.form_meshes(5.0)

    spammer = dep.peer("peer-009")
    observers = sorted(dep.network.neighbors(spammer.peer_id))[:3]
    coordinators = {name: dep.peer(name).slashing_coordinator() for name in observers}
    tracker = RevocationTracker(dep.simulator, poll_interval=0.1, telemetry=telemetry)
    for peer in dep.peers.values():
        peer.on_spam(tracker.spam_detected)
    for coordinator in coordinators.values():
        coordinator.on_removed(tracker.removed_on_chain)

    stale_proof = spammer.group.merkle_proof(spammer.identity.pk)
    stale_root = spammer.group.root
    views = {
        **{f"full:{name}": peer.group for name, peer in dep.peers.items()},
        "sharded-view": shard_view,
        "light-view": light_view,
    }
    for name, view in views.items():
        tracker.watch_exclusion(name, view, stale_root)

    spam_start = dep.simulator.now
    spammer.publish(b"spam-a", force=True)
    dep.run(2.0)
    spammer.publish(b"spam-b", force=True)
    dep.run(2.0)
    dep.run(6 * dep.chain.block_interval)

    assert not dep.contract.is_member(spammer.identity.pk)
    summary = tracker.summary()
    assert summary["revocation_latency"] is not None

    # The slashed member's fresh proof — stale witness, current epoch —
    # is rejected by all three peer classes against their current roots.
    epoch = anchor.current_epoch()
    public = RLNPublicInputs.for_message(
        spammer.identity, b"post-removal", external_nullifier(epoch), stale_root
    )
    zk = dep.prover.prove(
        public, RLNWitness(identity=spammer.identity, merkle_proof=stale_proof)
    )
    message = WakuMessage(
        payload=b"post-removal",
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
    rejections = {}
    for name, acceptor in (
        ("full", anchor.group),
        ("sharded", shard_view),
        ("light", light_view),
    ):
        validator = BundleValidator(dep.config, dep.prover, acceptor)
        outcome, _ = validator.validate(message, epoch, b"fresh")
        rejections[name] = outcome
        assert outcome is ValidationOutcome.UNKNOWN_ROOT

    winner = next(c for c in coordinators.values() if c.stats.races_won)
    losers = [c for c in coordinators.values() if c.stats.races_lost]
    assert winner.stats.rewards_wei == dep.contract.deposit

    report = ExperimentReport(
        experiment="E15-e2e",
        claim="a double-signal ejects the spammer from every peer class (§III-F)",
        headers=("stage", "value"),
    )
    report.add_row(
        "detection latency",
        format_seconds(summary["spam_detected_at"] - spam_start),
    )
    report.add_row("spam -> on-chain removal", format_seconds(summary["chain_latency"]))
    report.add_row(
        "removal -> last view excluded", format_seconds(summary["propagation_latency"])
    )
    report.add_row(
        "spam -> network-wide exclusion", format_seconds(summary["revocation_latency"])
    )
    report.add_row("views excluded", len(tracker.exclusions))
    report.add_row(
        "race", f"{len(coordinators)} observers, 1 won, {len(losers)} lost"
    )
    report.add_row(
        "winner economics",
        f"+{winner.stats.rewards_wei / WEI:.2f} ether stake, "
        f"-{winner.stats.gas_spent_wei} wei gas",
    )
    report.add_row(
        "loser economics (each)",
        f"-{losers[0].stats.gas_spent_wei} wei gas" if losers else "-",
    )
    report.add_row(
        "fresh-proof verdicts",
        ", ".join(f"{k}:{v.value}" for k, v in rejections.items()),
    )
    report.add_note(
        "10 peers; window collapse means exclusion "
        "needs no further membership events — stale roots die with the member"
    )
    report_sink(report)
    assert summary["chain_latency"] <= 3 * dep.chain.block_interval
    assert summary["propagation_latency"] <= 1.0

    # The same run, seen through the registry: the revocation trace spans
    # land on the shared histograms and ship as a CI artifact.
    snapshot = telemetry.snapshot()
    assert snapshot.value("slashing_races_total", peer=winner.account, outcome="won") == 1
    assert snapshot.value("traces_finished_total", kind="revocation-network") == 1
    snapshot_sink("E15", snapshot)


# ---------------------------------------------------------------------------
# Arm 2 — propagation cost at scale (structure over a cheap hasher)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("members", SCALES)
def test_revocation_propagation_at_scale(report_sink, members):
    leaves = [FieldElement(i + 1) for i in range(members)]
    flat = MerkleTree.from_leaves(leaves, depth=DEPTH, hasher=cheap_hash)
    forest = ShardedMerkleForest.from_leaves(
        leaves, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    assert forest.root == flat.root
    stale_root = forest.root

    # A home-shard peer (own materialised copy) and a light peer.
    home_peer = ShardSyncManager(
        home_shard=0, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    home_peer.shard = MerkleTree.from_leaves(
        leaves[: forest.shard_capacity], depth=SHARD_DEPTH, hasher=cheap_hash
    )
    light_peer = ShardSyncManager(
        home_shard=None, depth=DEPTH, shard_depth=SHARD_DEPTH, hasher=cheap_hash
    )
    for view in (home_peer, light_peer):
        for shard_id, root in forest.shard_roots().items():
            view._pending[shard_id] = root
        view.seq = members
        view.commit()
        assert view.root == stale_root

    # --- one removal (the slash winner's reveal just mined) ---------------
    victim = 5
    victim_leaf = forest.leaf(victim)
    forest.delete(victim)
    flat_ops_before = flat.hash_ops
    victim_path = flat.proof(victim)
    flat.delete(victim)  # the full-tree peer's replay
    full_cost = flat.hash_ops - flat_ops_before
    assert forest.root == flat.root

    removal = ShardUpdate(
        seq=members + 1,
        writes=((victim, victim_leaf, ZERO),),
        shard_roots=((0, forest.shard_root(0)),),
        new_global_root=forest.root,
    )
    digest = removal.digest()

    home_ops_before = home_peer.hash_ops
    home_peer.apply(removal)
    home_apply_cost = home_peer.hash_ops - home_ops_before
    light_ops_before = light_peer.hash_ops
    light_peer.apply(digest)
    light_apply_cost = light_peer.hash_ops - light_ops_before
    assert light_apply_cost == 0  # O(1): the E12 discipline holds for removals
    home_commit_cost = -home_peer.hash_ops + (home_peer.commit(), home_peer.hash_ops)[1]
    light_commit_cost = -light_peer.hash_ops + (light_peer.commit(), light_peer.hash_ops)[1]
    assert home_peer.root == light_peer.root == forest.root

    # Window collapse: the stale root died with the member, everywhere.
    for view in (home_peer, light_peer):
        assert not view.is_acceptable_root(stale_root)
        assert view.recent_roots() == [forest.root]

    # Wire cost: the path-free block and its digest vs the path-carrying
    # announcement an O(log N) view needs.
    update_bytes = TreeUpdate(writes=((victim_path, ZERO),), new_root=flat.root).byte_size()
    removal_bytes = removal.byte_size()

    # --- the §III-F nullifier-map memory story ---------------------------
    # One message per member per epoch, a two-epoch acceptance window:
    # measure a 10k-entry map, extrapolate the per-entry cost to scale.
    log = NullifierLog()
    sample = min(members, 10_000)
    for i in range(sample):
        log.observe(1, FieldElement(i + 1), Share(FieldElement(1), FieldElement(i + 1)), b"m" * 32)
    per_entry = log.storage_bytes() / sample
    window_epochs = 2
    map_bytes_at_scale = per_entry * members * window_epochs
    assert log.peak_entries == sample

    # --- the latency model: chain-bound, not size-bound -------------------
    detection = 2 * LINK_LATENCY  # second signal reaches a neighbor
    chain = 2.5 * BLOCK_INTERVAL  # commit next block, reveal the one after
    propagation = GOSSIP_HOPS * LINK_LATENCY  # the block's ShardUpdate gossip
    modelled = detection + chain + propagation

    report = ExperimentReport(
        experiment=f"E15-{members}",
        claim="revocation propagates in O(1) per foreign peer at any scale",
        headers=("metric", "full tree", "home shard+top", "light member"),
    )
    report.add_row("replay hash ops", full_cost, home_apply_cost + home_commit_cost, light_apply_cost + light_commit_cost)
    report.add_row(
        "wire bytes per removal",
        format_bytes(update_bytes),
        format_bytes(removal_bytes),
        format_bytes(digest.byte_size()),
    )
    report.add_row(
        "stale root excluded", "window collapsed", "window collapsed", "window collapsed"
    )
    report.add_row(
        "nullifier map (peak, approx)",
        format_bytes(map_bytes_at_scale),
        format_bytes(map_bytes_at_scale),
        "n/a (no relay role)",
    )
    report.add_row("modelled spam->network-wide", format_seconds(modelled), "", "")
    report.add_note(
        f"{members} members, depth {DEPTH}, shard depth {SHARD_DEPTH}; "
        f"map extrapolated from a {sample}-entry sample at "
        f"{per_entry:.0f} B/entry x {window_epochs} epochs; latency is "
        f"chain-bound ({chain:.0f}s of {modelled:.1f}s) and size-independent"
    )
    report_sink(report)
    # Acceptance: foreign cost never grows with the group; home replay is
    # bounded by the shard, not the tree.
    assert light_apply_cost + light_commit_cost <= DEPTH - SHARD_DEPTH
    assert home_apply_cost <= SHARD_DEPTH
    assert full_cost == DEPTH
    assert removal_bytes < update_bytes / 6


# ---------------------------------------------------------------------------
# Arm 3 — the slash race: winner distribution and economics
# ---------------------------------------------------------------------------


def test_slash_race_distribution(report_sink):
    trials = 24
    observer_count = 4
    rng = random.Random(0xE15)
    simulator = Simulator()
    chain = Blockchain(block_interval=BLOCK_INTERVAL)
    simulator.every(BLOCK_INTERVAL / 2, lambda: chain.advance_time(simulator.now))
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 1000 * WEI)
    observers = [f"observer-{i}" for i in range(observer_count)]
    for name in observers:
        chain.fund(name, 100 * WEI)
    coordinators = [
        SlashingCoordinator(name, chain, contract, simulator) for name in observers
    ]

    wins = {name: 0 for name in observers}
    first_observer_wins = 0
    for trial in range(trials):
        spammer = testing.register_member(chain, contract, 0xE15000 + trial)
        epoch = 1000 + trial
        ext = FieldElement(epoch)
        from repro.core.nullifier_log import SpamEvidence

        evidence = SpamEvidence(
            internal_nullifier=spammer.epoch_secrets(ext).internal_nullifier,
            epoch=epoch,
            share_a=spammer.share_for(ext, FieldElement(1)),
            share_b=spammer.share_for(ext, FieldElement(2)),
        )
        # Observation time models distance from the spammer: observer i
        # sits i+1 gossip hops out, plus jitter; whoever's reveal lands
        # first — earlier block, or earlier mempool slot — takes the stake.
        delays = [
            (i + 1) * LINK_LATENCY + rng.expovariate(1 / (0.5 * BLOCK_INTERVAL))
            for i in range(observer_count)
        ]
        for coordinator, delay in zip(coordinators, delays):
            simulator.schedule(delay, lambda c=coordinator, e=evidence: c.observe(e))
        simulator.run(simulator.now + 6 * BLOCK_INTERVAL)
        assert not contract.is_member(spammer.pk)
        trial_winner = next(
            c for c in coordinators if c.cases[-1].won
        )
        wins[trial_winner.account] += 1
        if delays.index(min(delays)) == coordinators.index(trial_winner):
            first_observer_wins += 1

    total_rewards = sum(c.stats.rewards_wei for c in coordinators)
    total_gas = sum(c.stats.gas_spent_wei for c in coordinators)
    races_won = sum(c.stats.races_won for c in coordinators)
    races_lost = sum(c.stats.races_lost for c in coordinators)
    assert races_won == trials  # exactly one stake paid per case
    assert races_lost == trials * (observer_count - 1)
    assert total_rewards == trials * contract.deposit
    assert contract.balance == 0

    report = ExperimentReport(
        experiment="E15-race",
        claim="one winner per case; redundancy costs losers only gas (§III-F/§IV-A)",
        headers=("observer", "hops out", "races won", "net wei"),
    )
    for i, coordinator in enumerate(coordinators):
        report.add_row(
            coordinator.account,
            i + 1,
            wins[coordinator.account],
            coordinator.stats.net_wei,
        )
    report.add_note(
        f"{trials} trials; earliest observer won {first_observer_wins}/{trials} "
        f"(block boundary + mempool order decide); total gas burned "
        f"{total_gas} wei vs {total_rewards / WEI:.0f} ether paid out"
    )
    report_sink(report)
    # The race is time-to-observe: every trial went to whoever saw the
    # evidence first, and the jitter spreads wins across observers — no
    # single peer monopolises the reward.
    assert first_observer_wins == trials
    assert sum(1 for count in wins.values() if count > 0) >= 2
