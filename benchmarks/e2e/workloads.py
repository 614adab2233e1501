"""The four canonical workloads: what runs after set-up, and their own gates.

Load is a schedule on the *simulated* clock — a publish is due at its
simulated instant whatever the host speed (open loop in simulated time); on
the host it is a fixed amount of work executed as fast as possible.  Every
input is generated here from the seed; the system sees only bundles and
transactions.
"""

from __future__ import annotations

import networkx as nx

from repro.chain.blockchain import WEI
from repro.core import DEFAULT_CONTENT_TOPIC, RateLimitProof, ValidationOutcome
from repro.core.epoch import external_nullifier
from repro.crypto.identity import Identity
from repro.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof
from repro.zksnark.rln_circuit import RLNPublicInputs

from benchmarks.e2e.harness import BLOCK_INTERVAL, Run, Workload

#: Simulated seconds that let the last round's bundles reach everyone.
DRAIN_S = 3.0


# -- honest_steady / production_fleet ---------------------------------------------


def honest_traffic(run: Run, rounds: int) -> None:
    """Every peer publishes once per 1-s epoch."""
    for number in run.rounds(rounds):
        for index, peer in enumerate(run.peers):
            run.publish(peer, b"honest|%d|%d" % (number, index))
        run.advance(1.0)
    if run.dep.exporters:
        run.dep.flush_telemetry()
        run.tick()
    run.advance(DRAIN_S)


def fleet_gates(run: Run) -> None:
    collector = run.dep.collector
    run.op(collector.stats.lost_batches == 0, "collector lost batches")
    run.op(not collector.firing(), f"alerts firing: {collector.firing()}")


# -- spam_flood ---------------------------------------------------------------------

HOSTILE_PER_ATTACKER = 50
HONEST_PER_ROUND = 10
#: Simulated seconds after the last round: commit and reveal each need a block.
SLASH_DRAIN_S = 30.0


def _forge(run: Run, origin: int, number: int, serial: int) -> WakuMessage:
    """A hostile bundle built without proving.

    Of every ten: seven carry a consistent statement under a garbage proof
    (cost a pairing check at hop 1), two bind another payload (cheap
    reject), one is ten epochs stale (prefilter drop).
    """
    peer = run.peers[origin]
    payload = b"hostile|%d|%d|%d" % (origin, number, serial)
    variant = serial % 10
    epoch = peer.current_epoch() - (10 if variant == 9 else 0)
    bound = payload + b"|other" if variant in (7, 8) else payload
    root = peer.group.root
    public = RLNPublicInputs.for_message(
        peer.identity, bound, external_nullifier(epoch), root
    )
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=epoch,
        root=root,
        proof=Proof(
            a=run.rng.randbytes(32), b=run.rng.randbytes(64), c=run.rng.randbytes(32)
        ),
    )
    return WakuMessage(
        payload=payload,
        content_topic=DEFAULT_CONTENT_TOPIC,
        timestamp=peer.unix_now(),
        rate_limit_proof=bundle,
    )


def spam_flood(run: Run, rounds: int) -> None:
    count = len(run.peers)
    roles = run.rng.sample(range(count), min(2, count // 8) + 1)
    attackers, spammer = roles[:-1], roles[-1]
    honest = [i for i in range(count) if i not in roles]
    per_round = min(HONEST_PER_ROUND, len(honest))
    double_signal_round = rounds // 4
    run.facts["spammer"] = spammer
    run.facts["attackers"] = attackers
    run.facts["forged"] = rounds * len(attackers) * HOSTILE_PER_ATTACKER

    spammer_pk = run.peers[spammer].identity.pk.value
    simulator = run.dep.simulator

    def on_event(event) -> None:
        if event.name == "MemberRemoved" and event.data["pk"] == spammer_pk:
            run.facts["removed_at"] = simulator.now

    run.dep.chain.subscribe(on_event)

    for number in run.rounds(rounds):
        for k in range(per_round):
            index = honest[(number * per_round + k) % len(honest)]
            run.publish(run.peers[index], b"honest|%d|%d" % (number, index))
        for origin in attackers:
            for serial in range(HOSTILE_PER_ATTACKER):
                with run.untimed():
                    message = _forge(run, origin, number, serial)
                run.inject(origin, message)
        if number != double_signal_round:
            run.advance(1.0)
            continue
        # Two signals half a second apart, inside one epoch.  The second
        # convicts its author: it is due at no application.
        run.publish(run.peers[spammer], b"signal|1")
        run.advance(0.5)
        run.facts["second_signal_at"] = simulator.now
        run.hostile[b"signal|2"] = spammer
        run.peers[spammer].publish(b"signal|2", force=True)
        run.offered += 1
        run.advance(0.5)
    run.advance(SLASH_DRAIN_S)


def spam_gates(run: Run) -> None:
    spammer = run.peers[int(run.facts["spammer"])]
    detected = sum(p.stats.spam_detected for p in run.peers)
    run.op(detected > 0, "double-signal not detected")
    run.op(not run.dep.contract.is_member(spammer.identity.pk), "spammer still a member")
    run.op("removed_at" in run.facts, "MemberRemoved never observed")
    if "removed_at" in run.facts:
        run.facts["spam_exclusion_sim_s"] = (
            run.facts["removed_at"] - run.facts["second_signal_at"]
        )
    # §IV: an invalid-proof flood costs verification at direct connections
    # only.  Peers two or more hops from every attacker must have verified
    # no hostile proof.
    ids = run.dep.peer_ids()
    attackers = [ids[i] for i in run.facts["attackers"]]
    distance = {
        peer: min(
            nx.shortest_path_length(run.dep.graph, source=attacker, target=peer)
            for attacker in attackers
        )
        for peer in ids
    }
    spent = {
        peer: run.dep.peers[peer].validator.stats.count(ValidationOutcome.INVALID_PROOF)
        for peer in ids
    }
    far = sum(count for peer, count in spent.items() if distance[peer] >= 2)
    # Every INVALID_PROOF verdict is a pairing check spent on a forged
    # bundle (honest proofs verify; the double-signal's proofs are valid).
    run.facts["verifications_per_hostile"] = sum(spent.values()) / run.facts["forged"]
    run.facts["hostile_verifications_hop2"] = far
    run.op(far == 0, f"{far} hostile proofs verified beyond hop 1")


# -- membership_churn ------------------------------------------------------------------

#: Every replica applies a block's events inside one simulator event, which
#: the clock cannot cut: small blocks, and more of them.
REGISTERS_PER_BLOCK = 3
WITHDRAWS_PER_BLOCK = 1
PUBLISHERS_PER_BLOCK = 3


def membership_churn(run: Run, rounds: int) -> None:
    """One round = one block of external registrations and withdrawals."""
    dep = run.dep
    chain, contract = dep.chain, dep.contract
    members: list[tuple[str, Identity]] = []  # external accounts, oldest first
    withdrawn: list[Identity] = []
    count = len(run.peers)
    applied_before = [peer.group.event_seq for peer in run.peers]

    # Start just after a block boundary so each round mines exactly one block.
    run.advance(BLOCK_INTERVAL - dep.simulator.now % BLOCK_INTERVAL + 0.5)

    for number in run.rounds(rounds):
        for _ in range(min(WITHDRAWS_PER_BLOCK, len(members))):
            account, identity = members.pop(0)
            chain.send_transaction(
                account, contract.address, "withdraw", {"pk": identity.pk.value}
            )
            withdrawn.append(identity)
        joining = []
        for k in range(REGISTERS_PER_BLOCK):
            account = f"external-{number}-{k}"
            identity = Identity.from_secret(run.rng.getrandbits(248) + 1)
            chain.fund(account, 100 * WEI)
            chain.send_transaction(
                account,
                contract.address,
                "register",
                {"pk": identity.pk.value},
                value=contract.deposit,
                calldata=identity.pk.to_bytes(),
            )
            joining.append((account, identity))
        run.advance(BLOCK_INTERVAL)
        members.extend(joining)
        for k in range(PUBLISHERS_PER_BLOCK):
            index = (number * PUBLISHERS_PER_BLOCK + k) % count
            run.publish(run.peers[index], b"honest|%d|%d" % (number, index))
    run.advance(DRAIN_S)
    run.facts["members"] = [i for _a, i in members]
    run.facts["withdrawn"] = withdrawn
    run.facts["member_events"] = len(members) + 2 * len(withdrawn)
    run.facts["applied"] = [
        peer.group.event_seq - before for peer, before in zip(run.peers, applied_before)
    ]


def churn_gates(run: Run) -> None:
    contract = run.dep.contract
    for identity in run.facts["members"]:
        run.op(contract.is_member(identity.pk), "registered account is not a member")
    for identity in run.facts["withdrawn"]:
        run.op(not contract.is_member(identity.pk), "withdrawn account still a member")
    for peer, applied in zip(run.peers, run.facts["applied"]):
        run.op(
            applied == run.facts["member_events"],
            f"{peer.peer_id} applied {applied} of {run.facts['member_events']} events",
        )


# -- the table ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("honest_steady", full_rounds=46, generate=honest_traffic),
        Workload(
            "spam_flood",
            full_rounds=66,
            generate=spam_flood,
            gates=spam_gates,
            auto_slash=True,
        ),
        Workload(
            "membership_churn",
            full_rounds=20,
            generate=membership_churn,
            gates=churn_gates,
        ),
        Workload(
            "production_fleet",
            full_rounds=36,
            generate=honest_traffic,
            gates=fleet_gates,
            tree_backend="sharded",
            pipeline=PipelineConfig(workers=2, batch_size=8, batch_deadline=0.05),
            collector=CollectorOptions(interval=1.0, trace_sample=0.25, alerting=True),
        ),
    )
}
