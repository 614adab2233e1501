"""A3 — extension: RLN-v2 multi-message rate limiting.

How the one circuit builder's ``message_limit`` arm scales with the
limit, and the throughput/containment behaviour: a member sends up to N
messages per epoch with unlinkable nullifiers; message N+1 (an id reuse)
convicts it.
"""

import time

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds
from repro.core.nullifier_log import NullifierLog, NullifierOutcome
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree
from repro.crypto.shamir import Share, recover_secret
from repro.zksnark.groth16 import Groth16
from repro.zksnark.prover import NativeProver
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness, circuit_shape

DEPTH = 8
EPOCH = FieldElement(54_827_003)
LIMITS = (1, 4, 16, 256)


@pytest.fixture(scope="module")
def member():
    identity = Identity.from_secret(0xFACE)
    tree = MerkleTree(depth=DEPTH)
    index = tree.insert(identity.pk)
    return identity, tree, tree.proof(index)


def test_v2_circuit_scaling_table(member, report_sink, benchmark):
    identity, tree, proof = member
    report = ExperimentReport(
        experiment="A3",
        claim="RLN-v2: N messages/epoch via message-id slopes (extension)",
        headers=("message limit", "constraints", "vs v1", "prove time"),
    )
    v1_constraints = circuit_shape(DEPTH).num_constraints
    for limit in LIMITS:
        shape = circuit_shape(DEPTH, limit)
        prover = Groth16(DEPTH, limit)
        public = RLNPublicInputs.for_message(
            identity, b"bench", EPOCH, tree.root, message_id=0, message_limit=limit
        )
        witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=0)
        start = time.perf_counter()
        zkp = prover.prove(public, witness)
        elapsed = time.perf_counter() - start
        assert prover.verify(public, zkp)
        report.add_row(
            limit,
            shape.num_constraints,
            f"+{shape.num_constraints - v1_constraints}",
            format_seconds(elapsed),
        )
    report.add_note(
        "constraint overhead vs v1 is a flat +range-check+wider-hash; "
        "independent of the limit value (16-bit decomposition)"
    )
    report_sink(report)

    shapes = {limit: circuit_shape(DEPTH, limit).num_constraints for limit in LIMITS}
    assert len(set(shapes.values())) == 1  # cost independent of N

    prover = NativeProver(DEPTH, 16)

    def prove_once():
        public = RLNPublicInputs.for_message(
            identity, b"b", EPOCH, tree.root, message_id=3, message_limit=16
        )
        witness = RLNWitness(identity=identity, merkle_proof=proof, message_id=3)
        return prover.prove(public, witness)

    benchmark.pedantic(prove_once, rounds=3, iterations=1)


def test_v2_throughput_and_conviction(member, report_sink, benchmark):
    identity, tree, proof = member
    limit = 8
    prover = NativeProver(DEPTH, limit)
    log = NullifierLog()
    accepted = 0
    for message_id in range(limit):
        public = RLNPublicInputs.for_message(
            identity,
            b"within-quota-%d" % message_id,
            EPOCH,
            tree.root,
            message_id=message_id,
            message_limit=limit,
        )
        witness = RLNWitness(
            identity=identity, merkle_proof=proof, message_id=message_id
        )
        assert prover.verify(public, prover.prove(public, witness))
        outcome, _ = log.observe(
            54_827_003, public.internal_nullifier, Share(public.x, public.y), b"id"
        )
        accepted += outcome is NullifierOutcome.FRESH
    assert accepted == limit

    # The (limit+1)-th message must reuse an id -> conviction.
    public = RLNPublicInputs.for_message(
        identity, b"over quota", EPOCH, tree.root, message_id=0, message_limit=limit
    )
    outcome, evidence = log.observe(
        54_827_003, public.internal_nullifier, Share(public.x, public.y), b"id2"
    )
    assert outcome is NullifierOutcome.SPAM
    assert recover_secret(evidence.share_a, evidence.share_b) == identity.sk

    report = ExperimentReport(
        experiment="A3b",
        claim="RLN-v2 quota enforcement: N fresh nullifiers, N+1 convicts",
        headers=("event", "outcome"),
    )
    report.add_row(f"messages 1..{limit} (distinct ids)", "all relayed, unlinkable nullifiers")
    report.add_row(f"message {limit + 1} (id reuse)", "nullifier collision -> sk recovered")
    report_sink(report)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
