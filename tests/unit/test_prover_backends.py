"""Cross-validation of the Groth16 and native prover backends.

DESIGN.md's substitution 1 claims the native backend accepts and rejects
exactly the same (statement, witness) pairs as the full R1CS pipeline.
These tests check that claim case by case, under both parameterisations
of the one statement: the paper's (``message_limit=None``) and RLN-v2's.
"""

import dataclasses

import pytest

from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity, derive_internal_nullifier, derive_slope
from repro.crypto.merkle import MerkleTree
from repro.errors import ProvingError
from repro.exec.executor import Priority
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import BatchVerifier
from repro.zksnark.groth16 import Groth16, Proof, setup
from repro.zksnark import prover as prover_registry
from repro.zksnark.prover import NativeProver, shared_prover
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness, circuit_shape

DEPTH = 4
LIMITS = (None, 4)
EPOCH = FieldElement(42)


@pytest.fixture(scope="module")
def systems():
    """Both backends under each parameterisation of the one statement."""
    return {limit: (Groth16(DEPTH, limit), NativeProver(DEPTH, limit)) for limit in LIMITS}


@pytest.fixture(scope="module")
def provers(systems):
    return systems[None]


def make_case(limit, *, message_id=None, payload=b"msg"):
    """An honest (statement, witness) pair; id 1 of ``limit`` unless given."""
    if limit is not None and message_id is None:
        message_id = 1
    identity = Identity.from_secret(2024)
    tree = MerkleTree(depth=DEPTH)
    tree.insert(FieldElement(5))
    index = tree.insert(identity.pk)
    witness = RLNWitness(
        identity=identity, merkle_proof=tree.proof(index), message_id=message_id
    )
    public = RLNPublicInputs.for_message(
        identity, payload, EPOCH, tree.root, message_id=message_id, message_limit=limit
    )
    return public, witness


@dataclasses.dataclass(frozen=True)
class Claim:
    """What the batch verifier reads of a bundle (an RLN-v2 statement has
    no ``RateLimitProof`` to carry it)."""

    public: RLNPublicInputs
    proof: Proof

    def public_inputs(self) -> RLNPublicInputs:
        return self.public


@pytest.fixture()
def case():
    return make_case(None)


def tamper(public: RLNPublicInputs, field: str) -> RLNPublicInputs:
    return dataclasses.replace(public, **{field: getattr(public, field) + 1})


def accepts(prover, public, witness) -> bool:
    try:
        proof = prover.prove(public, witness)
    except ProvingError:
        return False
    return prover.verify(public, proof)


def wrong_leaf(public, witness):
    # The path of the *other* member's leaf, under this member's key.
    # (RLNWitness refuses to be built that way, hence the setattr.)
    tree = MerkleTree(depth=DEPTH)
    other = tree.insert(FieldElement(5))
    tree.insert(witness.identity.pk)
    forged = dataclasses.replace(witness)
    object.__setattr__(forged, "merkle_proof", tree.proof(other))
    return public, forged


def id_at_limit(public, witness):
    # Publics derived honestly for id = limit: only the range check can object.
    limit = public.message_limit
    sk = witness.identity.sk
    slope = derive_slope(sk, public.external_nullifier, limit)
    spent = dataclasses.replace(
        public,
        y=sk + slope * public.x,
        internal_nullifier=derive_internal_nullifier(slope),
    )
    return spent, dataclasses.replace(witness, message_id=limit)


def forged_pk(public, witness):
    # An outsider's key under a member's leaf: ``pk`` is overwritten after
    # construction (the constructor refuses the pair) and the path really
    # opens to that leaf under the statement's root — every check that
    # reads the field passes, only H(sk) itself can object.
    tree = MerkleTree(depth=DEPTH)
    member = tree.insert(FieldElement(5))
    tree.insert(witness.identity.pk)
    outsider = Identity.from_secret(999)
    object.__setattr__(outsider, "pk", tree.leaf(member))
    statement = RLNPublicInputs.for_message(
        outsider,
        b"msg",
        public.external_nullifier,
        tree.root,
        message_id=witness.message_id,
        message_limit=public.message_limit,
    )
    assert statement.root == public.root
    return statement, RLNWitness(outsider, tree.proof(member), witness.message_id)


def on_the_remembered_line(public, witness, external_nullifier, message_id):
    # A statement for (epoch, id) whose y and phi lie on another line of the
    # same key — the one the identity derived last and still remembers when
    # the prover asks.  (Neither backend's check touches the memo before
    # the native one reads it: the circuit works from sk.)
    stale = witness.identity.epoch_secrets(external_nullifier, message_id)
    return (
        dataclasses.replace(
            public,
            y=witness.identity.sk + stale.slope * public.x,
            internal_nullifier=stale.internal_nullifier,
        ),
        witness,
    )


#: fault name -> (applies to v1?, (public, witness) -> (public, witness))
FAULTS = {
    "honest": (True, lambda public, witness: (public, witness)),
    "wrong-leaf": (True, wrong_leaf),
    "wrong-root": (True, lambda public, witness: (tamper(public, "root"), witness)),
    "wrong-share": (True, lambda public, witness: (tamper(public, "y"), witness)),
    "wrong-nullifier": (
        True,
        lambda public, witness: (tamper(public, "internal_nullifier"), witness),
    ),
    "forged-pk": (True, forged_pk),
    "memo-primed-other-epoch": (
        True,
        lambda public, witness: on_the_remembered_line(
            public, witness, public.external_nullifier - 1, witness.message_id
        ),
    ),
    "memo-primed-other-message-id": (
        False,
        lambda public, witness: on_the_remembered_line(
            public, witness, public.external_nullifier, witness.message_id + 1
        ),
    ),
    "id-at-limit": (False, id_at_limit),
    "wrong-limit": (
        False,
        lambda public, witness: (tamper(public, "message_limit"), witness),
    ),
}


class TestEquivalence:
    def test_both_accept_honest(self, provers, case):
        public, witness = case
        for prover in provers:
            proof = prover.prove(public, witness)
            assert prover.verify(public, proof)

    @pytest.mark.parametrize(
        "message_limit, fault",
        [
            (limit, fault)
            for limit in LIMITS
            for fault, (applies_to_v1, _) in FAULTS.items()
            if applies_to_v1 or limit is not None
        ],
    )
    def test_same_accept_reject_set(self, systems, message_limit, fault):
        _, corrupt = FAULTS[fault]
        public, witness = corrupt(*make_case(message_limit))
        circuit, native = systems[message_limit]
        expected = fault == "honest"
        assert accepts(circuit, public, witness) is expected
        assert accepts(native, public, witness) is expected

    @pytest.mark.parametrize(
        "field", ["x", "external_nullifier", "y", "internal_nullifier", "root"]
    )
    def test_both_reject_tampered_statement_at_prove_time(self, provers, case, field):
        public, witness = case
        bad = tamper(public, field)
        for prover in provers:
            with pytest.raises(ProvingError):
                prover.prove(bad, witness)

    def test_both_reject_wrong_depth_witness(self, provers, case):
        public, _ = case
        identity = Identity.from_secret(11)
        tree = MerkleTree(depth=DEPTH + 1)
        index = tree.insert(identity.pk)
        witness = RLNWitness(identity=identity, merkle_proof=tree.proof(index))
        for prover in provers:
            with pytest.raises(ProvingError):
                prover.prove(public, witness)

    def test_both_reject_non_member_witness(self, provers):
        identity = Identity.from_secret(77)
        own_tree = MerkleTree(depth=DEPTH)
        index = own_tree.insert(identity.pk)
        witness = RLNWitness(identity=identity, merkle_proof=own_tree.proof(index))
        group_tree = MerkleTree(depth=DEPTH)
        group_tree.insert(FieldElement(123))
        public = RLNPublicInputs.for_message(
            identity, b"m", FieldElement(9), group_tree.root
        )
        for prover in provers:
            with pytest.raises(ProvingError):
                prover.prove(public, witness)

    def test_verification_binds_statement_identically(self, provers, case):
        public, witness = case
        for prover in provers:
            proof = prover.prove(public, witness)
            for field in ("x", "external_nullifier", "y", "internal_nullifier", "root"):
                assert not prover.verify(tamper(public, field), proof)

    def test_id_and_limit_come_together(self, systems):
        # A v1 witness under a limit, and a message id without one, are not
        # statements of either circuit.
        v1_public, v1_witness = make_case(None)
        v2_public, v2_witness = make_case(4)
        for limit, public, witness in (
            (4, v2_public, v1_witness),
            (None, v1_public, v2_witness),
        ):
            for prover in systems[limit]:
                with pytest.raises(ProvingError):
                    prover.prove(public, witness)

    @pytest.mark.parametrize("backend", [Groth16, NativeProver])
    def test_proofs_do_not_cross_parameterisations(self, backend):
        # Different set-up (the circuit tag differs) and different
        # serialisation: neither proof means anything to the other verifier.
        v1, v2 = backend(DEPTH), backend(DEPTH, 4)
        v1_public, v1_witness = make_case(None)
        v2_public, v2_witness = make_case(4)
        v1_proof = v1.prove(v1_public, v1_witness)
        v2_proof = v2.prove(v2_public, v2_witness)
        assert v1.verify(v1_public, v1_proof) and v2.verify(v2_public, v2_proof)
        assert not v2.verify(v1_public, v1_proof)
        assert not v2.verify(dataclasses.replace(v1_public, message_limit=4), v1_proof)
        assert not v1.verify(v2_public, v2_proof)
        assert not v1.verify(dataclasses.replace(v2_public, message_limit=None), v2_proof)


class TestPinnedArtefacts:
    """The merge moved no bit of what a deployment's keys are derived from."""

    @pytest.mark.parametrize(
        "depth, expected",
        [(4, (1659, 1667, 5)), (8, (2639, 2651, 5)), (20, (5579, 5603, 5))],
    )
    def test_v1_shape(self, depth, expected):
        shape = circuit_shape(depth)
        assert (shape.num_constraints, shape.num_variables, shape.num_public) == expected

    @pytest.mark.parametrize("limit", [1, 4, 256])
    def test_v2_shape_is_the_same_for_every_limit(self, limit):
        shape = circuit_shape(8, limit)
        assert (shape.num_constraints, shape.num_variables, shape.num_public) == (
            2695,
            2706,
            6,
        )

    def test_circuit_tags(self):
        assert setup(8)[0].params.circuit_tag == b"rln-depth8-c2639-v2651-p5"
        assert setup(8, 4)[0].params.circuit_tag == b"rln-depth8-c2695-v2706-p6"

    def test_serialisation_bytes(self):
        fields = [FieldElement(n) for n in (1, 2, 3, 4, 5)]
        v1 = b"".join(n.to_bytes(32, "big") for n in (1, 2, 3, 4, 5))
        assert RLNPublicInputs(*fields).serialize() == v1
        assert RLNPublicInputs(*fields, message_limit=6).serialize() == (
            b"v2" + v1 + (6).to_bytes(32, "big")
        )


class TestSkeleton:
    """What every backend gets from the shared prove/verify body."""

    @pytest.mark.parametrize("message_limit", LIMITS)
    def test_timing_counters_update(self, systems, message_limit):
        public, witness = make_case(message_limit)
        for prover in systems[message_limit]:
            prover.last_prove_seconds = prover.last_verify_seconds = 0.0
            proof = prover.prove(public, witness)
            assert prover.last_prove_seconds > 0
            assert prover.verify(public, proof)
            assert prover.last_verify_seconds > 0
            prover.last_verify_seconds = 0.0
            assert prover.verify_batch([(public, proof)] * 2)
            assert prover.last_verify_seconds > 0

    def test_limited_prover_enters_the_batch_verifier(self, systems):
        _, prover = systems[4]
        jobs = []
        for message_id in range(4):
            public, witness = make_case(
                4, message_id=message_id, payload=b"msg-%d" % message_id
            )
            jobs.append((public, prover.prove(public, witness)))
        forged_at = 2
        jobs[forged_at] = (jobs[forged_at][0], Proof(a=bytes(32), b=bytes(64), c=bytes(32)))
        prover.pairing_counter.reset()
        assert not prover.verify_batch(jobs)
        assert prover.pairing_counter.evaluations == 4 + 3

        prover.pairing_counter.reset()
        verifier = BatchVerifier(prover, Simulator(), batch_size=4)
        verdicts = [
            verifier.check(Claim(public, proof), priority=Priority.RELAY)[0]
            for public, proof in jobs
        ]
        assert [verdict.value for verdict in verdicts] == [True, True, False, True]
        assert verifier.stats.forged_indices == [forged_at]
        assert prover.pairing_counter.evaluations == 4 + 3 + 4 * 4


class TestSharedRegistry:
    def test_singleton_per_depth_and_backend(self):
        prover_registry._SHARED.clear()
        a = shared_prover(DEPTH, "native")
        b = shared_prover(DEPTH, "native")
        assert a is b
        c = shared_prover(DEPTH + 1, "native")
        assert c is not a

    def test_groth16_backend_is_the_circuit_prover(self):
        prover_registry._SHARED.clear()
        assert type(shared_prover(DEPTH, "groth16")) is Groth16
        prover_registry._SHARED.clear()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProvingError):
            shared_prover(DEPTH, "starkware")

    def test_shared_prover_proofs_interoperate(self, case):
        # Two peers using the shared prover verify each other's proofs —
        # one trusted setup per network.
        prover_registry._SHARED.clear()
        public, witness = case
        peer_a = shared_prover(DEPTH, "native")
        peer_b = shared_prover(DEPTH, "native")
        assert peer_b.verify(public, peer_a.prove(public, witness))
