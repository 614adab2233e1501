"""Unit tests for the §III-F routing-validation pipeline."""

import pytest

from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.epoch import external_nullifier
from repro.core.membership import GroupManager
from repro.core.messages import RateLimitProof
from repro.core.validator import BundleValidator, ValidationOutcome
from repro.crypto.identity import Identity
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof
from repro.zksnark.prover import NativeProver
from repro.zksnark.rln_circuit import RLNPublicInputs, RLNWitness

DEPTH = 8
EPOCH = 54_827_003


@pytest.fixture(scope="module")
def prover():
    return NativeProver(DEPTH)


@pytest.fixture()
def env(prover):
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 100 * WEI)
    manager = GroupManager(chain, contract, tree_depth=DEPTH, root_window=3)
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=DEPTH)
    validator = BundleValidator(config, prover, manager)
    identity = Identity.from_secret(0x777)
    chain.send_transaction(
        "funder", contract.address, "register", {"pk": identity.pk.value}, value=1 * WEI
    )
    chain.mine_block()
    return chain, contract, manager, validator, identity


def make_message(prover, manager, identity, payload: bytes, epoch: int = EPOCH) -> WakuMessage:
    public = RLNPublicInputs.for_message(
        identity, payload, external_nullifier(epoch), manager.root
    )
    witness = RLNWitness(
        identity=identity, merkle_proof=manager.merkle_proof(identity.pk)
    )
    proof = prover.prove(public, witness)
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=epoch,
        root=manager.root,
        proof=proof,
    )
    return WakuMessage(payload=payload, content_topic="t", rate_limit_proof=bundle)


class TestPipeline:
    def test_valid_message_accepted(self, env, prover):
        _, _, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"hello")
        outcome, evidence = validator.validate(message, EPOCH, b"id1")
        assert outcome is ValidationOutcome.VALID and evidence is None

    def test_missing_proof_rejected(self, env):
        _, _, _, validator, _ = env
        bare = WakuMessage(payload=b"no proof", content_topic="t")
        outcome, _ = validator.validate(bare, EPOCH, b"id")
        assert outcome is ValidationOutcome.MISSING_PROOF

    def test_epoch_gap_enforced_both_directions(self, env, prover):
        _, _, manager, validator, identity = env
        past = make_message(prover, manager, identity, b"old", epoch=EPOCH - 3)
        future = make_message(prover, manager, identity, b"new", epoch=EPOCH + 3)
        assert validator.validate(past, EPOCH, b"a")[0] is ValidationOutcome.INVALID_EPOCH_GAP
        assert validator.validate(future, EPOCH, b"b")[0] is ValidationOutcome.INVALID_EPOCH_GAP

    def test_epoch_gap_boundary_accepted(self, env, prover):
        _, _, manager, validator, identity = env
        edge = make_message(prover, manager, identity, b"edge", epoch=EPOCH - 2)
        assert validator.validate(edge, EPOCH, b"c")[0] is ValidationOutcome.VALID

    def test_epoch_check_precedes_proof_verification(self, env, prover):
        # Cheap check first: an out-of-window message costs no verification.
        _, _, manager, validator, identity = env
        before = validator.stats.proofs_verified
        stale = make_message(prover, manager, identity, b"x", epoch=EPOCH - 100)
        validator.validate(stale, EPOCH, b"d")
        assert validator.stats.proofs_verified == before

    def test_unknown_root_rejected(self, env, prover):
        chain, contract, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"stale-root")
        # Push enough membership events to rotate the old root out.
        for i in range(4):
            chain.send_transaction(
                "funder",
                contract.address,
                "register",
                {"pk": Identity.from_secret(900 + i).pk.value},
                value=1 * WEI,
            )
            chain.mine_block()
        outcome, _ = validator.validate(message, EPOCH, b"e")
        assert outcome is ValidationOutcome.UNKNOWN_ROOT

    def test_recent_root_still_accepted(self, env, prover):
        chain, contract, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"one-behind")
        chain.send_transaction(
            "funder",
            contract.address,
            "register",
            {"pk": Identity.from_secret(901).pk.value},
            value=1 * WEI,
        )
        chain.mine_block()
        outcome, _ = validator.validate(message, EPOCH, b"f")
        assert outcome is ValidationOutcome.VALID

    def test_payload_mismatch_rejected(self, env, prover):
        _, _, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"original")
        forged = WakuMessage(
            payload=b"tampered",
            content_topic="t",
            rate_limit_proof=message.rate_limit_proof,
        )
        outcome, _ = validator.validate(forged, EPOCH, b"g")
        assert outcome is ValidationOutcome.PAYLOAD_MISMATCH

    def test_invalid_proof_rejected(self, env, prover):
        _, _, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"victim")
        bundle = message.rate_limit_proof
        broken = RateLimitProof(
            share_x=bundle.share_x,
            share_y=bundle.share_y,
            internal_nullifier=bundle.internal_nullifier,
            epoch=bundle.epoch,
            root=bundle.root,
            proof=Proof(a=bytes(32), b=bytes(64), c=bytes(32)),
        )
        forged = WakuMessage(payload=b"victim", content_topic="t", rate_limit_proof=broken)
        outcome, _ = validator.validate(forged, EPOCH, b"h")
        assert outcome is ValidationOutcome.INVALID_PROOF

    def test_duplicate_detected(self, env, prover):
        _, _, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"dup")
        validator.validate(message, EPOCH, b"i1")
        outcome, _ = validator.validate(message, EPOCH, b"i2")
        assert outcome is ValidationOutcome.DUPLICATE

    def test_spam_detected_with_recoverable_evidence(self, env, prover):
        from repro.crypto.shamir import recover_secret

        _, _, manager, validator, identity = env
        first = make_message(prover, manager, identity, b"first")
        second = make_message(prover, manager, identity, b"second")
        validator.validate(first, EPOCH, b"j1")
        outcome, evidence = validator.validate(second, EPOCH, b"j2")
        assert outcome is ValidationOutcome.SPAM
        assert recover_secret(evidence.share_a, evidence.share_b) == identity.sk

    def test_messages_in_different_epochs_both_valid(self, env, prover):
        _, _, manager, validator, identity = env
        m1 = make_message(prover, manager, identity, b"e1", epoch=EPOCH)
        m2 = make_message(prover, manager, identity, b"e2", epoch=EPOCH + 1)
        assert validator.validate(m1, EPOCH, b"k1")[0] is ValidationOutcome.VALID
        assert validator.validate(m2, EPOCH, b"k2")[0] is ValidationOutcome.VALID

    def test_log_pruned_as_epochs_advance(self, env, prover):
        _, _, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"past")
        validator.validate(message, EPOCH, b"l1")
        assert validator.log._entries == 1
        newer = make_message(prover, manager, identity, b"future", epoch=EPOCH + 10)
        validator.validate(newer, EPOCH + 10, b"l2")
        assert EPOCH not in validator.log._by_epoch

    def test_stats_counters(self, env, prover):
        _, _, manager, validator, identity = env
        message = make_message(prover, manager, identity, b"counted")
        validator.validate(message, EPOCH, b"m1")
        assert validator.stats.count(ValidationOutcome.VALID) == 1
        assert validator.stats.proofs_verified == 1
