"""Routing-time message validation — the decision procedure of §III-F.

Upon receipt of a bundle ``(m, (x, y), phi, epoch, tau, pi)`` the routing
peer decides relay / drop / slash:

1. **epoch gap** — more than Thr epochs from the local clock's epoch: drop
   (prevents a fresh member from spamming all past epochs, and a fast
   clock from banking future quota);
2. **root check** — tau must be one of the recently observed tree roots;
3. **payload binding** — x must equal H(m) (otherwise a valid proof could
   be replayed onto a different payload);
4. **proof verification** — pi must verify against the public inputs;
5. **rate check** against the nullifier map — fresh -> relay, identical
   share -> duplicate (drop), different share -> spam (slash).

The ordering puts the cheap checks first, so invalid-proof floods cost a
routing peer as little as possible (experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

from repro.core.config import RLNConfig
from repro.core.epoch import epoch_gap
from repro.core.messages import RateLimitProof
from repro.core.nullifier_log import NullifierLog, NullifierOutcome, SpamEvidence
from repro.crypto.field import FieldElement
from repro.waku.message import WakuMessage
from repro.zksnark.prover import RLNProver


class RootAcceptor(Protocol):
    """Whatever supplies the §III-F item-2 root-recognition check.

    Satisfied by :class:`~repro.core.membership.GroupManager` (full tree,
    flat or sharded) and by
    :class:`~repro.treesync.sync.ShardSyncManager` (shard-scoped peers),
    so a routing peer can validate without holding the whole forest.
    """

    def is_acceptable_root(self, root: FieldElement) -> bool: ...


class ValidationOutcome(Enum):
    """Result of the §III-F routing decision for one message bundle."""

    VALID = "valid"
    MISSING_PROOF = "missing-proof"
    INVALID_EPOCH_GAP = "invalid-epoch-gap"
    UNKNOWN_ROOT = "unknown-root"
    PAYLOAD_MISMATCH = "payload-mismatch"
    INVALID_PROOF = "invalid-proof"
    DUPLICATE = "duplicate"
    SPAM = "spam"

    def __init__(self, value: str) -> None:
        #: This outcome's index into per-outcome tables.  Hot paths count
        #: and look up by it: hashing a member is a Python-level call.
        self.slot = len(type(self)._member_names_)


@dataclass
class ValidatorStats:
    """Counters per outcome, plus proof-verification work performed.

    ``proofs_verified`` counts *real* pairing work — proofs that reached a
    verifier (individually or inside a batch).  ``proofs_cached`` counts
    verdicts served from the pipeline's proof-verdict cache without any
    pairing evaluation; the seed's conflation of the two hid exactly the
    saving experiment E10/E11 measures.
    """

    #: Count per outcome, indexed by :attr:`ValidationOutcome.slot`.
    counts: list[int] = field(default_factory=lambda: [0] * len(ValidationOutcome))
    proofs_verified: int = 0
    proofs_cached: int = 0

    @property
    def outcomes(self) -> dict[ValidationOutcome, int]:
        """Count per outcome, every outcome present."""
        return {outcome: self.counts[outcome.slot] for outcome in ValidationOutcome}

    def record(self, outcome: ValidationOutcome) -> None:
        self.counts[outcome.slot] += 1

    def count(self, outcome: ValidationOutcome) -> int:
        return self.counts[outcome.slot]


class BundleValidator:
    """One routing peer's validation pipeline and nullifier map."""

    def __init__(
        self,
        config: RLNConfig,
        prover: RLNProver,
        group: RootAcceptor,
    ) -> None:
        self.config = config
        self.prover = prover
        self.group = group
        self.log = NullifierLog()
        self.stats = ValidatorStats()

    def validate(
        self, message: WakuMessage, local_epoch: int, msg_id: bytes
    ) -> tuple[ValidationOutcome, SpamEvidence | None]:
        """Classify one incoming message bundle."""
        outcome, evidence = self._classify(message, local_epoch, msg_id)
        self.stats.record(outcome)
        return outcome, evidence

    def _classify(
        self, message: WakuMessage, local_epoch: int, msg_id: bytes
    ) -> tuple[ValidationOutcome, SpamEvidence | None]:
        proof = message.rate_limit_proof
        if not isinstance(proof, RateLimitProof):
            return ValidationOutcome.MISSING_PROOF, None

        # 1. Epoch-gap check (§III-F item 1) — cheapest, first.
        if epoch_gap(local_epoch, proof.epoch) > self.config.max_epoch_gap:
            return ValidationOutcome.INVALID_EPOCH_GAP, None

        # 2-3. Root and payload-binding checks.
        cheap = self.classify_cheap(message)
        if cheap is not None:
            return cheap, None

        # 4. zkSNARK verification (§III-F item 2).
        self.stats.proofs_verified += 1
        proof_ok = self.prover.verify(proof.public_inputs(), proof.proof)

        # 5. Rate check against the nullifier map (§III-F item 3).
        return self.classify_after_proof(message, local_epoch, msg_id, proof_ok)

    def classify_cheap(self, message: WakuMessage) -> ValidationOutcome | None:
        """§III-F items 2-3: root recognition and payload binding.

        The checks between the stateless prefilter gates and proof
        verification — still cheap (two hashes), but requiring group state
        and field arithmetic.  Returns ``None`` when the bundle survives
        and should proceed to proof verification.
        """
        proof = message.rate_limit_proof
        # The proof must speak about a tree root we recognise.
        if not self.group.is_acceptable_root(proof.root):
            return ValidationOutcome.UNKNOWN_ROOT
        # x = H(m): the proof is bound to this exact payload.
        if not proof.matches_payload(message.payload):
            return ValidationOutcome.PAYLOAD_MISMATCH
        return None

    def classify_after_proof(
        self, message: WakuMessage, local_epoch: int, msg_id: bytes, proof_ok: bool
    ) -> tuple[ValidationOutcome, SpamEvidence | None]:
        """§III-F item 3: the rate check, given the proof verdict.

        Split out so the validation pipeline can resume the decision after
        a batched (or cached) proof verdict arrives.
        """
        proof = message.rate_limit_proof
        if not proof_ok:
            return ValidationOutcome.INVALID_PROOF, None
        # Forget nullifiers older than the accepted window (§III-F).
        self.log.prune_before(local_epoch - self.config.max_epoch_gap)
        outcome, evidence = self.log.observe(
            proof.epoch, proof.internal_nullifier, proof.share, msg_id
        )
        if outcome is NullifierOutcome.FRESH:
            return ValidationOutcome.VALID, None
        if outcome is NullifierOutcome.DUPLICATE:
            return ValidationOutcome.DUPLICATE, None
        return ValidationOutcome.SPAM, evidence
