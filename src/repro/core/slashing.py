"""Slashing: secret-key recovery and the commit-reveal contract dance (§III-F).

When a routing peer's nullifier map yields :class:`SpamEvidence` — two
distinct shares under one internal nullifier — slashing proceeds:

1. interpolate the two shares to recover the spammer's secret identity key
   (``sk = A(0)``, :func:`repro.crypto.shamir.recover_secret`);
2. submit ``commit = H(sk, slasher_address, nonce)`` to the contract, the
   nonce hashed from the attempt number under the slasher's secret key;
3. after the commit is mined, reveal ``(sk, nonce)``; the contract deletes
   the spammer's leaf and pays the slasher the spammer's whole stake.

The two-round commit-reveal closes the §III-F race: a mempool observer who
copies the commitment cannot produce an opening for it (it binds the
original slasher's address), and one who waits for the reveal is a block
too late.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from repro.chain.blockchain import Blockchain
from repro.core.nullifier_log import SpamEvidence
from repro.crypto.commitments import Opening, commit
from repro.crypto.field import FieldElement
from repro.crypto.hashing import DOMAIN_SLASH_NONCE, tagged_sha256
from repro.crypto.identity import derive_commitment
from repro.crypto.shamir import recover_secret
from repro.errors import ProtocolError


class SlashState(Enum):
    """Lifecycle of one slashing attempt through commit-reveal."""

    RECOVERED = "recovered"
    COMMITTED = "committed"
    REVEALED = "revealed"
    REWARDED = "rewarded"
    FAILED = "failed"


@dataclass
class SlashAttempt:
    """Tracks one spam case through the commit-reveal pipeline."""

    attempt_id: int
    recovered_sk: FieldElement
    spammer_pk: FieldElement
    state: SlashState
    opening: Opening | None = None
    commit_tx: int | None = None
    reveal_tx: int | None = None
    reward: int = 0
    failure_reason: str | None = None


def recover_spammer_key(evidence: SpamEvidence) -> FieldElement:
    """Interpolate the spammer's sk from the two conflicting shares."""
    return recover_secret(evidence.share_a, evidence.share_b)


class Slasher:
    """Drives slashing for one peer account.

    ``key`` (at least 16 secret bytes; a deployment draws each peer's from
    its seeded rng) keys the commit nonces: unguessable, distinct per
    attempt, and the same on every run of one seed.
    """

    def __init__(self, account: str, chain: Blockchain, contract_address: str, key: bytes) -> None:
        if len(key) < 16:
            raise ProtocolError("a slasher key must be at least 16 bytes")
        self.account = account
        self._key = key
        self.chain = chain
        self.contract_address = contract_address
        self.attempts: list[SlashAttempt] = []
        self._ids = itertools.count(1)

    # -- step 1+2: recover and commit -----------------------------------------

    def begin(self, evidence: SpamEvidence) -> SlashAttempt:
        """Recover the key and submit the commit transaction."""
        sk = recover_spammer_key(evidence)
        attempt = SlashAttempt(
            attempt_id=next(self._ids),
            recovered_sk=sk,
            spammer_pk=derive_commitment(sk),
            state=SlashState.RECOVERED,
        )
        nonce = tagged_sha256(DOMAIN_SLASH_NONCE, self._key, attempt.attempt_id.to_bytes(8, "big"))
        commitment, opening = commit(sk.to_bytes(), self.account.encode("utf-8"), nonce=nonce)
        attempt.opening = opening
        attempt.commit_tx = self.chain.send_transaction(
            self.account,
            self.contract_address,
            "slash_commit",
            {"digest": commitment.digest},
            calldata=commitment.digest,
        )
        attempt.state = SlashState.COMMITTED
        self.attempts.append(attempt)
        return attempt

    # -- step 3: reveal ----------------------------------------------------------

    def reveal(self, attempt: SlashAttempt) -> int | None:
        """Submit the reveal transaction once the commit is mined.

        Returns the reveal tx id, or None if the commit has not been mined
        yet (caller should retry after the next block).
        """
        if attempt.state is not SlashState.COMMITTED:
            return attempt.reveal_tx
        receipt = self.chain.receipt(attempt.commit_tx)
        if receipt is None:
            return None
        if not receipt.success:
            attempt.state = SlashState.FAILED
            attempt.failure_reason = f"commit failed: {receipt.error}"
            return None
        assert attempt.opening is not None
        attempt.reveal_tx = self.chain.send_transaction(
            self.account,
            self.contract_address,
            "slash_reveal",
            {
                "sk": attempt.recovered_sk.value,
                "nonce": attempt.opening.nonce,
            },
            calldata=attempt.opening.payload + attempt.opening.nonce,
        )
        attempt.state = SlashState.REVEALED
        return attempt.reveal_tx

    # -- bookkeeping -----------------------------------------------------------------

    def settle(self) -> None:
        """Fold mined receipts into attempt states (call after each block)."""
        for attempt in self.attempts:
            if attempt.state is SlashState.COMMITTED:
                self.reveal(attempt)
            if attempt.state is SlashState.REVEALED:
                receipt = self.chain.receipt(attempt.reveal_tx)
                if receipt is None:
                    continue
                if receipt.success:
                    attempt.state = SlashState.REWARDED
                    attempt.reward = receipt.return_value["reward"]
                else:
                    # Commonly: another slasher won the race and the member
                    # is already gone.
                    attempt.state = SlashState.FAILED
                    attempt.failure_reason = f"reveal failed: {receipt.error}"

    def pending(self) -> list[SlashAttempt]:
        return [
            a
            for a in self.attempts
            if a.state in (SlashState.COMMITTED, SlashState.REVEALED)
        ]
