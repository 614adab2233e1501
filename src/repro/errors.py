"""Exception hierarchy for the WAKU-RLN-RELAY reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so callers
can catch library failures without masking programming errors.  The hierarchy
mirrors the subsystem layout: crypto, zkSNARK, chain, network, and protocol
errors each have their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Crypto substrate
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class FieldError(CryptoError):
    """Invalid finite-field operation (e.g. inverse of zero)."""


class MerkleError(CryptoError):
    """Invalid Merkle-tree operation (bad index, full tree, bad proof)."""


class TreeFullError(MerkleError):
    """The Merkle tree has no free leaves left."""


class InvalidAuthPath(MerkleError):
    """An authentication path failed verification."""


class ShamirError(CryptoError):
    """Invalid Shamir secret-sharing operation."""


class IdentityError(CryptoError):
    """Malformed identity key or commitment."""


class CommitmentError(CryptoError):
    """Commit-and-reveal commitment failed to open."""


# ---------------------------------------------------------------------------
# zkSNARK layer
# ---------------------------------------------------------------------------


class SnarkError(ReproError):
    """Base class for zkSNARK failures."""


class ConstraintViolation(SnarkError):
    """A witness does not satisfy the R1CS constraint system."""


class ProvingError(SnarkError):
    """Proof generation failed (bad witness or malformed inputs)."""


class VerificationError(SnarkError):
    """A proof failed verification."""


class SetupError(SnarkError):
    """Trusted-setup ceremony failure."""


# ---------------------------------------------------------------------------
# Blockchain substrate
# ---------------------------------------------------------------------------


class ChainError(ReproError):
    """Base class for blockchain-simulator failures."""


class InsufficientFunds(ChainError):
    """Account balance cannot cover value + gas."""


class ContractError(ChainError):
    """A contract call reverted."""


class OutOfGas(ChainError):
    """Transaction exceeded its gas limit."""


class DuplicateRegistration(ContractError):
    """The identity commitment is already a member."""


class NotRegistered(ContractError):
    """The identity commitment is not in the membership set."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network-simulator failures."""


class UnknownPeer(NetworkError):
    """Operation references a peer id that does not exist."""


class NotConnected(NetworkError):
    """Message send attempted over a non-existent link."""


# ---------------------------------------------------------------------------
# Protocol layer (WAKU-RLN-RELAY)
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for WAKU-RLN-RELAY protocol violations."""


class RegistrationError(ProtocolError):
    """Peer registration with the membership contract failed."""


class SyncError(ProtocolError):
    """Local membership tree diverged from the contract state."""


class InconsistentTreeUpdate(SyncError):
    """A tree-update announcement's root disagrees with the locally
    recomputed root: the announcer lied or the local view is corrupt."""


class TreeSyncGap(SyncError):
    """Membership events were missed; the consumer must fall back to
    checkpoint+delta sync (e.g. via the Waku store) before continuing."""


class SnapshotAheadOfArchive(SyncError):
    """A shard snapshot was cut at a newer event than any the requester
    has archived digests for — usually a registration raced the fetch.
    Re-querying the store extends the accepted stream far enough to
    authenticate it; the snapshot itself may be perfectly honest."""
