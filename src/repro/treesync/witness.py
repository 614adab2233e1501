"""Witness splicing: (subtree proof ∥ top-tree proof) → standard auth path.

The RLN circuit (§II-B) folds one fixed-depth authentication path; it does
not know the tree was sharded.  Because the forest split happens *at a
level boundary*, a member's flat path is exactly its shard-local path
followed by the top tree's path for its shard root — so splicing the two
yields a :class:`~repro.crypto.merkle.MerkleProof` the unchanged
``rln_circuit`` and validators accept.
"""

from __future__ import annotations

from repro.crypto.merkle import MerkleProof, NodeHasher
from repro.errors import MerkleError


def splice(
    shard_proof: MerkleProof,
    top_proof: MerkleProof,
    *,
    hasher: NodeHasher | None = None,
) -> MerkleProof:
    """Join a shard-local path and a top-tree path into one flat path.

    ``shard_proof`` authenticates the member's leaf within its shard;
    ``top_proof`` authenticates that shard's root (its ``leaf``) within the
    top tree, indexed by shard id.  The two must agree: the shard path
    must fold to exactly the shard root the top proof commits to
    (``hasher`` selects the fold for trees built over an injected hash).
    """
    shard_root = shard_proof.compute_root(hasher)
    if top_proof.leaf != shard_root:
        raise MerkleError(
            "shard proof folds to a different shard root than the top proof commits to"
        )
    index = (top_proof.index << shard_proof.depth) | shard_proof.index
    siblings = shard_proof.siblings + top_proof.siblings
    bits = shard_proof.path_bits + top_proof.path_bits
    return MerkleProof(
        leaf=shard_proof.leaf, index=index, siblings=siblings, path_bits=bits
    )
