"""Incremental Merkle tree over Poseidon, as maintained off-chain by peers.

§III-A adjustment 1 of the paper: the membership contract stores only an
*ordered list* of identity commitments; every peer reconstructs and maintains
the Merkle tree locally, applying the contract's insertion and deletion
events.  This module implements that tree:

* fixed depth (default 20, matching §IV's storage analysis),
* sequential insertion into the next free leaf,
* deletion by overwriting a leaf with the zero value (membership revocation
  after slashing or withdrawal),
* authentication-path (``auth`` of §II-B) generation and verification,
* exact storage accounting used by experiment E4.

The tree is sparse-aware: untouched subtrees are represented by precomputed
"zero hashes", so memory grows with the number of occupied leaves, not with
2^depth.

Work is counted twice, on purpose.  :attr:`MerkleTree.hash_ops` is the
*logical* per-replica count — every two-to-one compression the tree asked
for.  ``EngineStats.hashes`` is the *physical* count — what the process
computed.  They agree for a standalone tree; replicas that share a
:class:`MemoHasher` (one per :class:`~repro.core.deployment.RLNDeployment`,
owned by it and never by this module) ask N times and compute once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.crypto.engine import default_engine
from repro.crypto.field import FIELD_BYTES, FieldElement, ZERO
from repro.errors import InvalidAuthPath, MerkleError, TreeFullError

#: Depth used by the paper's storage analysis (§IV: depth-20 tree, 67 MB).
DEFAULT_DEPTH = 20

#: Two-to-one compression function type for tree nodes.
NodeHasher = Callable[[FieldElement, FieldElement], FieldElement]

#: Entries a :class:`MemoHasher` holds before it is cleared (≈ 250 B each).
_MEMO_LIMIT = 1 << 16


class MemoHasher:
    """Content-addressed ``(left, right) → digest`` memo over Poseidon.

    The in-process replicas of one deployment replay the same contract
    event through their own trees and would each compute the same ``depth``
    digests; sharing one of these as their ``hasher=`` computes each node
    once.  Nothing but digests is shared — every tree keeps its own nodes,
    its own rehash walk and its own :attr:`MerkleTree.hash_ops`, so a
    replica can still diverge.  Bounded: cleared when full.  Whoever
    builds it owns it; no module-level table holds it (it resolves to the
    canonical zero ladder), so it is freed with its last tree.
    """

    __slots__ = ("_memo", "__weakref__")

    def __init__(self) -> None:
        self._memo: dict[tuple[int, int], FieldElement] = {}

    def __call__(self, left: FieldElement, right: FieldElement) -> FieldElement:
        key = (left.value, right.value)
        digest = self._memo.get(key)
        if digest is None:
            if len(self._memo) >= _MEMO_LIMIT:
                self._memo.clear()
            digest = self._memo[key] = default_engine().hash2(left, right)
        return digest


#: Zero-subtree ladders, one growing list per hasher (``None`` keys the
#: canonical Poseidon ladder, shared by every engine backend — they are
#: bit-identical by construction).  Rungs are extended on demand and shared
#: across every depth, so tree/forest construction stops recomputing the
#: same 20-deep ladder per instantiation.
_ZERO_LADDERS: dict[NodeHasher | None, list[FieldElement]] = {}

#: Bound on distinct ad-hoc hashers we keep ladders for (tests that inject
#: throwaway lambdas must not grow the cache without limit).
_ZERO_LADDER_LIMIT = 64


def zero_hashes(
    depth: int, hasher: NodeHasher | None = None
) -> tuple[FieldElement, ...]:
    """Hashes of all-zero subtrees: level 0 is the zero leaf.

    ``zero_hashes(d)[i]`` is the root of a fully-empty subtree of height i.
    A non-default ``hasher`` yields the ladder for trees built over that
    hash (accounting-only trees in the benchmarks inject a cheap one); a
    :class:`MemoHasher` *is* Poseidon and shares the canonical ladder.
    """
    if isinstance(hasher, MemoHasher):
        hasher = None
    ladder = _ZERO_LADDERS.get(hasher)
    if ladder is None:
        if len(_ZERO_LADDERS) >= _ZERO_LADDER_LIMIT:
            canonical = _ZERO_LADDERS.get(None)
            _ZERO_LADDERS.clear()
            if canonical is not None:
                _ZERO_LADDERS[None] = canonical
        ladder = _ZERO_LADDERS[hasher] = [ZERO]
    if len(ladder) <= depth:
        hash2 = hasher or default_engine().hash2
        while len(ladder) <= depth:
            ladder.append(hash2(ladder[-1], ladder[-1]))
    return tuple(ladder[: depth + 1])


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path connecting one leaf to the root (§II-B ``auth``).

    ``siblings[i]`` is the sibling node at level i (level 0 = leaves);
    ``path_bits[i]`` is 1 if the leaf's ancestor at level i is a *right*
    child.  ``path_bits`` is exactly the binary expansion of the leaf index,
    least-significant bit first.
    """

    leaf: FieldElement
    index: int
    siblings: tuple[FieldElement, ...]
    path_bits: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def compute_root(self, hasher: NodeHasher | None = None) -> FieldElement:
        """The root this path implies.

        Folded with Poseidon — ``hasher=None``, or a :class:`MemoHasher`,
        which *is* Poseidon: every level is still walked, a node the memo
        lacks is hashed for real — the result is remembered on the (frozen)
        instance, so a path is folded at most once.  Any other hasher folds
        paths of the accounting-only trees the benchmarks build over a
        cheap hash, every time.
        """
        if hasher is not None and not isinstance(hasher, MemoHasher):
            return self._fold(hasher)
        root = self.__dict__.get("_root")
        if root is None:
            root = self._fold(hasher or default_engine().hash2)
            object.__setattr__(self, "_root", root)
        return root

    def _fold(self, hash2: NodeHasher) -> FieldElement:
        node = self.leaf
        for bit, sibling in zip(self.path_bits, self.siblings):
            if bit:
                node = hash2(sibling, node)
            else:
                node = hash2(node, sibling)
        return node

    def verify(self, root: FieldElement) -> bool:
        """True iff this path proves membership under ``root``.

        The checker's operation: always folds, never trusts a remembered
        root (experiment E5 times exactly this).
        """
        return self._fold(default_engine().hash2) == root

    def byte_size(self) -> int:
        """Serialized size: leaf + index + one field element per level."""
        return FIELD_BYTES + 8 + len(self.siblings) * FIELD_BYTES


class MerkleTree:
    """Fixed-depth incremental Merkle tree with deletion support.

    Nodes are stored in a dict keyed by (level, index); absent keys fall back
    to the zero hash of that level, so an empty tree costs O(depth) memory.

    ``zeros`` overrides the zero ladder (``depth + 1`` rungs, rung 0 being
    the *empty leaf*): the upper ``d`` levels of a deeper tree are
    themselves a depth-``d`` tree whose empty leaf is the empty-subtree
    root of the level they start at — the "top tree" over shard roots a
    :class:`~repro.treesync.sync.ShardSyncManager` keeps is exactly that.

    >>> tree = MerkleTree(depth=3)
    >>> i = tree.insert(FieldElement(42))
    >>> proof = tree.proof(i)
    >>> proof.verify(tree.root)
    True
    """

    def __init__(
        self,
        depth: int = DEFAULT_DEPTH,
        *,
        hasher: NodeHasher | None = None,
        zeros: Sequence[FieldElement] | None = None,
    ) -> None:
        if not 1 <= depth <= 32:
            raise MerkleError(f"depth must be in [1, 32], got {depth}")
        self.depth = depth
        self.capacity = 1 << depth
        self._nodes: dict[tuple[int, int], FieldElement] = {}
        self._hash: NodeHasher = hasher or default_engine().hash2
        self._zeros = zero_hashes(depth, hasher) if zeros is None else tuple(zeros)
        if len(self._zeros) != depth + 1:
            raise MerkleError("zero ladder length must be depth + 1")
        #: The value an unoccupied leaf slot holds (``ZERO`` unless a
        #: ladder was injected).
        self._empty = self._zeros[0]
        self._next_index = 0
        #: Indices freed by deletion, reused before extending the frontier.
        self._free: list[int] = []
        #: Two-to-one compressions performed (the per-event work experiment
        #: E12 compares across tree backends).
        self.hash_ops = 0

    # -- node access ---------------------------------------------------------

    def _get(self, level: int, index: int) -> FieldElement:
        return self._nodes.get((level, index), self._zeros[level])

    def _set(self, level: int, index: int, value: FieldElement) -> None:
        if value == self._zeros[level]:
            self._nodes.pop((level, index), None)
        else:
            self._nodes[(level, index)] = value

    @property
    def root(self) -> FieldElement:
        return self._get(self.depth, 0)

    @property
    def leaf_count(self) -> int:
        """Number of leaf slots ever allocated (including deleted ones)."""
        return self._next_index

    @property
    def member_count(self) -> int:
        """Number of currently occupied (non-deleted) leaves."""
        return self._next_index - len(self._free)

    def leaf(self, index: int) -> FieldElement:
        self._check_index(index)
        return self._get(0, index)

    def leaves(self) -> Iterator[FieldElement]:
        """All allocated leaf values in index order (zero where deleted)."""
        for index in range(self._next_index):
            yield self._get(0, index)

    # -- mutation -------------------------------------------------------------

    def insert(self, leaf: FieldElement) -> int:
        """Insert a leaf into the lowest free slot and return its index."""
        if leaf == self._empty:
            raise MerkleError("cannot insert the zero leaf (reserved for empty)")
        if self._free:
            index = min(self._free)
            self._free.remove(index)
        elif self._next_index < self.capacity:
            index = self._next_index
            self._next_index += 1
        else:
            raise TreeFullError(f"tree of depth {self.depth} is full")
        self._update_leaf(index, leaf)
        return index

    def append(self, leaf: FieldElement) -> int:
        """Insert at the frontier, never reusing deleted slots.

        This matches the membership contract's ordered list (§III-A), which
        only ever appends; deleted slots stay zero so every member's index
        is stable for the lifetime of the group.
        """
        if leaf == self._empty:
            raise MerkleError("cannot insert the zero leaf (reserved for empty)")
        if self._next_index >= self.capacity:
            raise TreeFullError(f"tree of depth {self.depth} is full")
        index = self._next_index
        self._next_index += 1
        self._update_leaf(index, leaf)
        return index

    def delete(self, index: int) -> None:
        """Zero out a leaf (member removal after slashing/withdrawal)."""
        self._check_index(index)
        if self._get(0, index) == self._empty:
            raise MerkleError(f"leaf {index} is already empty")
        self._update_leaf(index, self._empty)
        self._free.append(index)

    def update(self, index: int, leaf: FieldElement) -> None:
        """Overwrite an occupied leaf in place."""
        self._check_index(index)
        if leaf == self._empty:
            raise MerkleError("use delete() to clear a leaf")
        if self._get(0, index) == self._empty:
            raise MerkleError(f"leaf {index} is empty; use insert()")
        self._update_leaf(index, leaf)

    def _update_leaf(self, index: int, leaf: FieldElement) -> None:
        """The one leaf-write/rehash loop: every mutation ends here."""
        self._set(0, index, leaf)
        node_index = index
        for level in range(self.depth):
            sibling_index = node_index ^ 1
            sibling = self._get(level, sibling_index)
            node = self._get(level, node_index)
            if node_index & 1:
                parent = self._hash(sibling, node)
            else:
                parent = self._hash(node, sibling)
            self.hash_ops += 1
            node_index >>= 1
            self._set(level + 1, node_index, parent)

    def write_leaf(self, index: int, leaf: FieldElement) -> None:
        """Low-level slot write: allocate through ``index``, then set it.

        Shard-scoped peers replay announced writes with this — a home
        shard addressed by shard-local slot, a top tree addressed by shard
        id: slots skipped over by the allocation stay empty (and
        reusable), and writing the empty leaf clears an occupied slot.
        Bookkeeping ends up exactly as the equivalent
        ``append``/``insert``/``delete`` sequence would have left it.
        """
        self._check_index(index)
        if index >= self._next_index:
            self._free.extend(range(self._next_index, index))
            self._next_index = index + 1
            currently_free = False
        else:
            currently_free = self._get(0, index) == self._empty
        if leaf == self._empty and not currently_free:
            self._free.append(index)
        elif leaf != self._empty and currently_free:
            self._free.remove(index)
        self._update_leaf(index, leaf)

    # -- proofs ---------------------------------------------------------------

    def proof(self, index: int) -> MerkleProof:
        """Authentication path for the leaf at ``index``."""
        return self.path(0, index, self.depth)

    def path(self, level: int, index: int, height: int) -> MerkleProof:
        """Authentication path from node ``(level, index)`` up ``height`` levels.

        The proof's ``leaf`` is the node itself and its ``index`` the
        node's position inside the height-``height`` subtree the walk stays
        within, so it folds to :meth:`subtree_root` at
        ``(level + height, index >> height)``.  ``path(0, i, depth)`` is the
        §II-B ``auth`` of leaf ``i``; split at a level boundary the two
        halves are a shard-local path and a top-tree path (see
        :mod:`repro.treesync.forest`).
        """
        leaf = self.subtree_root(level, index)
        if not 0 <= height <= self.depth - level:
            raise MerkleError(f"height {height} out of range above level {level}")
        siblings: list[FieldElement] = []
        bits: list[int] = []
        node_index = index
        for at in range(level, level + height):
            siblings.append(self._get(at, node_index ^ 1))
            bits.append(node_index & 1)
            node_index >>= 1
        return MerkleProof(
            leaf=leaf,
            index=index & ((1 << height) - 1),
            siblings=tuple(siblings),
            path_bits=tuple(bits),
        )

    def subtree_root(self, level: int, index: int) -> FieldElement:
        """Root of the subtree of height ``level`` over leaves
        ``[index * 2^level, (index + 1) * 2^level)``.

        At ``level = shard_depth`` this is exactly a shard root, which is
        how membership announcements get tagged without re-hashing.
        """
        if not 0 <= level <= self.depth:
            raise MerkleError(f"level {level} out of range for depth {self.depth}")
        if not 0 <= index < (1 << (self.depth - level)):
            raise MerkleError(f"node index {index} out of range at level {level}")
        return self._get(level, index)

    def find(self, leaf: FieldElement) -> int:
        """Index of the first occurrence of ``leaf``; raises if absent."""
        for index in range(self._next_index):
            if self._get(0, index) == leaf:
                return index
        raise MerkleError("leaf not present in tree")

    # -- accounting (experiment E4) --------------------------------------------

    def storage_bytes(self) -> int:
        """Bytes needed to persist the materialised nodes.

        Counts one field element per stored node plus an 8-byte (level,
        index) key — the layout a peer would use on disk.  A *dense* depth-20
        tree is ~2^21 nodes x 32 B ≈ 67 MB, the figure in §IV.
        """
        return len(self._nodes) * (FIELD_BYTES + 8)

    @staticmethod
    def dense_storage_bytes(depth: int) -> int:
        """Storage of a naively dense tree of the given depth (§IV's 67 MB)."""
        node_count = (1 << (depth + 1)) - 1
        return node_count * FIELD_BYTES

    # -- helpers ----------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise MerkleError(f"leaf index {index} out of range for depth {self.depth}")

    @classmethod
    def from_leaves(
        cls,
        leaves: Sequence[FieldElement],
        depth: int = DEFAULT_DEPTH,
        *,
        hasher: NodeHasher | None = None,
    ) -> "MerkleTree":
        """Build a tree containing ``leaves`` in order (zero leaves skipped).

        Builds bottom-up, level by level: ~2N compressions for N leaves
        instead of the N·depth an insert-at-a-time replay costs, which is
        what makes bootstrapping a peer from a large contract list (and the
        million-member rows of experiment E12) tractable.
        """
        tree = cls(depth=depth, hasher=hasher)
        tree._load(leaves)
        return tree

    def _load(self, leaves: Sequence[FieldElement]) -> None:
        """Bulk-fill a freshly constructed tree (:meth:`from_leaves`' body)."""
        if len(leaves) > self.capacity:
            raise TreeFullError(f"{len(leaves)} leaves exceed capacity {self.capacity}")
        current: list[FieldElement] = []
        for index, leaf in enumerate(leaves):
            # Allocate strictly sequentially so index alignment with the
            # contract's ordered list is preserved even across deleted slots.
            if leaf == self._empty:
                self._free.append(index)
            else:
                self._nodes[(0, index)] = leaf
            current.append(leaf)
        self._next_index = len(leaves)
        # Engine-backed hashers batch whole levels through hash_many, which
        # amortises the per-call parameter lookup and wrapper overhead.
        engine = getattr(self._hash, "engine", None)
        width = len(current)
        for level in range(self.depth):
            if width == 0:
                break
            width = (width + 1) // 2
            zero = self._zeros[level]
            pairs = [
                (
                    current[2 * i],
                    current[2 * i + 1] if 2 * i + 1 < len(current) else zero,
                )
                for i in range(width)
            ]
            if engine is not None:
                above = engine.hash_many(pairs)
            else:
                above = [self._hash(left, right) for left, right in pairs]
            self.hash_ops += width
            for i, parent in enumerate(above):
                self._set(level + 1, i, parent)
            current = above


def verify_proof(root: FieldElement, proof: MerkleProof) -> None:
    """Raise :class:`InvalidAuthPath` unless ``proof`` opens to ``root``."""
    if not proof.verify(root):
        raise InvalidAuthPath("authentication path does not match root")
