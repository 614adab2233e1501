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

Every mutation is one :meth:`MerkleTree.apply`: write the slots, then
rehash each dirty node once, level by level — k writes cost
Σ_l |{i >> l}| ≤ 2k + depth compressions, not k·depth, which is what lets a
replica apply a whole block of membership events at once.

Work is counted twice, on purpose.  :attr:`MerkleTree.hash_ops` is the
*logical* count — every two-to-one compression the tree performed (it
falls when writes share ancestors).  ``EngineStats.hashes`` is the
*physical* count — what the process computed.  They agree for a tree's own
rehash; a path folded through the tree's :class:`MemoHasher` (a
deployment's, owned by it and never by this module) asks for ``depth``
digests the rehash already computed, and computes none of them again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

    A deployment's identity tree hashes through one of these, so a
    publisher's fresh path (:meth:`MerkleProof.compute_root`) finds the
    digests the block's rehash computed and computes none again.  Only
    digests are kept — the tree keeps its nodes and its own
    :attr:`MerkleTree.hash_ops` — and a pair the memo lacks is hashed for
    real, so a tampered path still fails.  Bounded: cleared when full.
    Whoever builds it owns it; no module-level table holds it (it resolves
    to the canonical zero ladder), so it is freed with its last tree.
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
#: canonical Poseidon ladder, the engine's).  Rungs are extended on demand
#: and shared across every depth, so tree/forest construction stops
#: recomputing the same 20-deep ladder per instantiation.
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
        zero = self._zeros[level]
        if value is zero or value == zero:
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
        elif self._next_index < self.capacity:
            index = self._next_index
        else:
            raise TreeFullError(f"tree of depth {self.depth} is full")
        self.apply(((index, leaf),))
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
        self.apply(((index, leaf),))
        return index

    def delete(self, index: int) -> None:
        """Zero out a leaf (member removal after slashing/withdrawal)."""
        self._check_index(index)
        if self._get(0, index) == self._empty:
            raise MerkleError(f"leaf {index} is already empty")
        self.apply(((index, self._empty),))

    def update(self, index: int, leaf: FieldElement) -> None:
        """Overwrite an occupied leaf in place."""
        self._check_index(index)
        if leaf == self._empty:
            raise MerkleError("use delete() to clear a leaf")
        if self._get(0, index) == self._empty:
            raise MerkleError(f"leaf {index} is empty; use insert()")
        self.apply(((index, leaf),))

    def apply(self, writes: Iterable[tuple[int, FieldElement]]) -> None:
        """Write every ``(index, leaf)`` in order, then rehash each dirty
        node once: the one leaf-write/rehash loop every mutation ends in.

        Slot bookkeeping ends up exactly as the equivalent
        ``append``/``insert``/``delete`` sequence would have left it:
        allocation runs through the highest index written, slots skipped
        over stay empty (and reusable), and writing the empty leaf frees an
        occupied slot.  Shard-scoped peers replay announced writes with
        this — a home shard addressed by shard-local slot, a top tree by
        shard id.  The rehash then climbs level by level over the distinct
        parents of the dirty nodes, so k writes cost
        Σ_l |{i >> l}| ≤ 2k + depth compressions instead of k·depth, in
        one ``hash_many`` per level when the hasher is engine-backed.
        """
        dirty: set[int] = set()
        for index, leaf in writes:
            self._check_index(index)
            if index >= self._next_index:
                self._free.extend(range(self._next_index, index))
                self._next_index = index + 1
                was_free = False
            else:
                was_free = self._get(0, index) == self._empty
            if leaf == self._empty:
                if not was_free:
                    self._free.append(index)
            elif was_free:
                self._free.remove(index)
            self._set(0, index, leaf)
            dirty.add(index)
        if dirty:
            self._rehash(dirty)

    def _rehash(self, dirty: set[int]) -> None:
        """Recompute every ancestor of the ``dirty`` leaves once, level by
        level, from the nodes held (the zero ladder where none is)."""
        # Engine-backed hashers batch whole levels through hash_many, which
        # amortises the per-call parameter lookup and wrapper overhead.
        engine = getattr(self._hash, "engine", None)
        get = self._nodes.get
        for level in range(self.depth):
            parents = {index >> 1 for index in dirty}
            zero = self._zeros[level]
            pairs = [
                (get((level, 2 * i), zero), get((level, 2 * i + 1), zero))
                for i in parents
            ]
            if engine is not None:
                above = engine.hash_many(pairs)
            else:
                above = [self._hash(left, right) for left, right in pairs]
            self.hash_ops += len(pairs)
            for i, parent in zip(parents, above):
                self._set(level + 1, i, parent)
            dirty = parents

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

    def copy(self) -> "MerkleTree":
        """An independent tree with this one's nodes, slots and ``hash_ops``."""
        twin = object.__new__(MerkleTree)
        vars(twin).update(vars(self), _nodes=dict(self._nodes), _free=list(self._free))
        return twin

    @classmethod
    def from_paths(
        cls,
        paths: Sequence[MerkleProof],
        writes: Iterable[tuple[int, FieldElement]],
    ) -> "MerkleTree":
        """The part of a tree that full-depth ``paths`` reveal (each leaf
        and its siblings), with ``writes`` to those paths' slots applied.

        Every node a rehash of those slots reads is a sibling on some
        written slot's path, so the result's :attr:`root` and its
        :meth:`proof` of any given path's slot are the whole tree's after
        the writes.  Slot bookkeeping is not tracked.
        """
        tree = cls(paths[0].depth)
        for path in paths:
            tree._set(0, path.index, path.leaf)
            for level, sibling in enumerate(path.siblings):
                tree._set(level, (path.index >> level) ^ 1, sibling)
        dirty = set()
        for index, leaf in writes:
            tree._set(0, index, leaf)
            dirty.add(index)
        if dirty:
            tree._rehash(dirty)
        return tree

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
        """Bulk-fill a freshly constructed tree (:meth:`from_leaves`' body):
        every slot in order, zero leaves as freed slots, one :meth:`apply`."""
        if len(leaves) > self.capacity:
            raise TreeFullError(f"{len(leaves)} leaves exceed capacity {self.capacity}")
        self.apply(enumerate(leaves))


class RootWindow:
    """The accepted-root window (§III-F item 2): recent roots, newest last.

    ``values`` is the set of their field values, rebuilt on every change,
    so an acceptance check is one set probe by value, never by identity.
    """

    def __init__(self, size: int | None, roots: Iterable[FieldElement]) -> None:
        self._roots: deque[FieldElement] = deque(roots, maxlen=size)
        self.values = {root.value for root in self._roots}

    def push(self, root: FieldElement, *, collapse: bool = False) -> None:
        """Admit ``root`` as the newest.  ``collapse`` first drops every
        older root: after a removal, paths over a tree that still held the
        member stop validating now instead of when they age out."""
        if collapse:
            self._roots.clear()
        if not self._roots or self._roots[-1] != root:
            self._roots.append(root)
            self.values = {value.value for value in self._roots}

    def roots(self) -> list[FieldElement]:
        return list(self._roots)

    def copy(self) -> "RootWindow":
        return RootWindow(self._roots.maxlen, self._roots)


def verify_proof(root: FieldElement, proof: MerkleProof) -> None:
    """Raise :class:`InvalidAuthPath` unless ``proof`` opens to ``root``."""
    if not proof.verify(root):
        raise InvalidAuthPath("authentication path does not match root")
