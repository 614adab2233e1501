"""A replica applying a block as one tree write against an event-by-event oracle.

``GroupManager`` queues its contract's events and, at the chain's
``BLOCK_END`` marker, applies the block as one ``MerkleTree.apply``.  The
reference replays the same events one at a time with ``append``/``delete``
on a plain ``MerkleTree``.  Hypothesis draws blocks of register, withdraw
and slash events — removals may hit a slot registered earlier in the same
block or one that is already zero — plus replicas that bootstrap part-way
through a block from a list that already holds events still to arrive.
After every block each replica must agree with the reference on root,
leaves, member count, index map and ``event_seq``; its window must end
with the block's root (and hold nothing else after a removal); and the
block must have cost each replica one compression per distinct dirty
ancestor.  One replica has both announcement listeners and must meet the
same assertions; a home-shard view, a light view and an O(log N) view fed
by its announcements must each reach the reference root after every block.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockchain import Blockchain
from repro.core.membership import GroupManager
from repro.crypto.field import FieldElement, ZERO
from repro.crypto.merkle import MerkleTree
from repro.crypto.optimized_merkle import OptimizedMerkleView
from repro.errors import NotRegistered
from repro.treesync import ShardSyncManager

DEPTH = 6
SHARD_DEPTH = 3  # the announced replica's tags: eight 8-slot shards
ADDRESS = "rln"
TREE_EVENTS = ("MemberRegistered", "MemberRemoved")

#: One event of a block: a registration, or a removal of the slot ``back``
#: places behind the frontier (0 = the newest), for a withdrawal or a slash.
events = st.one_of(
    st.just(("register", 0)),
    st.tuples(st.sampled_from(["withdraw", "slash"]), st.integers(0, 7)),
)
blocks = st.lists(
    st.tuples(st.lists(events, min_size=1, max_size=6), st.none() | st.integers(0, 6)),
    min_size=1,
    max_size=5,
)


class Ledger:
    """The contract as a replica sees it: an address and an ordered list."""

    address = ADDRESS

    def __init__(self) -> None:
        self.slots: list[int] = []

    def commitment_list(self) -> list[int]:
        return list(self.slots)


class Reference:
    """The per-event replay the batched replicas must agree with."""

    def __init__(self) -> None:
        self.tree = MerkleTree(depth=DEPTH)
        self.index_of: dict[int, int] = {}
        self.event_seq = 0

    def apply(self, name: str, data: dict) -> int | None:
        """Replay one event; the slot it changed, or ``None`` if it was a no-op."""
        index = data["index"]
        if name == "MemberRegistered":
            if index < self.tree.leaf_count:
                return None
            assert self.tree.append(FieldElement(data["pk"])) == index
            self.index_of[data["pk"]] = index
        else:
            leaf = self.tree.leaf(index)
            if leaf == ZERO:
                return None
            self.tree.delete(index)
            del self.index_of[leaf.value]
        self.event_seq += 1
        return index


def dirty_ancestors(slots: set[int]) -> int:
    return sum(len({i >> level for i in slots}) for level in range(1, DEPTH + 1))


def assert_agrees(replica: GroupManager, ref: Reference, live: set[int], gone: set[int]) -> None:
    assert replica.root == ref.tree.root
    assert list(replica.tree.leaves()) == list(ref.tree.leaves())
    assert replica.member_count() == ref.tree.member_count
    assert replica.event_seq == ref.event_seq
    for pk in live:
        assert replica.index_of(FieldElement(pk)) == ref.index_of[pk]
    for pk in gone:
        try:
            replica.index_of(FieldElement(pk))
        except NotRegistered:
            continue
        raise AssertionError(f"removed commitment {pk} still indexed")


@given(blocks)
@settings(max_examples=60, deadline=None)
def test_a_block_applied_at_once_matches_the_event_by_event_replay(drawn):
    chain, ledger, ref = Blockchain(), Ledger(), Reference()
    announced = GroupManager(
        chain, ledger, tree_depth=DEPTH, root_window=3, shard_depth=SHARD_DEPTH
    )
    replicas = [GroupManager(chain, ledger, tree_depth=DEPTH, root_window=3), announced]
    home = ShardSyncManager(0, depth=DEPTH, shard_depth=SHARD_DEPTH)
    light = ShardSyncManager(None, depth=DEPTH, shard_depth=SHARD_DEPTH)
    path_view = OptimizedMerkleView(announced.tree.proof(0), announced.root)
    announced.on_shard_update(home.apply)
    announced.on_shard_update(lambda update: light.apply(update.digest()))
    announced.on_update(path_view.apply_update)
    gone: set[int] = set()
    pks = iter(range(1, 1 << 20))
    for ops, join_at in drawn:
        emitted: list[tuple[str, dict]] = []
        joiner = None
        for position, (kind, back) in enumerate(ops):
            if kind == "register":
                pk = next(pks)
                emitted.append(("MemberRegistered", {"index": len(ledger.slots), "pk": pk}))
                ledger.slots.append(pk)
            elif ledger.slots:
                # May name a slot this block registered, or one already zero.
                index = max(0, len(ledger.slots) - 1 - back)
                pk = ledger.slots[index]
                emitted.append(("MemberRemoved", {"index": index, "pk": pk, "cause": kind}))
                emitted.append(("MemberSlashed" if kind == "slash" else "MemberWithdrawn",
                                {"index": index, "pk": pk}))
                ledger.slots[index] = 0
            if join_at == position:
                # Bootstraps from a list that already holds this block's
                # events so far, then receives the whole block.
                joiner = GroupManager(chain, ledger, tree_depth=DEPTH, root_window=3)
        before = [replica.tree.hash_ops for replica in replicas]
        for name, data in emitted:
            chain.emit(ADDRESS, name, data)
        chain.mine_block()

        tree_events = [(name, data) for name, data in emitted if name in TREE_EVENTS]
        changed = [ref.apply(name, data) for name, data in tree_events]
        dirty = {index for index in changed if index is not None}
        removed = any(
            name == "MemberRemoved" and index is not None
            for (name, _data), index in zip(tree_events, changed)
        )
        gone |= {data["pk"] for name, data in emitted if name == "MemberRemoved"}
        live = set(ref.index_of)
        for replica, spent in zip(replicas, before):
            assert replica.tree.hash_ops - spent == dirty_ancestors(dirty)
        if joiner is not None:
            replicas.append(joiner)
        for replica in replicas:
            assert_agrees(replica, ref, live, gone)
            window = replica.recent_roots()
            assert window[-1] == replica.root
            if removed and replica is not joiner:
                assert window == [replica.root]
        for view in (home, light, path_view):
            assert view.root == ref.tree.root
        assert home.seq == light.seq == ref.event_seq
        assert path_view.proof().verify(ref.tree.root)
