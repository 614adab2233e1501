"""The accepted-root window's O(1) check against a scan of the window itself.

``GroupManager`` and ``ShardSyncManager`` answer §III-F item 2 from a set
of root values rebuilt whenever their ``_recent_roots`` deque changes
(append, maxlen eviction, collapse on removal, rebuild from leaves).  The
reference here is the old answer: ``root in recent_roots()``, a scan by
field-element equality.  Every root is asked as a fresh object, so the set
must match by value, never by identity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.membership import GroupManager
from repro.crypto.field import FieldElement
from repro.treesync import ShardSyncManager
from tests.conftest import TEST_DEPTH

WINDOW = 3
SHARD_DEPTH = 3


class Fleet:
    """A contract, a full replica and a home-shard view fed by it.

    ``eager`` commits the view after every event, as a validator asking
    after each would; otherwise it folds only when asked.
    """

    def __init__(self, eager: bool = True) -> None:
        self.eager = eager
        self.chain = Blockchain()
        self.contract = RLNMembershipContract(deposit=1 * WEI)
        self.chain.deploy(self.contract)
        self.chain.fund("funder", 500 * WEI)
        self.manager = GroupManager(
            self.chain, self.contract, tree_depth=TEST_DEPTH,
            root_window=WINDOW, shard_depth=SHARD_DEPTH,
        )
        self.view = ShardSyncManager(
            home_shard=0, depth=TEST_DEPTH, shard_depth=SHARD_DEPTH, root_window=WINDOW
        )
        self.manager.on_shard_update(self.view.apply)
        self.members: list[int] = []
        self.secrets = iter(range(0x500, 0x5000))
        #: Every root either replica has held, oldest first.
        self.seen = [self.manager.root.value]

    def register(self) -> None:
        member = testing.register_member(self.chain, self.contract, next(self.secrets))
        self.members.append(member.pk.value)
        self._settle()

    def withdraw(self, pick: int) -> None:
        pk = self.members.pop(pick % len(self.members))
        self.chain.send_transaction(
            "funder", self.contract.address, "withdraw", {"pk": pk}
        )
        self.chain.mine_block()
        self._settle()

    def _settle(self) -> None:
        if self.eager:
            self.view.commit()
        self.seen.append(self.manager.root.value)

    def replicas(self):
        return (self.manager, self.view)

    def joiner(self) -> GroupManager:
        """A replica joining now: its window is rebuilt from the leaves."""
        return GroupManager(
            self.chain, self.contract, tree_depth=TEST_DEPTH,
            root_window=WINDOW, shard_depth=SHARD_DEPTH,
        )


def assert_matches_scan(fleet: Fleet) -> None:
    asked = fleet.seen + [fleet.seen[-1] + 1]  # plus a root nobody held
    for replica in (*fleet.replicas(), fleet.joiner()):
        answers = [replica.is_acceptable_root(FieldElement(value)) for value in asked]
        window = replica.recent_roots()  # read after the check committed
        assert answers == [FieldElement(value) in window for value in asked]


@settings(max_examples=25, deadline=None)
@given(
    st.booleans(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 63)), min_size=1, max_size=12),
)
def test_set_check_matches_a_scan_of_the_window(eager, ops):
    fleet = Fleet(eager)
    for add, pick in ops:
        if add or not fleet.members:
            fleet.register()
        else:
            fleet.withdraw(pick)
        assert_matches_scan(fleet)


class TestRootWindowEdges:
    def test_a_distinct_object_of_equal_value_is_accepted(self):
        fleet = Fleet()
        fleet.register()
        for replica in fleet.replicas():
            copy = FieldElement(replica.root.value)
            assert copy is not replica.root
            assert replica.is_acceptable_root(copy)

    def test_a_root_pushed_out_of_the_maxlen_window_is_refused(self):
        fleet = Fleet()
        for _ in range(WINDOW):
            fleet.register()
        evicted, kept = fleet.seen[0], fleet.seen[1]
        for replica in fleet.replicas():
            assert not replica.is_acceptable_root(FieldElement(evicted))
            assert replica.is_acceptable_root(FieldElement(kept))

    def test_a_root_evicted_by_a_removal_collapse_is_refused(self):
        fleet = Fleet()
        fleet.register()
        fleet.register()
        before = fleet.seen[-1]
        fleet.withdraw(0)
        for replica in fleet.replicas():
            assert not replica.is_acceptable_root(FieldElement(before))
            assert replica.is_acceptable_root(FieldElement(fleet.seen[-1]))
            assert len(replica.recent_roots()) == 1
