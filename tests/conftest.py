"""Shared fixtures.

Trusted setups and circuit compilation are the expensive parts of the
stack, so provers are session-scoped and shared across tests (which is
also how a real deployment works: one setup per network).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import settings as hypothesis_settings

from repro import testing
from repro.chain.blockchain import Blockchain, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.protocol import WakuRLNRelayPeer
from repro.core.validator import BundleValidator
from repro.crypto.engine import default_engine
from repro.crypto.field import FieldElement
from repro.crypto.identity import Identity
from repro.crypto.merkle import MerkleTree, zero_hashes
from repro.crypto.poseidon import poseidon_params, poseidon_permutation
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Groth16
from repro.zksnark.prover import NativeProver

#: Small depth used by most protocol-level tests (fast, still exercises
#: multi-level paths).
TEST_DEPTH = 8

# Deterministic profile for the CI property-test job (selected with
# ``--hypothesis-profile=ci``): derandomized so a red run is reproducible
# from the log alone, with a fixed example budget.
hypothesis_settings.register_profile(
    "ci", deadline=None, max_examples=100, derandomize=True
)

#: The paper's worked example epoch (§III-D), reused wherever a test needs
#: an arbitrary-but-realistic epoch number (re-exported from the shared
#: test-support module so benchmarks use the same value).
RLN_TEST_EPOCH = testing.RLN_TEST_EPOCH


def epoch_at(unix_time: float, epoch_length: float) -> int:
    """The §III-D epoch a peer whose clock reads ``unix_time`` publishes and
    validates in: :meth:`WakuRLNRelayPeer.current_epoch` on a bare peer."""
    peer = SimpleNamespace(
        clock=SimpleNamespace(genesis_unix=unix_time, offset=0.0),
        simulator=SimpleNamespace(now=0.0),
        config=RLNConfig(epoch_length=epoch_length),
    )
    return WakuRLNRelayPeer.current_epoch(peer)


def two_level_reference(leaves, depth, shard_depth):
    """Independent rebuild of a sharded identity tree, for pinning the
    shard view against: one from-scratch depth-``shard_depth`` tree per
    allocated shard, bulk-built from that shard's leaves alone, and a top
    tree (its empty leaf the empty-shard root) written with their roots.
    Shares no node with the tree under test.  Returns ``(shards, top)``.
    """
    capacity = 1 << shard_depth
    shards = [
        MerkleTree.from_leaves(leaves[start : start + capacity], depth=shard_depth)
        for start in range(0, len(leaves), capacity)
    ]
    top = MerkleTree(depth - shard_depth, zeros=zero_hashes(depth)[shard_depth:])
    for shard_id, shard in enumerate(shards):
        top.write_leaf(shard_id, shard.root)
    return shards, top


class PermutationSponge:
    """The fixed-length Poseidon sponge restated directly over
    :func:`poseidon_permutation` (state ``[n, x_1, ..., x_n]``, output lane
    0), with the engine's ``hash``/``hash2`` surface.  Arity checks come
    from the parameter tables alone (``poseidon_params`` knows t = 2..9)."""

    def hash(self, inputs) -> FieldElement:
        n = len(inputs)
        state = [FieldElement(n)] + [FieldElement(x) for x in inputs]
        return poseidon_permutation(state, poseidon_params(n + 1))[0]

    def hash2(self, left, right) -> FieldElement:
        return self.hash([left, right])


@pytest.fixture(params=["int", "reference"])
def poseidon_hasher(request):
    """Each Poseidon implementation behind the engine's surface: ``int`` is
    the engine, ``reference`` a :class:`PermutationSponge`."""
    return default_engine() if request.param == "int" else PermutationSponge()


@pytest.fixture(scope="session")
def native_prover() -> NativeProver:
    return NativeProver(TEST_DEPTH)


@pytest.fixture(scope="session")
def groth16_prover() -> Groth16:
    # Depth 4 keeps the R1CS small enough for sub-second proving.
    return Groth16(4)


@pytest.fixture()
def engine_hashes():
    """``engine_hashes(action)``: Poseidon hashes the process really
    computed (``EngineStats.hashes``) while ``action()`` ran."""

    def spent(action) -> int:
        stats = default_engine().stats
        before = stats.hashes
        action()
        return stats.hashes - before

    return spent


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture()
def identity() -> Identity:
    return Identity.from_secret(0x123456789ABCDEF)


@pytest.fixture()
def small_tree() -> MerkleTree:
    return MerkleTree(depth=TEST_DEPTH)


@pytest.fixture()
def test_config() -> RLNConfig:
    return RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=TEST_DEPTH)


@pytest.fixture()
def chain() -> Blockchain:
    return Blockchain(block_interval=12.0)


@pytest.fixture()
def membership_contract(chain: Blockchain) -> RLNMembershipContract:
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    return contract


@pytest.fixture()
def funded_accounts(chain: Blockchain) -> list[str]:
    accounts = [f"account-{i}" for i in range(8)]
    for account in accounts:
        chain.fund(account, 100 * WEI)
    return accounts


@pytest.fixture()
def rln_env(native_prover: NativeProver, test_config: RLNConfig) -> SimpleNamespace:
    """A registered member plus everything needed to mint/validate bundles.

    Shared by the validator- and pipeline-level tests: a chain with the
    membership contract, a synced group manager, one registered identity,
    and factories for further validators (isolated nullifier logs),
    members, and proof-carrying messages.
    """
    chain = Blockchain()
    contract = RLNMembershipContract(deposit=1 * WEI)
    chain.deploy(contract)
    chain.fund("funder", 500 * WEI)
    manager = GroupManager(
        chain, contract, tree_depth=TEST_DEPTH, root_window=test_config.root_window
    )

    def register(secret: int) -> Identity:
        return testing.register_member(chain, contract, secret)

    def make_validator() -> BundleValidator:
        return BundleValidator(test_config, native_prover, manager)

    def make_message(
        payload: bytes,
        *,
        epoch: int = RLN_TEST_EPOCH,
        member: Identity | None = None,
        content_topic: str = "t",
    ) -> WakuMessage:
        return testing.mint_bundle(
            member or identity,
            payload,
            epoch,
            manager,
            native_prover,
            content_topic=content_topic,
        )

    identity = register(0x777)
    return SimpleNamespace(
        chain=chain,
        contract=contract,
        manager=manager,
        config=test_config,
        prover=native_prover,
        identity=identity,
        register=register,
        make_validator=make_validator,
        make_message=make_message,
    )
