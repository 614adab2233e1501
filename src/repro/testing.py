"""Test and benchmark support: the shared §III-E bundle-minting flow and
delivery inboxes.

The unit-test fixtures (``tests/conftest.py``) and the experiment
harnesses (``benchmarks/``) both need a registered member that can mint
honest proof bundles: the registration transaction lives here, and
:func:`mint_bundle` is :func:`repro.core.protocol.build_message` fed
from a group manager.

Neither peers nor the deployment keep a delivery history.  To count the
peers that got a payload, build a :class:`~repro.analysis.DeliveryTracker`
before publishing; to see the messages, subscribe an :func:`inbox`.
"""

from __future__ import annotations

from repro.chain.blockchain import Blockchain
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.membership import GroupManager
from repro.core.protocol import build_message
from repro.crypto.identity import Identity
from repro.waku.message import WakuMessage
from repro.zksnark.prover import RLNProver

#: The paper's worked example epoch (§III-D), reused wherever a test or
#: benchmark needs an arbitrary-but-realistic epoch number.
RLN_TEST_EPOCH = 54_827_003


def register_member(
    chain: Blockchain,
    contract: RLNMembershipContract,
    secret: int,
    *,
    funder: str = "funder",
) -> Identity:
    """Register a fresh identity with the membership contract (§III-B).

    Sends the deposit-attached registration transaction from ``funder``
    and mines it so group managers syncing the contract see the member.
    """
    member = Identity.from_secret(secret)
    chain.send_transaction(
        funder,
        contract.address,
        "register",
        {"pk": member.pk.value},
        value=contract.deposit,
    )
    chain.mine_block()
    return member


def mint_bundle(
    member: Identity,
    payload: bytes,
    epoch: int,
    manager: GroupManager,
    prover: RLNProver,
    *,
    content_topic: str = "t",
) -> WakuMessage:
    """Publish-side §III-E: derive the statement, prove it, attach the bundle."""
    return build_message(
        member,
        payload,
        epoch,
        manager.merkle_proof(member.pk),
        manager.root,
        prover=prover,
        content_topic=content_topic,
    )


def inbox(peer) -> list[WakuMessage]:
    """A list that ``peer``'s relay appends each delivery to from now on
    (``peer``: an RLN peer or either baseline peer)."""
    messages: list[WakuMessage] = []
    peer.relay.subscribe(messages.append)
    return messages
