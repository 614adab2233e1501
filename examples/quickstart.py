#!/usr/bin/env python3
"""Quickstart: the Figure-1 flow in ~60 lines of API usage.

Builds a 10-peer WAKU-RLN-RELAY network on the simulated substrates,
registers everyone, publishes an honest message, lets one peer spam, and
watches the protocol detect, contain, and economically punish it.

Run:  python examples/quickstart.py
"""

from repro.analysis.metrics import DeliveryTracker
from repro.chain.blockchain import WEI
from repro.core import RLNConfig, RLNDeployment
from repro.core.slashing import SlashState


def main() -> None:
    print("== WAKU-RLN-RELAY quickstart ==\n")

    # 1. One call builds the full stack: event simulator, blockchain with
    #    the membership contract, GossipSub topology, and one protocol
    #    peer per node (all sharing a single trusted setup).
    config = RLNConfig(epoch_length=30.0, max_epoch_gap=2, tree_depth=10)
    deployment = RLNDeployment.create(peer_count=10, degree=4, seed=1, config=config)

    # 2. Register: each peer deposits 1 ETH with the contract; the
    #    MemberRegistered events drive every peer's local Merkle tree.
    deployment.register_all()
    deployment.form_meshes()
    print(f"registered members : {deployment.contract.member_count()}")
    roots = {p.group.root.value for p in deployment.peers.values()}
    print(f"synced tree roots  : {len(roots)} distinct (must be 1)\n")
    # The deployment keeps no delivery record; a tracker subscribes to
    # every peer's relay and counts which peers got each payload.
    tracker = DeliveryTracker(deployment)

    # 3. Honest publishing: one message per epoch, proof attached, free.
    alice = deployment.peer("peer-000")
    alice.publish(b"hello, spam-free world")
    deployment.run(3.0)
    print(f"honest delivery    : {tracker.delivery_count(b'hello, spam-free world')}/10 peers")

    # 4. Spam: a second message in the same epoch. Routing peers spot the
    #    nullifier collision, drop the message, and recover the secret key.
    eve = deployment.peer("peer-007")
    eve.publish(b"totally legit", force=True)
    deployment.run(2.0)
    eve.publish(b"BUY NOW!!!", force=True)
    deployment.run(2.0)
    print(f"spam delivery      : {tracker.delivery_count(b'BUY NOW!!!')}/10 peers "
          "(1 = only Eve's own app)")
    print(f"detections         : {deployment.total_spam_detected()} routing peers saw the collision")

    # 5. Slashing: detectors race through commit-reveal; one wins Eve's
    #    deposit, Eve is deleted from the membership tree everywhere.
    deployment.run(6 * deployment.chain.block_interval)
    winners = [
        (peer.peer_id, attempt.reward / WEI)
        for peer in deployment.peers.values()
        for attempt in peer.slasher.attempts
        if attempt.state is SlashState.REWARDED
    ]
    print(f"slash winner       : {winners[0][0]} earned {winners[0][1]:.0f} ETH")
    print(f"eve still a member : {deployment.contract.is_member(eve.identity.pk)}")

    try:
        eve.publish(b"one more?", force=True)
    except Exception as exc:
        print(f"eve publishes again: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
