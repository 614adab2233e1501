#!/usr/bin/env python3
"""Anonymous chat — the paper's motivating application (§I).

A chat room with a 1-second epoch ("a messaging rate of 1 per second might
be acceptable for a chat application", §I), running over the full Waku
stack:

* WAKU-RLN-RELAY for spam-protected transport,
* a 13/WAKU2-STORE node archiving the room's history,
* a 12/WAKU2-FILTER light client (a phone) receiving only the chat topic.

The messages on the wire carry shares and nullifiers but no identities —
observers (and the store node!) cannot attribute lines to members.

Run:  python examples/anonymous_chat.py
"""

from repro.core import RLNConfig, RLNDeployment
from repro.testing import inbox
from repro.waku.filter import FilterClient, FilterNode
from repro.waku.store import HistoryQuery, StoreClient, StoreNode

CHAT_TOPIC = "/anon-chat/1/room-42/proto"


def main() -> None:
    print("== anonymous chat over WAKU-RLN-RELAY ==\n")
    config = RLNConfig(epoch_length=1.0, max_epoch_gap=2, tree_depth=10)
    room = RLNDeployment.create(peer_count=8, degree=4, seed=1234, config=config)
    room.register_all()
    room.form_meshes()

    # peer-000 volunteers as the archive; a light client hangs off peer-001.
    archive = StoreNode(room.peer("peer-000").relay, room.network, capacity=1000)
    FilterNode(room.peer("peer-001").relay, room.network)
    room.network.add_peer("phone", ["peer-001"])
    phone = FilterClient("phone", room.network)
    phone.subscribe("peer-001", (CHAT_TOPIC,))
    room.run(1.0)
    # Peers keep no history: peer-005's app holds what it was delivered.
    app = inbox(room.peer("peer-005"))

    script = [
        ("peer-002", b"anyone here?"),
        ("peer-003", b"yep. nice and spam-free today"),
        ("peer-004", b"one message per second is plenty for chat"),
        ("peer-002", b"and nobody knows which key wrote what"),
    ]
    for author, line in script:
        room.peer(author).publish(line, content_topic=CHAT_TOPIC)
        room.run(1.5)  # > 1 epoch between an author's messages

    print("room transcript as each peer's app saw it (peer-005):")
    for message in app:
        if message.content_topic == CHAT_TOPIC:
            print(f"   <anon> {message.payload.decode()}")

    print("\nlight client (filter protocol) received:")
    for message in phone.received:
        print(f"   <anon> {message.payload.decode()}")

    # A newcomer fetches history from the store node.
    print("\nnewcomer queries the store node for history:")
    newcomer = room.network.neighbors("peer-000")[0]
    client = StoreClient(newcomer, room.network)
    history: list = []
    client.query("peer-000", content_topics=(CHAT_TOPIC,), on_complete=history.extend)
    room.run(2.0)
    for message in history:
        print(f"   <anon> {message.payload.decode()}")
    print(f"\narchived messages  : {archive.archived_count()}")

    # Rate limiting in action: two lines inside one 1 s epoch.
    chatty = room.peer("peer-006")
    chatty.publish(b"first line", content_topic=CHAT_TOPIC)
    try:
        chatty.publish(b"second line immediately", content_topic=CHAT_TOPIC)
    except Exception as exc:
        print(f"rate limiter       : {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
