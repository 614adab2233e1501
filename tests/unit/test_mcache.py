"""Unit tests for the message table's seen TTL and mcache windows."""

from repro.gossipsub.messages import PubSubMessage
from repro.gossipsub.msgtable import (
    MCACHE_GOSSIP,
    MCACHE_LENGTH,
    SEEN_TTL,
    MessageTable,
)


def msg(i: int, topic: str = "t") -> PubSubMessage:
    return PubSubMessage(topic=topic, payload=bytes([i]))


def seen(table: MessageTable, msg_id: bytes) -> bool:
    return table.seen(msg_id)


def kept(table: MessageTable, msg_id: bytes) -> PubSubMessage | None:
    return table.kept(msg_id)


def accept(table: MessageTable, message: PubSubMessage, now: float = 0.0) -> None:
    """Witness ``message``, settle its verdict ACCEPT and keep it."""
    table.witness(message.msg_id, now, "peer-a")
    table.settle(message.msg_id)
    table.keep(message)


class TestSeenCache:
    def test_first_sighting_is_fresh(self):
        table = MessageTable()
        assert table.witness(b"a" * 32, 0.0, "peer-a") is False

    def test_second_sighting_is_duplicate(self):
        table = MessageTable()
        table.witness(b"a" * 32, 0.0, "peer-a")
        assert table.witness(b"a" * 32, 1.0, "peer-b") is True

    def test_expiry_forgets(self):
        table = MessageTable()
        table.witness(b"a" * 32, 0.0, "peer-a")
        assert table.witness(b"a" * 32, SEEN_TTL + 1.0, "peer-a") is False

    def test_contains(self):
        table = MessageTable()
        table.witness(b"a" * 32, 0.0, "peer-a")
        assert seen(table, b"a" * 32)
        assert not seen(table, b"b" * 32)

    def test_len_after_expiry(self):
        table = MessageTable()
        table.witness(b"a" * 32, 0.0, "peer-a")
        table.witness(b"b" * 32, SEEN_TTL + 2.0, "peer-a")
        assert len(table) == 1


class TestMessageCache:
    def test_put_get(self):
        table = MessageTable()
        message = msg(1)
        accept(table, message)
        assert kept(table, message.msg_id) is message

    def test_duplicate_put_ignored(self):
        table = MessageTable()
        first = msg(1)
        accept(table, first)
        table.keep(msg(1))
        assert len(table) == 1
        assert kept(table, first.msg_id) is first
        assert table.gossip("t") == [first.msg_id]

    def test_gossip_ids_filter_by_topic(self):
        table = MessageTable()
        accept(table, msg(1, "a"))
        accept(table, msg(2, "b"))
        assert table.gossip("a") == [msg(1, "a").msg_id]

    def test_gossip_window_narrower_than_history(self):
        table = MessageTable()
        accept(table, msg(1))
        for _ in range(MCACHE_GOSSIP):
            table.shift()
        accept(table, msg(2))
        # msg 1 is in window MCACHE_GOSSIP (outside gossip range), still retrievable.
        assert kept(table, msg(1).msg_id) is not None
        assert table.gossip("t") == [msg(2).msg_id]

    def test_shift_expires_old_messages(self):
        table = MessageTable()
        accept(table, msg(1))
        for _ in range(MCACHE_LENGTH - 1):
            table.shift()
        assert kept(table, msg(1).msg_id) is not None
        table.shift()
        assert kept(table, msg(1).msg_id) is None
        # The message ages out; the id stays witnessed for the seen TTL.
        assert seen(table, msg(1).msg_id)

    def test_invalid_params(self):
        # The windows are constants (libp2p's defaults): the gossip
        # windows are a prefix of the history, as the parameters had to be.
        assert (MCACHE_GOSSIP, MCACHE_LENGTH) == (3, 5)
        assert MCACHE_GOSSIP <= MCACHE_LENGTH

    def test_gossip_lists_newest_window_first_then_acceptance_order(self):
        table = MessageTable()
        accept(table, msg(1))
        table.shift()
        # msg 3 is hinted first but accepted after msg 2: acceptance decides.
        table.note(msg(3).msg_id, "peer-h")
        accept(table, msg(2))
        accept(table, msg(3))
        assert table.gossip("t") == [msg(2).msg_id, msg(3).msg_id, msg(1).msg_id]


class TestRecords:
    def test_a_hint_expires_with_its_window_and_frees_its_budget(self):
        table = MessageTable()
        table.note(b"h" * 32, "peer-h")
        assert len(table) == 1 and not seen(table, b"h" * 32)
        for _ in range(MCACHE_LENGTH):
            table.shift()
        assert len(table) == 0
        assert table._hints["peer-h"] == 0

    def test_a_hint_that_comes_true_is_witnessed_with_its_holders(self):
        table = MessageTable()
        table.note(b"h" * 32, "peer-h")
        assert table.witness(b"h" * 32, 1.0, "peer-a") is False
        assert table._hints["peer-h"] == 0
        assert table.settle(b"h" * 32) == {"peer-h", "peer-a"}
        for _ in range(MCACHE_LENGTH):
            table.shift()
        assert seen(table, b"h" * 32)  # witnessed ids outlive the window

    def test_a_pending_verdict_collects_holders_until_it_settles(self):
        table = MessageTable()
        table.witness(b"p" * 32, 0.0, "peer-a")
        table.pend(b"p" * 32, "peer-a")
        assert table.witness(b"p" * 32, 0.5, "peer-b") is True
        table.note(b"p" * 32, "peer-c")
        assert table.get(b"p" * 32).holders == {"peer-a", "peer-b", "peer-c"}
        assert table.settle(b"p" * 32) == {"peer-a", "peer-b", "peer-c"}
        assert table.holders(b"p" * 32) is None
        table.note(b"p" * 32, "peer-d")  # a judged id takes no hint
        assert table.settle(b"p" * 32) == ()
        assert table._hints == {}

    def test_forget_drops_the_record(self):
        table = MessageTable()
        table.witness(b"f" * 32, 0.0, "peer-a")
        table.pop(b"f" * 32, None)
        assert len(table) == 0
        assert table.witness(b"f" * 32, 1.0, "peer-a") is False
