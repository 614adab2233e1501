"""One record per message id: what a GossipSub router knows about it.

* a **hinted** id (named by an IDONTWANT before any copy) has no
  ``seen_at``; its ``holders`` are the announcers;
* a **pending** id (witnessed, verdict not landed) has ``holders``: the
  peers that sent a copy or an IDONTWANT, whom the forward skips;
* an **accepted** id holds its ``message`` for IWANT and IHAVE while it
  is younger than :data:`MCACHE_LENGTH` heartbeats.

A witnessed id stays for :data:`SEEN_TTL` seconds whatever the verdict:
its id covers the judged bytes (:attr:`PubSubMessage.msg_id`), so a later
copy under it is the same message.  Only the router's ``forget_seen`` (a
shed, unjudged receipt) drops one early.  ``len(table)`` is its state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from repro.gossipsub.messages import PubSubMessage

#: libp2p's defaults: seconds an id stays witnessed, heartbeat windows an
#: accepted message is kept, and how many of the newest feed IHAVE.
SEEN_TTL = 120.0
MCACHE_LENGTH = 5
MCACHE_GOSSIP = 3
#: Most hinted ids one announcer may hold a place in at a time.
MAX_EARLY_IDONTWANTS = 512


@dataclass(slots=True)
class Record:
    """What the router knows about one id (see the module docstring)."""

    seen_at: float | None
    holders: set[str] | None = None
    message: PubSubMessage | None = None
    #: The number of the window that lists the id (hinted or accepted there).
    window: int | None = None


class MessageTable(dict[bytes, Record]):
    """id -> record (witnessed ids in witness order), and the expiry orders."""

    __slots__ = ("_windows", "_tick", "_hints", "_oldest")

    def __init__(self) -> None:
        super().__init__()
        #: Ids hinted or accepted per heartbeat window, newest (``_tick``) first.
        self._windows: deque[list[bytes]] = deque([[]])
        self._tick = 0
        #: Announcer -> hinted records it holds a place in.
        self._hints: dict[str, int] = {}
        #: ``seen_at`` of the oldest witnessed record, or lower.
        self._oldest = float("inf")

    def witness(self, msg_id: bytes, now: float, holder: str) -> bool:
        """A copy of ``msg_id`` came from ``holder`` at ``now``; True if
        the id was witnessed already (a duplicate)."""
        if self._oldest < now - SEEN_TTL:
            self._expire(now)
        record = self.get(msg_id)
        if record is None:
            self[msg_id] = Record(now)
        elif record.seen_at is not None:
            if record.holders is not None:  # our verdict is pending
                record.holders.add(holder)
            return True
        else:  # a hint came true: its holders stay, their places free up
            for announcer in record.holders:
                self._hints[announcer] -= 1
            self._windows[self._tick - record.window].remove(msg_id)
            del self[msg_id]  # to the end of the witnessed order
            record.seen_at, record.window = now, None
            record.holders.add(holder)
            self[msg_id] = record
        if self._oldest > now:
            self._oldest = now
        return False

    def pend(self, msg_id: bytes, holder: str) -> None:
        """Our verdict on ``msg_id`` waits; ``holder`` sent the copy."""
        self[msg_id].holders = (self[msg_id].holders or set()) | {holder}

    def note(self, msg_id: bytes, holder: str) -> None:
        """``holder`` says it has ``msg_id`` (an IDONTWANT)."""
        record = self.get(msg_id)
        if record is not None and record.seen_at is not None:
            if record.holders is not None:  # pending; a judged id needs no hint
                record.holders.add(holder)
            return
        count = self._hints.get(holder, 0)
        if count < MAX_EARLY_IDONTWANTS:
            if record is None:
                record = self[msg_id] = Record(None, set(), window=self._tick)
                self._windows[0].append(msg_id)
            if holder not in record.holders:
                record.holders.add(holder)
                self._hints[holder] = count + 1

    def settle(self, msg_id: bytes) -> set[str] | tuple[()]:
        """The verdict on ``msg_id`` landed: who holds the message."""
        record = self.get(msg_id)
        if record is None or record.holders is None:
            return ()
        holders, record.holders = record.holders, None
        return holders

    def keep(self, message: PubSubMessage) -> None:
        """Keep an accepted message in the current window."""
        record = self.get(message.msg_id)
        if record is not None and record.message is None:
            record.message, record.window = message, self._tick
            self._windows[0].append(message.msg_id)

    def gossip(self, topic: str) -> list[bytes]:
        """Accepted ids on ``topic`` in the newest :data:`MCACHE_GOSSIP`
        windows, newest window first, each in acceptance order."""
        get = self.get
        return [
            msg_id
            for age, window in enumerate(islice(self._windows, MCACHE_GOSSIP))
            for msg_id in window
            if (record := get(msg_id)) and record.window == self._tick - age
            and record.message is not None and record.message.topic == topic
        ]

    def shift(self) -> None:
        """Open a new window; the oldest's messages and unmet hints go."""
        self._tick += 1
        self._windows.appendleft([])
        if len(self._windows) > MCACHE_LENGTH:
            for msg_id in self._windows.pop():
                record = self.get(msg_id)
                if record is None or record.window != self._tick - MCACHE_LENGTH:
                    continue
                record.window = record.message = None
                if record.seen_at is None:  # a hint no copy followed
                    for announcer in record.holders:
                        self._hints[announcer] -= 1
                    del self[msg_id]

    def _expire(self, now: float) -> None:
        stale = []
        self._oldest = float("inf")
        for msg_id, record in self.items():
            if record.seen_at is None:
                continue
            if record.seen_at >= now - SEEN_TTL:
                self._oldest = record.seen_at
                break
            stale.append(msg_id)
        for msg_id in stale:
            del self[msg_id]
