"""One entry per message id: what a GossipSub router knows about it.

An id judged with nothing else to know maps to its witness time (a
``float``); an id the router still acts on maps to a :class:`Record`:

* a **hinted** id (named by an IDONTWANT or IHAVE before any copy) has
  no ``seen_at``; its ``holders`` are the announcers; ``asked`` (lazy
  push's ANNOUNCED state) lists the IHAVE announcers, the first asked by
  an IWANT, and the window of that ask;
* a **pending** id (witnessed, verdict not landed) has ``holders``: the
  peers that sent a copy or an IDONTWANT, whom the forward skips;
* an **accepted** id holds its ``message`` for IWANT and IHAVE while it
  is younger than :data:`MCACHE_LENGTH` heartbeats, and counts the copies
  each asking peer was served.

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
#: Most copies of one kept message served to one peer (v1.1's
#: ``GossipRetransmission``): a 48-B IWANT must not buy copies without end.
GOSSIP_RETRANSMISSION = 3
#: Most hinted ids one announcer may hold a place in at a time.
MAX_EARLY_IDONTWANTS = 512


@dataclass(slots=True)
class Record:
    """An id the router still acts on (see the module docstring)."""

    seen_at: float | None
    holders: set[str] | None = None
    message: PubSubMessage | None = None
    #: The number of the window that lists the id (hinted or accepted there).
    window: int | None = None
    #: A hinted id's fetch: (window number of the ask, IHAVE announcers in
    #: ask order, the first the one asked).
    asked: tuple[int, tuple[str, ...]] | None = None
    #: An accepted id's copies served per asking peer.
    served: dict[str, int] | None = None


class MessageTable(dict[bytes, "float | Record"]):
    """id -> witness time or record (in witness order), and expiry orders."""

    __slots__ = ("_windows", "_tick", "_hints", "_oldest")

    def __init__(self) -> None:
        super().__init__()
        #: Ids hinted or accepted per heartbeat window, newest (``_tick``) first.
        self._windows: deque[list[bytes]] = deque([[]])
        self._tick = 0
        #: Announcer -> hinted records it holds a place in.
        self._hints: dict[str, int] = {}
        #: Witness time of the oldest witnessed id, or lower.
        self._oldest = float("inf")

    def seen(self, msg_id: bytes) -> bool:
        """True if a copy of ``msg_id`` was witnessed (not only hinted)."""
        return self.seen_at(msg_id) is not None

    def seen_at(self, msg_id: bytes) -> float | None:
        """When the first copy of ``msg_id`` was witnessed, or None."""
        return entry.seen_at if type(entry := self.get(msg_id)) is Record else entry

    def kept(self, msg_id: bytes) -> PubSubMessage | None:
        """The accepted message an IWANT is served, while it is kept."""
        return entry.message if type(entry := self.get(msg_id)) is Record else None

    def serve(self, msg_id: bytes, peer: str) -> PubSubMessage | None:
        """:meth:`kept`, for at most :data:`GOSSIP_RETRANSMISSION` IWANTs of ``peer``."""
        if (message := self.kept(msg_id)) is None:
            return None
        entry = self[msg_id]
        served = entry.served = entry.served or {}
        served[peer] = count = served.get(peer, 0) + 1
        return message if count <= GOSSIP_RETRANSMISSION else None

    def holders(self, msg_id: bytes) -> set[str] | None:
        """Who holds ``msg_id`` while it is hinted or pending, else None."""
        return entry.holders if type(entry := self.get(msg_id)) is Record else None

    def witness(self, msg_id: bytes, now: float, holder: str) -> bool:
        """A copy of ``msg_id`` came from ``holder`` at ``now``; True if
        the id was witnessed already (a duplicate)."""
        if self._oldest < now - SEEN_TTL:
            self._expire(now)
        entry = self.get(msg_id)
        if entry is None:
            self[msg_id] = now
        elif type(entry) is not Record:  # judged
            return True
        elif entry.seen_at is not None:
            if entry.holders is not None:  # our verdict is pending
                entry.holders.add(holder)
            return True
        else:  # a hint came true: its holders stay, their places free up
            for announcer in entry.holders:
                self._hints[announcer] -= 1
            self._windows[self._tick - entry.window].remove(msg_id)
            del self[msg_id]  # to the end of the witnessed order
            self[msg_id] = Record(now, entry.holders | {holder})
        if self._oldest > now:
            self._oldest = now
        return False

    def pend(self, msg_id: bytes, holder: str) -> None:
        """Our verdict on ``msg_id``, or its forward, waits; ``holder`` sent the copy."""
        entry = self[msg_id]
        if type(entry) is not Record:
            self[msg_id] = Record(entry, {holder})
        else:  # a hint came true
            entry.holders.add(holder)

    def note(self, msg_id: bytes, holder: str) -> Record | None:
        """``holder`` says it has ``msg_id`` (an IDONTWANT or IHAVE); the
        record while the id is only hinted and ``holder`` has a place in it."""
        entry = self.get(msg_id)
        if entry is not None and (type(entry) is not Record or entry.seen_at is not None):
            if type(entry) is Record and entry.holders is not None:  # pending
                entry.holders.add(holder)
            return None  # a judged id needs no hint
        count = self._hints.get(holder, 0)
        if count < MAX_EARLY_IDONTWANTS:
            if entry is None:
                entry = self[msg_id] = Record(None, set(), window=self._tick)
                self._windows[0].append(msg_id)
            if holder not in entry.holders:
                entry.holders.add(holder)
                self._hints[holder] = count + 1
        return entry if entry is not None and holder in entry.holders else None

    def ask(self, msg_ids: tuple[bytes, ...], announcer: str) -> list[bytes]:
        """An IHAVE: ``announcer`` holds ``msg_ids``; those unseen that nobody
        was asked for yet are returned, ``announcer`` the one asked."""
        wanted = []
        for msg_id in msg_ids:
            entry = self.get(msg_id)
            if type(entry) is float or entry is not None and entry.holders is None:
                continue  # judged or kept: nothing to note
            entry = self.note(msg_id, announcer)
            if entry is None:
                continue  # seen, or no place left for the announcer
            if entry.asked is None:
                entry.asked = (self._tick, (announcer,))
                wanted.append(msg_id)
            elif announcer not in entry.asked[1]:
                entry.asked = (entry.asked[0], entry.asked[1] + (announcer,))
        return wanted

    def unmet(self) -> list[tuple[bytes, str, str]]:
        """``(id, asked, next)`` for each hinted id asked for before the
        current window whose copy never came; ``next``, the IHAVE announcer
        after ``asked`` (wrapping), is asked now."""
        unmet = []
        get = self.get
        for age, window in enumerate(self._windows):
            for msg_id in window:
                entry = get(msg_id)
                if type(entry) is not Record or entry.asked is None:
                    continue  # accepted, or only named by IDONTWANTs
                tick, announcers = entry.asked
                if tick < self._tick and entry.window == self._tick - age:
                    turn = announcers[1:] + announcers[:1]
                    entry.asked = (self._tick, turn)
                    unmet.append((msg_id, announcers[0], turn[0]))
        return unmet

    def settle(self, msg_id: bytes) -> set[str] | tuple[()]:
        """The verdict on ``msg_id`` landed: who holds the message."""
        entry = self.get(msg_id)
        if type(entry) is not Record or entry.holders is None:
            return ()
        self[msg_id] = entry.seen_at  # a pending id is kept only after this
        return entry.holders

    def keep(self, message: PubSubMessage) -> None:
        """Keep an accepted message in the current window."""
        msg_id = message.msg_id
        entry = self.get(msg_id)
        if entry is not None and type(entry) is not Record:  # settled, not kept
            self[msg_id] = Record(entry, message=message, window=self._tick)
            self._windows[0].append(msg_id)

    def gossip(self, topic: str) -> list[bytes]:
        """Accepted ids on ``topic`` in the newest :data:`MCACHE_GOSSIP`
        windows, newest window first, each in acceptance order."""
        get = self.get
        return [
            msg_id
            for age, window in enumerate(islice(self._windows, MCACHE_GOSSIP))
            for msg_id in window
            if type(entry := get(msg_id)) is Record and entry.window == self._tick - age
            and entry.message is not None and entry.message.topic == topic
        ]

    def idle(self) -> bool:
        """True if no window lists an id: nothing to gossip, re-ask or expire."""
        return not any(self._windows)

    def shift(self) -> None:
        """Open a new window; the oldest's messages and unmet hints go."""
        self._tick += 1
        self._windows.appendleft([])
        if len(self._windows) > MCACHE_LENGTH:
            for msg_id in self._windows.pop():
                entry = self.get(msg_id)
                if type(entry) is not Record or entry.window != self._tick - MCACHE_LENGTH:
                    continue
                if entry.seen_at is not None:
                    self[msg_id] = entry.seen_at
                    continue
                for announcer in entry.holders:  # a hint no copy followed
                    self._hints[announcer] -= 1
                del self[msg_id]

    def _expire(self, now: float) -> None:
        stale = []
        self._oldest = float("inf")
        for msg_id, entry in self.items():
            seen_at = entry.seen_at if type(entry) is Record else entry
            if seen_at is None:
                continue
            if seen_at >= now - SEEN_TTL:
                self._oldest = seen_at
                break
            stale.append(msg_id)
        for msg_id in stale:
            del self[msg_id]
