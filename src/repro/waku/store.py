"""13/WAKU2-STORE — off-chain historical message storage.

§III-A adjustment 2: WAKU-RLN-RELAY keeps messages *off-chain*; resourceful
peers persist relayed traffic and serve it to querying nodes.  This module
implements both roles:

* :class:`StoreNode` — archives every message its relay delivers (bounded
  ring buffer) and answers paginated history queries over the network;
* :class:`StoreClient` — a (possibly light) peer issuing queries.

Queries travel over the transport's ``store`` protocol channel, so they
incur real simulated latency and appear in bandwidth accounting.

Failure contract: every page is one single-attempt
:class:`~repro.net.request.RequestDispatcher` request.  If the store node
asked does not answer a page within :data:`REQUEST_TIMEOUT`, the query
ends: ``on_error`` gets the :class:`~repro.net.request.RequestFailure`,
``on_complete`` never fires, and the pages collected so far are dropped.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import NetworkError
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.transport import Network
from repro.waku.message import WakuMessage, proof_verdict
from repro.waku.relay import WakuRelay

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.pipeline.batch_verifier import BatchVerifier

PROTOCOL = "store"
#: Per-page timeout (simulated seconds): a store node answers from memory,
#: so this only has to cover one round trip on the slowest modelled link.
REQUEST_TIMEOUT = 2.0

#: Default archive capacity (messages).
DEFAULT_CAPACITY = 10_000
#: Default query page size.
DEFAULT_PAGE_SIZE = 20
#: Largest page a store node serves, whatever the query asks for.
MAX_PAGE_SIZE = 1_000


@dataclass(frozen=True)
class HistoryQuery:
    """A paginated history request.

    ``descending=True`` pages newest-first — checkpoint retrieval: a
    tree-sync peer fetches the most recent
    :class:`~repro.treesync.messages.TreeCheckpoint` with a single
    one-message page instead of walking the whole archive.  ``cursor`` is
    a sequence bound: *inclusive lower* bound when ascending, *exclusive
    upper* bound when descending (0 = unbounded, start at the newest).
    """

    request_id: int
    content_topics: tuple[str, ...] = ()
    start_time: float | None = None
    end_time: float | None = None
    cursor: int = 0
    page_size: int = DEFAULT_PAGE_SIZE
    descending: bool = False

    def byte_size(self) -> int:
        return 65 + sum(len(t) for t in self.content_topics)


@dataclass(frozen=True)
class HistoryResponse:
    """One page of archived messages plus the continuation cursor."""

    request_id: int
    messages: tuple[WakuMessage, ...]
    cursor: int | None  # None means no further pages

    def byte_size(self) -> int:
        return 64 + sum(m.byte_size() for m in self.messages)


@dataclass
class _ArchivedMessage:
    message: WakuMessage
    received_at: float
    sequence: int


class StoreNode:
    """A resourceful peer persisting relayed messages (§III-A)."""

    def __init__(
        self,
        relay: WakuRelay,
        network: Network,
        *,
        capacity: int = DEFAULT_CAPACITY,
        proof_checker: "BatchVerifier | None" = None,
    ) -> None:
        if capacity <= 0:
            raise NetworkError("store capacity must be positive")
        self.relay = relay
        self.network = network
        self.capacity = capacity
        #: Shared proof-verdict checker: re-validates proof-carrying
        #: bundles at archive time, hitting the relay pipeline's verdict
        #: cache instead of re-pairing (ROADMAP: verdict-cache sharing).
        #: Fresh pairing work rides the pipeline's crypto executor at
        #: SERVICE priority, behind relay verdicts.
        self.proof_checker = proof_checker
        self.rejected_proofs = 0
        #: Archive decisions parked on an in-flight SERVICE-class check.
        self.pending_validations = 0
        self._archive: deque[_ArchivedMessage] = deque(maxlen=capacity)
        self._sequence = itertools.count()
        relay.subscribe(self.archive)
        network.register(relay.peer_id, self._on_request, protocol=PROTOCOL)

    # -- archiving ----------------------------------------------------------

    def archive(self, message: WakuMessage) -> bool | None:
        """Persist one message; public so non-relay producers (e.g. a
        tree-sync publisher) can feed the archive directly.  Returns False
        when the message was refused (ephemeral, or failed re-validation),
        ``None`` when the verdict is still in the executor's queue — the
        message is then committed or dropped at (simulated) completion.
        With a synchronous executor (``workers=0``) this never returns
        ``None``.
        """
        if message.ephemeral:
            return False  # ephemeral messages opt out of storage (Waku semantics)
        verdict = proof_verdict(self.proof_checker, message)
        deferred = not verdict.resolved
        self.pending_validations += deferred

        def settle(ok: bool) -> None:
            self.pending_validations -= deferred
            if ok:
                self._commit(message)
            else:
                self.rejected_proofs += 1

        verdict.subscribe(settle)
        return None if deferred else verdict.value

    def _commit(self, message: WakuMessage) -> None:
        self._archive.append(
            _ArchivedMessage(
                message=message,
                received_at=self.relay.router.simulator.now,
                sequence=next(self._sequence),
            )
        )

    def archived_count(self) -> int:
        return len(self._archive)

    # -- local query (used by tests and by the remote handler) ------------------

    def query_local(self, query: HistoryQuery) -> HistoryResponse:
        if query.descending:
            # cursor is an *exclusive* upper sequence bound (0 = unbounded,
            # i.e. start at the newest entry).
            matches = [
                entry
                for entry in reversed(self._archive)
                if self._matches(entry, query)
                and (query.cursor == 0 or entry.sequence < query.cursor)
            ]
        else:
            # cursor is an inclusive lower sequence bound.
            matches = [
                entry
                for entry in self._archive
                if self._matches(entry, query) and entry.sequence >= query.cursor
            ]
        # The query is remote input: an empty or unbounded page must not
        # be something a peer can ask for.
        page_size = min(max(query.page_size, 1), MAX_PAGE_SIZE)
        page = matches[:page_size]
        if len(matches) > page_size:
            cursor = page[-1].sequence if query.descending else page[-1].sequence + 1
            if query.descending and cursor == 0:
                cursor = None  # sequence 0 was just served; nothing below it
        else:
            cursor = None
        return HistoryResponse(
            request_id=query.request_id,
            messages=tuple(entry.message for entry in page),
            cursor=cursor,
        )

    @staticmethod
    def _matches(entry: _ArchivedMessage, query: HistoryQuery) -> bool:
        message = entry.message
        if query.content_topics and message.content_topic not in query.content_topics:
            return False
        if query.start_time is not None and message.timestamp < query.start_time:
            return False
        if query.end_time is not None and message.timestamp > query.end_time:
            return False
        return True

    # -- network handler -----------------------------------------------------------

    def _on_request(self, sender: str, query: HistoryQuery) -> None:
        if not isinstance(query, HistoryQuery):
            return
        response = self.query_local(query)
        self.network.send(self.relay.peer_id, sender, response, protocol=PROTOCOL)


class StoreClient:
    """Issues history queries to store nodes; collates paginated results."""

    def __init__(self, peer_id: str, network: Network) -> None:
        self.dispatcher = RequestDispatcher(
            peer_id,
            network,
            network.simulator,
            protocol=PROTOCOL,
            timeout=REQUEST_TIMEOUT,
        )

    def query(
        self,
        store_peer: str,
        *,
        content_topics: tuple[str, ...] = (),
        start_time: float | None = None,
        end_time: float | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        descending: bool = False,
        limit: int | None = None,
        stop_when: Callable[[tuple[WakuMessage, ...]], bool] | None = None,
        on_complete: Callable[[list[WakuMessage]], None],
        on_error: Callable[[RequestFailure], None] | None = None,
    ) -> None:
        """Fetch the (multi-page) history matching the filters.

        ``on_complete`` fires once with all pages collated, after however
        many round trips pagination requires.  ``limit`` stops paginating
        once that many messages are collected — with ``descending=True``
        and ``limit=1`` this is single-round-trip retrieval of the newest
        match (how tree-sync peers fetch the latest checkpoint).
        ``stop_when`` is called with each page; returning True stops the
        pagination after that page (tree-sync delta queries walk
        newest-first and stop at the first already-known event instead of
        draining the whole archive).  ``on_error`` fires instead when a
        page goes unanswered (the module docstring's failure contract).
        """
        collected: list[WakuMessage] = []

        def request_page(cursor: int) -> None:
            self.dispatcher.request(
                (store_peer,),
                lambda request_id: HistoryQuery(
                    request_id=request_id,
                    content_topics=content_topics,
                    start_time=start_time,
                    end_time=end_time,
                    cursor=cursor,
                    page_size=page_size,
                    descending=descending,
                ),
                accept=lambda response: isinstance(response, HistoryResponse),
            ).subscribe(handle_page)

        def handle_page(response: HistoryResponse | RequestFailure) -> None:
            if isinstance(response, RequestFailure):
                if on_error is not None:
                    on_error(response)
                return
            collected.extend(response.messages)
            done = (
                response.cursor is None
                or (limit is not None and len(collected) >= limit)
                or (stop_when is not None and stop_when(response.messages))
            )
            if done:
                on_complete(collected if limit is None else collected[:limit])
            else:
                request_page(response.cursor)

        request_page(0)
