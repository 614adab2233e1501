"""The client half: fetch, verify-against-accepted-root, cache, refresh.

Trust model (the §IV-A light role, made explicit): the witness server is
**never** trusted.  A fetched path is accepted only if

1. it is structurally the path of the requested leaf index at the
   expected tree depth (a server cannot substitute another member's
   slot), and
2. folding it upward yields a root the client *already* accepts — from
   its own root window (a :class:`~repro.core.validator.RootAcceptor`,
   e.g. a digest-fed light :class:`~repro.treesync.sync.ShardSyncManager`
   view that holds no shard).

A response failing either check is indistinguishable from a dead
provider: the :class:`~repro.net.request.RequestDispatcher` fails over to
the next provider in order.

The :class:`WitnessCache` makes the publish path O(1): a member's witness
is fetched once, invalidated whenever the tree advances, and re-fetched
on the crypto executor's :attr:`~repro.exec.executor.Priority.BACKGROUND`
lanes — idle capacity that relay verdicts and service traffic always
preempt — so by publish time the fresh witness is (almost always) already
local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

from repro.crypto.merkle import MerkleProof, NodeHasher
from repro.errors import NetworkError, ProtocolError
from repro.exec.executor import Priority, SimulatedCryptoExecutor
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import resolve as resolve_telemetry
from repro.crypto.field import FieldElement, ZERO
from repro.treesync.messages import ShardUpdate
from repro.witness.messages import (
    WITNESS_PROTOCOL,
    WITNESS_REPLY_PROTOCOL,
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.validator import RootAcceptor


def checked_fold(
    proof: MerkleProof,
    *,
    index: int,
    depth: int,
    leaf: FieldElement | None = None,
    hasher: NodeHasher | None = None,
) -> FieldElement | None:
    """The client-side check of one fetched path, short of the root window.

    Structural checks bind the path to the requested slot (index, depth,
    and the path-bit expansion of the index); ``leaf`` additionally binds
    it to an expected leaf value — a member fetching *its own* witness
    passes its identity commitment, so a genuine-but-wrong path (the slot
    was zeroed or re-occupied) is rejected here instead of blowing up in
    the prover.  Returns the folded root, for the caller to judge against
    its accepted window and to reuse (e.g. as a cache key), or ``None``
    when a structural check fails.  ``hasher`` overrides the Poseidon
    fold for accounting-only trees (benchmarks)."""
    if proof.index != index or proof.depth != depth:
        return None
    if leaf is not None and proof.leaf != leaf:
        return None
    expected_bits = tuple((index >> level) & 1 for level in range(depth))
    if proof.path_bits != expected_bits:
        return None
    return proof.compute_root(hasher)


@dataclass
class WitnessCacheStats:
    """Client-side cache accounting (experiment E14's client surface)."""

    hits: int = 0
    misses: int = 0
    refreshes: int = 0
    invalidations: int = 0
    #: Responses this client refused as tampered/inconsistent — witness
    #: *or* snapshot; the whole client surface, not just cache fills (the
    #: dispatcher's ``RequestStats.rejected`` additionally counts
    #: malformed/not-found replies).
    rejected: int = 0
    #: Zero writes observed on a slot this client tracks as its own
    #: (the expected-leaf pin matched the removed commitment).
    revocations_observed: int = 0
    #: Witness acquisitions refused locally because the slot was revoked
    #: — no provider round trips are spent on a leaf known to be dead.
    revoked_fast_fails: int = 0
    #: Fetches that exhausted every provider without a verified path.
    fetch_failures: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of publish-path acquisitions served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class WitnessCache:
    """Verified witnesses by leaf index; wiped whenever the tree moves.

    Each entry keeps the root its path folds to, so a hit can be
    freshness-checked against the accepted-root window without any
    hashing.  ``get`` is a pure lookup — the hit/miss accounting lives in
    :meth:`WitnessClient.witness`, the one place an *acquisition* is
    decided.
    """

    stats: WitnessCacheStats = field(default_factory=WitnessCacheStats)

    def __post_init__(self) -> None:
        self._entries: dict[int, tuple[MerkleProof, FieldElement]] = {}

    def get(self, index: int) -> MerkleProof | None:
        entry = self._entries.get(index)
        return None if entry is None else entry[0]

    def root_of(self, index: int) -> FieldElement | None:
        """The root the cached path folds to (recorded at put time)."""
        entry = self._entries.get(index)
        return None if entry is None else entry[1]

    def put(self, index: int, proof: MerkleProof, root: FieldElement) -> None:
        self._entries[index] = (proof, root)

    def invalidate(self) -> tuple[int, ...]:
        """Drop every entry; returns the indices that need a refresh."""
        stale = tuple(self._entries)
        self._entries.clear()
        if stale:
            self.stats.invalidations += 1
        return stale

    def __len__(self) -> int:
        return len(self._entries)


class WitnessClient:
    """Fetches witnesses/snapshots from an ordered provider set.

    ``providers`` are tried in order with per-attempt timeouts (the
    :class:`~repro.net.request.RequestDispatcher` contract); a tampered
    response — one that does not fold to an accepted root — fails over
    exactly like a timeout.  ``root_acceptor`` supplies the §III-F item-2
    accepted-root window the verification folds against.
    """

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        providers: Sequence[str],
        root_acceptor: "RootAcceptor",
        *,
        tree_depth: int,
        executor: SimulatedCryptoExecutor | None = None,
        timeout: float = 0.5,
        rounds: int = 2,
        hasher: NodeHasher | None = None,
        telemetry=None,
    ) -> None:
        if not providers:
            raise NetworkError("witness client needs at least one provider")
        self.peer_id = peer_id
        self.simulator = simulator
        self.providers = tuple(providers)
        self.root_acceptor = root_acceptor
        self.tree_depth = tree_depth
        self.executor = executor
        self.hasher = hasher
        self.cache = WitnessCache()
        #: Expected leaf per index (a member's own commitment), re-applied
        #: on background refreshes of that index.
        self._expected_leaf: dict[int, FieldElement] = {}
        #: Leaf slots observed deleted (a zero write matched this
        #: client's expected-leaf pin): acquisitions fail fast instead of
        #: walking the provider list for a witness no honest server can
        #: produce, and background refreshes skip them.
        self._revoked: set[int] = set()
        #: Bumped on every tree update: a fetch that was in flight when
        #: the tree moved must not repopulate the cache with a pre-update
        #: path (it may still *deliver* — the path folds to a root inside
        #: the accepted window — but the cache only keeps current ones).
        self._generation = 0
        self.dispatcher = RequestDispatcher(
            peer_id,
            network,
            simulator,
            protocol=WITNESS_PROTOCOL,
            reply_protocol=WITNESS_REPLY_PROTOCOL,
            timeout=timeout,
            rounds=rounds,
        )
        self.telemetry = resolve_telemetry(telemetry)
        #: Distributed tracing (PR 9): traced publishes link their
        #: witness fetches into the propagation tree.
        self.disttracer = self.telemetry.disttracer(
            peer_id, clock=lambda: simulator.now
        )
        registry = self.telemetry.registry
        self._m_fetch_rtt = registry.histogram(
            "witness_fetch_rtt_seconds", peer=peer_id
        )
        cache, dispatch = self.cache.stats, self.dispatcher.stats
        bind = partial(registry.bind, peer=peer_id)
        # Marked where a cache stat moves and, by the dispatcher, per attempt.
        self._moved = self.dispatcher.on_attempt = registry.marker(
            bind("witness_fetch_failures_total", lambda: cache.fetch_failures),
            bind("witness_cache_hits_total", lambda: cache.hits),
            bind("witness_cache_misses_total", lambda: cache.misses),
            bind("witness_refreshes_total", lambda: cache.refreshes),
            bind("witness_cache_hit_ratio", lambda: cache.hit_ratio, "gauge"),
            # Failovers are exact from dispatcher accounting: every attempt
            # beyond a request's first one is, by construction, a failover
            # (timeout, unreachable, or a tampered/rejected response).
            bind(
                "witness_failovers", lambda: float(dispatch.attempts - dispatch.requests), "gauge"
            ),
        )

    # -- witnesses -------------------------------------------------------------

    def witness(
        self,
        index: int,
        on_done: Callable[[MerkleProof], None],
        on_error: Callable[[RequestFailure], None] | None = None,
        *,
        expected_leaf: FieldElement | None = None,
        trace=None,
    ) -> None:
        """Deliver a verified witness for ``index`` — cached (O(1), the
        publish path) or fetched from the provider set.  ``expected_leaf``
        additionally pins the path's leaf (a member fetching its own slot
        passes its commitment).  ``trace`` (PR 9) is the publish span's
        :class:`~repro.telemetry.disttrace.SpanContext`: a fetch then
        records a "witness-fetch" child span (cache hits cost nothing and
        record nothing — the whole point of the cache is that the publish
        path never waits).

        A slot observed revoked (:meth:`on_shard_event` saw a zero write
        matching the pin)
        fails fast: no honest provider can serve a path for the pinned
        commitment any more, so walking the provider list would only burn
        timeouts before failing anyway."""
        if self._fail_if_revoked(index, on_error):
            return
        cached = self.cache.get(index)
        if cached is not None:
            # Freshness safety net: even if no one wired on_shard_event, a
            # stale path is never served from the cache.  The local window
            # is not enough — a lazily-committed light view can still
            # accept a root the network's per-block validators already
            # expired — so a hit must fold to the acceptor's *current*
            # root when it exposes one (no hashing: the fold was recorded
            # at put time), falling back to the window check otherwise.
            root = self.cache.root_of(index)
            try:
                # The property may fold pending state (ShardSyncManager)
                # and raise on an inconsistent view; a publish must then
                # degrade to the fetch path, never crash on a cache hit.
                # (ProtocolError covers SyncError/InconsistentTreeUpdate.)
                current = getattr(self.root_acceptor, "root", None)
            except ProtocolError:
                current = None
            if root is None:
                cached = None
            elif current is not None:
                if root != current:
                    cached = None
            elif not self.root_acceptor.is_acceptable_root(root):
                cached = None
        if cached is not None and expected_leaf is not None:
            if cached.leaf != expected_leaf:
                cached = None  # the slot moved under us: force a re-fetch
        if cached is not None:
            self.cache.stats.hits += 1
            self._moved()
            on_done(cached)
            return
        self.cache.stats.misses += 1  # marked by the fetch's first attempt
        self._fetch(
            index, on_done, on_error, expected_leaf=expected_leaf, trace=trace
        )

    def prefetch(
        self,
        index: int,
        on_done: Callable[[MerkleProof], None] | None = None,
        *,
        expected_leaf: FieldElement | None = None,
    ) -> None:
        """Warm the cache for ``index`` without an immediate consumer."""
        self._fetch(
            index,
            on_done or (lambda proof: None),
            None,
            expected_leaf=expected_leaf,
        )

    def _fetch(
        self,
        index: int,
        on_done: Callable[[MerkleProof], None],
        on_error: Callable[[RequestFailure], None] | None,
        *,
        expected_leaf: FieldElement | None = None,
        trace=None,
    ) -> None:
        if self._fail_if_revoked(index, on_error):
            # Covers prefetch and refreshes racing a revocation.
            return
        if expected_leaf is not None:
            self._expected_leaf[index] = expected_leaf
        else:
            expected_leaf = self._expected_leaf.get(index)

        folded_root: FieldElement | None = None

        def accept(response: object) -> bool:
            nonlocal folded_root
            if not isinstance(response, WitnessResponse):
                return False
            if not response.found or response.proof is None:
                return False
            root = checked_fold(
                response.proof,
                index=index,
                depth=self.tree_depth,
                leaf=expected_leaf,
                hasher=self.hasher,
            )
            if root is None or not self.root_acceptor.is_acceptable_root(root):
                self.cache.stats.rejected += 1
                return False
            folded_root = root
            return True

        generation = self._generation
        started_at = self.simulator.now

        def settled(result: object) -> None:
            if isinstance(result, RequestFailure):
                self.cache.stats.fetch_failures += 1
                self._moved()
                if on_error is not None:
                    on_error(result)
                return
            # Simulated end-to-end acquisition time: dispatch to verified
            # delivery, failovers and retries included.
            self._m_fetch_rtt.observe(self.simulator.now - started_at)
            if trace is not None:
                self.disttracer.link(
                    trace,
                    kind="witness-fetch",
                    start=started_at,
                    end=self.simulator.now,
                )
            assert isinstance(result, WitnessResponse)
            assert result.proof is not None and folded_root is not None
            if self._generation == generation:
                self.cache.put(index, result.proof, folded_root)
            else:
                # The tree moved while this fetch was in flight: the path
                # is still acceptable to deliver (it folds to a windowed
                # root) but must not warm the cache — re-fetch instead.
                self._schedule_refresh(index)
            on_done(result.proof)

        self.dispatcher.request(
            self.providers,
            lambda request_id: WitnessRequest(
                request_id=request_id, index=index, trace=trace
            ),
            accept=accept,
        ).subscribe(settled)

    # -- invalidation & background refresh --------------------------------------

    def on_shard_event(self, event: ShardUpdate) -> None:
        """A block moved the tree: drop every cached witness and refresh in background.

        Wire this to the view's update feed
        (``manager.on_shard_update(client.on_shard_event)``).  Every tree
        change invalidates every cached witness — a single leaf write
        perturbs each other leaf's path at their common-ancestor level,
        and the fold lands on the old root either way — so the
        invalidate-and-refresh runs once for any block.  Refresh jobs ride
        the executor's BACKGROUND class, the weakest priority — they only
        run on lanes relay verdicts and service traffic left idle.  With no
        executor the refresh happens immediately (a pure light client with
        no crypto pipeline of its own).  The block's writes do more:

        * a zero write naming this client's expected-leaf pin (the
          member's *own* commitment died there — it was slashed or
          withdrew) marks the index revoked: the pin is dropped, no
          background refresh is scheduled for it, and future acquisitions
          fail fast instead of hammering providers for a witness no
          honest server can produce;
        * a non-zero write re-occupying a revoked slot (possible in
          registries that reuse freed slots) lifts the revocation.
        """
        for index, old, new in event.writes:
            if new != ZERO:
                self._revoked.discard(index)
            elif self._expected_leaf.get(index) == old:
                self._revoked.add(index)
                del self._expected_leaf[index]
                self.cache.stats.revocations_observed += 1
        self._generation += 1
        stale = self.cache.invalidate()
        for index in stale:
            self._schedule_refresh(index)

    def _fail_if_revoked(
        self,
        index: int,
        on_error: Callable[[RequestFailure], None] | None,
    ) -> bool:
        """Shared fast-fail for acquisitions of a revoked slot."""
        if index not in self._revoked:
            return False
        self.cache.stats.revoked_fast_fails += 1
        if on_error is not None:
            on_error(
                RequestFailure(reason=f"leaf {index} was revoked (member removed)")
            )
        return True

    def _schedule_refresh(self, index: int) -> None:
        if index in self._revoked:
            # The slot is dead; a refresh could only fetch a zero-leaf
            # path nobody here can publish with.  BACKGROUND capacity is
            # better spent on the survivors.
            return

        def refresh(_result: object = None) -> None:
            self.cache.stats.refreshes += 1
            self._moved()
            self._fetch(index, lambda proof: None, None)

        if self.executor is None:
            refresh()
        else:
            self.executor.submit(
                lambda: index, refresh, priority=Priority.BACKGROUND
            )

    # -- snapshots --------------------------------------------------------------

    def fetch_snapshot(
        self,
        shard_id: int,
        on_result: Callable[[SnapshotResponse | None], object],
    ) -> None:
        """Fetch a shard-leaf snapshot; delivers ``None`` when every
        provider is exhausted.  Authentication happens at the consumer —
        the :class:`~repro.treesync.sync.ShardSyncManager` rebuilds the
        shard and compares roots — because only it knows which root its
        accepted stream commits to.  The consumer's verdict feeds back:
        ``on_result`` returning ``False`` marks the snapshot tampered/
        inconsistent and the next provider is tried, so one lying
        provider cannot block a bootstrap that an honest one could serve
        (the same failover tampered witnesses get).  Matches the
        :data:`~repro.treesync.sync.SnapshotFetch` contract.
        """

        def accept(response: object) -> bool:
            if not (
                isinstance(response, SnapshotResponse)
                and response.found
                and response.shard_id == shard_id
            ):
                return False
            # The consumer's verdict *is* the content authentication:
            # False means tampered/inconsistent, and the dispatcher's own
            # failover walks on to the next provider.  A truthy verdict
            # also means the consumer already adopted the snapshot.
            if on_result(response) is False:
                self.cache.stats.rejected += 1
                return False
            return True

        def settled(result: object) -> None:
            if isinstance(result, RequestFailure):
                on_result(None)
            # An accepted response was already delivered inside accept().

        self.dispatcher.request(
            self.providers,
            lambda request_id: SnapshotRequest(
                request_id=request_id, shard_id=shard_id
            ),
            accept=accept,
        ).subscribe(settled)
