"""Deployment harness: assemble a full WAKU-RLN-RELAY network in one call.

Examples, integration tests and the network-scale benchmarks all need the
same scaffolding — an event simulator, a chain with the membership contract
and a mining ticker, a peer topology, a transport, and one
:class:`~repro.core.protocol.WakuRLNRelayPeer` per node, all sharing one
trusted setup and one view of the contract.  :class:`RLNDeployment` builds it.

>>> deployment = RLNDeployment.create(peer_count=10, seed=7)   # doctest: +SKIP
>>> deployment.register_all()
>>> deployment.run(5.0)                      # let meshes form
>>> deployment.peers["peer-000"].publish(b"hello")
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import networkx as nx

from repro.chain.blockchain import Blockchain, DEFAULT_BLOCK_INTERVAL, WEI
from repro.chain.rln_contract import RLNMembershipContract
from repro.core.config import RLNConfig
from repro.core.membership import GroupManager
from repro.core.protocol import WakuRLNRelayPeer
from repro.crypto.field import FIELD_MODULUS
from repro.crypto.merkle import MemoHasher
from repro.errors import ProtocolError, RegistrationError
from repro.gossipsub.scoring import ScoreParams
from repro.net.clock import DriftModel, PeerClock
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.simulator import Simulator
from repro.net.topology import random_regular
from repro.net.transport import Network
from repro.pipeline.pipeline import PipelineConfig
from repro.telemetry import CollectorOptions, CollectorPeer, Telemetry
from repro.telemetry.alerts import default_rule_pack
from repro.telemetry.exporter import TelemetryExporter
from repro.zksnark.prover import RLNProver, shared_prover


@dataclass
class RLNDeployment:
    """A fully wired network plus its substrates."""

    simulator: Simulator
    chain: Blockchain
    contract: RLNMembershipContract
    #: The generated topology; the live one is ``network.links``.
    graph: nx.Graph
    network: Network
    #: The deployment's one view of its contract, shared by every peer.
    group: GroupManager
    peers: dict[str, WakuRLNRelayPeer]
    config: RLNConfig
    prover: RLNProver
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Fleet-telemetry wiring (populated only with ``create(collector=…)``):
    #: one enabled :class:`~repro.telemetry.Telemetry` hub per peer, that
    #: peer's push exporter, and the collector node(s) (primary first).
    telemetries: dict[str, Telemetry] = field(default_factory=dict)
    exporters: dict[str, TelemetryExporter] = field(default_factory=dict)
    collectors: dict[str, CollectorPeer] = field(default_factory=dict)

    # -- construction -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        peer_count: int = 20,
        *,
        degree: int = 6,
        seed: int = 0,
        config: RLNConfig | None = None,
        graph: nx.Graph | None = None,
        latency: LatencyModel | None = None,
        drift: DriftModel | None = None,
        score_params: ScoreParams | None = None,
        block_interval: float = DEFAULT_BLOCK_INTERVAL,
        funding_wei: int = 100 * WEI,
        auto_slash: bool = True,
        pipeline_config: PipelineConfig | None = None,
        start: bool = True,
        telemetry=None,
        collector: CollectorOptions | bool | None = None,
    ) -> "RLNDeployment":
        """Build the whole stack; peers are started but not yet registered.

        ``collector=True`` (or a :class:`~repro.telemetry.CollectorOptions`)
        switches on fleet telemetry: every peer gets its *own* enabled
        :class:`~repro.telemetry.Telemetry` hub plus a push
        :class:`~repro.telemetry.TelemetryExporter`, and one (or, with
        ``backup=True``, two) :class:`~repro.telemetry.CollectorPeer`
        nodes join the topology wired to every peer.  Default off: the
        seed behaviour stays bit-identical, with zero telemetry bytes on
        the wire.  Mutually exclusive with ``telemetry=`` (a shared hub
        cannot attribute per-peer resources).

        Every peer subscribes to the same chain, which hands each event to
        every subscriber in the same order, so one
        :class:`~repro.core.membership.GroupManager` (:attr:`group`) follows
        the contract for all of them: each event is applied once, not once
        per peer.  Its tree hashes through a
        :class:`~repro.crypto.merkle.MemoHasher` (``group.hasher``), where
        a publisher's fresh path finds the digests the block's rehash
        computed; it is freed with the deployment, and a second deployment
        in the same process starts from an empty one.
        """
        config = config or RLNConfig()
        if collector is True:
            collector = CollectorOptions()
        elif collector is False:
            collector = None
        if collector is not None and telemetry is not None:
            raise ProtocolError(
                "pass either telemetry= (one shared hub) or collector= "
                "(per-peer hubs pushed to a collector), not both"
            )
        rng = random.Random(seed)
        simulator = Simulator()
        chain = Blockchain(block_interval=block_interval)
        contract = RLNMembershipContract()
        chain.deploy(contract)
        # Keep chain time in lockstep with simulated time (two ticks per
        # block interval so mining lands promptly after the boundary).
        simulator.every(block_interval / 2, lambda: chain.advance_time(simulator.now))

        if graph is None:
            if (peer_count * degree) % 2:
                degree += 1
            graph = random_regular(peer_count, degree, seed=seed)
        network = Network(
            simulator=simulator,
            graph=graph,
            latency=latency or ConstantLatency(0.05),
            rng=random.Random(seed + 1),
        )
        prover = shared_prover(config.tree_depth, config.prover_backend)
        drift = drift or DriftModel(0.0)
        group = GroupManager(
            chain,
            contract,
            tree_depth=config.tree_depth,
            root_window=config.root_window,
            shard_depth=config.shard_depth,
            hasher=MemoHasher(),
        )
        peers: dict[str, WakuRLNRelayPeer] = {}
        telemetries: dict[str, Telemetry] = {}
        peer_ids = sorted(graph.nodes)
        # All clock offsets before any slasher key: a seed's offsets stay put.
        offsets = [drift.sample_offset(rng) for _ in peer_ids]
        slash_keys = [rng.randbytes(32) for _ in peer_ids]
        for peer_id, offset, slash_key in zip(peer_ids, offsets, slash_keys):
            chain.fund(peer_id, funding_wei)
            clock = PeerClock(offset=offset, genesis_unix=config.genesis_unix)
            peer_telemetry = telemetry
            if collector is not None:
                peer_telemetry = telemetries[peer_id] = Telemetry(
                    trace_sample=collector.trace_sample
                )
            peers[peer_id] = WakuRLNRelayPeer(
                peer_id,
                network=network,
                simulator=simulator,
                group=group,
                slash_key=slash_key,
                config=config,
                prover=prover,
                clock=clock,
                score_params=score_params,
                auto_slash=auto_slash,
                pipeline_config=pipeline_config,
                rng=random.Random(seed + 2 + len(peers)),
                telemetry=peer_telemetry,
            )
        collectors: dict[str, CollectorPeer] = {}
        exporters: dict[str, TelemetryExporter] = {}
        if collector is not None:
            # Collector nodes join the topology with NO mesh edges: peers
            # dial them directly (``require_edge=False``), so GossipSub
            # never counts them as neighbors and relay behaviour stays
            # bit-identical — while the telemetry channel still rides the
            # same Network, its bytes billed and separable per protocol.
            rules = (
                default_rule_pack(evaluation_interval=collector.evaluation_interval)
                if collector.alerting
                else ()
            )
            names = ["collector-0"] + (["collector-1"] if collector.backup else [])
            for name in names:
                network.add_peer(name, [])
                collectors[name] = CollectorPeer(
                    name,
                    network,
                    simulator,
                    rules=rules,
                    evaluation_interval=collector.evaluation_interval,
                    export_interval=collector.interval,
                )
            for peer_id, peer in peers.items():
                exporters[peer_id] = peer.telemetry_exporter(
                    names,
                    role="full",
                    shard=-1,
                    interval=collector.interval,
                    # Alerting needs liveness: an idle tick with nothing
                    # owed sends a one-way heartbeat, so a quiet peer is
                    # distinguishable from a dead one.
                    heartbeat=collector.alerting,
                )
        deployment = cls(
            simulator=simulator,
            chain=chain,
            contract=contract,
            graph=graph,
            network=network,
            group=group,
            peers=peers,
            config=config,
            prover=prover,
            rng=rng,
            telemetries=telemetries,
            exporters=exporters,
            collectors=collectors,
        )
        if start:
            deployment.start_all()
        return deployment

    # -- operation --------------------------------------------------------------------

    def start_all(self) -> None:
        for peer in self.peers.values():
            peer.start()

    def run(self, seconds: float) -> None:
        """Advance simulated time (processing all due events)."""
        self.simulator.run(self.simulator.now + seconds)

    def register_all(
        self, peer_ids: list[str] | None = None, *, settle: bool = True
    ) -> None:
        """Register the given peers (default: all) and mine them in."""
        targets = (
            list(self.peers.values())
            if peer_ids is None
            else [self.peer(p) for p in peer_ids]
        )
        for peer in targets:
            if peer.identity is None:
                # Seeded: a key, and the slashing calldata revealing it, never vary.
                peer.create_identity(self.rng.randrange(1, FIELD_MODULUS))
            peer.request_registration()
        if settle:
            # One block to mine the registrations, a little margin for the
            # event-driven tree sync.
            self.run(self.chain.block_interval * 1.5)
            for peer in targets:
                if not peer.registered:
                    raise RegistrationError(
                        f"{peer.peer_id} failed to register "
                        f"(tx {peer._registration_tx})"
                    )

    def form_meshes(self, seconds: float | None = None) -> None:
        """Run long enough for GossipSub heartbeats to build the meshes."""
        params = next(iter(self.peers.values())).relay.router.params
        self.run(seconds if seconds is not None else 3 * params.heartbeat_interval)

    # -- fleet telemetry ---------------------------------------------------------------

    @property
    def collector(self) -> CollectorPeer | None:
        """The primary collector node (None when fleet telemetry is off)."""
        return self.collectors.get("collector-0")

    def flush_telemetry(self, *, settle: float = 1.0, rounds: int = 5) -> None:
        """Push every exporter's outstanding deltas and let the acks land.

        Benchmarks call this before reading
        :meth:`CollectorPeer.fleet_snapshot` so the collector view is
        caught up to the live registries (modulo batches the bounded
        queues already dropped, which the collector accounts).
        """
        for _ in range(rounds):
            for exporter in self.exporters.values():
                exporter.flush()
            self.run(settle)
            if all(not exporter.pending for exporter in self.exporters.values()):
                return

    # -- access ------------------------------------------------------------------------

    def peer(self, peer_id: str) -> WakuRLNRelayPeer:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise ProtocolError(f"no peer named {peer_id!r}") from None

    def peer_ids(self) -> list[str]:
        return sorted(self.peers)

    # -- measurements ----------------------------------------------------------------------

    def total_spam_detected(self) -> int:
        return sum(p.stats.spam_detected for p in self.peers.values())
