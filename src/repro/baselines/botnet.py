"""The bot-army attack on peer scoring (§I).

"The peer scoring method is ... subject to inexpensive attacks where the
spammer can send bulk messages by deploying millions of bots."  Scores
attach to *peer identities*, and identities are free; when a bot's score
sinks below the graylist threshold at its neighbors, the attacker simply
retires it and connects a fresh one with a clean score.

:class:`BotArmy` drives that loop against a network of
:class:`~repro.baselines.plain_peer.PlainRelayPeer` victims: each bot
joins the topology, subscribes, floods spam payloads until its neighbors
stop accepting them, and is then rotated.  The attack's cost is measured
in *identities spent*, which is the point: under scoring the cost of N
spam deliveries is O(N) free identities, while under RLN it is O(N)
slashed deposits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from repro.baselines.plain_peer import PlainRelayPeer
from repro.net.simulator import Simulator
from repro.net.transport import Network

#: Payload prefix the experiments' spam classifier keys on.
SPAM_PREFIX = b"SPAM:"


@dataclass
class BotArmyStats:
    bots_spawned: int = 0
    bots_retired: int = 0


@dataclass
class BotArmy:
    """Rotating swarm of spam bots attached to victim peers."""

    network: Network
    simulator: Simulator
    targets: list[str]
    connections_per_bot: int = 3
    send_interval: float = 0.5
    messages_before_rotation: int = 30
    rng: random.Random = field(default_factory=lambda: random.Random(99))
    stats: BotArmyStats = field(default_factory=BotArmyStats)

    def __post_init__(self) -> None:
        self._bot_ids = itertools.count()
        self._active: list[tuple[PlainRelayPeer, list[str]]] = []
        self._running = False

    # -- control -----------------------------------------------------------

    def launch(self, bot_count: int = 1) -> None:
        """Start the attack with ``bot_count`` concurrent bots."""
        self._running = True
        for _ in range(bot_count):
            self._spawn_bot()

    def halt(self) -> None:
        self._running = False
        for bot, _neighbors in self._active:
            bot.stop()
            self.network.remove_peer(bot.peer_id)
        self._active.clear()

    # -- internals -------------------------------------------------------------

    def _spawn_bot(self) -> None:
        if not self._running:
            return
        bot_id = f"bot-{next(self._bot_ids):05d}"
        neighbors = self.rng.sample(
            self.targets, min(self.connections_per_bot, len(self.targets))
        )
        self.network.add_peer(bot_id, neighbors)
        bot = PlainRelayPeer(
            bot_id,
            self.network,
            self.simulator,
            rng=random.Random(self.rng.random()),
        )
        bot.start()
        self.stats.bots_spawned += 1
        entry = (bot, neighbors)
        self._active.append(entry)
        sent = itertools.count(1)

        def flood() -> None:
            if not self._running or entry not in self._active:
                return
            n = next(sent)
            payload = SPAM_PREFIX + f"{bot_id}-{n}".encode("ascii")
            bot.publish(payload)
            if n >= self.messages_before_rotation:
                self._retire(entry)
            else:
                self.simulator.schedule(self.send_interval, flood)

        # Give the bot a heartbeat to announce its subscription first.
        self.simulator.schedule(1.5, flood)

    def _retire(self, entry: tuple[PlainRelayPeer, list[str]]) -> None:
        """Replace a burned identity with a fresh one — the free operation
        that defeats scoring."""
        bot, _neighbors = entry
        if entry in self._active:
            self._active.remove(entry)
        bot.stop()
        self.network.remove_peer(bot.peer_id)
        self.stats.bots_retired += 1
        if self._running:
            self._spawn_bot()
