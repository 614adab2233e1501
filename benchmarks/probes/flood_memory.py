"""What does a spam flood leave behind at each relay?

    python3 benchmarks/probes/flood_memory.py [--seed 11] [--peers 12] [--rounds 6]

A fleet of WAKU-RLN-RELAY peers (degree 4, 1-s epochs, auto-slash on)
registers and forms its meshes.  Then, each round (one epoch), four honest
peers publish once and ``peer-001`` pushes forged bundles into its own
relay: of every ten, seven carry a consistent statement under a garbage
proof, two bind another payload and one is ten epochs stale.  In the first
round ``peer-002`` signals twice in one epoch and is slashed.  After the
slash settles the fleet runs :data:`MCACHE_LENGTH` more heartbeats, so
every accepted message has aged out of the gossip windows and each relay
holds only what it keeps per judged message id.  Peers keep no delivery
history, so no delivered bundle (the attacker's forged ones included: it
delivers them to itself) outlives the windows.

The probe prints:

* the peak RSS of a fresh child process running the scenario untraced;
* the bytes allocated during the flood and still alive at the end
  (``tracemalloc``), per relay per judged id, where the judged ids are
  the entries of every relay's message table;
* a census by type (count and ``sys.getsizeof`` bytes, largest first)
  of the objects alive at the end that were not alive before the flood.

The last line is the figures as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import random
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core import DEFAULT_CONTENT_TOPIC, RateLimitProof, RLNConfig  # noqa: E402
from repro.core.deployment import RLNDeployment  # noqa: E402
from repro.core.epoch import external_nullifier  # noqa: E402
from repro.gossipsub.msgtable import MCACHE_LENGTH  # noqa: E402
from repro.waku.message import WakuMessage  # noqa: E402
from repro.zksnark.groth16 import Proof  # noqa: E402
from repro.zksnark.rln_circuit import RLNPublicInputs  # noqa: E402

SEED = 11
PEERS = 12
DEGREE = 4
ROUNDS = 6
HONEST_PER_ROUND = 4
FORGED_PER_ROUND = 40
ATTACKER = "peer-001"
SPAMMER = "peer-002"
#: Simulated seconds after the last round: commit and reveal each need a block.
SLASH_DRAIN_S = 30.0
CENSUS_TOP = 12


def forged(dep: RLNDeployment, rng: random.Random, number: int, serial: int) -> WakuMessage:
    """A hostile bundle from :data:`ATTACKER`, built without proving."""
    peer = dep.peer(ATTACKER)
    payload = b"hostile|%d|%d" % (number, serial)
    variant = serial % 10
    epoch = peer.current_epoch() - (10 if variant == 9 else 0)
    bound = payload + b"|other" if variant in (7, 8) else payload
    public = RLNPublicInputs.for_message(
        peer.identity, bound, external_nullifier(epoch), peer.group.root
    )
    garbage = rng.randbytes(128)
    bundle = RateLimitProof(
        share_x=public.x,
        share_y=public.y,
        internal_nullifier=public.internal_nullifier,
        epoch=epoch,
        root=peer.group.root,
        proof=Proof(a=garbage[:32], b=garbage[32:96], c=garbage[96:]),
    )
    return WakuMessage(
        payload=payload,
        content_topic=DEFAULT_CONTENT_TOPIC,
        timestamp=peer.unix_now(),
        rate_limit_proof=bundle,
    )


def fleet(seed: int = SEED, peers: int = PEERS) -> RLNDeployment:
    """The registered, meshed fleet before the flood."""
    config = RLNConfig(epoch_length=1.0, max_epoch_gap=2)
    dep = RLNDeployment.create(peer_count=peers, degree=DEGREE, seed=seed, config=config)
    dep.register_all()
    dep.form_meshes()
    return dep


def flood(dep: RLNDeployment, rounds: int = ROUNDS, seed: int = SEED) -> None:
    """The flood, the slash it causes and :data:`MCACHE_LENGTH` heartbeats."""
    honest = [name for name in dep.peer_ids() if name not in (ATTACKER, SPAMMER)]
    attacker = dep.peer(ATTACKER).relay
    rng = random.Random(f"forged-{seed}")
    for number in range(rounds):
        for k in range(HONEST_PER_ROUND):
            name = honest[(number * HONEST_PER_ROUND + k) % len(honest)]
            dep.peer(name).publish(b"honest|%d|%s" % (number, name.encode()))
        for serial in range(FORGED_PER_ROUND):
            attacker.publish(forged(dep, rng, number, serial))
        if number == 0:
            dep.peer(SPAMMER).publish(b"signal|1")
            dep.run(0.5)
            dep.peer(SPAMMER).publish(b"signal|2", force=True)
            dep.run(0.5)
        else:
            dep.run(1.0)
    dep.run(SLASH_DRAIN_S)
    dep.run(MCACHE_LENGTH * dep.peer(ATTACKER).relay.router.params.heartbeat_interval)


def judged_ids(dep: RLNDeployment) -> int:
    """Table entries summed over the relays: (judged id, relay) pairs."""
    return sum(len(peer.relay.router._table) for peer in dep.peers.values())


def retained(seed: int = SEED, peers: int = PEERS, rounds: int = ROUNDS):
    """The fleet after the flood, the bytes its flood left allocated and
    their census."""
    dep = fleet(seed, peers)
    gc.collect()
    before = live_objects()  # held, so no id is reused by a new object
    tracemalloc.start()
    try:
        flood(dep, rounds, seed)
        gc.collect()
        alive = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    after = live_objects(held=before)
    return dep, alive, census(obj for key, obj in after.items() if key not in before)


def live_objects(held: object = None) -> dict[int, object]:
    """The collector's objects but ``held`` and what they refer to
    directly (floats, bytes, strings), by id."""
    return {
        id(obj): obj
        for owner in gc.get_objects() if owner is not held
        for obj in (owner, *gc.get_referents(owner)) if obj is not held
    }


def census(objects) -> list[tuple[str, int, int]]:
    """``(type, count, sys.getsizeof bytes)`` of ``objects``, largest first."""
    counts: Counter[str] = Counter()
    sizes: Counter[str] = Counter()
    for obj in objects:
        counts[type(obj).__qualname__] += 1
        sizes[type(obj).__qualname__] += sys.getsizeof(obj)
    return [(name, counts[name], size) for name, size in sizes.most_common()]


def peak_rss_mb(seed: int, peers: int, rounds: int) -> float:
    """Peak RSS of a child that runs the scenario without tracemalloc."""
    subprocess.run(
        [sys.executable, __file__, "--untraced",
         "--seed", str(seed), "--peers", str(peers), "--rounds", str(rounds)],
        check=True,
    )
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--peers", type=int, default=PEERS)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--untraced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.untraced:
        flood(fleet(args.seed, args.peers), args.rounds, args.seed)
        return 0
    rss = peak_rss_mb(args.seed, args.peers, args.rounds)
    dep, alive, rows = retained(args.seed, args.peers, args.rounds)
    ids = judged_ids(dep)
    rows = rows[:CENSUS_TOP]
    print(f"peak RSS (untraced child)      {rss:10.1f} MB")
    print(f"(judged id, relay) pairs       {ids:10d}")
    print(f"bytes retained by the flood    {alive:10d}")
    print(f"  per relay per judged id      {alive / ids:10.1f}")
    print(f"\n{'type':>28} {'live':>8} {'bytes':>10}")
    for name, count, size in rows:
        print(f"{name:>28} {count:8d} {size:10d}")
    print(json.dumps({
        "seed": args.seed,
        "peers": args.peers,
        "rounds": args.rounds,
        "peak_rss_mb": round(rss, 1),
        "judged_ids": ids,
        "retained_bytes": alive,
        "bytes_per_judged_id": round(alive / ids, 1),
        "census": [{"type": n, "live": c, "bytes": s} for n, c, s in rows],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
