"""How registration scales with the fleet: ``register_all`` at 100/200/400 peers.

    python3 benchmarks/probes/register_scaling.py [--peers 100 200 400] [--seed 1]

Every peer of an :class:`~repro.core.deployment.RLNDeployment` is a full
replica, so registering N peers mines one block of N ``MemberRegistered``
events that each of the N replicas applies to its own depth-20 tree.  For
each fleet size this prints the wall seconds of ``register_all()``, the
process's peak RSS, the tree compressions one replica performed
(``hash_ops``) and the Poseidon hashes the process computed for the whole
fleet (``EngineStats.hashes``; the replicas share one memo).  Each size runs
in its own interpreter, so peak RSS belongs to that size alone.  The last
line is the rows as JSON.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
DEPTH = 20


def measure(peers: int, seed: int) -> dict:
    """One fleet size, in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.config import RLNConfig
    from repro.core.deployment import RLNDeployment
    from repro.crypto.engine import default_engine

    dep = RLNDeployment.create(peer_count=peers, seed=seed, config=RLNConfig(tree_depth=DEPTH))
    hashes = default_engine().stats.hashes
    start = time.perf_counter()
    dep.register_all()
    wall = time.perf_counter() - start
    hash_ops = {peer.group.tree.hash_ops for peer in dep.peers.values()}
    assert len(hash_ops) == 1, "replicas disagree on the work one block cost"
    assert len({peer.group.root for peer in dep.peers.values()}) == 1
    return {
        "peers": peers,
        "register_all_s": round(wall, 3),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "replica_hash_ops": hash_ops.pop(),
        "engine_hashes": default_engine().stats.hashes - hashes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--peers", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.peers[0], args.seed)))
        return 0
    rows = []
    print(f"{'peers':>6} {'register_all s':>15} {'peak RSS MB':>12} "
          f"{'replica hash_ops':>17} {'engine hashes':>14}")
    for peers in args.peers:
        child = subprocess.run(
            [sys.executable, __file__, "--one", "--peers", str(peers), "--seed", str(args.seed)],
            check=True, capture_output=True, text=True,
        )
        row = json.loads(child.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"{row['peers']:>6} {row['register_all_s']:>15.3f} {row['peak_rss_mb']:>12.1f} "
              f"{row['replica_hash_ops']:>17} {row['engine_hashes']:>14}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
