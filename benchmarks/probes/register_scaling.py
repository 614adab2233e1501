"""How registration scales with the fleet: ``register_all`` from 100 to 1000 peers.

    python3 benchmarks/probes/register_scaling.py [--peers 100 200 400 800 1000] [--seed 1]

An :class:`~repro.core.deployment.RLNDeployment` follows its contract once:
every peer holds the deployment's one ``GroupManager``, so registering N
peers mines one block of N ``MemberRegistered`` events that one depth-20
tree applies.  For each fleet size this prints the wall seconds of
``register_all()``, the process's peak RSS, the tree compressions the
deployment's tree performed (``hash_ops``) and the Poseidon hashes the
process computed (``EngineStats.hashes``: the tree's, plus two per generated
identity).  Each size runs in its own interpreter, so peak RSS belongs to
that size alone.  The last line is the rows as JSON.  Standard library only.
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
    return {
        "peers": peers,
        "register_all_s": round(wall, 3),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "tree_hash_ops": dep.group.tree.hash_ops,
        "engine_hashes": default_engine().stats.hashes - hashes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--peers", type=int, nargs="+", default=[100, 200, 400, 800, 1000])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(measure(args.peers[0], args.seed)))
        return 0
    rows = []
    print(f"{'peers':>6} {'register_all s':>15} {'peak RSS MB':>12} "
          f"{'tree hash_ops':>14} {'engine hashes':>14}")
    for peers in args.peers:
        child = subprocess.run(
            [sys.executable, __file__, "--one", "--peers", str(peers), "--seed", str(args.seed)],
            check=True, capture_output=True, text=True,
        )
        row = json.loads(child.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"{row['peers']:>6} {row['register_all_s']:>15.3f} {row['peak_rss_mb']:>12.1f} "
              f"{row['tree_hash_ops']:>14} {row['engine_hashes']:>14}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
