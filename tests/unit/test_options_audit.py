"""Tier-1 guard on the forwarding layers: no option nobody sets.

The config objects and constructors below only carry values down to the
component that uses them.  An option stays on one of them if a call to
that very surface sets it by keyword — under ``benchmarks/`` or
``examples/``, or in the layer above it under ``src/repro`` forwarding a
value a workload set — or if it is in ``KEPT_FOR`` with its reason.  A component keeps whatever parameter its own unit tests need;
the layers above it do not forward that parameter for them.  No module
under ``src/repro`` reads a switch from the environment: that is an
option no benchmark, example or config object shows.

Reads source files only — nothing is imported, ``benchmarks/e2e`` included.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: (file under ``src/repro``, class, method) — ``None`` scans the fields of
#: a dataclass, a method name scans its defaulted parameters.
SURFACES = {
    "PipelineConfig": ("pipeline/pipeline.py", "PipelineConfig", None),
    "CollectorOptions": ("telemetry/collector.py", "CollectorOptions", None),
    "RLNConfig": ("core/config.py", "RLNConfig", None),
    "RLNDeployment.create": ("core/deployment.py", "RLNDeployment", "create"),
    "WakuRLNRelayPeer": ("core/protocol.py", "WakuRLNRelayPeer", "__init__"),
    "WakuRelay": ("waku/relay.py", "WakuRelay", "__init__"),
    "PlainRelayPeer": ("baselines/plain_peer.py", "PlainRelayPeer", "__init__"),
    "PoWRelayPeer": ("baselines/pow.py", "PoWRelayPeer", "__init__"),
}

KEPT_FOR = {
    # Behaviour only a fleet-level test can reach, no narrower seam.
    "peer_bucket": "a forwarder overflowing its bucket through the real router",
    "topic_bucket": "switched off so the same test isolates the per-peer bucket",
    "backup": "exporter failover needs two collectors on one network",
    "funding_wei": "Figure 2: a peer that cannot afford the deposit",
    "graph": "a fleet over a hand-built topology (a star, for the fetched copy's trace parent)",
    "start": "frame-size properties over a wired fleet that never ticks",
    "prover_backend": "the full Groth16 pipeline under a live mesh",
    "genesis_unix": "deployment setting: where epoch numbering is anchored",
    "pubsub_topic": "deployment setting: the mesh's address",
    # Frozen and unread; benchmarks/e2e/harness.py passes it and this round
    # may not edit that harness.  A benchmark PR deletes field and entry.
    "tree_backend": "still passed by the e2e harness",
    # Not options: what RLNDeployment.create builds once and hands each peer.
    "prover": "the deployment's one shared prover",
    "clock": "the peer's drift-sampled clock",
}


def options(path: str, cls: str, method: str | None) -> list[str]:
    tree = ast.parse((ROOT / "src" / "repro" / path).read_text())
    node = next(
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls
    )
    if method is None:
        return [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
    function = next(
        n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == method
    )
    args = function.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return names


def callee(call: ast.Call) -> str | None:
    """How a call names what it calls: ``Name`` or ``Name.attr`` (as the
    ``SURFACES`` keys are spelled); ``None`` for anything else."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def keywords_set_per_surface() -> dict[str, set[str]]:
    """Per ``SURFACES`` key, the keywords some call to it passes."""
    used: dict[str, set[str]] = {surface: set() for surface in SURFACES}
    for directory in ("benchmarks", "examples", "src/repro"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and callee(node) in used:
                    used[callee(node)].update(k.arg for k in node.keywords if k.arg)
    return used


def test_every_forwarded_option_is_set_by_a_workload_or_kept_for_a_reason():
    used = keywords_set_per_surface()
    unset = {
        f"{surface}.{name}"
        for surface, spec in SURFACES.items()
        for name in options(*spec)
        if name not in used[surface] and name not in KEPT_FOR
    }
    assert not unset, (
        f"{sorted(unset)}: no benchmark or example sets these. Pass the value "
        "where the component is built, or make it a constant; do not forward it."
    )


def test_kept_for_names_only_live_options():
    live = {name for spec in SURFACES.values() for name in options(*spec)}
    assert set(KEPT_FOR) <= live, sorted(set(KEPT_FOR) - live)


#: Names through which a module can read a switch from the environment.
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads() -> list[str]:
    """``file:line`` of every ``os.environ`` / ``os.getenv`` use under
    ``src/repro``, attribute access and ``from os import`` alike."""
    src = ROOT / "src" / "repro"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & ENVIRONMENT_READS:
                found.append(f"{path.relative_to(src)}:{node.lineno}")
    return found


def test_no_module_reads_a_switch_from_the_environment():
    reads = environment_reads()
    assert not reads, (
        f"{reads}: a switch read from the environment is an option no "
        "benchmark, example or config object shows. Pass it as a parameter."
    )


if __name__ == "__main__":
    for surface, spec in SURFACES.items():
        print(f"{surface}: {len(options(*spec))}")
