"""Tier-1 guard on dead code: every ``src/repro`` function is reached or kept.

``benchmarks/reach/REACH.json`` names, per module, the functions some
driver calls: the four e2e workloads at smoke size, every example and
every CI benchmark.  ``python3 benchmarks/reach/collect.py`` rewrites it,
and CI's ``reach`` job fails when a fresh run disagrees with the committed
file.  A function no driver reaches is deleted, or it has a ``KEPT_FOR``
row (``module:qualname``, module under ``src/repro``) saying why it stays.
``BUDGET`` is each package's line count (``repro`` is the modules directly
under ``src/repro``), and it ratchets: growth past a row is a visible
diff, and a change that shrinks a package lowers its row to the new
count in the same diff, so the shrink stays.  ``python tests/unit/test_reachability.py``
prints lines and unreached functions per package.

Reads source files and the committed JSON only: nothing is imported.
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
REACH = ROOT / "benchmarks" / "reach" / "REACH.json"

KEPT_FOR = {
    # -- Decoders and refusals of input from outside the program, and their
    # encoders: the simulator hands peers objects, so no driver decodes bytes.
    "codec.py:Framed._read": "decoder: a framed type's symbol table, then its body",
    "codec.py:Reader.frame": "decoder: symbol tables (duplicate, unused, out-of-order refused)",
    "codec.py:Reader.frame.<locals>.symbol": "decoder: one symbol reference, range-checked",
    "codec.py:Reader.proof": "decoder: a Merkle path inside a witness response",
    "codec.py:Reader.str": "decoder: UTF-8 refusal for symbol tables and span origins",
    "codec.py:Reader.svarint": "decoder: zig-zag counter deltas",
    "codec.py:Wire._read": "the decoder every Wire type declares (`from_bytes` calls it)",
    "codec.py:Wire._write": "the encoder every Wire type declares (`to_bytes` calls it)",
    "codec.py:Wire.decode": "decoder entry point: one value at an offset",
    "core/wire.py:decode_message": "decoder: a Waku message with its RLN bundle off the wire",
    "core/wire.py:encode_message": "encoder of `decode_message`",
    "core/messages.py:RateLimitProof._read": "decode_message's proof section",
    "crypto/commitments.py:open_or_raise": (
        "refusal: a revealed opening that does not match its commitment"
    ),
    "crypto/field.py:FieldElement.__setattr__": "refusal: a field element is immutable",
    "crypto/field.py:FieldElement.from_bytes": "decoder: encodings longer than 32 bytes refused",
    "crypto/identity.py:Identity.__post_init__": (
        "refusal: a commitment that does not match its secret key"
    ),
    "crypto/merkle.py:verify_proof": (
        "refusal: an authentication path that does not open to the root"
    ),
    "telemetry/disttrace.py:SpanContext._read": "decoder: a span context off the wire",
    "telemetry/disttrace.py:SpanContext._write": "encoder of `SpanContext._read`",
    "telemetry/disttrace.py:SpanRecord._read_body": (
        "decoder: span flags, local roots and repeated stamps checked"
    ),
    "telemetry/export.py:TelemetrySnapshot.from_json": (
        "decoder: a snapshot JSON artefact (CI uploads them)"
    ),
    "telemetry/otlp.py:CounterDelta._read_value": "decoder: a counter delta",
    "telemetry/otlp.py:ExportAck._read": "decoder: an export acknowledgement",
    "telemetry/otlp.py:ExportAck._write": "encoder of `ExportAck._read` (billed by its fixed size)",
    "telemetry/otlp.py:ExportRequest._read": "decoder: an export request",
    "telemetry/otlp.py:ExportRequest._write": (
        "encoder of `ExportRequest._read` (billed from its batch's size)"
    ),
    "telemetry/otlp.py:GaugeValue._read_value": "decoder: a gauge value",
    "telemetry/otlp.py:Heartbeat._read": "decoder: an idle peer's liveness frame",
    "telemetry/otlp.py:HistogramDelta._read_value": (
        "decoder: non-finite or decreasing bounds, bucket overflow refused"
    ),
    "telemetry/otlp.py:TelemetryBatch._read_body": "decoder: a telemetry batch",
    "telemetry/otlp.py:_Metric._read_body": "decoder: one metric delta in a batch",
    "telemetry/otlp.py:_read_number": "decoder: integer/float metric values",
    "treesync/messages.py:ShardUpdate._read": "decoder: a shard update announcement",
    "witness/messages.py:SnapshotRequest._read": "decoder: a snapshot request",
    "witness/messages.py:SnapshotResponse._read": "decoder: a snapshot response",
    "witness/messages.py:WitnessRequest._read": "decoder: a witness request",
    "witness/messages.py:WitnessResponse._read": "decoder: a witness response",
    "zksnark/groth16.py:Groth16.verify_or_raise": "refusal: a proof that fails verification",
    "zksnark/groth16.py:Proof.deserialize": "decoder: a proof of the wrong length refused",
    # -- Reference implementations tests compare against.
    "chain/blockchain.py:Blockchain.total_supply": (
        "reference: the conservation invariant test_chain_stateful checks"
    ),
    "core/membership.py:GroupManager.assert_synced": (
        "reference: the bulk rebuild a replica's replayed root is checked against"
    ),
    "core/membership.py:GroupManager.recent_roots": (
        "reference: the root window as a list, the oracle of test_root_window_properties"
    ),
    "telemetry/export.py:TelemetrySnapshot.__eq__": (
        "reference: snapshot equality the merge tests compare with"
    ),
    "zksnark/r1cs.py:ConstraintSystem.is_satisfied": (
        "reference: the boolean twin of check_satisfied the circuit tests compare"
    ),
    # -- Paths src/ calls that no driver provokes.
    "chain/rln_contract.py:RLNMembershipContract.call_claim_withdrawal": (
        "contract entry point dispatched by name: §IV-B delayed-withdrawal payout"
    ),
    "core/protocol.py:WakuRLNRelayPeer._on_shed": (
        "a bundle the token buckets shed: un-witness its id, penalise a forwarder's overflow"
    ),
    "gossipsub/msgtable.py:MessageTable._expire": "an id witnessed SEEN_TTL (120 s) ago expires",
    "gossipsub/router.py:GossipSubRouter._shrink_mesh": "heartbeat: a mesh grafted past d_hi",
    "gossipsub/router.py:GossipSubRouter.forget_seen": "_on_shed: a rate-limited receipt un-witnesses its id",
    "net/request.py:RequestDispatcher.request.<locals>.attempt.<locals>.on_timeout": (
        "a request timeout"
    ),
    "revocation/coordinator.py:RevocationCase.chain_latency": (
        "RevocationTracker.summary of a settled case"
    ),
    "treesync/sync.py:ShardSyncManager.sync_from_store.<locals>.seq_floor_reached.<locals>.check": (
        "store backfill reaching the sequence floor"
    ),
    "treesync/sync.py:ShardSyncManager.sync_from_store.<locals>.store_failed": (
        "a store node that never answers"
    ),
    "witness/member.py:LightMember.publish.<locals>.failed": (
        "a light member's witness fetch that exhausts every provider"
    ),
    # -- Interface declarations src/ calls through (a Protocol or a base class
    # whose every subclass overrides the method).
    "core/validator.py:RootAcceptor.is_acceptable_root": (
        "the RootAcceptor protocol the validator and witness client call"
    ),
    "net/latency.py:LatencyModel.sample": "the latency protocol Network.send calls",
    "net/latency.py:LatencyModel.worst_case": "the latency protocol dissemination_bound calls",
    "zksnark/groth16.py:RLNProver._check_statement": "base-class declaration prove() calls",
    # -- The disabled hub (telemetry off): readings no driver takes while off.
    "telemetry/disttrace.py:Disabled._empty": (
        "empty readings while off: metrics, collect, finished_since"
    ),
    "telemetry/disttrace.py:Disabled.snapshot": "the empty snapshot while off",
    # -- Operator, container and copy protocol of value types: what a test's
    # ==, len(), copy, pickle or failing assertion calls.
    "codec.py:Record.__eq__": "operator protocol: a test's == on records (one kind's only)",
    "codec.py:Record.__ne__": "operator protocol: a test's != on records of two kinds",
    "crypto/field.py:FieldElement.__hash__": "hash protocol: a field element in a test's set or dict",
    "crypto/field.py:FieldElement.__index__": (
        "operator protocol: a field element as a sequence index"
    ),
    "crypto/field.py:FieldElement.__neg__": "operator protocol: unary minus of the field type",
    "crypto/field.py:FieldElement.__repr__": "repr: what a failing assertion prints",
    "crypto/field.py:FieldElement.__rsub__": "operator protocol: int - field element",
    "crypto/field.py:FieldElement.__rtruediv__": "operator protocol: int / field element",
    "telemetry/disttrace.py:SpanRecord.__getnewargs__": (
        "copy/pickle of a tuple record: rebuilt from its marks"
    ),
    "telemetry/disttrace.py:SpanRecord.marks": (
        "the (stage, time) trail __getnewargs__ rebuilds a span from"
    ),
    "zksnark/r1cs.py:LinearCombination.__len__": (
        "container protocol: terms in a linear combination"
    ),
    "zksnark/r1cs.py:LinearCombination.__repr__": "repr: what a failing assertion prints",
    "zksnark/r1cs.py:LinearCombination.__rsub__": (
        "operator protocol: constant - linear combination"
    ),
    # -- Tested only: read-outs and hooks of live classes (counts, event logs,
    # fault injection) that only the tests named call.  A row goes when a
    # driver reaches it or those tests observe the class another way.
    "chain/blockchain.py:Blockchain.events": (
        "event-log query: test_blockchain, test_rln_contract, test_anonymity (9 tests)"
    ),
    "core/membership.py:GroupManager.member_count": (
        "member counts: test_membership, test_figure2_registration"
    ),
    "core/validator.py:ValidatorStats.outcomes": (
        "per-outcome counts: 11 tests, relay golden included"
    ),
    "crypto/merkle.py:MerkleTree.leaves": (
        "replica comparisons: test_merkle_properties, test_treesync_forest"
    ),
    "crypto/merkle.py:MerkleTree.member_count": (
        "occupied leaves: test_merkle, test_treesync_forest"
    ),
    "crypto/merkle.py:MerkleTree.update": (
        "in-place leaf overwrite: test_merkle, test_treesync_forest"
    ),
    "net/clock.py:DriftModel.asynchrony_bound": (
        "test_net_models.TestClock (1 test): §III-F ClockAsynchrony"
    ),
    "net/request.py:PendingRequest.failed": "test_request_clients, test_net_request harnesses",
    "net/simulator.py:EventHandle.cancelled": "test_simulator.TestCancellation (3 tests)",
    "net/simulator.py:Simulator.pending_events": "queue depth: 10 tests",
    "net/transport.py:Network.disconnect": (
        "fault injection: test_failure_injection, test_router_edge_cases, test_transport (5 tests)"
    ),
    "offchain/group_registry.py:DistributedGroupManager.member_count": (
        "test_group_registry, test_offchain_group"
    ),
    "telemetry/alerts.py:RuleEngine.state": "rule state: test_alerts, test_alert_properties",
    "telemetry/alerts.py:StateIndex.of": (
        "a standalone engine's states: test_alerts*, the collector-sampling twin"
    ),
    "telemetry/alerts.py:RuleEngine.value": "rule value: test_alerts, test_alert_properties",
    "telemetry/disttrace.py:TraceAssembler.spans": (
        "test_disttrace, test_otlp, test_revocation_network"
    ),
    "treesync/forest.py:ShardedMerkleForest.peer_storage_bytes": "test_treesync_forest (1 test)",
    "treesync/sync.py:ShardSyncManager.witness": (
        "home-shard witnesses: test_treesync_sync, test_witness_network (5 tests)"
    ),
    "waku/filter.py:FilterClient.unsubscribe": "test_waku.TestFilter (2 tests)",
}

BUDGET = {
    "analysis": 228,
    "baselines": 383,
    "chain": 975,
    "core": 1930,
    "crypto": 1784,
    "exec": 431,
    "gossipsub": 1230,
    "net": 977,
    "offchain": 609,
    "pipeline": 1082,
    "repro": 657,
    "revocation": 450,
    "telemetry": 3633,
    "treesync": 1265,
    "waku": 859,
    "witness": 1001,
    "zksnark": 1389,
}


def functions() -> dict[str, set[str]]:
    """Per module (path under ``src/repro``): qualnames, as collect.py names them."""
    table: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        names: set[str] = set()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(prefix + child.name)
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
        table[path.relative_to(SRC).as_posix()] = names
    return table


def reach() -> dict:
    return json.loads(REACH.read_text())


def unreached() -> set[str]:
    reached = reach()["reached"]
    return {
        f"{module}:{name}"
        for module, names in functions().items()
        for name in names - set(reached.get(f"repro/{module}", ()))
    }


def package_lines() -> dict[str, int]:
    lines: dict[str, int] = {}
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).parts
        package = parts[0] if len(parts) > 1 else "repro"
        lines[package] = lines.get(package, 0) + len(path.read_text().splitlines())
    return lines


def test_every_driver_exited_cleanly():
    failed = [d for d in reach()["drivers"] if d["exit"] != 0]
    assert not failed, (
        f"{failed}: a failed driver under-reports what it reaches and would "
        "point at live code as dead; fix it and rerun benchmarks/reach/collect.py"
    )


def test_every_unreached_function_is_kept_for_a_reason():
    unlisted = sorted(unreached() - set(KEPT_FOR))
    assert not unlisted, (
        f"{unlisted}: no workload, example or CI benchmark calls these. "
        "Delete them, or add a KEPT_FOR row saying why they stay."
    )


def test_kept_for_names_only_unreached_functions():
    defined = {f"{module}:{name}" for module, names in functions().items() for name in names}
    gone = sorted(set(KEPT_FOR) - defined)
    reached = sorted(set(KEPT_FOR) & defined - unreached())
    assert not gone and not reached, (
        f"stale KEPT_FOR rows: {gone} no longer exist, {reached} are now "
        "reached by a driver; drop the rows"
    )


def test_every_package_stays_within_its_line_budget():
    lines = package_lines()
    over = {p: f"{n} > {BUDGET.get(p, 0)}" for p, n in lines.items() if n > BUDGET.get(p, 0)}
    assert not over, (
        f"{over}: these packages outgrew their line budget. Make room in "
        "the package, or raise its BUDGET row in the same diff."
    )
    under = {p: f"{n} < {BUDGET[p]}" for p, n in lines.items() if n < BUDGET.get(p, 0)}
    assert not under, (
        f"{under}: these packages shrank. Lower their BUDGET rows to the "
        "new counts in the same diff, so the shrink is locked in."
    )
    assert set(BUDGET) <= set(lines), sorted(set(BUDGET) - set(lines))


if __name__ == "__main__":
    lines, missed = package_lines(), unreached()
    for package in sorted(lines):
        count = sum(
            1 for key in missed if (key.split("/")[0] if "/" in key else "repro") == package
        )
        print(f"{package}: {lines[package]} lines (budget {BUDGET[package]}), {count} unreached")
