"""Smoke test of the benchmark itself (8 peers, 3 rounds; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import catalogue, compare, harness, run, trace  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in CONTRACT[section]]


def test_benchmark_json_is_the_catalogue() -> None:
    assert CONTRACT == catalogue.benchmark_json()
    assert catalogue.markdown() in (ROOT / "benchmarks/e2e/README.md").read_text()
    assert set(_names("workloads")) == set(WORKLOADS)
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in _names("end_to_end")


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory) -> pathlib.Path:
    """A directory the whole suite has written ``BENCH_smoke.json`` and its spans to."""
    out = tmp_path_factory.mktemp("e2e") / "BENCH_smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--seed", "11", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out.parent


@pytest.fixture(scope="module")
def smoke_ledger(smoke_dir: pathlib.Path) -> dict:
    return json.loads((smoke_dir / "BENCH_smoke.json").read_text())


def test_ledger_and_contract_name_the_same_things(smoke_ledger: dict) -> None:
    assert list(smoke_ledger["workloads"]) == _names("workloads")
    for entry in smoke_ledger["workloads"].values():
        assert list(entry["end_to_end"]) == _names("end_to_end")
        assert list(entry["per_layer"]) == _names("per_layer")
        assert all(v["value"] != 0 for v in entry["end_to_end"].values())


def test_gates_pass_and_untraced_run_is_bare(smoke_ledger: dict) -> None:
    for name, entry in smoke_ledger["workloads"].items():
        assert entry["ops_attempted"] > 0 and entry["ops_failed"] == 0, name
        assert entry["wrappers_installed_untraced"] == 0, name
        assert entry["missing_seams"] == [], name
        assert entry["trace_overhead_ratio"] > 0, name
        assert entry["per_layer"]["harness.attributed_share"]["value"] >= 0.9, name


def test_every_traced_run_writes_its_spans(smoke_dir: pathlib.Path) -> None:
    for name in WORKLOADS:
        spans = json.loads((smoke_dir / f"TRACE_smoke_{name}.json").read_text())
        kind, start, end, parent = (spans[c] for c in ("kind", "start", "end", "parent"))
        assert len(kind) == len(start) == len(end) == len(parent) > 0
        # Self time rebuilt from the columns is what the metrics were built from.
        self_s = [0.0] * len(spans["kinds"])
        for index, parent_index in enumerate(parent):
            duration = end[index] - start[index]
            assert duration >= 0 and -1 <= parent_index < index
            self_s[kind[index]] += duration
            if parent_index >= 0:
                self_s[kind[parent_index]] -= duration
        assert self_s == pytest.approx(spans["self_s"], abs=1e-6), name


def test_compare_judges_ledgers_of_one_seed(smoke_ledger: dict) -> None:
    rows, problems = compare.compare(smoke_ledger, smoke_ledger, exact=True)
    assert problems == [] and {row[-1] for row in rows} <= {"same", "unresolved"}
    assert len(rows) >= len(WORKLOADS) * len(catalogue.END_TO_END)

    other = copy.deepcopy(smoke_ledger)
    honest, spam = other["workloads"]["honest_steady"], other["workloads"]["spam_flood"]
    honest["end_to_end"]["bytes_per_delivery"]["value"] += 1  # exact for a seed
    honest["end_to_end"]["bundles_per_s"]["value"] *= 0.8
    spam["per_layer"]["spam_exclusion_sim_s"]["value"] = None
    del spam["end_to_end"]["setup_s"]
    other["workloads"]["light_publish"] = other["workloads"].pop("production_fleet")
    rows, problems = compare.compare(smoke_ledger, other)
    verdicts = {(row[0], row[1]): row[-1] for row in rows}
    assert verdicts["honest_steady", "bytes_per_delivery"] == "worse"
    assert verdicts["honest_steady", "bundles_per_s"] in ("worse", "unresolved")
    assert verdicts["spam_flood", "spam_exclusion_sim_s"] == "unresolved"
    assert verdicts["spam_flood", "setup_s"] == "missing"
    assert verdicts["production_fleet", "*"] == verdicts["light_publish", "*"] == "missing"
    assert any("light_publish: missing from A" in p for p in problems)
    assert "null" in compare.render(rows)

    other = copy.deepcopy(smoke_ledger)
    other["seed"] += 1
    assert compare.compare(smoke_ledger, other) == ([], ["ledgers differ in seed: 11 != 12"])


def test_contract_line_and_seed_sensitivity(smoke_ledger: dict, tmp_path) -> None:
    record_path = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--workload", "spam_flood",
         "--seed", "12", "--seconds", "1", "--trace", "0", "--smoke",
         "--json-out", str(record_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == _names("end_to_end")
    record = json.loads(record_path.read_text())
    baseline = smoke_ledger["workloads"]["spam_flood"]["sim_fingerprint"]
    assert record["sim_fingerprint"] != baseline


def test_a_missing_seam_reads_null(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    gone = trace.Seam("repro.crypto.merkle", "MerkleTree", "no_such_method", "crypto.merkle",
                      lambda tracer, original: original)
    monkeypatch.setattr(trace, "SEAMS", [*trace.SEAMS, gone])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = harness.execute(
            WORKLOADS["honest_steady"], seed=3, seconds=1, sizes=harness.SMOKE,
            trace_out=tmp_path / "spans.json",
        )
    assert any("no_such_method" in str(w.message) for w in caught)
    assert result["missing_seams"] == [gone.name]
    assert result["per_layer"]["merkle.self_s"] is None
    assert result["per_layer"]["merkle.proofs"] is None
    assert result["per_layer"]["gossipsub.self_s"] > 0
    line = run.contract_line(result, catalogue.PER_LAYER)
    assert line["metrics"]["merkle.self_s"] == {"value": None, "unit": "s"}
    assert '"merkle.self_s": {"value": null' in json.dumps(line)
    assert result["ops_failed"] == 0
    assert trace.installed_wrappers() == []
