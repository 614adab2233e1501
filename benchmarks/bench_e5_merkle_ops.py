"""E5 — Merkle tree computation overhead.

§IV-A names this the paper's own missing benchmark: "We would like to
evaluate the running time associated with the Merkle tree operations.
... the concrete benchmarking result in this regard is not available."
This module supplies it: build, insert, delete, authentication-path
generation, and root access at depth 20 across group sizes.
"""

import time

import pytest

from repro.analysis.reporting import ExperimentReport, format_seconds
from repro.crypto.engine import default_engine
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleTree

DEPTH = 20
GROUP_SIZES = (2**8, 2**10, 2**12)


def build_tree(members: int) -> MerkleTree:
    tree = MerkleTree(depth=DEPTH)
    for i in range(members):
        tree.append(FieldElement(i + 1))
    return tree


@pytest.fixture(scope="module")
def trees():
    return {size: build_tree(size) for size in GROUP_SIZES}


@pytest.mark.parametrize("members", GROUP_SIZES)
def test_insert_one_member(benchmark, trees, members):
    tree = trees[members]

    def insert_and_delete():
        index = tree.insert(FieldElement(10**9 + 7))
        tree.delete(index)

    benchmark(insert_and_delete)


@pytest.mark.parametrize("members", GROUP_SIZES)
def test_auth_path_generation(benchmark, trees, members):
    tree = trees[members]
    proof = benchmark(lambda: tree.proof(members // 2))
    assert proof.verify(tree.root)


def test_proof_verification(benchmark, trees):
    tree = trees[GROUP_SIZES[0]]
    proof = tree.proof(7)
    root = tree.root
    assert benchmark(lambda: proof.verify(root))


def test_merkle_ops_table(trees, report_sink, benchmark):
    report = ExperimentReport(
        experiment="E5",
        claim="Merkle operation running times (the §IV-A future-work benchmark)",
        headers=("members", "insert", "delete", "auth path", "path verify"),
    )

    repeats = 20

    def timed(fn):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats

    stats = default_engine().stats

    for members, tree in trees.items():
        insert_times = []
        delete_times = []
        for probe in range(5):
            start = time.perf_counter()
            index = tree.insert(FieldElement(10**12 + probe))
            insert_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            tree.delete(index)
            delete_times.append(time.perf_counter() - start)
        proof = tree.proof(members // 2)
        root = tree.root
        computed = stats.hashes
        verify_seconds = timed(lambda: proof.verify(root))
        # The checker's figure is real work: every timed fold computed all
        # DEPTH levels (a remembered root or a memo hit would leave the
        # engine's physical count behind).
        assert stats.hashes - computed == repeats * DEPTH
        report.add_row(
            members,
            format_seconds(sum(insert_times) / len(insert_times)),
            format_seconds(sum(delete_times) / len(delete_times)),
            format_seconds(timed(lambda: tree.proof(members // 2))),
            format_seconds(verify_seconds),
        )
    report.add_note(
        "all ops are O(depth) Poseidon calls; flat across group size at fixed depth 20"
    )
    report_sink(report)
    tree = trees[GROUP_SIZES[0]]
    benchmark(lambda: tree.proof(3))
