"""The Poseidon engine — the wall-clock crypto hot path.

The simulated cost model (:mod:`repro.exec.costs`) prices pairings honestly,
but every *wall-clock* figure — the end-to-end benchmark, the E1/E5/E12
benchmarks, prover witness generation — pays for Poseidon in the
interpreter, and the reference :func:`~repro.crypto.poseidon.poseidon_permutation`
allocates hundreds of :class:`~repro.crypto.field.FieldElement` objects
per call (t lanes × ~64 rounds × add/S-box/MDS).  :class:`PoseidonEngine`
removes that overhead without touching a single emitted bit: the
permutation fully unrolled over plain python ints, a code-generated
straight-line function per width with the round constants and matrix
coefficients embedded as literals, the S-box as a single
``pow(x, 5, p)`` call, lazy modular reduction (constant additions ride
unreduced into the next reduction; one ``%`` per matrix output lane), and
the partial-round segment rewritten through the Poseidon paper's
sparse-matrix factorisation (Appendix B): each partial round costs one
S-box plus ``2t-1`` multiplications instead of the dense ``t²`` MDS
product.  The factorisation is an *exact* algebraic identity — each
compiled width is self-checked against the reference permutation before
first use — so outputs stay bit-for-bit equal.  No lists, no
``FieldElement``s: the only allocations are the integers themselves and
the caller-facing wrappers at the end.

:mod:`repro.crypto.poseidon` stays the one reference implementation: the
golden vectors in ``tests/unit/test_poseidon_vectors.py``, the hypothesis
suite and benchmark E18 hold the engine to it.  There is one engine per
process, :func:`default_engine`, behind every ``hasher=None`` seam.

The batched :meth:`PoseidonEngine.hash_many` amortises parameter-table
lookups; the Merkle layer (``MerkleTree.from_leaves``, shard rebuilds,
checkpoint replay) feeds whole levels through it via the existing
hasher-injection seam: the engine's :attr:`~PoseidonEngine.hash2` is a
plain function carrying an ``engine`` attribute, so tree code can detect
an engine-backed hasher and batch, while foreign hashers keep the seed's
per-node path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.poseidon import (
    PoseidonParams,
    poseidon_params,
    poseidon_permutation,
)
from repro.errors import CryptoError

_P = FIELD_MODULUS


def _to_int(value: FieldElement | int) -> int:
    if isinstance(value, FieldElement):
        return value.value
    return value % _P


@dataclass
class EngineStats:
    """Cumulative work counters (what :func:`publish_engine_telemetry`
    binds ``crypto_hashes_total`` / ``crypto_hash_seconds`` to).

    Plain attribute bumps — the whole process is one thread; telemetry
    only, never consulted for correctness.
    """

    hashes: int = 0
    seconds: float = 0.0


def _mat_mul(a: list, b) -> list:
    """``a @ b`` over the scalar field, plain ints."""
    n, m = len(a), len(b[0])
    inner = len(b)
    return [
        [sum(a[i][x] * b[x][j] for x in range(inner)) % _P for j in range(m)]
        for i in range(n)
    ]


def _mat_vec(a, v) -> list:
    return [sum(row[j] * v[j] for j in range(len(v))) % _P for row in a]


def _mat_inv(q) -> list:
    """Gauss-Jordan inverse mod p (tiny matrices, t-1 ≤ 8)."""
    n = len(q)
    aug = [
        [int(x) for x in row] + [1 if i == j else 0 for j in range(n)]
        for i, row in enumerate(q)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % _P), None)
        if piv is None:
            raise CryptoError("singular matrix in Poseidon partial-round factorisation")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], _P - 2, _P)
        aug[col] = [x * inv % _P for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % _P for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _factor_partial(t: int) -> tuple:
    """Sparse factorisation of the partial-round segment (Poseidon paper,
    Appendix B).

    Inside the partial segment only lane 0 passes through the S-box; lanes
    1..t-1 are affine across all R_P rounds.  Each round's MDS matrix splits
    as ``M = S·M'`` with ``M' = diag(1, Q)`` (dense only on the linear
    lanes) and ``S`` sparse (first row, first column, identity elsewhere).
    ``M'`` commutes with the lane-0 S-box, so iterating the split backwards
    folds every dense factor into one matrix applied *before* the segment,
    leaving one sparse matrix per partial round: ``2t-1`` multiplications
    instead of ``t²``.  Round constants fold the same way — lane-0
    constants materialise per stage, linear-lane constants accumulate into
    an offset vector that re-enters through the first post-segment round's
    constants.  The rewrite is an exact identity; :meth:`PoseidonEngine._compile`
    self-checks the generated code against ``poseidon_permutation``.

    Returns ``(rc, mds, m_pre, e_pre, stages, rc_adj, half_full, total)``
    where ``stages`` is one ``(s00, row_w, col, lane0_const)`` tuple per
    partial round, ``m_pre``/``e_pre`` replace the last pre-segment full
    round's MDS product, and ``rc_adj`` replaces the first post-segment
    round's constants.
    """
    params: PoseidonParams = poseidon_params(t)
    rc = tuple(tuple(c.value for c in row) for row in params.round_constants)
    mds = tuple(tuple(c.value for c in row) for row in params.mds)
    half = params.full_rounds // 2
    k = params.partial_rounds
    acc = [[1 if i == j else 0 for j in range(t)] for i in range(t)]
    offset = [0] * t
    stages_rev = []
    for i in range(k, 0, -1):
        crow = rc[half + i - 1]
        n = _mat_mul(acc, mds)
        q = [row[1:] for row in n[1:]]
        qinv = _mat_inv(q)
        w = [
            sum(n[0][1 + a] * qinv[a][b] for a in range(t - 1)) % _P
            for b in range(t - 1)
        ]
        col = [n[j][0] for j in range(1, t)]
        stages_rev.append((n[0][0], tuple(w), tuple(col), tuple(offset)))
        acc = [[1] + [0] * (t - 1)] + [[0] + list(qrow) for qrow in q]
        offset = [crow[0]] + _mat_vec(q, crow[1:])
    stages = []
    delta = [0] * t
    for s00, w, col, d in reversed(stages_rev):
        lane0_const = (d[0] + sum(wj * delta[j + 1] for j, wj in enumerate(w))) % _P
        stages.append((s00, w, col, lane0_const))
        for j in range(1, t):
            delta[j] = (delta[j] + d[j]) % _P
    m_pre = tuple(tuple(row) for row in _mat_mul(acc, mds))
    e_pre = tuple(offset)
    first_post = rc[half + k]
    rc_adj = (first_post[0],) + tuple(
        (first_post[j] + delta[j]) % _P for j in range(1, t)
    )
    return rc, mds, m_pre, e_pre, stages, rc_adj, half, params.total_rounds


def _emit_source(t: int, name: str) -> str:
    """Generate the fully unrolled ``t-1``-input sponge compressor.

    Every round constant and matrix coefficient is embedded as a literal.
    S-boxes are single ``pow(x, 5, p)`` calls (CPython's modular pow beats
    an explicit square-square-multiply chain here): each round's constant
    additions are merged (numerically, mod p) into the previous round's
    matrix-output reductions, so apart from round 0 no statement exists
    just to add a constant, and each lane takes exactly one ``%`` per
    round.

    Lane 0's input is the sponge's capacity/arity lane, the constant
    ``t-1``: the function takes the other ``t-1`` lanes and the whole
    first-round lane-0 S-box is constant-folded at generation time.  Only
    output lane 0 is computed in the last round (the sponge discards the
    rest) and it is returned bare.
    """
    capacity = t - 1
    rc, mds, m_pre, e_pre, stages, rc_adj, half, total = _factor_partial(t)
    args = ", ".join(f"s{i}" for i in range(1, t))
    lines = [f"def {name}({args}, p, pw=pow):"]
    emit = lines.append
    cur = [f"s{i}" for i in range(t)]
    k = len(stages)

    def next_const(r: int):
        """Constants the round after ``r`` needs added to round ``r``'s
        matrix output (merged into the same reduction)."""
        if r == half - 1:
            return e_pre  # segment entry: the factorisation's own constants
        if r == total - 1:
            return None
        nxt = rc_adj if r + 1 == half + k else rc[r + 1]
        return nxt

    def full_round(prefix: str, r: int, mat) -> None:
        nonlocal cur
        fold0 = None
        for i in range(t):
            if r == 0:
                if i == 0:
                    # Lane 0 is the constant capacity lane: the whole
                    # first-round S-box evaluates at generation time.
                    x = (capacity + rc[0][0]) % _P
                    fold0 = pow(x, 5, _P)
                    continue
                emit(f"    a{i} = pw({cur[i]} + {rc[0][i]}, 5, p)")
            else:
                emit(f"    a{i} = pw({cur[i]}, 5, p)")
        extra = next_const(r)
        rows = 1 if r == total - 1 else t
        new = [f"{prefix}{r}_{i}" for i in range(t)]
        for i in range(rows):
            jlo = 0
            const = 0 if extra is None else extra[i]
            if fold0 is not None:
                const = (const + mat[i][0] * fold0) % _P
                jlo = 1
            terms = [f"{mat[i][j]} * a{j}" for j in range(jlo, t)]
            if const:
                terms.append(repr(const))
            emit(f"    {new[i]} = ({' + '.join(terms)}) % p")
        cur = new

    for r in range(half):
        full_round("f", r, m_pre if r == half - 1 else mds)
    for si, (s00, w, col, lane0_const) in enumerate(stages):
        emit(f"    v = pw({cur[0]}, 5, p)")
        # The last stage's outputs feed the first post-segment round:
        # fold that round's (adjusted) constants in here.
        post = rc_adj if si == k - 1 else None
        new = [f"g{si}_{i}" for i in range(t)]
        terms = [f"{s00} * v"]
        terms += [f"{w[j]} * {cur[j + 1]}" for j in range(t - 1)]
        c0 = (lane0_const + (post[0] if post else 0)) % _P
        if c0:
            terms.append(repr(c0))
        emit(f"    {new[0]} = ({' + '.join(terms)}) % p")
        for j in range(1, t):
            # Linear lanes ride unreduced across the whole segment (every
            # use is linear, so congruence mod p is preserved; magnitudes
            # stay ~k·p², well inside cheap big-int range) and take one
            # ``%`` at segment exit.
            cj = post[j] if post else 0
            tail = f" + {cj}" if cj else ""
            if si == k - 1:
                emit(f"    {new[j]} = ({col[j - 1]} * v + {cur[j]}{tail}) % p")
            else:
                emit(f"    {new[j]} = {col[j - 1]} * v + {cur[j]}{tail}")
        cur = new
    for r in range(half + k, total):
        full_round("h", r, mds)
    emit(f"    return {cur[0]}")
    return "\n".join(lines)


class PoseidonEngine:
    """Plain-int Poseidon, code-generated per width.

    :func:`_emit_source` unrolls the whole permutation into one
    straight-line function — literal constants, inline S-box chains, lazy
    reduction, sparse partial rounds — which ``exec`` compiles once per
    width and :meth:`_compile` verifies against the reference oracle
    before first use.  No lists, no per-round allocation, no
    ``FieldElement`` until the caller-facing wrappers at the end.

    ``hash``/``hash2`` mirror the reference module's signatures and
    return :class:`FieldElement` so the engine slots straight into the
    hasher-injection seam; ``hash_many`` is the batched entry point the
    tree builders drive whole levels through.
    """

    def __init__(self) -> None:
        self.stats = EngineStats()
        #: Per-width integer tables: t -> (rc, mds, half_full, total).
        self._tables: dict[int, tuple] = {}
        #: Per-width compiled straight-line permutations.
        self._compiled: dict[int, Callable] = {}
        stats = self.stats
        compiled = self._compiled

        def hash2(left: FieldElement | int, right: FieldElement | int) -> FieldElement:
            start = time.perf_counter()
            fn = compiled.get(3)
            if fn is None:
                fn = self._compile(3)
            digest = FieldElement(fn(_to_int(left), _to_int(right), _P))
            stats.hashes += 1
            stats.seconds += time.perf_counter() - start
            return digest

        # A stable plain-function handle (never a rebound method) so
        # ``zero_hashes``' module cache and ``lru_cache`` users key on one
        # object; the attribute lets tree code find the engine behind an
        # injected hasher and switch to the batched API.
        hash2.engine = self  # type: ignore[attr-defined]
        self.hash2: Callable[[FieldElement | int, FieldElement | int], FieldElement] = hash2

    # -- integration hooks --------------------------------------------------

    def int_params(self, t: int) -> tuple:
        """The ``(round_constants, mds, half_full, total)`` integer tables
        of width ``t``.  The zkSNARK gadgets use these to generate Poseidon
        witness values without evaluating symbolic linear combinations."""
        tables = self._tables.get(t)
        if tables is None:
            params: PoseidonParams = poseidon_params(t)
            tables = self._tables[t] = (
                tuple(tuple(c.value for c in row) for row in params.round_constants),
                tuple(tuple(c.value for c in row) for row in params.mds),
                params.full_rounds // 2,
                params.total_rounds,
            )
        return tables

    # -- the hot loop -------------------------------------------------------

    def _compile(self, t: int) -> Callable:
        name = f"_poseidon_t{t}_c{t - 1}"
        src = _emit_source(t, name)
        namespace: dict = {}
        exec(  # noqa: S102 - compiling our own generated arithmetic
            compile(src, f"<poseidon-codegen t={t}>", "exec"),
            namespace,
        )
        fn = namespace[name]
        # One-time oracle check: the sparse factorisation is an algebraic
        # identity, but never trust a rewrite — one reference permutation
        # per width pins the compiled code bit-for-bit before first use.
        probe = [t - 1] + [1337 + 7 * i for i in range(1, t)]
        expect = poseidon_permutation(
            [FieldElement(x) for x in probe], poseidon_params(t)
        )[0].value
        if fn(*probe[1:], _P) != expect:  # pragma: no cover - a codegen bug
            raise CryptoError(f"poseidon codegen self-check failed for t={t}")
        self._compiled[t] = fn
        return fn

    def _fixed(self, n: int) -> Callable:
        """The ``n``-input sponge compressor: width ``n+1``, capacity lane
        pinned to ``n``, only the output lane materialised."""
        fn = self._compiled.get(n + 1)
        if fn is None:
            fn = self._compile(n + 1)
        return fn

    def hash(self, inputs: Sequence[FieldElement | int]) -> FieldElement:
        n = len(inputs)
        if not 1 <= n <= 8:
            raise CryptoError(f"poseidon_hash supports 1..8 inputs, got {n}")
        start = time.perf_counter()
        fn = self._fixed(n)
        digest = FieldElement(fn(*(_to_int(x) for x in inputs), _P))
        self.stats.hashes += 1
        self.stats.seconds += time.perf_counter() - start
        return digest

    def hash_many(
        self, pairs: Sequence[tuple[FieldElement | int, FieldElement | int]]
    ) -> list[FieldElement]:
        """Two-to-one compress every pair; one table lookup total."""
        start = time.perf_counter()
        fn = self._fixed(2)
        out = [FieldElement(fn(_to_int(l), _to_int(r), _P)) for l, r in pairs]
        self.stats.hashes += len(out)
        self.stats.seconds += time.perf_counter() - start
        return out


_ENGINE = PoseidonEngine()


def default_engine() -> PoseidonEngine:
    """The process's one engine, behind every ``hasher=None`` seam."""
    return _ENGINE


# ``use_backend`` and ``engine_stats`` stay only because ``benchmarks/e2e``
# imports them; "int" is the one name they accept.  That harness drops them
# in a ``benchmark`` PR, which may then delete both.


@contextmanager
def use_backend(backend: str) -> Iterator[PoseidonEngine]:
    """Yield the engine; ``"int"`` is the only backend."""
    if backend != "int":
        raise CryptoError(f"unknown crypto backend {backend!r}; the one engine is 'int'")
    yield _ENGINE


def engine_stats() -> dict[str, EngineStats]:
    """The engine's stats under its one name, ``"int"``."""
    return {"int": _ENGINE.stats}


def publish_engine_telemetry(registry) -> None:
    """Bind the engine's work counters into a metrics registry.

    Binds ``crypto_hashes_total`` and ``crypto_hash_seconds`` to
    :class:`EngineStats`, so benchmark snapshots (E16/E18) expose the hot
    path without the engine holding per-peer registry handles — the
    engine is process-global, so per-peer *export* attribution would
    multi-count; bind only into report-time registries.
    """
    stats = _ENGINE.stats
    registry.bind("crypto_hashes_total", lambda: stats.hashes)
    registry.bind("crypto_hash_seconds", lambda: stats.seconds)
