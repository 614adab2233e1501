"""Batched, allocation-free Poseidon engines — the wall-clock crypto hot path.

The simulated cost model (:mod:`repro.exec.costs`) prices pairings honestly,
but every *wall-clock* figure — the end-to-end benchmark, the E1/E5/E12
benchmarks, prover witness generation — pays pure-python Poseidon
where each ``poseidon_permutation`` call allocates hundreds of
:class:`~repro.crypto.field.FieldElement` objects (t lanes × ~64 rounds ×
add/S-box/MDS).  This module removes that interpreter overhead without
touching a single emitted bit:

* :class:`ReferenceEngine` — today's ``FieldElement`` code, unchanged, for
  baselines and as the bit-identity oracle;
* :class:`IntEngine` — the permutation fully unrolled over plain python
  ints: a code-generated straight-line function per width with the round
  constants and matrix coefficients embedded as literals, the S-box as a
  single ``pow(x, 5, p)`` call, lazy modular reduction (constant
  additions ride unreduced into the next reduction; one ``%`` per matrix
  output lane), and the partial-round segment rewritten through the
  Poseidon paper's sparse-matrix factorisation (Appendix B): each partial
  round costs one S-box plus ``2t-1`` multiplications instead of the
  dense ``t²`` MDS product.  The factorisation is an *exact* algebraic
  identity — the tables are self-checked against the reference
  permutation at build time — so outputs stay bit-for-bit equal.  No
  lists, no ``FieldElement``s: the only allocations are the integers
  themselves and the caller-facing wrappers at the end;
* :class:`Gmpy2Engine` — the same schedule over ``gmpy2.mpz`` limbs,
  auto-detected and optional (the container may not ship gmpy2; nothing
  here imports it unconditionally).

Every engine produces **bit-identical digests** (pinned by the golden
vectors in ``tests/unit/test_poseidon_vectors.py`` and the hypothesis
equivalence suite), so backends are freely interchangeable mid-deployment.

Selection: ``REPRO_CRYPTO_BACKEND`` (``reference`` / ``int`` / ``gmpy2`` /
``auto``) or an explicit :func:`get_engine` call; ``auto`` (the default)
picks gmpy2 when importable, else the int engine.  :func:`use_backend`
overrides the default for a scope — the per-backend arms of benchmark E18
and the equivalence tests run under it.

The batched :meth:`PoseidonEngine.hash_many` amortises parameter-table
lookups; the Merkle layer (``MerkleTree.from_leaves``, shard rebuilds,
checkpoint replay) feeds whole levels through it via the existing
hasher-injection seam: each engine's :attr:`~PoseidonEngine.hash2` is a
plain function carrying an ``engine`` attribute, so tree code can detect
an engine-backed hasher and batch, while foreign hashers keep the seed's
per-node path.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.poseidon import (
    PoseidonParams,
    poseidon_hash,
    poseidon_params,
    poseidon_permutation,
)
from repro.errors import CryptoError

#: Environment variable naming the default backend.
ENV_BACKEND = "REPRO_CRYPTO_BACKEND"

try:  # pragma: no cover - exercised only where gmpy2 is installed
    from gmpy2 import mpz as _mpz

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover
    _mpz = None
    HAVE_GMPY2 = False

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
    permutations: int = 0
    batched_calls: int = 0
    seconds: float = 0.0


class PoseidonEngine:
    """Common surface of every backend.

    ``hash``/``hash2`` mirror the reference module's signatures and
    return :class:`FieldElement` so engines slot straight into the
    hasher-injection seam; ``hash_many`` is the batched entry point the
    tree builders drive whole levels through.
    """

    backend = "abstract"

    def __init__(self) -> None:
        self.stats = EngineStats()
        # A stable plain-function handle (never a rebound method) so
        # ``zero_hashes``' module cache and ``lru_cache`` users key on one
        # object per engine; the attribute lets tree code find the engine
        # behind an injected hasher and switch to the batched API.
        hash2 = self._make_hash2()
        hash2.engine = self  # type: ignore[attr-defined]
        self.hash2: Callable[[FieldElement | int, FieldElement | int], FieldElement] = hash2

    # -- single-shot API ----------------------------------------------------

    def _make_hash2(self) -> Callable[..., FieldElement]:
        raise NotImplementedError

    def hash(self, inputs: Sequence[FieldElement | int]) -> FieldElement:
        raise NotImplementedError

    # -- batched API --------------------------------------------------------

    def hash_many(
        self, pairs: Sequence[tuple[FieldElement | int, FieldElement | int]]
    ) -> list[FieldElement]:
        """Two-to-one compress every pair; one parameter lookup total."""
        raise NotImplementedError

    # -- integration hooks --------------------------------------------------

    def int_params(self, t: int):
        """Backend-native ``(round_constants, mds, half_full, total)``
        integer tables, or ``None`` when the backend has no fast integer
        path (the reference engine).  The zkSNARK gadgets use these to
        generate Poseidon witness values without evaluating symbolic
        linear combinations."""
        return None


class ReferenceEngine(PoseidonEngine):
    """The seed implementation behind the engine surface — the oracle
    every other backend is pinned bit-identical to."""

    backend = "reference"

    def _make_hash2(self) -> Callable[..., FieldElement]:
        stats = self.stats

        def hash2(left: FieldElement | int, right: FieldElement | int) -> FieldElement:
            start = time.perf_counter()
            digest = poseidon_hash([FieldElement(left), FieldElement(right)])
            stats.hashes += 1
            stats.permutations += 1
            stats.seconds += time.perf_counter() - start
            return digest

        return hash2

    def hash(self, inputs: Sequence[FieldElement | int]) -> FieldElement:
        start = time.perf_counter()
        digest = poseidon_hash(inputs)
        self.stats.hashes += 1
        self.stats.permutations += 1
        self.stats.seconds += time.perf_counter() - start
        return digest

    def hash_many(
        self, pairs: Sequence[tuple[FieldElement | int, FieldElement | int]]
    ) -> list[FieldElement]:
        start = time.perf_counter()
        out = [poseidon_hash([FieldElement(l), FieldElement(r)]) for l, r in pairs]
        self.stats.hashes += len(out)
        self.stats.permutations += len(out)
        self.stats.batched_calls += 1
        self.stats.seconds += time.perf_counter() - start
        return out


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
    constants.  The rewrite is an exact identity; :meth:`IntEngine._compile`
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


def _emit_source(t: int, name: str, use_table: bool) -> tuple[str, list[int]]:
    """Generate the fully unrolled ``t-1``-input sponge compressor.

    Every round constant and matrix coefficient is embedded as a literal
    (or, for backends with a non-int native type, an index into a constant
    tuple ``K`` bound as a default argument).  S-boxes are single
    ``pow(x, 5, p)`` calls (CPython's modular pow beats an explicit
    square-square-multiply chain here): each round's constant additions
    are merged (numerically, mod p) into the previous round's
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
    consts: list[int] = []
    if use_table:
        def cr(v: int) -> str:
            consts.append(v)
            return f"K[{len(consts) - 1}]"
    else:
        cr = repr
    args = ", ".join(f"s{i}" for i in range(1, t))
    tail = ", p, K=_K, pw=pow):" if use_table else ", p, pw=pow):"
    lines = [f"def {name}({args}{tail}"]
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
                emit(f"    a{i} = pw({cur[i]} + {cr(rc[0][i])}, 5, p)")
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
            terms = [f"{cr(mat[i][j])} * a{j}" for j in range(jlo, t)]
            if const:
                terms.append(cr(const))
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
        terms = [f"{cr(s00)} * v"]
        terms += [f"{cr(w[j])} * {cur[j + 1]}" for j in range(t - 1)]
        c0 = (lane0_const + (post[0] if post else 0)) % _P
        if c0:
            terms.append(cr(c0))
        emit(f"    {new[0]} = ({' + '.join(terms)}) % p")
        for j in range(1, t):
            # Linear lanes ride unreduced across the whole segment (every
            # use is linear, so congruence mod p is preserved; magnitudes
            # stay ~k·p², well inside cheap big-int range) and take one
            # ``%`` at segment exit.
            cj = post[j] if post else 0
            tail = f" + {cr(cj)}" if cj else ""
            if si == k - 1:
                emit(f"    {new[j]} = ({cr(col[j - 1])} * v + {cur[j]}{tail}) % p")
            else:
                emit(f"    {new[j]} = {cr(col[j - 1])} * v + {cur[j]}{tail}")
        cur = new
    for r in range(half + k, total):
        full_round("h", r, mds)
    emit(f"    return {cur[0]}")
    return "\n".join(lines), consts


class IntEngine(PoseidonEngine):
    """Plain-int permutation, code-generated per width.

    :func:`_emit_source` unrolls the whole permutation into one
    straight-line function — literal constants, inline S-box chains, lazy
    reduction, sparse partial rounds — which ``exec`` compiles once per
    width and :meth:`_compile` verifies against the reference oracle
    before first use.  No lists, no per-round allocation, no
    ``FieldElement`` until the caller-facing wrappers at the end.
    """

    backend = "int"
    #: Whether generated code reads constants from a ``K`` tuple instead of
    #: literals (backends whose native int type isn't ``int``).
    _use_const_table = False

    def __init__(self) -> None:
        super().__init__()
        #: Per-width integer tables: t -> (rc, mds, half_full, total).
        self._tables: dict[int, tuple] = {}
        #: Per-width compiled straight-line permutations.
        self._compiled: dict[int, Callable] = {}
        self._pnative = self._convert(_P)

    # -- table management ---------------------------------------------------

    def _convert(self, value: int):
        """Backend-native integer type (overridden by the gmpy2 engine)."""
        return value

    def _load(self, t: int) -> tuple:
        tables = self._tables.get(t)
        if tables is None:
            params: PoseidonParams = poseidon_params(t)
            rc = tuple(
                tuple(self._convert(c.value) for c in row)
                for row in params.round_constants
            )
            mds = tuple(
                tuple(self._convert(c.value) for c in row) for row in params.mds
            )
            tables = self._tables[t] = (
                rc,
                mds,
                params.full_rounds // 2,
                params.total_rounds,
            )
        return tables

    def int_params(self, t: int):
        return self._load(t)

    # -- the hot loop -------------------------------------------------------

    def _compile(self, t: int) -> Callable:
        name = f"_poseidon_t{t}_c{t - 1}"
        src, consts = _emit_source(t, name, self._use_const_table)
        namespace: dict = {}
        if self._use_const_table:
            namespace["_K"] = tuple(self._convert(c) for c in consts)
        exec(  # noqa: S102 - compiling our own generated arithmetic
            compile(src, f"<poseidon-codegen t={t} backend={self.backend}>", "exec"),
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
        if int(fn(*probe[1:], self._pnative)) != expect:  # pragma: no cover - a codegen bug
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

    def _make_hash2(self) -> Callable[..., FieldElement]:
        stats = self.stats
        engine = self

        def hash2(left: FieldElement | int, right: FieldElement | int) -> FieldElement:
            start = time.perf_counter()
            fn = engine._compiled.get(3)
            if fn is None:
                fn = engine._compile(3)
            digest = FieldElement(
                int(fn(_to_int(left), _to_int(right), engine._pnative))
            )
            stats.hashes += 1
            stats.permutations += 1
            stats.seconds += time.perf_counter() - start
            return digest

        return hash2

    def hash(self, inputs: Sequence[FieldElement | int]) -> FieldElement:
        n = len(inputs)
        if not 1 <= n <= 8:
            raise CryptoError(f"poseidon_hash supports 1..8 inputs, got {n}")
        start = time.perf_counter()
        fn = self._fixed(n)
        digest = FieldElement(
            int(fn(*(_to_int(x) for x in inputs), self._pnative))
        )
        self.stats.hashes += 1
        self.stats.permutations += 1
        self.stats.seconds += time.perf_counter() - start
        return digest

    def hash_many(
        self, pairs: Sequence[tuple[FieldElement | int, FieldElement | int]]
    ) -> list[FieldElement]:
        start = time.perf_counter()
        fn = self._fixed(2)
        p = self._pnative
        out = [
            FieldElement(int(fn(_to_int(l), _to_int(r), p))) for l, r in pairs
        ]
        self.stats.hashes += len(out)
        self.stats.permutations += len(out)
        self.stats.batched_calls += 1
        self.stats.seconds += time.perf_counter() - start
        return out


class Gmpy2Engine(IntEngine):
    """mpz-backed variant: identical schedule, gmpy2 limb arithmetic."""

    backend = "gmpy2"
    _use_const_table = True

    def __init__(self) -> None:
        if not HAVE_GMPY2:
            raise CryptoError(
                "gmpy2 backend requested but gmpy2 is not installed "
                "(pip install 'waku-rln-relay-repro[fast]')"
            )
        super().__init__()

    def _convert(self, value: int):
        return _mpz(value)


_ENGINE_CLASSES: dict[str, type[PoseidonEngine]] = {
    "reference": ReferenceEngine,
    "int": IntEngine,
    "gmpy2": Gmpy2Engine,
}

_ENGINES: dict[str, PoseidonEngine] = {}

#: Explicit in-process override (``use_backend``); beats the env var.
_OVERRIDE: str | None = None


def available_backends() -> tuple[str, ...]:
    """Backends constructible in this interpreter."""
    names = ["reference", "int"]
    if HAVE_GMPY2:
        names.append("gmpy2")
    return tuple(names)


def _resolve(backend: str | None) -> str:
    if backend is None:
        backend = _OVERRIDE or os.environ.get(ENV_BACKEND, "").strip().lower() or "auto"
    backend = backend.lower()
    if backend == "auto":
        return "gmpy2" if HAVE_GMPY2 else "int"
    if backend not in _ENGINE_CLASSES:
        raise CryptoError(
            f"unknown crypto backend {backend!r}; expected one of "
            f"{sorted(_ENGINE_CLASSES)} or 'auto'"
        )
    return backend


def get_engine(backend: str | None = None) -> PoseidonEngine:
    """The process-wide engine for ``backend`` (singleton per backend).

    ``None`` resolves the default: a :func:`use_backend` override, then
    ``$REPRO_CRYPTO_BACKEND``, then ``auto`` (gmpy2 when available, else
    the int engine).
    """
    name = _resolve(backend)
    engine = _ENGINES.get(name)
    if engine is None:
        engine = _ENGINES[name] = _ENGINE_CLASSES[name]()
    return engine


def default_engine() -> PoseidonEngine:
    """The engine behind every ``hasher=None`` seam."""
    return get_engine(None)


@contextmanager
def use_backend(backend: str) -> Iterator[PoseidonEngine]:
    """Scope the default backend (benchmark arms, equivalence tests)."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = _resolve(backend)
    try:
        yield get_engine(None)
    finally:
        _OVERRIDE = previous


def engine_stats() -> dict[str, EngineStats]:
    """Stats of every engine instantiated so far, by backend name."""
    return {name: engine.stats for name, engine in _ENGINES.items()}


def publish_engine_telemetry(registry) -> None:
    """Bind engine work counters into a metrics registry.

    Binds ``crypto_hashes_total{backend=}``,
    ``crypto_permutations_total{backend=}`` and
    ``crypto_hash_seconds{backend=}`` to the :class:`EngineStats` of every
    engine that has done work, so benchmark snapshots (E16/E18) expose
    the hot path without the engines holding per-peer registry handles —
    engines are process-global, so per-peer *export* attribution would
    multi-count; bind only into report-time registries.
    """
    for name, engine in _ENGINES.items():
        stats = engine.stats
        if stats.permutations == 0:
            continue
        bind = partial(registry.bind, backend=name)
        bind("crypto_hashes_total", lambda stats=stats: stats.hashes)
        bind("crypto_permutations_total", lambda stats=stats: stats.permutations)
        bind("crypto_hash_seconds", lambda stats=stats: stats.seconds)
