"""Poseidon regression vectors.

Any change to the round constants, MDS matrix, round schedule, or sponge
convention would invalidate every stored tree, commitment, and nullifier in
a deployed network.  These pinned digests catch such a change immediately.
(The vectors are this implementation's own — see the module docstring of
repro.crypto.poseidon on why they differ from circomlib's.)
"""

from repro.crypto.field import FieldElement
from repro.crypto.poseidon import poseidon_hash, poseidon_params, poseidon_permutation

VECTORS = {
    (1,): 0x27D446269D4D4131665A73DD5859B2F7170740992FCD91588B08B67C189BF2A3,
    (1, 2): 0x0745080D3DA31661E1E51124C877F855D3DD51219689E215973ED1E789A2B1CD,
    (1, 2, 3): 0x2E908B705EFC753C8915954E6414EA7AB32FC1D54547DAE251F1B3B32F65B7B1,
    (0,): 0x22BD4FEE6E7AFD502F521EC34ACD156597A0BD087A704DAB6AFAC36523AF093B,
}

#: Sponge digests for every supported arity (state widths t = 2..9) on the
#: canonical inputs [1, ..., n].  An engine rewrite or constant drift at any
#: width can never silently change commitments.
ARITY_VECTORS = {
    1: 0x27D446269D4D4131665A73DD5859B2F7170740992FCD91588B08B67C189BF2A3,
    2: 0x0745080D3DA31661E1E51124C877F855D3DD51219689E215973ED1E789A2B1CD,
    3: 0x2E908B705EFC753C8915954E6414EA7AB32FC1D54547DAE251F1B3B32F65B7B1,
    4: 0x1474199AA095C5A8EDCADD32D2615DF8BACF1ED29777BA7C81AF4831A5B31661,
    5: 0x060C3642352E30AC3EA9FF92497814AC2C9A8DD6B6E8A123DEA42475CE9DC8C5,
    6: 0x02B1121B12EE639B834A022560ADB79675994226D0CC13189F23B793CFA86CF6,
    7: 0x22FB8EF07E46DACBDF00DF2B1BFDC302C26D9A8B54777BA141E7F54A10FB9875,
    8: 0x1777A29C800E390E9E749A551DFCDA6038420ED419C9AE878AB033F79FA7E269,
}

#: Lane-0 permutation outputs on the state [0, 1, ..., t-1] per width.
PERMUTATION_VECTORS = {
    2: 0x2D98CDFCF70E7F755359F2CC918B35068769B5F0E47B33D347D7CCC4077C55B7,
    3: 0x189F3EE2DED0553CAD6D9D52B9DC8D616A26667C31A512B7C2B861F8A1B7C20C,
    4: 0x2B6684FDB43E805ADE26273306C1C4D6E50182AB0BB62708561FFD5C7DD2256E,
    5: 0x1278728C5DC7C232FB0A4CCA0A85D1AB84B3A8AA639036C8D747DC3EA725E5BC,
    6: 0x0786693B9E2B7D681FF889AB311502318B4AD05941207ED2A3C47A50F2BC6711,
    7: 0x172B5E799692F33E592D86A32B177C1AB4CF808880F83FDF2D3BA101C2E1E7FB,
    8: 0x08BE888099DAD46E0595098BB0097C1857E371CD844231FC955D787052260B71,
    9: 0x0B87F8144B1F5C2E7278494FB434775A07A8AA2D1CF01C7DAADFE5B87B3F00ED,
}


def test_pinned_vectors():
    for inputs, expected in VECTORS.items():
        digest = poseidon_hash([FieldElement(v) for v in inputs])
        assert digest.value == expected, f"poseidon_hash({list(inputs)}) changed"


def test_vectors_are_distinct():
    assert len(set(VECTORS.values())) == len(VECTORS)


def test_pinned_arity_vectors_reference():
    for n, expected in ARITY_VECTORS.items():
        digest = poseidon_hash([FieldElement(i + 1) for i in range(n)])
        assert digest.value == expected, f"poseidon_hash arity {n} changed"


def test_pinned_permutation_vectors_reference():
    for t, expected in PERMUTATION_VECTORS.items():
        out = poseidon_permutation(
            [FieldElement(i) for i in range(t)], poseidon_params(t)
        )
        assert out[0].value == expected, f"permutation width t={t} changed"


def test_pinned_vectors_all_backends(poseidon_hasher):
    """The engine and the permutation-level sponge reproduce the exact
    pinned digests."""
    for n, expected in ARITY_VECTORS.items():
        digest = poseidon_hasher.hash([FieldElement(i + 1) for i in range(n)])
        assert digest.value == expected, f"arity {n} digest drifted"
