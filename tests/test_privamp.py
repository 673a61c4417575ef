import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

from cvqkd import privamp
from cvqkd.errors import InvalidConfigError, NumericalFailureError, ProtocolAbort
from cvqkd.rng import stream
from cvqkd.security import renyi_bound


def test_final_key_length_arithmetic():
    # floor(m * renyi(p) - leak - s), clamped at zero
    m, p, leak, s = 10_000, 0.3, 1500, 5
    want = max(0, math.floor(m * float(renyi_bound(p)) - leak - s))
    assert privamp.final_key_length(m, p, leak, s) == want
    assert privamp.final_key_length(100, 0.01, 10_000, 5) == 0
    with pytest.raises(InvalidConfigError):
        privamp.final_key_length(-1, 0.3, 0)
    with pytest.raises(InvalidConfigError):
        privamp.final_key_length(10, 0.7, 0)


def _dense_toeplitz_hash(bits, r, seed):
    # row i of the r x m matrix is diag[i + m - 1], diag[i + m - 2], ...,
    # diag[i]; each output bit is the GF(2) inner product of a row and bits
    m = len(bits)
    rows = sliding_window_view(privamp.toeplitz_diagonal(m, r, seed), m)
    return np.bitwise_xor.reduce(rows[:r, ::-1] & bits, axis=1)


def test_toeplitz_matches_dense_matrix():
    # (m, r): a single bit, a small case, the confirm-hash shape, and shapes
    # below and above m * r = 2^22
    for m, r in ((1, 1), (97, 31), (10_000, 64), (60_000, 8), (3_000, 1_500),
                 (2_500, 2_500)):
        bits = stream(1, "test", "pa-bits", m).integers(0, 2, m,
                                                        dtype=np.uint8)
        for seed in (0, 12):
            want = _dense_toeplitz_hash(bits, r, seed)
            assert np.array_equal(privamp.toeplitz_hash(bits, r, seed), want)
        ones = np.ones(m, np.uint8)
        assert np.array_equal(privamp.toeplitz_hash(ones, r, 5),
                              _dense_toeplitz_hash(ones, r, 5))


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    rng = stream(1, "test", "fast-len")
    for n in [*range(1, 10_001), *rng.integers(10_001, 10**8, 2_000).tolist()]:
        assert privamp._next_fast_len(n) == next_fast_len(n, real=True), n


def test_toeplitz_at_fast_lengths_matches_dense_matrix():
    # circular lengths m + r - 1 just below, at and just above the 5-smooth
    # lengths 1000, 1024, 6075 and 6144
    for total in (999, 1000, 1001, 1023, 1024, 1025, 6074, 6075, 6076, 6144,
                  6145):
        for r in (1, 64, total // 3):
            m = total - r + 1
            bits = stream(3, "test", "pa-fast", total, r).integers(
                0, 2, m, dtype=np.uint8)
            assert np.array_equal(privamp.toeplitz_hash(bits, r, 7),
                                  _dense_toeplitz_hash(bits, r, 7))


def test_toeplitz_exactness_guard():
    # a non-binary diagonal makes the convolution non-integer
    m, r = 101, 8
    diag = np.full(m + r - 1, 0.5)
    with pytest.raises(NumericalFailureError):
        privamp._toeplitz_apply(diag, np.ones(m, np.uint8), m, r)


def test_toeplitz_linearity_over_gf2():
    m, r, seed = 4096, 512, 3
    rng = stream(2, "test", "pa-lin")
    a = rng.integers(0, 2, m, dtype=np.uint8)
    b = rng.integers(0, 2, m, dtype=np.uint8)
    ha = privamp.toeplitz_hash(a, r, seed)
    hb = privamp.toeplitz_hash(b, r, seed)
    hab = privamp.toeplitz_hash(a ^ b, r, seed)
    assert np.array_equal(hab, ha ^ hb)


def test_toeplitz_collision_universality():
    # over random seeds, P[T(d) = 0] for a fixed nonzero difference d should
    # be 2^-r within 3 sigma (binomial)
    m, r = 256, 6
    d = stream(3, "test", "pa-diff").integers(0, 2, m, dtype=np.uint8)
    d[0] = 1  # force nonzero
    trials = 4000
    hits = sum(
        not np.any(privamp.toeplitz_hash(d, r, seed))
        for seed in range(trials)
    )
    p = 2.0**-r
    sigma = np.sqrt(p * (1 - p) / trials)
    assert hits / trials == pytest.approx(p, abs=3 * sigma)


def test_toeplitz_rejects_expansion():
    with pytest.raises(InvalidConfigError):
        privamp.toeplitz_hash(np.zeros(10, dtype=np.uint8), 11, 0)
    assert len(privamp.toeplitz_hash(np.zeros(10, dtype=np.uint8), 0, 0)) == 0


def test_pack_unpack_roundtrip():
    bits = stream(4, "test", "pa-pack").integers(0, 2, 101, dtype=np.uint8)
    data = privamp.pack_key(bits)
    assert len(data) == 13
    assert np.array_equal(privamp.unpack_key(data, 101), bits)


def test_key_confirm():
    bits = stream(5, "test", "pa-confirm").integers(0, 2, 500, dtype=np.uint8)
    assert privamp.key_confirm(bits, bits.copy(), seed=9)
    other = bits.copy()
    other[17] ^= 1
    with pytest.raises(ProtocolAbort):
        privamp.key_confirm(bits, other, seed=9)
    with pytest.raises(ProtocolAbort):
        privamp.key_confirm(bits, bits[:-1], seed=9)
    assert privamp.key_confirm(np.zeros(0), np.zeros(0), seed=9)


def test_confirm_hash_length():
    bits = np.ones(500, dtype=np.uint8)
    assert len(privamp.confirm_hash(bits, 1)) == 64
    assert len(privamp.confirm_hash(bits[:10], 1)) == 10


def test_key_quality_on_random_and_biased():
    rng = stream(6, "test", "pa-quality")
    good = privamp.key_quality(rng.integers(0, 2, 100_000, dtype=np.uint8))
    assert good.passed()
    biased = privamp.key_quality((rng.random(100_000) < 0.45).astype(np.uint8))
    assert not biased.passed()
    correlated = np.zeros(10_000, dtype=np.uint8)
    correlated[::2] = 1  # perfect anti-correlation at lag 1
    assert not privamp.key_quality(correlated).passed()




def test_key_quality_pvalues_equal_normal_survival():
    rng = stream(8, "test", "pa-quality-sf")
    for bits in (rng.integers(0, 2, 10_001, dtype=np.uint8),
                 (rng.random(5_000) < 0.47).astype(np.uint8),
                 np.tile(np.array([1, 1, 0], np.uint8), 700)):
        rep = privamp.key_quality(bits)
        z_corr = rep.lag1_corr * np.sqrt(rep.n - 1)
        assert rep.monobit_pvalue == 2.0 * stats.norm.sf(abs(rep.monobit_z))
        assert rep.lag1_pvalue == 2.0 * stats.norm.sf(abs(z_corr))
