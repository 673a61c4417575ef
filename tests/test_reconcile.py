import itertools
import math

import numpy as np
import pytest

from cvqkd import reconcile
from cvqkd.errors import InvalidConfigError, VerificationFailedError
from cvqkd.rng import stream
from cvqkd.security import binary_entropy


def _enumerate_ad(beta, n):
    """Exhaustive repeat-block oracle: enumerate every error pattern.

    Returns (accept_prob, accepted_error_prob) summed over the 2^n
    equiprobable-pattern weights.
    """
    p_acc = 0.0
    p_err = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        w = np.prod([beta if b else 1.0 - beta for b in pattern])
        # Bob accepts iff his unmasked block is constant: all errors or none
        if all(b == pattern[0] for b in pattern):
            p_acc += w
            if pattern[0] == 1:
                p_err += w
    return p_acc, p_err / p_acc


def _enumerate_eve_map(eps, n):
    """Exhaustive n-look maximum-likelihood error for a binary source."""
    err = 0.0
    for pattern in itertools.product((0, 1), repeat=n):
        like0 = np.prod([eps if b else 1.0 - eps for b in pattern])
        like1 = np.prod([1.0 - eps if b else eps for b in pattern])
        err += 0.5 * min(like0, like1)
    return err


def test_ad_error_matches_exhaustive_enumeration():
    for n in (1, 2, 3, 4):
        for beta in (0.05, 0.11, 0.3, 0.45):
            _, want = _enumerate_ad(beta, n)
            assert reconcile.ad_error(beta, n) == pytest.approx(want, rel=1e-12)


def test_eve_ad_error_matches_exhaustive_map():
    for n in (1, 2, 3, 4):
        for eps in (0.05, 0.2, 0.3, 0.49):
            want = _enumerate_eve_map(eps, n)
            assert reconcile.eve_ad_error(eps, n) == pytest.approx(
                want, rel=1e-12
            )
    # distillation hurts the receiver less than the eavesdropper
    assert reconcile.ad_error(0.3, 3) < reconcile.eve_ad_error(0.3, 3)


def test_choose_repeat_n():
    assert reconcile.choose_repeat_n(0.05) == 1
    assert reconcile.choose_repeat_n(0.3) == 3
    assert reconcile.choose_repeat_n(0.49, cap=8) == 8


def test_ad_roundtrip_and_leakage_accounting():
    rng = stream(1, "test", "ad")
    alice = rng.integers(0, 2, 9000, dtype=np.uint8)
    flips = rng.random(9000) < 0.25
    bob = alice ^ flips.astype(np.uint8)
    res = reconcile.advantage_distill(alice, bob, 3, stream(2, "test", "ad-c"))
    assert res.leaked_bits == 9000  # every announced mask bit
    assert len(res.alice_bits) == res.accepted.sum() == len(res.bob_bits)
    # error-free blocks decode correctly
    clean = reconcile.advantage_distill(alice, alice.copy(), 3,
                                        stream(3, "test", "ad-c2"))
    assert clean.accepted.all()
    assert np.array_equal(clean.alice_bits, clean.bob_bits)


def test_ad_accepted_error_within_three_sigma():
    rng = stream(4, "test", "ad-sim")
    beta = 0.3
    for n in (2, 3, 4):
        n_bits = 60_000
        alice = rng.integers(0, 2, n_bits, dtype=np.uint8)
        bob = alice ^ (rng.random(n_bits) < beta).astype(np.uint8)
        res = reconcile.advantage_distill(alice, bob, n,
                                          stream(5, "test", "ad-c", str(n)))
        m = len(res.alice_bits)
        p_hat = np.mean(res.alice_bits != res.bob_bits)
        want = reconcile.ad_error(beta, n)
        sigma = np.sqrt(want * (1 - want) / m)
        assert abs(p_hat - want) < 3 * sigma + 1e-9


def test_ad_rejects_bad_repeat_n():
    with pytest.raises(InvalidConfigError):
        reconcile.alice_ad_masks(np.zeros(4, dtype=np.uint8), 0,
                                 stream(0, "x"))


_GF64_POLY = (1 << 64) | 0b11011


def _bitwise_poly_hash64(bits):
    """Reference poly_hash64: shift each 8-byte chunk in and reduce modulo
    x^64 + x^4 + x^3 + x + 1 one bit at a time."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8))
    h = 1
    for i in range(0, len(packed), 8):
        chunk = int.from_bytes(packed[i: i + 8].tobytes(), "big")
        h = (h << 64) | chunk
        for bit in range(127, 63, -1):
            if h >> bit & 1:
                h ^= _GF64_POLY << (bit - 64)
    return h & (1 << 64) - 1


def test_poly_hash64_matches_bitwise_reduction():
    rng = stream(6, "test", "hash-oracle")
    for n in [*range(300), 4999, 12_345, 65_536]:
        for bits in (rng.integers(0, 2, n, dtype=np.uint8),
                     np.ones(n, dtype=np.uint8)):
            assert reconcile.poly_hash64(bits) == _bitwise_poly_hash64(bits)


def test_poly_hash64_sensitivity():
    rng = stream(6, "test", "hash")
    bits = rng.integers(0, 2, 1000, dtype=np.uint8)
    h = reconcile.poly_hash64(bits)
    assert h == reconcile.poly_hash64(bits.copy())
    for i in (0, 999, 500):
        flipped = bits.copy()
        flipped[i] ^= 1
        assert reconcile.poly_hash64(flipped) != h
    # length is felt even for all-zero strings
    assert reconcile.poly_hash64(np.zeros(64, dtype=np.uint8)) != \
        reconcile.poly_hash64(np.zeros(128, dtype=np.uint8))


def _factory(seed):
    return lambda attempt: stream(seed, "test", "cascade", str(attempt))


def test_cascade_corrects_all_errors():
    rng = stream(7, "test", "cascade-data")
    for trial, beta in ((0, 0.02), (1, 0.08), (2, 0.15)):
        alice = rng.integers(0, 2, 20_000, dtype=np.uint8)
        bob = alice ^ (rng.random(20_000) < beta).astype(np.uint8)
        res, oracle = reconcile.cascade(alice, bob, beta, _factory(100 + trial))
        assert np.array_equal(res.bits, alice)
        assert res.leaked_bits == oracle.disclosed_bits
        n_err = int(np.sum(alice != bob))
        assert res.corrected >= n_err  # back-tracking may re-flip


def test_cascade_leakage_near_shannon():
    rng = stream(8, "test", "cascade-leak")
    beta = 0.08
    n = 50_000
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    bob = alice ^ (rng.random(n) < beta).astype(np.uint8)
    res, _ = reconcile.cascade(alice, bob, beta, _factory(200))
    rate = res.leaked_bits / n
    h = float(binary_entropy(beta))
    assert h <= rate <= 1.25 * h


def test_cascade_retries_on_underestimate():
    rng = stream(9, "test", "cascade-retry")
    alice = rng.integers(0, 2, 5000, dtype=np.uint8)
    bob = alice ^ (rng.random(5000) < 0.12).astype(np.uint8)
    res, _ = reconcile.cascade(alice, bob, 0.03, _factory(300))
    assert np.array_equal(res.bits, alice)
    assert res.attempts >= 1


def _sequential_attempt(bob, oracle, attempt, beta_est, passes, perm_rng):
    """Reference Cascade attempt with one parity query per bisection step.

    Each mismatched top-level block is bisected on its own, from the whole
    block, and every flip queues the flipped bit's block in each pass whose
    top-level parities are known.
    """
    n = len(bob)
    k1 = max(2, min(n, math.ceil(reconcile.CASCADE_BLOCK_FACTOR
                                 / max(beta_est, 1e-4))))
    oracle.start(attempt, passes)
    perms = [perm_rng.permutation(n) for _ in range(passes)]
    inv = [np.argsort(perm) for perm in perms]
    bob = bob.copy()
    block_sizes = [min(n, k1 * 4**i) for i in range(passes)]
    alice_par = []
    corrections = 0

    def bob_parity(pi, lo, hi):
        return np.bitwise_xor.reduce(bob[perms[pi][lo:hi]])

    for pi in range(passes):
        lo = np.arange(0, n, block_sizes[pi])
        hi = np.minimum(lo + block_sizes[pi], n)
        alice_par.append(oracle.parities(
            np.column_stack((np.full(len(lo), pi), lo, hi))))
        pending = [(pi, blk) for blk in range(len(lo))]
        while pending:
            cpi, blk = pending.pop()
            k = block_sizes[cpi]
            lo, hi = blk * k, min((blk + 1) * k, n)
            if bob_parity(cpi, lo, hi) == alice_par[cpi][blk]:
                continue
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if oracle.parities([[cpi, lo, mid]])[0] != \
                        bob_parity(cpi, lo, mid):
                    hi = mid
                else:
                    lo = mid
            g = perms[cpi][lo]
            bob[g] ^= 1
            corrections += 1
            pending += [(opi, int(inv[opi][g]) // block_sizes[opi])
                        for opi in range(pi + 1)]
    return bob, corrections


def _mean_parity_bits(trials):
    """Mean Cascade parity bits (the leak less the hashes) over the trials."""
    total = 0
    for alice, bob, beta, factory in trials:
        res, _ = reconcile.cascade(alice, bob, beta, factory)
        assert np.array_equal(res.bits, alice)
        total += res.leaked_bits - reconcile.HASH_BITS * res.attempts
    return total / len(trials)


def test_lockstep_cascade_leaks_no_more_than_sequential(monkeypatch):
    rng = stream(10, "test", "cascade-lockstep")
    trials = []
    for n, beta in itertools.product((1000, 3000), (0.05, 0.1)):
        for trial in range(40):
            alice = rng.integers(0, 2, n, dtype=np.uint8)
            bob = alice ^ (rng.random(n) < beta).astype(np.uint8)
            trials.append((alice, bob, beta,
                           _factory(400 + len(trials))))
    lockstep = _mean_parity_bits(trials)
    monkeypatch.setattr(reconcile, "_cascade_attempt", _sequential_attempt)
    assert lockstep <= 1.01 * _mean_parity_bits(trials)


def test_cascade_verification_failure_raises():
    oracle = reconcile.ParityOracle(np.zeros(64, dtype=np.uint8), _factory(1))

    class LyingOracle(reconcile.ParityOracle):
        def hash64(self):
            self.disclosed_bits += 64
            return 12345  # never matches

    lying = LyingOracle(np.zeros(64, dtype=np.uint8), _factory(1))
    with pytest.raises(VerificationFailedError):
        reconcile.cascade_correct(np.ones(64, dtype=np.uint8), lying, 0.1,
                                  _factory(1))


def test_eve_error_after_leak_monotone():
    p0 = 0.3
    errs = [reconcile.eve_error_after_leak(p0, leak, 1000)
            for leak in (0, 100, 500, 2000)]
    assert errs[0] == pytest.approx(p0)
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0
