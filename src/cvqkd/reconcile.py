"""Advantage distillation and Cascade error correction.

Cascade runs every band as a step machine whose requests one exchange per
step answers: local parity oracles in the in-process pipeline, the wire in
the networked session; the disclosed-bit ledger is identical either way.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, VerificationFailedError

CASCADE_PASSES = 4
CASCADE_BLOCK_FACTOR = 0.73
CASCADE_ATTEMPTS = 3
HASH_BITS = 64

# poly_hash64 reduces modulo P = x^64 + r with r = x^4 + x^3 + x + 1, the
# usual degree-64 GF(2) reduction polynomial.
_GF64_MASK = (1 << 64) - 1


def ad_error(beta, n):
    """Residual error rate of accepted n-bit repeat blocks."""
    beta = np.asarray(beta, dtype=float)
    bn = beta**n
    gn = (1.0 - beta) ** n
    with np.errstate(invalid="ignore"):
        out = np.where(bn + gn > 0.0, bn / np.maximum(bn + gn, 1e-300), 0.0)
    return out


def eve_ad_error(eps, n):
    """Eavesdropper's block error after n-bit repeat distillation.

    She sees n independent noisy looks at the block bit (her per-bit error
    eps) and decides by maximum likelihood; unlike the receiver she cannot
    condition on block acceptance, so her error is the n-look majority
    error, not the accepted-block formula.
    """
    eps = np.asarray(eps, dtype=float)
    total = np.zeros_like(eps)
    for k in range(int(n) + 1):
        a = eps**k * (1.0 - eps) ** (n - k)
        b = eps ** (n - k) * (1.0 - eps) ** k
        total = total + math.comb(n, k) * np.minimum(a, b)
    return 0.5 * total


def choose_repeat_n(beta, target=0.11, cap=8):
    """Smallest repeat length whose predicted residual error is <= target."""
    for n in range(1, cap + 1):
        if ad_error(beta, n) <= target:
            return n
    return cap


def alice_ad_masks(bits, repeat_n, rng):
    """Alice's side of repeat-code distillation.

    Groups her bits into blocks of ``repeat_n``, draws one fresh random bit c
    per block and announces each block XORed with c.  Returns (c_bits, masks);
    every announced mask bit is public leakage.
    """
    if repeat_n < 1:
        raise InvalidConfigError(f"repeat_n={repeat_n} must be >= 1")
    bits = np.asarray(bits, dtype=np.uint8)
    n_blocks = len(bits) // repeat_n
    blocks = bits[: n_blocks * repeat_n].reshape(n_blocks, repeat_n)
    c = rng.integers(0, 2, n_blocks, dtype=np.uint8)
    masks = blocks ^ c[:, None]
    return c, masks.reshape(-1)


def bob_ad_apply(bits, masks, repeat_n):
    """Bob's side: accept a block iff his masked block is all-equal; the
    common masked value is his estimate of Alice's block bit c."""
    bits = np.asarray(bits, dtype=np.uint8)
    masks = np.asarray(masks, dtype=np.uint8)
    n_blocks = len(masks) // repeat_n
    blocks = bits[: n_blocks * repeat_n].reshape(n_blocks, repeat_n)
    unmasked = blocks ^ masks.reshape(n_blocks, repeat_n)
    accepted = np.all(unmasked == unmasked[:, :1], axis=1)
    values = unmasked[:, 0]
    return accepted, values[accepted]


@dataclass
class AdResult:
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    accepted: np.ndarray
    leaked_bits: int
    repeat_n: int


def advantage_distill(alice_bits, bob_bits, repeat_n, rng):
    """Run both sides of distillation in-process."""
    c, masks = alice_ad_masks(alice_bits, repeat_n, rng)
    accepted, bob_out = bob_ad_apply(bob_bits, masks, repeat_n)
    return AdResult(c[accepted], bob_out, accepted, int(len(masks)), repeat_n)


def poly_hash64(bits):
    """Polynomial hash of a bit string over GF(2^64): h <- h * x^64 + chunk
    mod P per 8-byte chunk (the last one possibly shorter).  x^64 = r mod P,
    and v * r is ``v ^ v << 1 ^ v << 3 ^ v << 4``; the overflow of h * r
    past x^64 is folded back in by a second product with r."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8))
    full = len(packed) // 8 * 8
    chunks = np.frombuffer(packed[:full].tobytes(), ">u8").tolist()
    if full < len(packed):
        chunks.append(int.from_bytes(packed[full:].tobytes(), "big"))
    h = 1  # nonzero init so length is felt
    for chunk in chunks:
        t = h ^ h << 1 ^ h << 3 ^ h << 4
        high = t >> 64
        h = t & _GF64_MASK ^ high ^ high << 1 ^ high << 3 ^ high << 4 ^ chunk
    return h


def _prefix_xor(bits):
    """pre with pre[i] the parity of bits[:i], so that bits[lo:hi] has
    parity pre[hi] ^ pre[lo]."""
    pre = np.zeros(bits.shape[:-1] + (bits.shape[-1] + 1,), dtype=np.uint8)
    np.bitwise_xor.accumulate(bits, axis=-1, out=pre[..., 1:])
    return pre


class ParityOracle:
    """Alice's side of Cascade: answers parity queries on her bit string.

    An attempt begins with the first ``parities`` after construction or
    after a hash: ``start`` counts it and fixes its ``passes``
    permutations (from a stream the querying side derives identically).
    ``parities`` answers a batch of half-open ranges in permuted
    coordinates and counts every answered bit as disclosed; ``hash64``
    ends the attempt.
    """

    def __init__(self, bits, perm_stream_factory, passes=CASCADE_PASSES):
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.passes = passes
        self._perm_stream_factory = perm_stream_factory
        self._prefix = None  # the live attempt's permuted prefix parities
        self.attempts = 0
        self.asked = 0  # parities answered in the live attempt
        self.disclosed_bits = 0

    @property
    def live(self):
        return self._prefix is not None

    def start(self):
        rng = self._perm_stream_factory(self.attempts)
        n = len(self.bits)
        self._prefix = _prefix_xor(np.array(
            [self.bits[rng.permutation(n)] for _ in range(self.passes)]))
        self.attempts += 1

    def parities(self, queries):
        """queries: (k, 3) int array of (pass_index, lo, hi) rows, half-open
        ranges in permuted coords; one parity per row."""
        if self._prefix is None:
            self.start()
        pi, lo, hi = np.asarray(queries).T
        self.asked += len(pi)
        self.disclosed_bits += len(pi)
        return self._prefix[pi, hi] ^ self._prefix[pi, lo]

    def hash64(self):
        self.disclosed_bits += HASH_BITS
        self._prefix = None  # the attempt is over; a retry starts afresh
        self.asked = 0
        return poly_hash64(self.bits)


# a Cascade step machine's requests: PARITIES (a (k, 3) query array) and
# HASH
PARITIES, HASH = 0, 1


def answer(oracles, requests):
    """{band: answer} to one step's (band, kind, argument) requests, each
    answered by that band's oracle."""
    return {band: oracles[band].parities(arg) if kind == PARITIES
            else oracles[band].hash64() for band, kind, arg in requests}


@dataclass
class CascadeResult:
    bits: np.ndarray
    leaked_bits: int
    attempts: int
    corrected: int


def _queries(pi, lo, hi):
    return np.column_stack((np.full(len(lo), pi), lo, hi))


def _cascade_attempt(bob, beta_est, passes, perm_rng):
    """One Cascade attempt as a step machine: yields its requests and
    returns (corrected bob bits, corrections).

    After the top-level parities of a pass, searches run in waves.  A wave
    takes the lowest pass with a known range (one whose parity Alice has
    disclosed) that Bob's parity no longer matches, and bisects the
    smallest such range in each top-level block, one parity batch per
    level; each answer makes both halves known.  The found bits are
    flipped at the end of the wave.  Each honest flip mends a true error,
    so an attempt that flips more bits than the string holds has been
    answered inconsistently and fails.
    """
    n = len(bob)
    k1 = max(2, min(n, math.ceil(CASCADE_BLOCK_FACTOR / max(beta_est, 1e-4))))
    # the smallest integer type that holds every position
    perms = [perm_rng.permutation(n).astype(np.min_scalar_type(n))
             for _ in range(passes)]

    # quadrupling the block size per pass keeps the total parity budget
    # within 1.25 h(beta) even at beta ~ 0.15, where doubling overshoots
    block_sizes = [min(n, k1 * 4**i) for i in range(passes)]
    known = []  # per pass: (lo, hi, Alice's parity) of every known range
    corrections = 0
    for pi in range(passes):
        lo = np.arange(0, n, block_sizes[pi])
        hi = np.minimum(lo + block_sizes[pi], n)
        known.append((lo, hi, (yield PARITIES, _queries(pi, lo, hi))))
        while True:
            for opi in range(pi + 1):
                pre = _prefix_xor(bob[perms[opi]])
                lo, hi, par = known[opi]
                bad = np.flatnonzero(pre[hi] ^ pre[lo] != par)
                if len(bad):
                    break
            else:
                break
            # the smallest mismatched known range of each top-level block
            blocks = lo[bad] // block_sizes[opi]
            order = np.lexsort((hi[bad] - lo[bad], blocks))
            _, first = np.unique(blocks[order], return_index=True)
            pick = bad[order[first]]
            lo_s, hi_s, par_s = lo[pick], hi[pick], par[pick]
            new = [known[opi]]
            while len(live := np.flatnonzero(hi_s - lo_s > 1)):
                lo_l, hi_l = lo_s[live], hi_s[live]
                mid = (lo_l + hi_l) // 2
                left = yield PARITIES, _queries(opi, lo_l, mid)
                right = par_s[live] ^ left
                new += [(lo_l, mid, left), (mid, hi_l, right)]
                go_right = left == pre[mid] ^ pre[lo_l]
                lo_s[live] = np.where(go_right, mid, lo_l)
                hi_s[live] = np.where(go_right, hi_l, mid)
                par_s[live] = np.where(go_right, right, left)
            known[opi] = tuple(map(np.concatenate, zip(*new)))
            bob[perms[opi][lo_s]] ^= 1
            corrections += len(lo_s)
            if corrections > n:
                raise VerificationFailedError(
                    f"Cascade flipped {corrections} of {n} bits")
    return bob, corrections


def _cascade_band(bob_bits, beta_est, perm_stream_factory, passes):
    """One band's Cascade as a step machine: attempts verified by a 64-bit
    hash, each retry with a doubled estimate and fresh permutations.
    Returns (bits, attempts, corrections); an empty string needs none."""
    bob = np.asarray(bob_bits, dtype=np.uint8).copy()
    if not len(bob):
        return bob, 0, 0
    total_corrected = 0
    for attempt in range(CASCADE_ATTEMPTS):
        bob, corrected = yield from _cascade_attempt(
            bob, beta_est * 2**attempt, passes, perm_stream_factory(attempt))
        total_corrected += corrected
        a_hash = yield HASH, None
        if poly_hash64(bob) == a_hash:
            return bob, attempt + 1, total_corrected
    raise VerificationFailedError(
        f"strings still differ after {CASCADE_ATTEMPTS} Cascade attempts "
        f"(initial error estimate {beta_est} too low?)"
    )


def cascade_bands(bands, exchange, passes=CASCADE_PASSES):
    """Cascade on the (bob_bits, beta_est, perm_stream_factory) of every
    band at once, one ``exchange(requests) -> {band: answer}`` per step for
    the requests of every live band, bands ascending (see ``answer``).
    Each band's result depends only on its own streams and answers; all
    its disclosed bits stay on its ledger."""
    machines = {b: _cascade_band(bits, beta, factory, passes)
                for b, (bits, beta, factory) in enumerate(bands)}
    leaked = [0] * len(bands)
    results = [None] * len(bands)
    answers = {}
    while machines:
        requests = []
        for b in list(machines):
            try:
                kind, arg = machines[b].send(answers.get(b))
            except StopIteration as stop:
                bits, attempts, corrected = stop.value
                results[b] = CascadeResult(bits, leaked[b], attempts,
                                           corrected)
                del machines[b]  # frees the band's permutations
                continue
            leaked[b] += HASH_BITS if kind == HASH else len(arg)
            requests.append((b, kind, arg))
        if requests:
            answers = exchange(requests)
    return results


def cascade_correct(bob_bits, oracle, beta_est, perm_stream_factory):
    """Correct Bob's bits toward the oracle's: ``cascade_bands`` on one
    band, with the oracle's passes."""
    return cascade_bands([(bob_bits, beta_est, perm_stream_factory)],
                         functools.partial(answer, [oracle]),
                         oracle.passes)[0]


def cascade(alice_bits, bob_bits, beta_est, seed_stream_factory,
            passes=CASCADE_PASSES):
    """In-process Cascade between two local bit strings.

    ``seed_stream_factory(attempt)`` must return a fresh identical stream
    for both the oracle and the corrector, mirroring the two-party setup.
    """
    if len(alice_bits) != len(bob_bits):
        raise InvalidConfigError("length mismatch")
    if not 0.0 < beta_est < 0.5:
        beta_est = min(max(beta_est, 1e-3), 0.49)
    oracle = ParityOracle(alice_bits, seed_stream_factory, passes)
    return cascade_correct(bob_bits, oracle, beta_est,
                           seed_stream_factory), oracle


def eve_error_after_leak(p_eve, leaked_bits, length):
    """Eve's error bound once every disclosed bit is granted to her.

    Her per-bit Shannon information gains min(leak/length, remaining
    uncertainty) and is converted back to an error probability through the
    inverse binary entropy, rounding her error downward (in her favor).
    Takes scalars or equal-length arrays, one entry per band; a band of
    length 0 gets 0.
    """
    from .security import binary_entropy, inverse_binary_entropy

    p_eve = np.asarray(p_eve, dtype=float)
    length = np.asarray(length)
    info_new = np.minimum(1.0, 1.0 - binary_entropy(p_eve)
                          + np.asarray(leaked_bits) / np.maximum(length, 1))
    p_new = np.minimum(inverse_binary_entropy(1.0 - info_new), p_eve)
    return np.where((length > 0) & (info_new < 1.0), p_new, 0.0)[()]
