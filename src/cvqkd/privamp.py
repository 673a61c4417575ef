"""Privacy amplification by binary Toeplitz hashing.

The final key length per band is the band's order-2 Renyi entropy under
Eve's tracked error bound, minus the ledgered public leakage, minus a
security margin of s bits; Eve's expected information about each band's
output is then at most 2^-s / ln 2 bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, NumericalFailureError, ProtocolAbort
from .rng import stream
from .security import renyi_bound

DEFAULT_SECURITY_BITS = 5
CONFIRM_BITS = 64


def final_key_length(m, p_err_eve, leaked_bits, s=DEFAULT_SECURITY_BITS):
    """Secure output length for a band of m reconciled bits."""
    if m < 0 or leaked_bits < 0:
        raise InvalidConfigError("negative length or leakage")
    if not 0.0 <= p_err_eve <= 0.5:
        raise InvalidConfigError(f"p_err_eve={p_err_eve} outside [0, 1/2]")
    return max(0, math.floor(m * float(renyi_bound(p_err_eve))
                             - leaked_bits - s))


def toeplitz_diagonal(m, r, seed):
    """The m + r - 1 seeded bits defining an r x m binary Toeplitz matrix."""
    return stream(seed, "toeplitz").integers(0, 2, m + r - 1, dtype=np.uint8)


def toeplitz_hash(bits, out_len, seed):
    """Compress ``bits`` to ``out_len`` bits with a seeded Toeplitz matrix.

    Computed as an exact GF(2) convolution by real FFT, never
    materializing the dense matrix.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    m = len(bits)
    if out_len > m:
        raise InvalidConfigError(f"out_len={out_len} exceeds input length {m}")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    diag = toeplitz_diagonal(m, out_len, seed)
    return _toeplitz_apply(diag, bits, m, out_len)


def _next_fast_len(n):
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= n, a length at which
    a real FFT is fast."""
    best = 1 << (n - 1).bit_length()  # the smallest power of two >= n
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # the smallest f35 * 2^k >= n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _toeplitz_apply(diag, bits, m, r):
    # out[i] = parity over j of diag[i - j + m - 1] * bits[j], terms m - 1 to
    # m + r - 2 of the convolution: a circular length >= m + r - 1 keeps them
    n = _next_fast_len(m + r - 1)
    conv = np.fft.irfft(np.fft.rfft(diag, n) * np.fft.rfft(bits, n),
                        n)[m - 1:m - 1 + r]
    counts = np.rint(conv)
    if np.max(np.abs(conv - counts)) >= 0.25:
        raise NumericalFailureError("FFT convolution is not integer-exact")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def key_confirm(alice_bits, bob_bits, seed):
    """Compare short seeded hashes of both keys; mismatch aborts.

    The rule in every run mode: a key is confirmed iff the confirm hashes
    agree.  The hash of an empty key is empty, so an empty key is
    vacuously confirmed.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    if len(alice_bits) != len(bob_bits):
        raise ProtocolAbort("declared key lengths differ")
    r = min(CONFIRM_BITS, len(alice_bits))
    ha = toeplitz_hash(alice_bits, r, seed)
    hb = toeplitz_hash(bob_bits, r, seed)
    if not np.array_equal(ha, hb):
        raise ProtocolAbort("key confirmation hash mismatch")
    return True


def confirm_hash(bits, seed):
    """The confirm hash value itself (for the wire protocol)."""
    bits = np.asarray(bits, dtype=np.uint8)
    r = min(CONFIRM_BITS, len(bits))
    return toeplitz_hash(bits, r, seed)


def pack_key(bits):
    """Most-significant-bit-first byte packing, zero-padded final byte."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_key(data, n_bits):
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:n_bits]


@dataclass
class KeyQualityReport:
    monobit_z: float
    monobit_pvalue: float
    lag1_corr: float
    lag1_pvalue: float
    n: int

    def passed(self, significance=0.01):
        return (self.monobit_pvalue >= significance
                and self.lag1_pvalue >= significance)


def key_quality(bits):
    """Monobit frequency and lag-1 serial correlation tests."""
    from scipy.special import ndtr

    bits = np.asarray(bits, dtype=float)
    n = len(bits)
    if n < 2:
        raise InvalidConfigError("key too short to test")
    z = (bits.sum() - n / 2.0) / np.sqrt(n / 4.0)
    p_mono = 2.0 * ndtr(-abs(z))
    x = bits - bits.mean()
    denom = float(np.sum(x * x))
    corr = float(np.sum(x[:-1] * x[1:]) / denom) if denom > 0 else 0.0
    z_corr = corr * np.sqrt(n - 1)
    p_corr = 2.0 * ndtr(-abs(z_corr))
    return KeyQualityReport(float(z), float(p_mono), corr, float(p_corr), n)
