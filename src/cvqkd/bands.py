"""Sifting, banded information channels, and post-selection.

After Alice announces the magnitudes |v_a|, each quadrature of each symbol
becomes one candidate key bit: the sign of v_a on Alice's side and the sign
of v_b on Bob's.  Bits are partitioned into equal-count bands of the
statistic u = |v_a * v_b| * sqrt(2 * eta) (the flip probability is a
function of u alone), and Bob keeps only the points whose net information
density is positive.

Sifting and the keep decision are one pass over blocks of symbols: a block
keeps only its kept bits and adds to tallies over all sifted bits, so the
only array over all sifted bits is the one-byte keep mask.

Post-selection and banding read only public data (announced magnitudes,
Bob's outcomes and the channel estimate), so the receiver runs the same
code on his own view, in which Alice's bits are unknown.  The tallies that
need Alice's bits are a separate step on the same partition.
"""

from dataclasses import dataclass

import numpy as np

from .channel import QUADRATURES, SYMBOL_BLOCK
from .errors import InsufficientDataError, InvalidConfigError
from . import security


@dataclass
class SiftedData:
    """Per-bit sifted records, x-quadrature block first, then p.

    ``alice_bit`` is private to Alice and None in the receiver's view; Bob's
    post-selection decision uses only ``abs_v_a`` and ``v_b``.
    """

    quad: np.ndarray      # uint8, 0 = x, 1 = p
    alice_bit: np.ndarray | None  # uint8
    bob_bit: np.ndarray    # uint8
    abs_v_a: np.ndarray
    v_b: np.ndarray

    def __len__(self):
        return len(self.quad)

    def _columns(self):
        return self.quad, self.alice_bit, self.bob_bit, self.abs_v_a, self.v_b

    def subset(self, mask):
        return SiftedData(*[None if col is None else col[mask]
                            for col in self._columns()])

    @classmethod
    def concat(cls, parts):
        return cls(*[None if cols[0] is None else np.concatenate(cols)
                     for cols in zip(*[p._columns() for p in parts])])


def sift_blocks(symbols, measurements, symbol_mask, signed=True):
    """One sign bit per quadrature of each symbol in ``symbol_mask``, in
    blocks of at most ``SYMBOL_BLOCK`` symbols, x blocks first.
    With ``signed`` False, ``symbols`` holds only the announced magnitudes
    and the blocks carry no Alice bits: the receiver's view."""
    if len(symbols) != len(measurements):
        raise InvalidConfigError(
            f"length mismatch: {len(symbols)} symbols, "
            f"{len(measurements)} measurements"
        )
    for qi, quad in enumerate(QUADRATURES):
        va_all, vb_all = symbols.value(quad), measurements.value(quad)
        for lo in range(0, len(va_all), SYMBOL_BLOCK):
            block = slice(lo, lo + SYMBOL_BLOCK)
            sel = symbol_mask[block]
            va, vb = va_all[block][sel], vb_all[block][sel]
            yield SiftedData(np.full(len(va), qi, dtype=np.uint8),
                             (va > 0).astype(np.uint8) if signed else None,
                             (vb > 0).astype(np.uint8), np.abs(va), vb)


def sift(symbols, measurements):
    """All sifted bits of aligned symbol/measurement batches as one
    ``SiftedData``: the concatenation of ``sift_blocks``."""
    return SiftedData.concat(list(sift_blocks(
        symbols, measurements, np.ones(len(symbols), dtype=bool))))


def band_statistic(sifted, eta_x, eta_p):
    """u = |v_a * v_b| * sqrt(2 * eta) per sifted bit."""
    u = sifted.abs_v_a * sifted.v_b
    np.abs(u, out=u)
    u *= np.where(sifted.quad == 0, np.sqrt(2.0 * eta_x), np.sqrt(2.0 * eta_p))
    return u


def keep_mask(sifted, eta_x, eta_p, doubled_exponent=False):
    """Bob's post-selection decision: net information density > 0, that is
    Bob's bias tanh(2u) above Eve's bias (see ``security.keep_threshold_u``).

    Uses only information available to Bob (announced magnitudes, his own
    outcomes, and the estimated transmissions).
    """
    u = band_statistic(sifted, eta_x, eta_p)
    mask = np.empty(len(sifted), dtype=bool)
    for qi, eta in ((0, eta_x), (1, eta_p)):
        sel = sifted.quad == qi
        mask[sel] = np.tanh(2.0 * u[sel]) > security.eve_bias(
            sifted.abs_v_a[sel], eta, doubled_exponent)
    return mask


def eve_information_bits(quad, abs_v_a, eta_x, eta_p, doubled_exponent):
    """Eve's information bound per sifted bit, in bits."""
    out = np.empty(len(quad))
    for qi, eta in ((0, eta_x), (1, eta_p)):
        sel = quad == qi
        out[sel] = security.eve_information_quadrature(
            abs_v_a[sel], eta, doubled_exponent
        )
    return out


def eve_helstrom_sum(sifted, eta_x, eta_p, doubled_exponent):
    """Eve's Helstrom error summed over the sifted bits."""
    return float(np.sum(np.concatenate([
        security.helstrom_error(security.eve_overlap(
            sifted.abs_v_a[sifted.quad == qi], eta, doubled_exponent))
        for qi, eta in ((0, eta_x), (1, eta_p))
    ])))


MIN_POINTS_PER_BAND = 100


class BandSlices:
    """Bits grouped by (quadrature, band) with one stable sort.

    ``quad`` is the quadrature of every bit.  ``values[order]`` puts every
    band in one contiguous slice that keeps the bits' original order;
    iterating yields (quad, band, slice) with the x bands first, each
    quadrature from band 0 up.
    """

    def __init__(self, quad, band_idx, n_bands):
        key = quad.astype(np.int64) * n_bands + band_idx
        self.quad = quad
        self.n_bands = n_bands
        self.order = np.argsort(key, kind="stable")
        self.stops = np.cumsum(np.bincount(key, minlength=2 * n_bands))

    def __getitem__(self, quad_band):
        quad, band = quad_band
        j = QUADRATURES.index(quad) * self.n_bands + band
        return slice(int(self.stops[j - 1]) if j else 0, int(self.stops[j]))

    def __iter__(self):
        for quad in QUADRATURES:
            for k in range(self.n_bands):
                yield quad, k, self[quad, k]

    def means(self, values):
        """Per-band mean of ``values`` (0.0 for an empty band)."""
        values = values[self.order]
        return {(quad, k): float(values[s].mean()) if s.stop > s.start
                else 0.0 for quad, k, s in self}


@dataclass
class BicPartition:
    """Equal-count bands of the statistic u, per quadrature.

    ``boundaries[quad]`` ascends from 0 to inf in u.  Band index 0 is the
    lowest-error band (the topmost u slice); index n_bands - 1 the highest.
    ``band_idx`` is the band of every bit the partition was built on, and
    ``calibration`` (None for all of them) the subset that set the
    boundaries.  Stats arrays have shape (2, n_bands) indexed (quadrature,
    band); they count the calibration subset and stay zero until Alice's
    bits are tallied.
    """

    n_bands: int
    boundaries: dict
    band_idx: np.ndarray
    calibration: np.ndarray | None
    n_good: np.ndarray
    n_error: np.ndarray

    @property
    def p_emp(self):
        tot = self.n_good + self.n_error
        with np.errstate(invalid="ignore", divide="ignore"):
            p = np.where(tot > 0, self.n_error / np.maximum(tot, 1), 0.0)
        return p

    def band_of(self, sifted, eta_x, eta_p):
        """Band index per sifted bit (0 = lowest error)."""
        return _assign(self.boundaries, self.n_bands,
                       band_statistic(sifted, eta_x, eta_p), sifted.quad)

    def tally(self, quad, errors):
        """Count good and erroneous bits per band over the calibration
        subset, given the quadrature and error flag of every bit the
        partition was built on."""
        key = quad.astype(np.int64) * self.n_bands + self.band_idx
        if self.calibration is not None:
            key, errors = key[self.calibration], errors[self.calibration]
        shape = (2, self.n_bands)
        total = np.bincount(key, minlength=2 * self.n_bands).reshape(shape)
        self.n_error = np.bincount(
            key[errors], minlength=2 * self.n_bands
        ).reshape(shape).astype(float)
        self.n_good = total - self.n_error


def _assign(boundaries, n_bands, u, quad):
    """Band index per bit: one searchsorted per quadrature."""
    out = np.empty(len(u), dtype=np.int64)
    for qi, name in enumerate(QUADRATURES):
        sel = quad == qi
        raw = np.searchsorted(boundaries[name][1:-1], u[sel], side="right")
        out[sel] = n_bands - 1 - raw
    return out


def build_partition(sifted, eta_x, eta_p, n_bands=10, calibration_mask=None):
    """Quantile-band the sifted bits so each band of the calibration subset
    (all bits by default) holds an equal count (+-1) per quadrature, assign
    every bit its band, and tally the calibration subset's good/error
    counts when Alice's bits are known."""
    if n_bands < 1:
        raise InvalidConfigError(f"n_bands={n_bands} must be >= 1")
    u = band_statistic(sifted, eta_x, eta_p)
    boundaries = {}
    for qi, quad in enumerate(QUADRATURES):
        sel = sifted.quad == qi
        if calibration_mask is not None:
            sel &= calibration_mask
        uq = u[sel]
        if len(uq) < n_bands * MIN_POINTS_PER_BAND:
            raise InsufficientDataError(
                f"quadrature {quad}: {len(uq)} points < "
                f"{n_bands * MIN_POINTS_PER_BAND} required for {n_bands} bands"
            )
        qs = np.quantile(uq, np.linspace(0.0, 1.0, n_bands + 1)[1:-1])
        edges = np.concatenate([[0.0], qs, [np.inf]])
        if np.any(np.diff(edges[:-1]) < 0):
            raise InvalidConfigError("band boundaries not increasing")
        boundaries[quad] = edges
    partition = BicPartition(n_bands, boundaries,
                             _assign(boundaries, n_bands, u, sifted.quad),
                             calibration_mask, np.zeros((2, n_bands)),
                             np.zeros((2, n_bands)))
    if sifted.alice_bit is not None:
        partition.tally(sifted.quad, sifted.alice_bit != sifted.bob_bit)
    return partition


@dataclass
class PostselectResult:
    mask: np.ndarray          # keep flag per sifted bit
    kept: SiftedData
    partition: BicPartition   # built on the kept bits
    slices: BandSlices        # the kept bits grouped by band
    report_post: security.InfoReport | None
    keep_fraction: float
    n_flip: int | None        # tallies over all sifted bits: sign flips
    eve_error_sum: float      # (None if unknown) and Eve's Helstrom error


def postselect(sifted, params, n_bands=10, doubled_exponent=False,
               calibration_mask=None):
    """Post-select and band the sifted bits; report the kept net
    information when Alice's bits are known.

    ``sifted`` is one ``SiftedData`` or an iterable of blocks of them
    (``sift_blocks``), taken in one pass.  ``params`` may be a
    ``ChannelParams`` or a ``ChannelEstimate`` (anything with
    eta()/var_mod()).  Net information is reported in bits per symbol
    (kept contributions divided by the number of symbols).  By default the
    partition quantiles are computed on the kept data itself; pass a
    ``calibration_mask`` over the sifted bits to compute them, and the
    tallies, on the kept part of that subset instead.
    """
    eta_x, eta_p = params.eta("x"), params.eta("p")
    masks, kept = [], []
    n_flip, eve_sum = 0, 0.0
    for block in [sifted] if isinstance(sifted, SiftedData) else sifted:
        masks.append(keep_mask(block, eta_x, eta_p, doubled_exponent))
        kept.append(block.subset(masks[-1]))
        eve_sum += eve_helstrom_sum(block, eta_x, eta_p, doubled_exponent)
        if block.alice_bit is not None:
            n_flip += int(np.count_nonzero(block.alice_bit != block.bob_bit))
    mask = np.concatenate(masks)
    kept = SiftedData.concat(kept)
    partition = build_partition(
        kept, eta_x, eta_p, n_bands,
        None if calibration_mask is None else calibration_mask[mask],
    )
    slices = BandSlices(kept.quad, partition.band_idx, n_bands)
    report_post = None
    if kept.alice_bit is not None:
        report_post = _empirical_report(kept, slices, params,
                                        len(mask) / 2.0, doubled_exponent)
    return PostselectResult(mask, kept, partition, slices, report_post,
                            len(kept) / len(mask),
                            None if kept.alice_bit is None else n_flip,
                            eve_sum)


def _empirical_report(kept, slices, params, n_symbols, doubled_exponent):
    """Per-symbol net information of the kept bits, band by band.

    Bob's term is the banded capacity at the empirical error rates; Eve's is
    the empirical mean of her bound over the kept points (the Monte-Carlo
    estimate of the band integral in the net-information formula).
    """
    iae = eve_information_bits(kept.quad, kept.abs_v_a, params.eta("x"),
                               params.eta("p"), doubled_exponent)[slices.order]
    errors = (kept.alice_bit != kept.bob_bit)[slices.order]
    per_bic = []
    i_ab = 0.0
    i_ae = 0.0
    for quad, k, s in slices:
        cnt = s.stop - s.start
        if cnt == 0:
            per_bic.append((k, quad, 0.0, 0.0, 0.0))
            continue
        p_emp = np.count_nonzero(errors[s]) / cnt
        ab_k = cnt / n_symbols * float(security.channel_capacity(p_emp))
        ae_k = float(np.sum(iae[s])) / n_symbols
        per_bic.append((k, quad, ab_k, ae_k, ab_k - ae_k))
        i_ab += ab_k
        i_ae += ae_k
    return security.InfoReport(i_ab, i_ae, i_ab - i_ae, per_bic)


def write_kept_csv(path, kept, band_idx):
    """Audit export of the kept bits."""
    with open(path, "w") as fh:
        fh.write("quadrature,band,alice_bit,bob_bit,abs_v_a,v_b\n")
        for i in range(len(kept)):
            fh.write(
                "%s,%d,%d,%d,%.17g,%.17g\n"
                % ("xp"[kept.quad[i]], band_idx[i], kept.alice_bit[i],
                   kept.bob_bit[i], kept.abs_v_a[i], kept.v_b[i])
            )
