"""Sifting, banded information channels, and post-selection.

After Alice announces the magnitudes |v_a|, each quadrature of each symbol
becomes one candidate key bit: the sign of v_a on Alice's side and the sign
of v_b on Bob's.  Bits are partitioned into equal-count bands of the
statistic u = |v_a * v_b| * sqrt(2 * eta) (the flip probability is a
function of u alone), and Bob keeps only the points whose net information
density is positive.

Sifted and kept bits are two quadrature halves, the ``n_x`` x bits first
(``halves``), and per-bit quantities are computed per half with a scalar
eta.  Sifting and the keep decision are one pass over blocks of symbols
that computes u and Eve's bias once per bit and keeps only the kept bits,
with their u and Eve's information bound for the later steps; the only
array over all sifted bits is the one-byte keep mask.

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


def halves(n_x, n):
    """(slice, quadrature index) of the x and p halves of n bits, x first."""
    return (slice(0, n_x), 0), (slice(n_x, n), 1)


@dataclass
class SiftedData:
    """Per-bit sifted records: the ``n_x`` x-quadrature bits, then the p bits.

    ``alice_bit`` is private to Alice and None in the receiver's view; Bob's
    post-selection decision uses only ``abs_v_a`` and ``v_b``.  ``u``, which
    ``subset`` carries, and Eve's bias ``eve_q`` are None until ``keep_mask``
    fills them in.
    """

    n_x: int
    alice_bit: np.ndarray | None  # uint8
    bob_bit: np.ndarray    # uint8
    abs_v_a: np.ndarray
    v_b: np.ndarray
    u: np.ndarray | None = None
    eve_q: np.ndarray | None = None

    _COLUMNS = ("alice_bit", "bob_bit", "abs_v_a", "v_b", "u")

    def __len__(self):
        return len(self.bob_bit)

    @property
    def quad(self):
        """Quadrature per bit, 0 = x, 1 = p."""
        return np.repeat(np.array([0, 1], np.uint8),
                         [self.n_x, len(self) - self.n_x])

    def subset(self, mask):
        cols = [getattr(self, name) for name in self._COLUMNS]
        return SiftedData(int(np.count_nonzero(mask[:self.n_x])),
                          *[None if c is None else c[mask] for c in cols])

    @classmethod
    def concat(cls, parts):
        """The parts in order, x parts first; joining drops each column from
        the parts, so it needs little more memory than they hold."""
        cols = []
        for name in cls._COLUMNS:
            col = [getattr(p, name) for p in parts]
            for p in parts:
                setattr(p, name, None)
            cols.append(None if col[0] is None else np.concatenate(col))
        return cls(sum(p.n_x for p in parts), *cols)


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
    for quad in QUADRATURES:
        va_all, vb_all = symbols.value(quad), measurements.value(quad)
        for lo in range(0, len(va_all), SYMBOL_BLOCK):
            block = slice(lo, lo + SYMBOL_BLOCK)
            sel = symbol_mask[block]
            va, vb = va_all[block][sel], vb_all[block][sel]
            yield SiftedData(len(va) if quad == "x" else 0,
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
    for s, qi in halves(sifted.n_x, len(u)):
        u[s] *= np.sqrt(2.0 * (eta_x, eta_p)[qi])
    return u


def keep_mask(sifted, eta_x, eta_p, doubled_exponent=False):
    """Bob's post-selection decision: net information density > 0, that is
    Bob's bias tanh(2u) above Eve's bias (see ``security.keep_threshold_u``).

    Uses only information available to Bob (announced magnitudes, his own
    outcomes, and the estimated transmissions).  Fills in the bits' ``u``
    and Eve's bias ``eve_q``.
    """
    sifted.u = band_statistic(sifted, eta_x, eta_p)
    sifted.eve_q = q = np.empty(len(sifted))
    for s, qi in halves(sifted.n_x, len(q)):
        q[s] = security.eve_bias(sifted.abs_v_a[s], (eta_x, eta_p)[qi],
                                 doubled_exponent)
    return np.tanh(2.0 * sifted.u) > q


def eve_information_bits(n_x, abs_v_a, eta_x, eta_p, doubled_exponent):
    """Eve's information bound per bit, in bits, the ``n_x`` x bits first."""
    out = np.empty(len(abs_v_a))
    for s, qi in halves(n_x, len(abs_v_a)):
        out[s] = security.eve_information_quadrature(
            abs_v_a[s], (eta_x, eta_p)[qi], doubled_exponent)
    return out


MIN_POINTS_PER_BAND = 100


class BandSlices:
    """Bits grouped by (quadrature, band) with one stable sort per half.

    ``values[order]`` puts every band in one contiguous slice that keeps the
    bits' original order; iterating yields (quad, band, slice) with the x
    bands first, each quadrature from band 0 up.
    """

    def __init__(self, n_x, band_idx, n_bands):
        self.n_x = n_x
        self.n_bands = n_bands
        cut = halves(n_x, len(band_idx))
        self.order = np.concatenate([
            s.start + np.argsort(band_idx[s], kind="stable") for s, _ in cut])
        self.stops = np.cumsum(np.concatenate([
            np.bincount(band_idx[s], minlength=n_bands) for s, _ in cut]))

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
    band_idx: np.ndarray      # uint8
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
                       band_statistic(sifted, eta_x, eta_p), sifted.n_x)

    def tally(self, n_x, errors):
        """Count good and erroneous bits per band over the calibration
        subset, given the error flag of every bit it was built on."""
        for s, qi in halves(n_x, len(errors)):
            idx, err = self.band_idx[s], errors[s]
            if self.calibration is not None:
                idx, err = idx[self.calibration[s]], err[self.calibration[s]]
            self.n_error[qi] = np.bincount(idx[err], minlength=self.n_bands)
            self.n_good[qi] = np.bincount(idx, minlength=self.n_bands) \
                - self.n_error[qi]


def _assign(boundaries, n_bands, u, n_x):
    """Band index per bit: one searchsorted per quadrature."""
    out = np.empty(len(u), dtype=np.uint8)
    for s, qi in halves(n_x, len(u)):
        raw = np.searchsorted(boundaries[QUADRATURES[qi]][1:-1], u[s],
                              side="right")
        out[s] = n_bands - 1 - raw
    return out


def build_partition(sifted, n_bands=10, calibration_mask=None):
    """Quantile-band the sifted bits on their ``u`` so each band of the
    calibration subset (all bits by default) holds an equal count (+-1) per
    quadrature, assign every bit its band, and tally the calibration
    subset's good/error counts when Alice's bits are known."""
    if not 1 <= n_bands <= 255:
        raise InvalidConfigError(f"n_bands={n_bands} must be in [1, 255]")
    boundaries = {}
    for s, qi in halves(sifted.n_x, len(sifted)):
        uq = sifted.u[s]
        if calibration_mask is not None:
            uq = uq[calibration_mask[s]]
        quad = QUADRATURES[qi]
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
    partition = BicPartition(
        n_bands, boundaries, _assign(boundaries, n_bands, sifted.u, sifted.n_x),
        calibration_mask, np.zeros((2, n_bands)), np.zeros((2, n_bands)))
    if sifted.alice_bit is not None:
        partition.tally(sifted.n_x, sifted.alice_bit != sifted.bob_bit)
    return partition


@dataclass
class PostselectResult:
    mask: np.ndarray          # keep flag per sifted bit
    kept: SiftedData          # the kept bits, with their u
    eve_info: np.ndarray      # Eve's information bound per kept bit
    partition: BicPartition   # built on the kept bits
    slices: BandSlices        # the kept bits grouped by band
    report_post: security.InfoReport | None
    n_flip: int | None        # sign flips over all sifted bits (None if
    eve_error_sum: float      # unknown); Eve's Helstrom error summed over
    eve_error_kept: float     # all sifted bits, and over the kept bits


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
    masks, kept, eve_info = [], [], []
    n_flip, eve_sum, eve_kept = 0, 0.0, 0.0
    for block in [sifted] if isinstance(sifted, SiftedData) else sifted:
        masks.append(keep_mask(block, eta_x, eta_p, doubled_exponent))
        # Eve's Helstrom error is (1 - q) / 2 at her bias q
        eve_sum += 0.5 * float(np.sum(1.0 - block.eve_q))
        eve_q = block.eve_q[masks[-1]]
        eve_kept += 0.5 * float(np.sum(1.0 - eve_q))
        eve_info.append(security.capacity_from_bias(eve_q))
        kept.append(block.subset(masks[-1]))
        if block.alice_bit is not None:
            n_flip += int(np.count_nonzero(block.alice_bit != block.bob_bit))
    mask = np.concatenate(masks)
    kept = SiftedData.concat(kept)
    eve_info = np.concatenate(eve_info)
    partition = build_partition(
        kept, n_bands,
        None if calibration_mask is None else calibration_mask[mask],
    )
    slices = BandSlices(kept.n_x, partition.band_idx, n_bands)
    report_post = None if kept.alice_bit is None else _empirical_report(
        kept, slices, eve_info, len(mask) / 2.0)
    return PostselectResult(mask, kept, eve_info, partition, slices,
                            report_post,
                            None if kept.alice_bit is None else n_flip,
                            eve_sum, eve_kept)


def _empirical_report(kept, slices, eve_info, n_symbols):
    """Per-symbol net information of the kept bits, band by band.

    Bob's term is the banded capacity at the empirical error rates; Eve's is
    the empirical mean of her bound ``eve_info`` over the kept points (the
    Monte-Carlo estimate of the band integral in the net-information
    formula).
    """
    iae = eve_info[slices.order]
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
    quad = kept.quad
    with open(path, "w") as fh:
        fh.write("quadrature,band,alice_bit,bob_bit,abs_v_a,v_b\n")
        for i in range(len(kept)):
            fh.write(
                "%s,%d,%d,%d,%.17g,%.17g\n"
                % ("xp"[quad[i]], band_idx[i], kept.alice_bit[i],
                   kept.bob_bit[i], kept.abs_v_a[i], kept.v_b[i])
            )
