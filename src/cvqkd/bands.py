"""Sifting, banded information channels, and post-selection.

After Alice announces the magnitudes |v_a|, each quadrature of each symbol
becomes one candidate key bit: the sign of v_a on Alice's side and the sign
of v_b on Bob's.  Bits are partitioned into equal-count bands of the
statistic u = |v_a * v_b| * sqrt(2 * eta) (the flip probability is a
function of u alone), and Bob keeps only the points whose net information
density is positive.

Post-selection and banding read only public data (announced magnitudes,
Bob's outcomes and the channel estimate), so the receiver runs the same
code on his own view, in which Alice's bits are unknown.  The tallies that
need Alice's bits are a separate step on the same partition.
"""

from dataclasses import dataclass

import numpy as np

from .channel import QUADRATURES
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

    def subset(self, mask):
        return SiftedData(
            self.quad[mask],
            None if self.alice_bit is None else self.alice_bit[mask],
            self.bob_bit[mask], self.abs_v_a[mask], self.v_b[mask],
        )


def sift(symbols, measurements):
    """Turn aligned symbol/measurement batches into sign bits with attached
    magnitudes.  Two bits per symbol, one per quadrature."""
    if len(symbols) != len(measurements):
        raise InvalidConfigError(
            f"length mismatch: {len(symbols)} symbols, "
            f"{len(measurements)} measurements"
        )
    quads = []
    for qi, quad in enumerate(QUADRATURES):
        va = symbols.value(quad)
        vb = measurements.value(quad)
        quads.append((
            np.full(len(va), qi, dtype=np.uint8),
            (va > 0).astype(np.uint8),
            (vb > 0).astype(np.uint8),
            np.abs(va),
            vb,
        ))
    return SiftedData(*[np.concatenate(cols) for cols in zip(*quads)])


def band_statistic(sifted, eta_x, eta_p):
    """u = |v_a * v_b| * sqrt(2 * eta) per sifted bit."""
    eta = np.where(sifted.quad == 0, eta_x, eta_p)
    return np.abs(sifted.abs_v_a * sifted.v_b) * np.sqrt(2.0 * eta)


def keep_mask(sifted, eta_x, eta_p, doubled_exponent=False):
    """Bob's post-selection decision: net information density > 0.

    Uses only information available to Bob (announced magnitudes, his own
    outcomes, and the estimated transmissions).
    """
    mask = np.empty(len(sifted), dtype=bool)
    for qi, eta in ((0, eta_x), (1, eta_p)):
        sel = sifted.quad == qi
        di = security.pointwise_net_information(
            sifted.abs_v_a[sel], sifted.v_b[sel], eta, doubled_exponent
        )
        mask[sel] = di > 0.0
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
    mask: np.ndarray
    kept: SiftedData
    partition: BicPartition   # built on the kept bits
    slices: BandSlices        # the kept bits grouped by band
    report_post: security.InfoReport | None
    keep_fraction: float


def postselect(sifted, params, n_bands=10, doubled_exponent=False,
               calibration_mask=None):
    """Post-select and band the sifted bits; report the kept net
    information when Alice's bits are known.

    ``params`` may be a ``ChannelParams`` or a ``ChannelEstimate`` (anything
    with eta()/var_mod()).  Net information is reported in bits per symbol
    (kept contributions divided by the number of symbols).  By default the
    partition quantiles are computed on the kept data itself; pass a
    ``calibration_mask`` over the sifted bits to compute them, and the
    tallies, on the kept part of that subset instead.
    """
    eta_x, eta_p = params.eta("x"), params.eta("p")
    mask = keep_mask(sifted, eta_x, eta_p, doubled_exponent)
    kept = sifted.subset(mask)
    partition = build_partition(
        kept, eta_x, eta_p, n_bands,
        None if calibration_mask is None else calibration_mask[mask],
    )
    slices = BandSlices(kept.quad, partition.band_idx, n_bands)
    report_post = None
    if kept.alice_bit is not None:
        report_post = _empirical_report(kept, slices, params,
                                        len(sifted) / 2.0, doubled_exponent)
    return PostselectResult(mask, kept, partition, slices, report_post,
                            float(np.count_nonzero(mask)) / len(sifted))


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
