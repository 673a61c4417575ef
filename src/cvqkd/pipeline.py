"""End-to-end in-process pipeline and the stage logic shared with the
two-party session.

Every random draw comes from a stream named under the master seed (see
``rng``), so a networked session with the same seed reproduces this
pipeline bit for bit.  Stage accounting follows the protocol order: raw,
post-selected, advantage-distilled, reconciled, amplified.

Rate basis: 17 MHz symbols/s with two raw bits per symbol.  The stage
report's net-information column is h(p_Eve) - h(p_Bob) of each stage's
pooled error rates: the per-bit information advantage at that point in
the pipeline.  Banded per-symbol net information (the post-selection
target function) is reported separately by the post-selection step.
"""

import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import bands, channel, privamp, reconcile, security, wire
from .channel import QUADRATURES
from .errors import InvalidConfigError, NumericalFailureError, ProtocolError
from .rng import stream


# the accepted spellings of a boolean config value, in any case
_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


@dataclass
class PipelineConfig:
    loss: float = 0.54
    var_mod: float | None = None   # None optimizes at the given loss
    n_symbols: int = 100_000
    n_bands: int = 10
    seed: int = 1
    security_bits: int = 5
    reveal_fraction: float = 0.05
    min_reveal: int = 2000
    cascade_passes: int = 4
    ad_target: float = 0.11
    ad_cap: int = 8
    doubled_exponent: bool = False
    holdout: bool = False
    symbol_rate: float = 17e6

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise InvalidConfigError(f"loss={self.loss} outside [0, 1)")
        if self.n_symbols < 10_000:
            raise InvalidConfigError("need at least 10^4 symbols")
        if not 1 <= self.n_bands <= 255:  # one byte on the wire
            raise InvalidConfigError("n_bands must be in [1, 255]")
        if self.var_mod is not None and not 0.0 < self.var_mod < np.inf:
            raise InvalidConfigError(
                f"var_mod={self.var_mod} must be finite and > 0")
        if self.seed < 0:
            raise InvalidConfigError(f"seed={self.seed} must be >= 0")
        if self.security_bits < 1:
            raise InvalidConfigError("security_bits must be >= 1")
        if not 0.0 < self.reveal_fraction < 1.0:
            raise InvalidConfigError("reveal_fraction must be in (0, 1)")
        if not 1 <= self.cascade_passes <= 255:  # one byte on the wire
            raise InvalidConfigError("cascade_passes must be in [1, 255]")
        if self.ad_cap < 1:
            raise InvalidConfigError("ad_cap must be >= 1")

    def resolve_var_mod(self):
        """Fill in the optimizing modulation variance if left unset."""
        if self.var_mod is None:
            self.var_mod = security.optimal_modulation_variance(
                1.0 - self.loss
            )
        return self.var_mod

    def channel_params(self):
        return channel.ChannelParams.from_loss(self.loss,
                                               self.resolve_var_mod())

    def to_text(self):
        out = []
        for f in fields(self):
            val = getattr(self, f.name)
            out.append(f"{f.name}={'' if val is None else val}")
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text):
        kwargs = {}
        casts = {f.name: f for f in fields(cls)}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, val = line.split("=", 1)
            key = key.strip()
            val = val.strip()
            if key not in casts:
                raise InvalidConfigError(f"unknown config key {key}")
            if val == "":
                if casts[key].default is not None:
                    raise InvalidConfigError(f"config key {key} needs a value")
                kwargs[key] = None
            elif key in ("n_symbols", "n_bands", "seed", "security_bits",
                         "min_reveal", "cascade_passes", "ad_cap"):
                kwargs[key] = int(float(val))
            elif key in ("doubled_exponent", "holdout"):
                if val.lower() not in _FLAGS:
                    raise InvalidConfigError(
                        f"config key {key} needs one of {'/'.join(_FLAGS)}")
                kwargs[key] = _FLAGS[val.lower()]
            else:
                kwargs[key] = float(val)
        return cls(**kwargs)


@dataclass
class BandRecord:
    """Everything tracked about one banded information channel."""

    quad: str
    band: int
    p_emp: float                # empirical error rate (diagnostic)
    p_pred: float               # model-predicted rate; drives all decisions
    eve_error: float            # tracked bound, updated per stage
    repeat_n: int = 1
    n_kept: int = 0
    n_distilled: int = 0
    ad_mask_bits: int = 0
    cascade_bits: int = 0
    confirm_bits: int = 0
    bob_error_ad: float = 0.0   # predicted residual after distillation
    eve_error_ad: float = 0.0
    eve_error_ir: float = 0.0
    key_bits: int = 0

    @property
    def leaked_bits(self):
        return self.ad_mask_bits + self.cascade_bits + self.confirm_bits


@dataclass
class StageRow:
    stage: str
    bits_per_second: float
    p_bob: float
    p_eve: float
    delta_i: float


@dataclass
class RunReport:
    rows: list
    config_text: str
    seed: int
    wall_seconds: float

    def render(self):
        lines = [
            f"{'stage':<22}{'rate (bits/s)':>16}{'P Bob (%)':>12}"
            f"{'P Eve (%)':>12}{'dI (bits)':>12}"
        ]
        for row in self.rows:
            lines.append(
                f"{row.stage:<22}{row.bits_per_second:>16.4g}"
                f"{100 * row.p_bob:>12.2f}{100 * row.p_eve:>12.2f}"
                f"{row.delta_i:>12.4f}"
            )
        return "\n".join(lines)


@dataclass
class PipelineResult:
    report: RunReport
    records: list
    estimate: channel.ChannelEstimate
    postselection: bands.PostselectResult
    alice_key: np.ndarray
    bob_key: np.ndarray
    key_bytes: bytes
    confirmed: bool
    sifted_kept: bands.SiftedData


def reveal_indices(seed, n_symbols, reveal_fraction, min_reveal):
    k = min(n_symbols // 2, max(min_reveal, int(reveal_fraction * n_symbols)))
    rng = stream(seed, "protocol", "reveal")
    return np.sort(rng.choice(n_symbols, size=k, replace=False))


def sift_layout(config):
    """The revealed estimation subset, and the mask of the sifted symbols:
    every symbol outside that subset.  Each sifted symbol gives one sifted
    position per quadrature, the x positions first."""
    idx = reveal_indices(config.seed, config.n_symbols,
                         config.reveal_fraction, config.min_reveal)
    symbol_mask = np.ones(config.n_symbols, dtype=bool)
    symbol_mask[idx] = False
    return idx, symbol_mask


def calibration_mask(config, symbol_mask):
    """Under ``holdout``, the random tenth of the sifted positions whose kept
    bits set the band boundaries and the ``p_emp`` tallies; else None."""
    if not config.holdout:
        return None
    n_sift = 2 * int(np.count_nonzero(symbol_mask))
    mask = np.zeros(n_sift, dtype=bool)
    mask[stream(config.seed, "protocol", "holdout").choice(
        n_sift, size=n_sift // 10, replace=False)] = True
    return mask


@dataclass
class BandPlan:
    """The receiver's public banding announcement.

    ``keep`` covers the sifted positions and ``band_idx`` the kept ones;
    ``slices`` groups the kept bits by band.
    """

    eta_x: float
    eta_p: float
    keep: np.ndarray          # bool over sifted positions
    band_idx: np.ndarray      # uint8 per kept point
    n_bands: int
    boundaries_x: np.ndarray
    boundaries_p: np.ndarray
    p_pred: dict              # (quad, band) -> predicted error
    repeat_ns: dict           # (quad, band) -> repeat length
    order: list               # (quad, band) processing order
    slices: bands.BandSlices = field(repr=False, compare=False)

    def split(self, values):
        """Per-kept-bit ``values`` (last axis) cut into one array per band,
        in processing order."""
        values = values[..., self.slices.order]
        return [values[..., self.slices[quad, k]] for quad, k in self.order]

    def pack(self):
        out = [struct.pack("<dd", self.eta_x, self.eta_p),
               wire.pack_bits(self.keep.astype(np.uint8)),
               struct.pack("<Q", len(self.band_idx)),
               self.band_idx.tobytes(),
               struct.pack("<I", self.n_bands),
               wire.pack_floats(self.boundaries_x),
               wire.pack_floats(self.boundaries_p)]
        for quad in QUADRATURES:
            out.append(wire.pack_floats(
                [self.p_pred[(quad, k)] for k in range(self.n_bands)]
            ))
            out.append(bytes(
                self.repeat_ns[(quad, k)] for k in range(self.n_bands)
            ))
        out.append(bytes(
            b for quad, k in self.order for b in (quad == "p", k)
        ))
        return b"".join(out)

    @classmethod
    def unpack(cls, buf, n_sift, n_bands):
        """Decode a plan for ``n_sift`` sifted positions and ``n_bands``
        bands; a plan that does not fit them raises ``ProtocolError``."""
        eta_x, eta_p = wire.unpack_from("<dd", buf, 0)
        keep_u8, off = wire.unpack_bits(buf, 16)
        keep = keep_u8.astype(bool)
        (n_kept,) = wire.unpack_from("<Q", buf, off)
        band_idx = np.frombuffer(wire.take(buf, off + 8, n_kept),
                                 dtype=np.uint8).copy()
        off += 8 + n_kept
        (got_bands,) = wire.unpack_from("<I", buf, off)
        off += 4
        if len(keep) != n_sift or got_bands != n_bands:
            raise ProtocolError(
                f"plan for {len(keep)} positions and {got_bands} bands, "
                f"expected {n_sift} and {n_bands}")
        if n_kept != np.count_nonzero(keep) or np.any(band_idx >= n_bands):
            raise ProtocolError("band index does not fit the keep mask")
        bx, off = wire.unpack_floats(buf, off, n_bands + 1)
        bp, off = wire.unpack_floats(buf, off, n_bands + 1)
        p_pred = {}
        repeat_ns = {}
        for quad in QUADRATURES:
            vals, off = wire.unpack_floats(buf, off, n_bands)
            reps = wire.take(buf, off, n_bands)
            off += n_bands
            if min(reps) < 1:
                raise ProtocolError("repeat length below 1")
            for k in range(n_bands):
                p_pred[(quad, k)] = float(vals[k])
                repeat_ns[(quad, k)] = reps[k]
        raw = wire.take(buf, off, 4 * n_bands)
        order = [("p" if raw[i] else "x", raw[i + 1])
                 for i in range(0, len(raw), 2)]
        if set(order) != set(p_pred):
            raise ProtocolError("processing order is not a band permutation")
        n_x = int(np.count_nonzero(keep[:n_sift // 2]))
        return cls(eta_x, eta_p, keep, band_idx, n_bands, bx, bp, p_pred,
                   repeat_ns, order, bands.BandSlices(n_x, band_idx, n_bands))


def band_plan(ps, est, config):
    """The receiver's plan from his post-selection: keep mask, partition
    boundaries and band index, predicted errors, repeat lengths and order."""
    p_pred = predicted_band_errors(ps.kept.u, ps.slices)
    repeat_ns = {
        key: reconcile.choose_repeat_n(p, config.ad_target, config.ad_cap)
        for key, p in p_pred.items()
    }
    part = ps.partition
    return BandPlan(
        est.eta("x"), est.eta("p"), ps.mask, part.band_idx, part.n_bands,
        part.boundaries["x"], part.boundaries["p"], p_pred, repeat_ns,
        band_processing_order(p_pred), ps.slices,
    )


def predicted_band_errors(u, slices):
    """Model-predicted error rate per band.

    The mean of the pointwise sign-flip probability over the band's kept
    points.  It depends only on announced magnitudes, the receiver's own
    measurements and the channel estimate, so the receiving party can
    compute it without reference bits and announce it; this drives the
    repeat-code length and Cascade block sizing in both run modes.
    """
    return slices.means(security.error_probability_u(u))


def band_processing_order(p_pred):
    """(quad, band) pairs from lowest to highest predicted error; ties go
    x before p, then by band."""
    return sorted(p_pred, key=lambda key: (p_pred[key],
                                           QUADRATURES.index(key[0]), key[1]))


def eve_band_bounds(iae, slices):
    """Per-band information-equivalent Eve error bound on the kept points.

    The band's mean of Eve's information bound ``iae`` is converted to the
    error probability of a binary channel with that capacity (her
    modulation-averaged knowledge expressed as a single error rate).
    """
    means = slices.means(iae)
    bounds = security.inverse_binary_entropy(
        1.0 - np.minimum(list(means.values()), 1.0))
    return {key: float(p) for key, p in zip(means, bounds)}


def band_records(plan, eve_info):
    """The band records both parties derive from the plan and Eve's
    information bound per kept bit, in processing order."""
    eve_bounds = eve_band_bounds(eve_info, plan.slices)
    records = []
    for key in plan.order:
        s = plan.slices[key]
        records.append(BandRecord(*key, 0.0, plan.p_pred[key],
                                  eve_bounds[key], plan.repeat_ns[key],
                                  s.stop - s.start))
    return records


def set_p_emp(records, partition):
    """Copy the partition's empirical error rates into the records."""
    p_emp = partition.p_emp
    for rec in records:
        rec.p_emp = float(p_emp[QUADRATURES.index(rec.quad), rec.band])


def ad_stream(seed, quad, band):
    return stream(seed, "protocol", "ad", quad, band)


def cascade_stream_factory(seed, quad, band):
    return lambda attempt: stream(seed, "protocol", "cascade", quad, band,
                                  attempt)


def pa_seed_value(seed, quad, band):
    return int(stream(seed, "protocol", "pa", quad, band).integers(1 << 62))


def confirm_seed_value(seed):
    return int(stream(seed, "protocol", "confirm").integers(1 << 62))


def band_step(rec, bits, distill, correct):
    """One band's advantage distillation and Cascade, with the ledger
    bookkeeping every run mode shares.

    ``distill(rec, bits)`` runs the repeat-code exchange and returns the
    distilled bits and the number of announced mask bits;
    ``correct(rec, bits, beta_hat)`` runs Cascade and returns the
    reconciled bits and the number of disclosed bits.  ``bits`` is one
    party's string, or, in the in-process run, both parties' strings as the
    two rows of one array.
    """
    if rec.repeat_n > 1:
        bits, rec.ad_mask_bits = distill(rec, bits)
    rec.n_distilled = bits.shape[-1]
    rec.bob_error_ad = float(reconcile.ad_error(rec.p_pred, rec.repeat_n))
    rec.eve_error_ad = float(reconcile.eve_ad_error(rec.eve_error,
                                                    rec.repeat_n))
    if rec.n_distilled > 0:
        bits, rec.cascade_bits = correct(rec, bits,
                                         max(rec.bob_error_ad, 1e-3))
    return bits


def finish_keys(records, parties, config):
    """Size every band, then hash each party's band strings into its key.

    The confirm-hash disclosure is reserved first.  The sizing input is
    Eve's post-distillation error bound (mask leakage is already folded
    into it by the repeat-code update) and the band's Cascade leakage.
    ``parties`` holds, per party, one bit string per record; one key is
    returned per party.  Eve's error after Cascade, which only the ledger
    and the report read, is recorded here for all bands in one call.
    """
    eve_error_ir = reconcile.eve_error_after_leak(
        [rec.eve_error_ad for rec in records],
        [rec.cascade_bits for rec in records],
        [rec.n_distilled for rec in records],
    )
    for rec, p in zip(records, eve_error_ir):
        rec.eve_error_ir = float(p)
    if records:
        largest = max(records, key=lambda rec: rec.n_distilled)
        largest.confirm_bits += privamp.CONFIRM_BITS
    for rec in records:
        rec.key_bits = privamp.final_key_length(
            rec.n_distilled, rec.eve_error_ad,
            rec.cascade_bits + rec.confirm_bits, config.security_bits,
        )
    keys = []
    for band_bits in parties:
        parts = [
            privamp.toeplitz_hash(bits, rec.key_bits, pa_seed_value(
                config.seed, rec.quad, rec.band))
            for rec, bits in zip(records, band_bits) if rec.key_bits
        ]
        keys.append(np.concatenate(parts) if parts
                    else np.zeros(0, dtype=np.uint8))
    return keys


def run_pipeline(config):
    """Full in-process run; plays both parties with local objects and
    produces keys for both plus the stage report and the per-band ledger."""
    t0 = time.monotonic()
    config.resolve_var_mod()
    params = config.channel_params()
    seed = config.seed

    symbols = channel.generate_symbols(config.n_symbols, params, seed)
    meas = channel.measure(symbols, params, seed)

    # parameter estimation on a revealed subset, excluded from key material
    idx, symbol_mask = sift_layout(config)
    revealed_syms = channel.SymbolBatch(symbols.x_a[idx], symbols.p_a[idx])
    revealed_meas = channel.MeasurementBatch(meas.x_b[idx], meas.p_b[idx])
    est = channel.estimate_channel(revealed_syms, revealed_meas)

    ps = bands.postselect(bands.sift_blocks(symbols, meas, symbol_mask), est,
                          config.n_bands, config.doubled_exponent,
                          calibration_mask(config, symbol_mask))
    kept = ps.kept
    plan = band_plan(ps, est, config)
    records = band_records(plan, ps.eve_info)
    ps.kept.u = ps.eve_info = None  # free the carried arrays
    set_p_emp(records, ps.partition)

    def distill(rec, bits):
        ad = reconcile.advantage_distill(bits[0], bits[1], rec.repeat_n,
                                         ad_stream(seed, rec.quad, rec.band))
        return np.stack([ad.alice_bits, ad.bob_bits]), ad.leaked_bits

    def correct(rec, bits, beta_hat):
        result, _ = reconcile.cascade(
            bits[0], bits[1], beta_hat,
            cascade_stream_factory(seed, rec.quad, rec.band),
            passes=config.cascade_passes,
        )
        return np.stack([bits[0], result.bits]), result.leaked_bits

    both = [band_step(rec, bits, distill, correct) for rec, bits in
            zip(records, plan.split(np.stack([kept.alice_bit, kept.bob_bit])))]
    alice_key, bob_key = finish_keys(
        records, ([a for a, _ in both], [b for _, b in both]), config
    )
    confirmed = privamp.key_confirm(alice_key, bob_key, confirm_seed_value(seed))

    report = build_report(config, ps, records, t0)
    return PipelineResult(
        report, records, est, ps, alice_key, bob_key,
        privamp.pack_key(bob_key), confirmed, kept,
    )


def _h(p):
    return float(security.binary_entropy(p))


def build_report(config, ps, records, t0):
    """Stage table in the protocol's processing order.

    Each row's net information is h(p_Eve) - h(p_Bob) of the stage's
    pooled error rates, i.e. bits of advantage per bit surviving that
    stage; Eve's rates are tracked bounds in her favor.  ``ps`` is the
    post-selection, with Alice's bits in its kept bits and tallies.
    """
    n_symbols = config.n_symbols
    symbol_rate = config.symbol_rate
    raw_rate = 2.0 * symbol_rate

    n_sift = len(ps.mask)
    raw_flip = ps.n_flip / n_sift
    eve_raw = ps.eve_error_sum / n_sift
    rows = [StageRow("raw", raw_rate, raw_flip, eve_raw,
                     _h(eve_raw) - _h(raw_flip))]

    kept = ps.kept
    n_kept = len(kept)
    post_rate = raw_rate * n_kept / n_sift
    kept_flip = float(np.mean(kept.alice_bit != kept.bob_bit)) if n_kept else 0.0
    eve_post = ps.eve_error_kept / n_kept if n_kept else 0.5
    rows.append(StageRow("post_selected", post_rate, kept_flip, eve_post,
                         _h(eve_post) - _h(kept_flip)))

    m_total = sum(rec.n_distilled for rec in records)
    if m_total > 0:
        w = np.array([rec.n_distilled / m_total for rec in records])
        bob_ad = float(np.sum(w * np.array([r.bob_error_ad for r in records])))
        eve_ad = float(np.sum(w * np.array([r.eve_error_ad for r in records])))
        eve_ir = float(np.sum(w * np.array([r.eve_error_ir for r in records])))
        ad_rate = symbol_rate * m_total / n_symbols
        rows.append(StageRow("advantage_distilled", ad_rate, bob_ad, eve_ad,
                             _h(eve_ad) - _h(bob_ad)))
        rows.append(StageRow("reconciled", ad_rate, 0.0, eve_ir, _h(eve_ir)))
    else:
        rows.append(StageRow("advantage_distilled", 0.0, 0.0, 0.0, 0.0))
        rows.append(StageRow("reconciled", 0.0, 0.0, 0.0, 0.0))

    key_total = sum(rec.key_bits for rec in records)
    rows.append(StageRow("amplified", symbol_rate * key_total / n_symbols,
                         0.0, 0.5, 1.0 if key_total else 0.0))

    _check_rate_arithmetic(rows)
    return RunReport(rows, config.to_text(), config.seed,
                     time.monotonic() - t0)


def _check_rate_arithmetic(rows):
    """Each stage's rate must be the previous one scaled by a survival
    fraction in [0, 1]."""
    for prev, cur in zip(rows, rows[1:]):
        if cur.bits_per_second > prev.bits_per_second * (1.0 + 1e-12):
            raise NumericalFailureError(
                f"stage {cur.stage} rate {cur.bits_per_second} exceeds "
                f"previous stage rate {prev.bits_per_second}"
            )


def ledger_text(records):
    """key=value dump of the per-band ledger."""
    lines = []
    for rec in records:
        prefix = f"band.{rec.quad}.{rec.band}"
        for name in ("p_emp", "p_pred", "repeat_n", "n_kept", "n_distilled",
                     "ad_mask_bits", "cascade_bits", "confirm_bits",
                     "bob_error_ad", "eve_error", "eve_error_ad",
                     "eve_error_ir", "key_bits"):
            lines.append(f"{prefix}.{name}={getattr(rec, name)}")
    lines.append(f"total.leaked_bits={sum(r.leaked_bits for r in records)}")
    lines.append(f"total.key_bits={sum(r.key_bits for r in records)}")
    return "\n".join(lines) + "\n"
