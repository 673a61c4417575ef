"""Gaussian symbol source, beam-splitter channel, and channel estimation.

Conventions: all quadrature values are in shot-noise units with a vacuum
variance of 1/2 per quadrature.  Bob's outcome for quadrature v is
``v_b ~ Normal(sqrt(2*eta_v) * v_a, 1/2)``; Eve's retained tap amplitude
after her 50/50 split is ``sqrt((1 - eta_v)/2) * v_a``.

The symbols and Bob's outcomes (32 bytes per symbol) are the only arrays a
key run keeps over all symbols; it builds no Eve taps (``measure``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, TooFewSamplesError
from .rng import stream

VACUUM_VAR = 0.5

QUADRATURES = ("x", "p")

# symbols per block of the passes that walk all the symbols
SYMBOL_BLOCK = 1 << 16


@dataclass(frozen=True)
class ChannelParams:
    """Per-quadrature intensity transmissions and modulation variances."""

    eta_x: float
    eta_p: float
    var_mod_x: float
    var_mod_p: float
    vacuum_var: float = VACUUM_VAR

    def __post_init__(self):
        for name in ("eta_x", "eta_p"):
            eta = getattr(self, name)
            if not 0.0 <= eta <= 1.0:
                raise InvalidConfigError(f"{name}={eta} outside [0, 1]")
        for name in ("var_mod_x", "var_mod_p", "vacuum_var"):
            var = getattr(self, name)
            if not var > 0.0:
                raise InvalidConfigError(f"{name}={var} must be positive")

    @classmethod
    def from_loss(cls, loss, var_mod):
        """Symmetric-quadrature parameters for a channel with the given loss."""
        if not 0.0 <= loss <= 1.0:
            raise InvalidConfigError(f"loss={loss} outside [0, 1]")
        return cls(1.0 - loss, 1.0 - loss, var_mod, var_mod)

    def eta(self, quad):
        return self.eta_x if quad == "x" else self.eta_p

    def var_mod(self, quad):
        return self.var_mod_x if quad == "x" else self.var_mod_p


@dataclass
class SymbolBatch:
    """Alice's quadrature displacement pairs (one array entry per symbol)."""

    x_a: np.ndarray
    p_a: np.ndarray

    def __len__(self):
        return len(self.x_a)

    def value(self, quad):
        return self.x_a if quad == "x" else self.p_a


@dataclass
class MeasurementBatch:
    """Bob's simultaneously measured quadrature pairs."""

    x_b: np.ndarray
    p_b: np.ndarray

    def __len__(self):
        return len(self.x_b)

    def value(self, quad):
        return self.x_b if quad == "x" else self.p_b


@dataclass
class EveTapBatch:
    """Eve's retained deterministic tap amplitudes."""

    x_e: np.ndarray
    p_e: np.ndarray


def generate_symbols(n, params, seed):
    """Draw n independent Gaussian symbols, deterministically in the seed."""
    n = int(n)
    if n < 1:
        raise InvalidConfigError(f"n={n} must be >= 1")
    x = stream(seed, "symbols", "x").normal(0.0, np.sqrt(params.var_mod_x), n)
    p = stream(seed, "symbols", "p").normal(0.0, np.sqrt(params.var_mod_p), n)
    return SymbolBatch(x, p)


def measure(symbols, params, seed):
    """Send symbols through the lossy channel and measure both quadratures:
    independent noise per quadrature, plus the scaled symbols added in place
    one block at a time."""
    sigma = np.sqrt(params.vacuum_var)
    out = {}
    for quad in QUADRATURES:
        va = symbols.value(quad)
        gain = np.sqrt(2.0 * params.eta(quad))
        vb = out[quad] = stream(seed, "channel", quad).normal(0.0, sigma,
                                                              len(va))
        for lo in range(0, len(va), SYMBOL_BLOCK):
            vb[lo:lo + SYMBOL_BLOCK] += gain * va[lo:lo + SYMBOL_BLOCK]
    return MeasurementBatch(out["x"], out["p"])


def transmit_and_measure(symbols, params, seed):
    """``measure`` and Eve's taps: (MeasurementBatch, EveTapBatch)."""
    taps = [np.sqrt((1.0 - params.eta(quad)) / 2.0) * symbols.value(quad)
            for quad in QUADRATURES]
    return measure(symbols, params, seed), EveTapBatch(*taps)


@dataclass
class ChannelEstimate:
    """Estimated channel parameters with standard errors.

    ``excess_noise_*`` is Var(v_b) - 2*eta_hat*var_hat - 1/2, which should be
    statistically compatible with zero when the channel adds pure vacuum.
    """

    eta_x: float
    eta_p: float
    eta_x_se: float
    eta_p_se: float
    var_mod_x: float
    var_mod_p: float
    var_mod_x_se: float
    var_mod_p_se: float
    excess_noise_x: float
    excess_noise_p: float
    excess_noise_x_se: float
    excess_noise_p_se: float
    n_pairs: int

    def to_params(self, vacuum_var=VACUUM_VAR):
        return ChannelParams(
            min(max(self.eta_x, 0.0), 1.0),
            min(max(self.eta_p, 0.0), 1.0),
            self.var_mod_x,
            self.var_mod_p,
            vacuum_var,
        )

    def eta(self, quad):
        return self.eta_x if quad == "x" else self.eta_p

    def var_mod(self, quad):
        return self.var_mod_x if quad == "x" else self.var_mod_p


MIN_ESTIMATION_PAIRS = 1000


def estimate_channel(symbols, measurements):
    """Estimate transmissions and modulation variances from revealed pairs.

    eta_v is estimated as Cov(v_a, v_b)^2 / (2 Var(v_a)^2).  Standard errors
    come from the empirical influence functions of those moment estimators.
    """
    n = len(symbols)
    if n < MIN_ESTIMATION_PAIRS:
        raise TooFewSamplesError(
            f"need >= {MIN_ESTIMATION_PAIRS} revealed pairs, got {n}"
        )
    vals = {}
    for quad in QUADRATURES:
        a = symbols.value(quad)
        b = measurements.value(quad)
        ac = a - a.mean()
        bc = b - b.mean()
        cov = np.mean(ac * bc)
        var_a = np.mean(ac * ac)
        var_b = np.mean(bc * bc)
        eta = cov**2 / (2.0 * var_a**2)

        if_cov = ac * bc - cov
        if_var_a = ac * ac - var_a
        if_var_b = bc * bc - var_b
        if_eta = (cov / var_a**2) * if_cov - (cov**2 / var_a**3) * if_var_a
        excess = var_b - 2.0 * eta * var_a - VACUUM_VAR
        if_excess = if_var_b - 2.0 * eta * if_var_a - 2.0 * var_a * if_eta

        vals[quad] = (
            eta,
            np.std(if_eta) / np.sqrt(n),
            var_a,
            np.std(if_var_a) / np.sqrt(n),
            excess,
            np.std(if_excess) / np.sqrt(n),
        )
    ex, ex_se, vx, vx_se, nx, nx_se = vals["x"]
    ep, ep_se, vp, vp_se, np_, np_se = vals["p"]
    return ChannelEstimate(
        ex, ep, ex_se, ep_se, vx, vp, vx_se, vp_se, nx, np_, nx_se, np_se, n
    )


@dataclass
class GaussianityReport:
    excess_kurtosis: float
    ecdf_statistic: float
    ecdf_pvalue: float
    kurtosis_limit: float
    significance: float
    n: int

    @property
    def passed(self):
        return (
            abs(self.excess_kurtosis) < self.kurtosis_limit
            and self.ecdf_pvalue >= self.significance
        )


def gaussianity_check(values, kurtosis_limit=0.1, significance=0.01):
    """Test a sample for consistency with a Gaussian distribution.

    Used on the announced data prior to post-selection to screen for
    non-Gaussian tampering.  Passes iff the excess kurtosis is inside the
    limit and the empirical-CDF deviation from a fitted normal is not
    rejected at the configured significance.
    """
    from scipy import stats

    values = np.asarray(values, dtype=float)
    if len(values) < 1000:
        raise TooFewSamplesError(f"need >= 1000 values, got {len(values)}")
    kurt = stats.kurtosis(values, fisher=True)
    mu, sd = values.mean(), values.std()
    ks = stats.kstest(values, "norm", args=(mu, sd))
    return GaussianityReport(
        float(kurt),
        float(ks.statistic),
        float(ks.pvalue),
        kurtosis_limit,
        significance,
        len(values),
    )


def write_symbol_csv(path, symbols, measurements):
    """Export (x_a, p_a, x_b, p_b) as decimal text with >= 15 sig digits."""
    with open(path, "w") as fh:
        fh.write("# shot-noise-units, vacuum-var=0.5\n")
        fh.write("x_a,p_a,x_b,p_b\n")
        for row in zip(
            symbols.x_a, symbols.p_a, measurements.x_b, measurements.p_b
        ):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
