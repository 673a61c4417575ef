"""Closed-form information quantities for the no-switching protocol.

Implements Eve's information bound from the coherent-state overlap, the
sign-flip error probability of Bob's data, Eve-information integrals
over banded regions, net-information contour grids, the theoretical
key-rate-versus-loss curve, and the order-2 Renyi entropy used to size
the final key.

All information quantities are in bits.  ``abs_v_a`` is Alice's announced
magnitude; ``v_b`` is Bob's outcome in shot-noise units (vacuum variance
1/2); u denotes the banding statistic |v_a * v_b| * sqrt(2 * eta).
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit, log1p, ndtr, xlogy

LN2 = np.log(2.0)

# Integration region is truncated at this many standard deviations; the
# Gaussian mass outside is below 1e-14 and is reported by callers that care.
TRUNCATION_SIGMAS = 8.0


def binary_entropy(p):
    """Shannon entropy of a binary variable, in bits (0 log 0 = 0)."""
    p = np.asarray(p, dtype=float)
    return (xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / -LN2


def inverse_binary_entropy(h):
    """Inverse of ``binary_entropy`` on [0, 1/2]."""
    h = np.asarray(h, dtype=float)
    scalar = h.ndim == 0
    h = np.atleast_1d(h)
    out = np.empty_like(h)
    for i, hv in enumerate(h):
        if hv <= 0.0:
            out[i] = 0.0
        elif hv >= 1.0:
            out[i] = 0.5
        else:
            out[i] = optimize.brentq(
                lambda p: binary_entropy(p) - hv, 1e-18, 0.5, xtol=1e-15
            )
    return out[0] if scalar else out


def channel_capacity(p_err):
    """Binary-symmetric channel capacity 1 - h(p), in bits."""
    return 1.0 - binary_entropy(p_err)


def eve_overlap(abs_v_a, eta, doubled_exponent=False):
    """Eve's quadrature overlap function z.

    The default exponent is ``exp(-(1 - eta) |v_a|^2)``.  With
    ``doubled_exponent`` the coherent-state overlap with twice the exponent
    is used instead, for sensitivity studies.
    """
    scale = 2.0 if doubled_exponent else 1.0
    # estimated transmissions may overshoot 1 slightly; a lossless channel
    # gives Eve nothing (z = 1)
    one_minus_eta = np.maximum(1.0 - np.asarray(eta, dtype=float), 0.0)
    return np.exp(-scale * one_minus_eta * np.square(abs_v_a))


def helstrom_error(z):
    """Minimum error probability distinguishing two states of overlap z."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (1.0 - np.sqrt(-np.expm1(2.0 * np.log(np.maximum(z, 1e-300)))
                                * (z > 0.0) + (z <= 0.0)))


def _capacity_from_q(q):
    # 1 - h((1-q)/2) evaluated stably via log1p; q in [0, 1].
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = 0.5 * ((1.0 + q) * log1p(q) + (1.0 - q) * log1p(-q)) / LN2
    return np.where(q >= 1.0, 1.0, term)


def eve_information_quadrature(abs_v_a, eta, doubled_exponent=False):
    """Eve's information bound for one quadrature, in bits.

    Equals the capacity 1 - h(p) at her Helstrom error probability
    p = (1 - sqrt(1 - z^2)) / 2.
    """
    scale = 2.0 if doubled_exponent else 1.0
    one_minus_eta = np.maximum(1.0 - np.asarray(eta, dtype=float), 0.0)
    expo = 2.0 * scale * one_minus_eta * np.square(abs_v_a)
    q = np.sqrt(-np.expm1(-expo))  # sqrt(1 - z^2)
    return _capacity_from_q(q)


def error_probability(abs_v_a, abs_v_b, eta):
    """Probability that Bob's sign disagrees with Alice's.

    ``exp(-4 u) / (1 + exp(-4 u))`` with u = |v_a v_b| sqrt(2 eta), evaluated
    in log-space so large arguments underflow to 0 rather than overflowing.
    """
    u = np.abs(np.asarray(abs_v_a, dtype=float)
               * np.asarray(abs_v_b, dtype=float)) * np.sqrt(2.0 * eta)
    return expit(-4.0 * u)


def error_probability_u(u):
    """Bob's flip probability as a function of the banding statistic u."""
    return expit(-4.0 * np.asarray(u, dtype=float))


def bob_capacity_u(u):
    """Bob's pointwise sign-channel capacity 1 - h(P(u)), in bits."""
    q = np.tanh(2.0 * np.asarray(u, dtype=float))  # 1 - 2 P(u)
    return _capacity_from_q(q)


def pointwise_net_information(abs_v_a, v_b, eta, doubled_exponent=False):
    """Net information density: Bob's capacity minus Eve's bound, one
    quadrature, using only magnitudes Bob can know."""
    u = np.abs(abs_v_a * np.asarray(v_b, dtype=float)) * np.sqrt(2.0 * eta)
    return bob_capacity_u(u) - eve_information_quadrature(
        abs_v_a, eta, doubled_exponent
    )


def keep_threshold_u(abs_v_a, eta, doubled_exponent=False):
    """Smallest u at which the net information density turns positive."""
    i_ae = float(eve_information_quadrature(abs_v_a, eta, doubled_exponent))
    if i_ae <= 0.0 or i_ae <= bob_capacity_u(1e-12):
        return 0.0
    if i_ae >= 1.0:
        return np.inf
    return optimize.brentq(
        lambda u: bob_capacity_u(u) - i_ae, 1e-12, 60.0, xtol=1e-12
    )


def _gauss(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2.0 * np.pi * var)


def band_integrals(var_mod, eta, boundaries_u, doubled_exponent=False,
                   rtol=1e-6, vacuum_var=0.5):
    """Probability mass and mean Eve information for hyperbolic u-bands.

    ``boundaries_u`` are ascending thresholds c_0 = 0 < ... < c_n = inf on
    u = |v_a v_b| sqrt(2 eta).  Returns (masses, mean_i_ae) arrays, one entry
    per band.  Integrals are adaptive to relative tolerance ``rtol``;
    non-convergence raises
    ``NumericalFailureError``.
    """
    from .errors import NumericalFailureError

    boundaries_u = np.asarray(boundaries_u, dtype=float)
    s = np.sqrt(2.0 * eta)
    sigma = np.sqrt(var_mod)
    va_hi = TRUNCATION_SIGMAS * sigma
    vb_sd = np.sqrt(vacuum_var)

    masses = np.zeros(len(boundaries_u) - 1)
    mean_iae = np.zeros(len(boundaries_u) - 1)

    for k in range(len(boundaries_u) - 1):
        lo, hi = boundaries_u[k], boundaries_u[k + 1]

        def outer(va, lo=lo, hi=hi, want_iae=False):
            # va > 0; total over the four sign quadrants by symmetry.
            iae = eve_information_quadrature(va, eta, doubled_exponent)
            if s == 0.0 or va == 0.0:
                # u is identically 0: whole vb line is in band iff lo <= 0
                if lo > 0.0:
                    return 0.0
                mass = 1.0
            else:
                b_lo = lo / (s * va)
                b_hi = hi / (s * va)
                if b_lo >= b_hi:
                    return 0.0
                mu = s * va
                # |v_b| in [b_lo, b_hi): both signs of v_b.
                def cdf(x):
                    # P(|v_b| <= x) for v_b ~ N(mu, vb_sd^2)
                    return ndtr((x - mu) / vb_sd) - ndtr((-x - mu) / vb_sd)

                hi_cdf = 1.0 if not np.isfinite(b_hi) else cdf(b_hi)
                mass = hi_cdf - cdf(b_lo)
            dens = 2.0 * _gauss(va, 0.0, var_mod)
            val = dens * mass
            if want_iae:
                val *= iae
            return val

        mass_k, mass_err = integrate.quad(
            lambda va: outer(va), 0.0, va_hi, epsabs=1e-14, epsrel=rtol,
            limit=400,
        )
        iae_k, iae_err = integrate.quad(
            lambda va: outer(va, want_iae=True), 0.0, va_hi, epsabs=1e-14,
            epsrel=rtol, limit=400,
        )
        if mass_k > 1e-12 and mass_err > 10.0 * rtol * mass_k + 1e-12:
            raise NumericalFailureError(
                f"band {k} mass integral did not converge",
                achieved_tol=mass_err / max(mass_k, 1e-300),
            )
        masses[k] = mass_k
        mean_iae[k] = iae_k / mass_k if mass_k > 0.0 else 0.0
    return masses, mean_iae


@dataclass
class InfoReport:
    """Mutual-information summary, in bits per symbol.

    ``per_bic`` rows are (band index, quadrature, i_ab_k, i_ae_k, delta_i_k)
    with the band occupancy weight already applied, so ``delta_i`` is the
    plain sum of the per-band differences.
    """

    i_ab: float
    i_ae_avg: float
    delta_i: float
    per_bic: list


def contour_grid(params, va_values, vb_values, perspective="global",
                 quad="x", doubled_exponent=False):
    """Net-information density on a (v_a, v_b) grid for one quadrature.

    The "global" perspective uses signed v_a via |v_a|; the "bob"
    perspective requires non-negative v_a values (he only knows magnitudes).
    Returns a matrix with shape (len(va_values), len(vb_values)).
    """
    va_values = np.asarray(va_values, dtype=float)
    vb_values = np.asarray(vb_values, dtype=float)
    if perspective == "bob" and np.any(va_values < 0.0):
        from .errors import InvalidConfigError

        raise InvalidConfigError("bob perspective requires v_a >= 0")
    eta = params.eta(quad)
    va = np.abs(va_values)[:, None]
    vb = vb_values[None, :]
    return pointwise_net_information(va, vb, eta, doubled_exponent)


def post_selected_delta_i(var_mod, eta, doubled_exponent=False, rtol=1e-8,
                          vacuum_var=0.5):
    """Theoretical post-selected net information for one quadrature,
    bits per symbol: the net-information density integrated over the region
    where it is positive."""
    sigma = np.sqrt(var_mod)
    s = np.sqrt(2.0 * eta)
    vb_sd = np.sqrt(vacuum_var)

    def outer(va):
        iae = eve_information_quadrature(va, eta, doubled_exponent)
        ustar = keep_threshold_u(va, eta, doubled_exponent)
        if not np.isfinite(ustar):
            return 0.0
        if s > 0.0 and va > 0.0:
            vb_lo = ustar / (s * va)
        else:
            vb_lo = 0.0 if ustar == 0.0 else np.inf
        if not np.isfinite(vb_lo):
            return 0.0
        mu = s * va
        vb_hi = max(mu + TRUNCATION_SIGMAS * vb_sd, vb_lo + 10.0 * vb_sd)

        def inner(vb):
            u = va * vb * s
            dens = _gauss(vb, mu, vacuum_var) + _gauss(vb, -mu, vacuum_var)
            return (bob_capacity_u(u) - iae) * dens

        val, _ = integrate.quad(inner, vb_lo, vb_hi, epsabs=1e-14,
                                epsrel=rtol, limit=200)
        return 2.0 * _gauss(va, 0.0, var_mod) * val

    total, _ = integrate.quad(outer, 0.0, TRUNCATION_SIGMAS * sigma,
                              epsabs=1e-13, epsrel=rtol, limit=400)
    return total


def _golden_section_max(f, lo, hi, tol=1e-3, max_iter=100):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol * max(1.0, abs(a) + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def optimal_modulation_variance(eta, bounds=(0.1, 100.0),
                                doubled_exponent=False, tol=1e-3):
    """Modulation variance maximizing the post-selected net information at
    the given transmission, by golden-section search (log-scale)."""

    def objective(log_s2):
        return post_selected_delta_i(np.exp(log_s2), eta, doubled_exponent,
                                     rtol=1e-6)

    lo, hi = np.log(bounds[0]), np.log(bounds[1])
    return float(np.exp(_golden_section_max(objective, lo, hi, tol=tol)))


def theoretical_key_rate_curve(losses, var_mod=None, symbol_rate=17e6,
                               doubled_exponent=False):
    """Theoretical post-selected rate versus loss.

    ``var_mod`` of None optimizes the modulation variance per loss point.
    Returns a list of (loss, bits_per_symbol, bits_per_second) tuples.
    """
    from .errors import InvalidConfigError

    rows = []
    for loss in losses:
        if not 0.0 <= loss < 1.0:
            raise InvalidConfigError(f"loss={loss} outside [0, 1)")
        eta = 1.0 - loss
        s2 = var_mod if var_mod is not None else optimal_modulation_variance(eta)
        bits = 2.0 * post_selected_delta_i(s2, eta, doubled_exponent)
        rows.append((loss, bits, bits * symbol_rate))
    return rows


def renyi_bound(p_err_eve):
    """Order-2 Renyi entropy of Eve's binary error distribution, bits/bit."""
    p = np.asarray(p_err_eve, dtype=float)
    return -np.log2(p * p + (1.0 - p) * (1.0 - p))
