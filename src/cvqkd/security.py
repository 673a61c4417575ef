"""Closed-form information quantities for the no-switching protocol.

Implements Eve's information bound from the coherent-state overlap, the
sign-flip error probability of Bob's data, the post-selection threshold,
Eve-information integrals over banded regions, net-information contour
grids, the theoretical key-rate-versus-loss curve, and the order-2 Renyi
entropy used to size the final key.

Post-selection keeps a point iff Bob's bias tanh(2u) exceeds Eve's bias
sqrt(1 - z^2), so its threshold u* is closed-form.  The theoretical curve
integrates the net density over the kept region with one fixed tensor
Gauss-Legendre rule.  Everything here but ``band_integrals`` is numpy
alone; that one is adaptive and loads ``scipy.integrate`` and
``scipy.special.ndtr`` on its first call.

All information quantities are in bits.  ``abs_v_a`` is Alice's announced
magnitude; ``v_b`` is Bob's outcome in shot-noise units (vacuum variance
1/2); u denotes the banding statistic |v_a * v_b| * sqrt(2 * eta).
"""

import functools
from dataclasses import dataclass

import numpy as np

LN2 = np.log(2.0)

# Integration region is truncated at this many standard deviations; the
# Gaussian mass outside is below 1e-14 and is reported by callers that care.
TRUNCATION_SIGMAS = 8.0


def _xlogx(p):
    # p ln p, with 0 ln 0 = 0 (the log is taken of 1 there)
    return p * np.log(np.where(p == 0.0, 1.0, p))


def binary_entropy(p):
    """Shannon entropy of a binary variable, in bits (0 log 0 = 0)."""
    p = np.asarray(p, dtype=float)
    return (_xlogx(p) + _xlogx(1.0 - p)) / -LN2


def inverse_binary_entropy(h):
    """Inverse of ``binary_entropy`` on [0, 1/2], by bisection of the whole
    array.  The lower end of the final bracket is returned, so an error rate
    derived from it is rounded downward."""
    h = np.asarray(h, dtype=float)
    lo, hi = np.zeros_like(h), np.full_like(h, 0.5)
    for _ in range(64):  # to a bracket width of 2^-65
        mid = 0.5 * (lo + hi)
        below = binary_entropy(mid) <= h
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.where(h >= 1.0, 0.5, lo)[()]


def channel_capacity(p_err):
    """Binary-symmetric channel capacity 1 - h(p), in bits."""
    return 1.0 - binary_entropy(p_err)


def _eve_exponent(abs_v_a, eta, doubled_exponent):
    # -ln z = c (1 - eta) |v_a|^2, c = 2 under doubled_exponent.  Estimated
    # transmissions may overshoot 1 slightly; a lossless channel gives Eve
    # nothing (z = 1).
    scale = 2.0 if doubled_exponent else 1.0
    one_minus_eta = np.maximum(1.0 - np.asarray(eta, dtype=float), 0.0)
    return scale * one_minus_eta * np.square(abs_v_a)


def eve_overlap(abs_v_a, eta, doubled_exponent=False):
    """Eve's quadrature overlap function z.

    The default exponent is ``exp(-(1 - eta) |v_a|^2)``.  With
    ``doubled_exponent`` the coherent-state overlap with twice the exponent
    is used instead, for sensitivity studies.
    """
    return np.exp(-_eve_exponent(abs_v_a, eta, doubled_exponent))


def helstrom_error(z):
    """Minimum error probability distinguishing two states of overlap z."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (1.0 - np.sqrt(-np.expm1(2.0 * np.log(np.maximum(z, 1e-300)))
                                * (z > 0.0) + (z <= 0.0)))


def _capacity_from_q(q):
    # 1 - h((1-q)/2) evaluated stably via log1p; q in [0, 1].
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        term = 0.5 * ((1.0 + q) * np.log1p(q)
                      + (1.0 - q) * np.log1p(-q)) / LN2
    return np.where(q >= 1.0, 1.0, term)


def eve_bias(abs_v_a, eta, doubled_exponent=False):
    """Eve's bias q = 1 - 2 p = sqrt(1 - z^2) at her Helstrom error p."""
    expo = 2.0 * _eve_exponent(abs_v_a, eta, doubled_exponent)
    return np.sqrt(-np.expm1(-expo))


def eve_information_quadrature(abs_v_a, eta, doubled_exponent=False):
    """Eve's information bound for one quadrature, in bits.

    Equals the capacity 1 - h(p) at her Helstrom error probability
    p = (1 - sqrt(1 - z^2)) / 2.
    """
    return _capacity_from_q(eve_bias(abs_v_a, eta, doubled_exponent))


def _expit(x):
    # the logistic 1 / (1 + e^-x), with e^-|x| <= 1 on both branches so
    # neither overflows and small results keep their relative precision
    e = np.exp(-np.abs(x))
    return (np.where(x >= 0.0, 1.0, e) / (1.0 + e))[()]


def error_probability(abs_v_a, abs_v_b, eta):
    """Probability that Bob's sign disagrees with Alice's.

    ``exp(-4 u) / (1 + exp(-4 u))`` with u = |v_a v_b| sqrt(2 eta), evaluated
    so that large arguments underflow to 0 rather than overflowing.
    """
    u = np.abs(np.asarray(abs_v_a, dtype=float)
               * np.asarray(abs_v_b, dtype=float)) * np.sqrt(2.0 * eta)
    return _expit(-4.0 * u)


def error_probability_u(u):
    """Bob's flip probability as a function of the banding statistic u."""
    return _expit(-4.0 * np.asarray(u, dtype=float))


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
    """The u at which the net information density turns positive.

    Both capacities are ``_capacity_from_q``, which rises strictly, of
    Bob's bias tanh(2u) and Eve's bias q; so the density is positive iff
    tanh(2u) > q, i.e. u > artanh(q) / 2.  Since (1 + q) / (1 - q) =
    (1 + q)^2 / z^2 this is log1p(q) / 2 - ln(z) / 2, which keeps its
    digits as q -> 1 and never overflows.
    """
    q = eve_bias(abs_v_a, eta, doubled_exponent)
    return (0.5 * np.log1p(q)
            + 0.5 * _eve_exponent(abs_v_a, eta, doubled_exponent))[()]


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
    from scipy import integrate
    from scipy.special import ndtr

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


@functools.cache
def _gauss_legendre(nodes, panels):
    """Nodes and weights of a composite Gauss-Legendre rule on [0, 1]:
    ``panels`` equal panels of ``nodes`` points each."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(nodes)
    t = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    w = np.tile(w / (2.0 * panels), panels)
    t.flags.writeable = w.flags.writeable = False
    return t, w


# (nodes per panel, panels) of the rules on v_a from 0 up and on v_b from
# the keep boundary up
_VA_RULE = (32, 8)
_VB_RULE = (16, 4)

# Once 2 (-ln z) exceeds this, Eve's bias sqrt(1 - z^2) rounds to 1 in
# double precision: her bound is 1 bit and no point is kept.
_EVE_BIAS_SATURATES = 37.0


def post_selected_delta_i(var_mod, eta, doubled_exponent=False,
                          vacuum_var=0.5):
    """Theoretical post-selected net information for one quadrature,
    bits per symbol: the net-information density integrated over the region
    where it is positive.

    One tensor Gauss-Legendre rule.  v_a runs from 0 to 8 sigma or to
    where Eve's bias saturates, whichever is lower, as va_hi t^2 for t on
    [0, 1], so the nodes sit on the kept region however large sigma is.
    For each v_a node, v_b runs from the keep boundary u* / (sqrt(2 eta) v_a)
    or mu - 8 sd, whichever is higher, to max(mu + 8 sd, that start + 10 sd),
    where mu = sqrt(2 eta) v_a is the mean of |v_b| and sd its shot-noise
    deviation.  Against nested adaptive quadrature the rule is within 1e-7
    relative (plus 1e-11) for var_mod from 0.1 to 1e4 at losses 0 to 0.99.
    """
    s = np.sqrt(2.0 * eta)
    if s == 0.0:
        return 0.0
    vb_sd = np.sqrt(vacuum_var)
    ta, wa = _gauss_legendre(*_VA_RULE)
    tb, wb = _gauss_legendre(*_VB_RULE)
    va_hi = TRUNCATION_SIGMAS * np.sqrt(var_mod)
    expo = _eve_exponent(1.0, eta, doubled_exponent)  # -ln z at |v_a| = 1
    if expo > 0.0:
        va_hi = min(va_hi, np.sqrt(_EVE_BIAS_SATURATES / (2.0 * expo)))
    # a quarter of the nodes lie below va_hi / 16, where the density turns
    # on when sigma is large
    va = va_hi * ta * ta
    mu = s * va
    # both Gaussians of |v_b| have no mass below mu - 8 sd once that is > 0
    vb_lo = np.maximum(keep_threshold_u(va, eta, doubled_exponent) / mu,
                       mu - TRUNCATION_SIGMAS * vb_sd)
    width = np.maximum(mu + TRUNCATION_SIGMAS * vb_sd,
                       vb_lo + 10.0 * vb_sd) - vb_lo
    vb = vb_lo[:, None] + width[:, None] * tb
    dens = (_gauss(vb, mu[:, None], vacuum_var)
            + _gauss(vb, -mu[:, None], vacuum_var))
    net = (bob_capacity_u(va[:, None] * vb * s)
           - eve_information_quadrature(va, eta, doubled_exponent)[:, None])
    inner = width * ((net * dens) @ wb)
    # dv_a = 2 va_hi t dt
    return float(2.0 * va_hi
                 * np.sum(ta * wa * 2.0 * _gauss(va, 0.0, var_mod) * inner))


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
        return post_selected_delta_i(np.exp(log_s2), eta, doubled_exponent)

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
