import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, optimize

from cvqkd import security
from cvqkd.channel import ChannelParams
from cvqkd.errors import InvalidConfigError
from cvqkd.rng import stream

mp.mp.dps = 50


def _mp_h(p):
    if p <= 0 or p >= 1:
        return mp.mpf(0)
    return -(p * mp.log(p, 2) + (1 - p) * mp.log(1 - p, 2))


def _mp_eve_info(va, eta, scale=1):
    z = mp.e ** (-scale * (1 - eta) * mp.mpf(va) ** 2)
    p = (1 - mp.sqrt(1 - z**2)) / 2
    return 1 - _mp_h(p)


def test_eve_overlap_against_high_precision():
    eta = mp.mpf("0.46")
    for va in (0.1, 0.5, 1.0, 2.0, 4.0):
        want = float(mp.e ** (-(1 - eta) * mp.mpf(va) ** 2))
        assert security.eve_overlap(va, 0.46) == pytest.approx(want, rel=1e-12)
        want2 = float(mp.e ** (-2 * (1 - eta) * mp.mpf(va) ** 2))
        got2 = security.eve_overlap(va, 0.46, doubled_exponent=True)
        assert got2 == pytest.approx(want2, rel=1e-12)


def test_helstrom_error_against_high_precision():
    for z in (1e-8, 0.01, 0.3, 0.9, 0.999999, 1.0):
        want = float((1 - mp.sqrt(1 - mp.mpf(z) ** 2)) / 2)
        assert security.helstrom_error(z) == pytest.approx(want, abs=1e-14)
    assert security.helstrom_error(0.0) == 0.0
    assert security.helstrom_error(1.0) == pytest.approx(0.5)


def test_eve_information_quadrature_against_high_precision():
    # includes the small-va regime where naive 1 - z^2 loses precision
    for va in (1e-4, 1e-2, 0.3, 1.0, 3.0):
        for eta in (0.1, 0.46, 0.9):
            want = float(_mp_eve_info(va, mp.mpf(eta)))
            got = float(security.eve_information_quadrature(va, eta))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    # lossless channel (and estimator overshoot eta > 1) leaks nothing
    assert security.eve_information_quadrature(2.0, 1.0) == 0.0
    assert security.eve_information_quadrature(2.0, 1.0 + 1e-6) == 0.0


def test_error_probability_against_high_precision():
    eta = mp.mpf("0.46")
    for va, vb in ((0.2, 0.1), (1.0, 1.0), (2.0, 3.0)):
        u = mp.mpf(va) * mp.mpf(vb) * mp.sqrt(2 * eta)
        want = float(1 / (1 + mp.e ** (4 * u)))
        assert security.error_probability(va, vb, 0.46) == pytest.approx(
            want, rel=1e-12
        )
    # symmetric in sign, vanishing for confident points
    assert security.error_probability_u(0.0) == pytest.approx(0.5)
    assert security.error_probability_u(100.0) < 1e-100
    assert security.error_probability_u(1e6) == 0.0


def test_binary_entropy_matches_xlogy_oracle():
    from scipy.special import xlogy

    p = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16],
                        np.linspace(0.0, 1.0, 10_001),
                        np.logspace(-300, 0, 3_001),
                        1.0 - np.logspace(-16, 0, 1_601)])
    want = (xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / -np.log(2.0)
    got = security.binary_entropy(p)
    assert np.all(np.abs(got - want) <= 4e-16 * np.abs(want))
    assert security.binary_entropy(0.0) == security.binary_entropy(1.0) == 0.0


def test_error_probability_matches_expit_oracle():
    from scipy.special import expit

    u = np.linspace(-200.0, 200.0, 4_001)
    want = expit(-4.0 * u)
    got = security.error_probability_u(u)
    nonzero = want > 0.0
    assert np.all(np.abs(got - want)[nonzero] <= 4e-16 * want[nonzero])
    # past -4u = -709.8, 1 + e^(4u) overflows and expit gives 0; the
    # two-branch form keeps the subnormal values
    assert np.all(got[~nonzero] < np.finfo(float).tiny)
    # no overflow at either end, and a scalar gives a scalar
    with np.errstate(over="raise"):
        assert security.error_probability_u(-1e6) == 1.0
        assert security.error_probability_u(1e6) == 0.0
    assert np.ndim(security.error_probability_u(1.0)) == 0


def test_binary_entropy_inverse_roundtrip():
    p = np.linspace(1e-6, 0.5, 200)
    h = security.binary_entropy(p)
    back = security.inverse_binary_entropy(h)
    assert np.allclose(back, p, atol=1e-10)
    assert security.inverse_binary_entropy(0.0) == 0.0
    assert security.inverse_binary_entropy(1.0) == 0.5


def _brentq_inverse_binary_entropy(h):
    # the scalar root-finder inverse, kept as the oracle for the bisection
    if h <= 0.0:
        return 0.0
    if h >= 1.0:
        return 0.5
    return optimize.brentq(lambda p: security.binary_entropy(p) - h,
                           1e-18, 0.5, xtol=1e-15)


def test_inverse_binary_entropy_matches_brentq_oracle():
    h = np.linspace(0.0, 1.0, 40_001)
    got = security.inverse_binary_entropy(h)
    want = np.array([_brentq_inverse_binary_entropy(v) for v in h])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(security.binary_entropy(got) - h)) <= 1e-14
    # the scalar call gives the array call's value, element for element
    for v, g in zip(h[::97], got[::97]):
        assert security.inverse_binary_entropy(v) == g


def test_inverse_binary_entropy_tiny_inputs():
    # below h(1e-18) a root-finder bracketed from 1e-18 has no sign change
    h = np.array([1e-300, 1e-18, 1e-17, 1e-16, 1e-15])
    p = security.inverse_binary_entropy(h)
    assert np.all(np.diff(p) >= 0.0) and np.all(p < 1e-16)
    assert np.all(security.binary_entropy(p) <= h)
    assert np.max(np.abs(security.binary_entropy(p) - h)) <= 1e-14
    assert security.inverse_binary_entropy(1e-17) == p[2]


def test_renyi_bound_below_shannon():
    p = np.linspace(1e-6, 0.5, 1000)
    renyi = security.renyi_bound(p)
    shannon = security.binary_entropy(p)
    assert np.all(renyi <= shannon + 1e-12)
    assert security.renyi_bound(0.5) == pytest.approx(1.0)


def _brentq_keep_threshold_u(abs_v_a, eta, doubled_exponent=False):
    # the scalar root-finder threshold, kept as the oracle for the closed form
    i_ae = float(security.eve_information_quadrature(abs_v_a, eta,
                                                     doubled_exponent))
    if i_ae <= 0.0 or i_ae <= security.bob_capacity_u(1e-12):
        return 0.0
    if i_ae >= 1.0:
        return np.inf
    return optimize.brentq(
        lambda u: security.bob_capacity_u(u) - i_ae, 1e-12, 60.0, xtol=1e-12
    )


def _adaptive_post_selected_delta_i(var_mod, eta, doubled_exponent=False,
                                    rtol=1e-11, vacuum_var=0.5):
    # nested adaptive quadrature over the kept region, kept as the oracle
    # for the fixed Gauss-Legendre rule
    sigma = np.sqrt(var_mod)
    s = np.sqrt(2.0 * eta)

    def gauss(x, mean, var):
        return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)

    def outer(va):
        iae = security.eve_information_quadrature(va, eta, doubled_exponent)
        ustar = _brentq_keep_threshold_u(va, eta, doubled_exponent)
        if not np.isfinite(ustar):
            return 0.0
        if s > 0.0 and va > 0.0:
            vb_lo = ustar / (s * va)
        else:
            vb_lo = 0.0 if ustar == 0.0 else np.inf
        if not np.isfinite(vb_lo):
            return 0.0
        mu = s * va
        vb_hi = max(mu + 8.0 * np.sqrt(vacuum_var),
                    vb_lo + 10.0 * np.sqrt(vacuum_var))

        def inner(vb):
            dens = gauss(vb, mu, vacuum_var) + gauss(vb, -mu, vacuum_var)
            return (security.bob_capacity_u(va * vb * s) - iae) * dens

        val, _ = integrate.quad(inner, vb_lo, vb_hi, epsabs=1e-14,
                                epsrel=rtol, limit=200)
        return 2.0 * gauss(va, 0.0, var_mod) * val

    total, _ = integrate.quad(outer, 0.0, 8.0 * sigma, epsabs=1e-13,
                              epsrel=rtol, limit=400)
    return total


def test_keep_threshold_matches_zero_crossing():
    for va in (0.5, 1.0, 2.0):
        ustar = security.keep_threshold_u(va, 0.46)
        net = security.pointwise_net_information(
            va, ustar / (va * np.sqrt(2 * 0.46)), 0.46
        )
        assert net == pytest.approx(0.0, abs=1e-9)
    # lossless channel keeps everything
    assert security.keep_threshold_u(1.0, 1.0) == 0.0


THRESHOLD_ETAS = (0.01, 0.1, 0.46, 0.9, 0.99)


@pytest.mark.parametrize("doubled", [False, True])
def test_keep_threshold_matches_brentq_oracle(doubled):
    for eta in THRESHOLD_ETAS:
        va = np.linspace(0.0, 8.0, 801)
        got = security.keep_threshold_u(va, eta, doubled)
        want = np.array([_brentq_keep_threshold_u(v, eta, doubled)
                         for v in va])
        # below u = 4 the root-finder resolves the crossing; above it both
        # capacities sit within 1e-10 of 1 and brentq's plateau dominates
        sel = want <= 4.0
        assert np.max(np.abs(got[sel] - want[sel])) <= 1e-9
        # the net density vanishes at u* wherever v_b is finite
        pos = va > 0.0
        vb = got[pos] / (va[pos] * np.sqrt(2.0 * eta))
        net = security.pointwise_net_information(va[pos], vb, eta, doubled)
        assert np.max(np.abs(net)) <= 1e-12
        # the scalar call gives the array call's value
        for v, g in zip(va[::50], got[::50]):
            assert security.keep_threshold_u(v, eta, doubled) == g


ORACLE_LOSSES = (0.0, 0.25, 0.54, 0.75, 0.9, 0.95, 0.99)
# a low variance and the optimizer's upper bound
ORACLE_VARS = (0.51, 100.0)


@pytest.mark.parametrize("doubled", [False, True])
def test_post_selected_delta_i_matches_adaptive_oracle(doubled):
    for loss in ORACLE_LOSSES:
        for var in ORACLE_VARS:
            want = _adaptive_post_selected_delta_i(var, 1.0 - loss, doubled)
            got = security.post_selected_delta_i(var, 1.0 - loss, doubled)
            assert abs(got - want) <= 1e-7 * abs(want) + 1e-11, (loss, var)


# Far past the optimizer's range the kept region is a sliver of the 8-sigma
# v_a axis: near v_a = 0 when lossless, and cut off where Eve's bias
# saturates when lossy.
@pytest.mark.parametrize("loss, doubled", [(0.0, False), (0.75, True)])
def test_post_selected_delta_i_matches_oracle_at_large_variance(loss,
                                                                doubled):
    want = _adaptive_post_selected_delta_i(1e4, 1.0 - loss, doubled)
    got = security.post_selected_delta_i(1e4, 1.0 - loss, doubled)
    assert abs(got - want) <= 1e-7 * abs(want) + 1e-11


def test_band_integrals_mass_sums_to_one():
    bounds = np.array([0.0, 0.2, 0.5, 1.0, 2.0, np.inf])
    masses, mean_iae = security.band_integrals(4.0, 0.46, bounds, rtol=1e-8)
    assert np.sum(masses) == pytest.approx(1.0, abs=1e-6)
    assert np.all(mean_iae >= -1e-12) and np.all(mean_iae <= 1.0)


def test_band_integrals_match_monte_carlo():
    # cheap version of the quadrature-vs-MC cross-check (the acceptance
    # suite re-runs it at 1e7 samples)
    var_mod, eta = 4.0, 0.46
    bounds = np.array([0.0, 0.3, 0.8, 1.5, np.inf])
    masses, mean_iae = security.band_integrals(var_mod, eta, bounds, rtol=1e-8)
    rng = stream(0, "test", "band-mc")
    n = 500_000
    va = np.abs(rng.normal(0.0, np.sqrt(var_mod), n))
    vb = rng.normal(np.sqrt(2 * eta) * va, np.sqrt(0.5), n)
    u = np.abs(va * vb) * np.sqrt(2 * eta)
    iae = security.eve_information_quadrature(va, eta)
    idx = np.searchsorted(bounds, u, side="right") - 1
    for k in range(len(bounds) - 1):
        sel = idx == k
        frac = np.mean(sel)
        se = np.sqrt(frac * (1 - frac) / n)
        assert masses[k] == pytest.approx(frac, abs=4 * se + 1e-9)
        if sel.sum() > 100:
            mc_iae = np.mean(iae[sel])
            se_iae = np.std(iae[sel]) / np.sqrt(sel.sum())
            assert mean_iae[k] == pytest.approx(mc_iae, abs=4 * se_iae + 1e-6)


def test_post_selected_delta_i_decreases_with_loss():
    vals = [2 * security.post_selected_delta_i(1.0, 1.0 - loss)
            for loss in (0.0, 0.25, 0.54, 0.75, 0.9)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_optimal_modulation_variance_beats_neighbors():
    eta = 0.46
    best = security.optimal_modulation_variance(eta)
    f = lambda s2: security.post_selected_delta_i(s2, eta)
    assert f(best) >= f(best * 1.3) and f(best) >= f(best / 1.3)


def test_theoretical_key_rate_curve_shapes():
    rows = security.theoretical_key_rate_curve([0.0, 0.5, 0.9], var_mod=1.0)
    assert len(rows) == 3
    bits = [r[1] for r in rows]
    assert bits[0] > bits[1] > bits[2] > 0
    assert rows[0][2] == pytest.approx(bits[0] * 17e6)
    with pytest.raises(InvalidConfigError):
        security.theoretical_key_rate_curve([1.0])


def test_contour_grid_shape_and_sign():
    params = ChannelParams.from_loss(0.54, var_mod=4.0)
    va = np.linspace(0.0, 4.0, 9)
    vb = np.linspace(-4.0, 4.0, 9)
    grid = security.contour_grid(params, va, vb)
    assert grid.shape == (9, 9)
    # large aligned magnitudes are firmly kept, tiny ones are dropped
    assert grid[-1, -1] > 0
    assert grid[1, 4] < 0
