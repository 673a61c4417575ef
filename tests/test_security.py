import mpmath as mp
import numpy as np
import pytest
from scipy import optimize

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


def test_keep_threshold_matches_zero_crossing():
    for va in (0.5, 1.0, 2.0):
        ustar = security.keep_threshold_u(va, 0.46)
        net = security.pointwise_net_information(
            va, ustar / (va * np.sqrt(2 * 0.46)), 0.46
        )
        assert net == pytest.approx(0.0, abs=1e-9)
    # lossless channel keeps everything
    assert security.keep_threshold_u(1.0, 1.0) == 0.0


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
