import numpy as np
import pytest

from cvqkd.channel import (
    ChannelParams,
    estimate_channel,
    gaussianity_check,
    generate_symbols,
    transmit_and_measure,
)
from cvqkd.errors import InvalidConfigError, TooFewSamplesError
from cvqkd.rng import stream


def test_from_loss_splits_eta():
    params = ChannelParams.from_loss(0.54, var_mod=4.0)
    assert params.eta("x") == pytest.approx(0.46)
    assert params.eta("p") == pytest.approx(0.46)
    assert params.var_mod("x") == pytest.approx(4.0)


def test_from_loss_rejects_bad_values():
    with pytest.raises(InvalidConfigError):
        ChannelParams.from_loss(1.5, var_mod=4.0)
    with pytest.raises(InvalidConfigError):
        ChannelParams.from_loss(0.1, var_mod=-1.0)


def test_generate_symbols_deterministic():
    params = ChannelParams.from_loss(0.2, var_mod=2.0)
    a = generate_symbols(1000, params, seed=5)
    b = generate_symbols(1000, params, seed=5)
    c = generate_symbols(1000, params, seed=6)
    assert np.array_equal(a.x_a, b.x_a) and np.array_equal(a.p_a, b.p_a)
    assert not np.array_equal(a.x_a, c.x_a)


def test_generate_symbols_variance():
    params = ChannelParams.from_loss(0.0, var_mod=3.0)
    sym = generate_symbols(200_000, params, seed=1)
    # sample variance of N(0, 3) with n = 2e5: sd of the estimate ~ 0.0095
    assert np.var(sym.x_a) == pytest.approx(3.0, abs=0.06)
    assert np.var(sym.p_a) == pytest.approx(3.0, abs=0.06)
    assert abs(np.mean(sym.x_a)) < 0.02


def test_transmit_scaling_and_noise():
    # v_b = sqrt(2 eta) v_a + N(0, 1/2): check the regression slope and the
    # residual variance against the closed form.
    eta = 0.46
    params = ChannelParams.from_loss(1.0 - eta, var_mod=4.0)
    sym = generate_symbols(200_000, params, seed=2)
    meas, eve = transmit_and_measure(sym, params, seed=3)
    for quad in ("x", "p"):
        va, vb = sym.value(quad), meas.value(quad)
        slope = np.dot(va, vb) / np.dot(va, va)
        assert slope == pytest.approx(np.sqrt(2.0 * eta), abs=0.01)
        resid = vb - np.sqrt(2.0 * eta) * va
        assert np.var(resid) == pytest.approx(0.5, abs=0.01)
    # Eve's deterministic tap amplitude sqrt((1 - eta)/2) v_a
    assert np.allclose(eve.x_e, np.sqrt((1.0 - eta) / 2.0) * sym.x_a)


def test_estimate_channel_recovers_parameters():
    params = ChannelParams.from_loss(0.54, var_mod=4.0)
    sym = generate_symbols(100_000, params, seed=7)
    meas, _ = transmit_and_measure(sym, params, seed=8)
    est = estimate_channel(sym, meas)
    assert est.eta_x == pytest.approx(0.46, abs=4 * est.eta_x_se)
    assert est.eta_p == pytest.approx(0.46, abs=4 * est.eta_p_se)
    assert est.var_mod_x == pytest.approx(4.0, rel=0.03)
    assert est.excess_noise_x == pytest.approx(0.0, abs=4 * est.excess_noise_x_se)


def test_estimate_channel_needs_enough_pairs():
    params = ChannelParams.from_loss(0.3, var_mod=1.0)
    sym = generate_symbols(100, params, seed=1)
    meas, _ = transmit_and_measure(sym, params, seed=2)
    with pytest.raises(TooFewSamplesError):
        estimate_channel(sym, meas)


def test_gaussianity_check_accepts_gaussian_rejects_uniform():
    rng = stream(0, "test", "gaussianity")
    good = gaussianity_check(rng.normal(0.0, 1.0, 50_000))
    assert good.passed
    bad = gaussianity_check(rng.uniform(-1.0, 1.0, 50_000))
    assert not bad.passed
