import numpy as np
import pytest
from scipy import signal

from cvqkd.dsp import (
    DspConfig,
    decode_waveform,
    dsp_roundtrip,
    root_raised_cosine,
    synthesize_waveform,
)
from cvqkd.errors import InsufficientDataError, InvalidConfigError
from cvqkd.rng import stream


def _symbols(n=2000, seed=0):
    return stream(seed, "test", "dsp-symbols").normal(0.0, 1.0, n)


def test_config_validation():
    DspConfig()
    with pytest.raises(InvalidConfigError):
        DspConfig(band_low=60e6, band_high=50e6)
    with pytest.raises(InvalidConfigError):
        DspConfig(symbol_rate=10e6)  # must equal band_high - band_low
    with pytest.raises(InvalidConfigError):
        DspConfig(filter_order=200)  # even


def test_rrc_taps_normalized_and_symmetric():
    taps = root_raised_cosine(4, 8, 0.2)
    assert len(taps) == 2 * 4 * 8 + 1
    assert np.allclose(taps, taps[::-1])
    # unit energy so matched filtering has unit gain
    assert np.sum(taps**2) == pytest.approx(1.0, rel=1e-6)


def test_noiseless_roundtrip_rms():
    config = DspConfig()
    sym = _symbols(10_000)
    out = dsp_roundtrip(sym, config, noise_seed=None)
    assert len(out) == len(sym)
    rms = np.sqrt(np.mean((out - sym) ** 2))
    assert rms < 1e-3


def test_roundtrip_linearity():
    config = DspConfig()
    s1, s2 = _symbols(seed=1), _symbols(seed=2)
    w1 = synthesize_waveform(s1, config)
    w2 = synthesize_waveform(s2, config)
    combo = decode_waveform(0.5 * w1 - 2.0 * w2, config, n_symbols=len(s1))
    direct = 0.5 * decode_waveform(w1, config, n_symbols=len(s1)) \
        - 2.0 * decode_waveform(w2, config, n_symbols=len(s2))
    assert np.allclose(combo, direct, atol=1e-9)


def test_out_of_band_rejection():
    config = DspConfig()
    wf = synthesize_waveform(_symbols(4000), config)
    freqs, psd = signal.welch(wf, fs=config.sample_rate, nperseg=4096)
    in_band = (freqs > config.band_low + 2e6) & (freqs < config.band_high - 2e6)
    out_band = (freqs > 2e6) & (freqs < config.band_low - 8e6)
    rejection_db = 10 * np.log10(np.mean(psd[in_band]) / np.mean(psd[out_band]))
    assert rejection_db > 40.0


def test_noise_variance_calibration():
    config = DspConfig()
    sym = _symbols(20_000)
    for want in (0.5, 2.0):
        out = dsp_roundtrip(sym, config, noise_seed=11, noise_var=want)
        resid = out - sym
        assert np.var(resid) == pytest.approx(want, rel=0.05)


def test_noise_residual_whiteness():
    config = DspConfig()
    sym = _symbols(20_000)
    resid = dsp_roundtrip(sym, config, noise_seed=12, noise_var=0.5) - sym
    x = resid - resid.mean()
    lag1 = np.sum(x[:-1] * x[1:]) / np.sum(x * x)
    assert abs(lag1) < 0.02


def test_decode_too_short_waveform():
    config = DspConfig()
    with pytest.raises(InsufficientDataError):
        decode_waveform(np.zeros(10), config)
