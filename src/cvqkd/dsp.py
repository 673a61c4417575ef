"""Broadband sideband encoding and decoding chain.

Each quadrature's symbol stream is root-raised-cosine shaped, converted to
its analytic signal, and upconverted so its single sideband sits just above
``band_low`` inside the configured window.  Decoding mixes the waveform back
down by ``band_low``, low-pass filters, applies the matched filter while
resampling to the symbol rate, and finally applies the configured FIR
equalizer.

Filter group delays are kept on the common fine time grid (symbol rate
times the interpolation factor) so the symbol-rate sampling instants land
exactly on the pulse peaks; gain, delay, and the decoded noise bandwidth
are measured once per configuration by running known signals through the
chain.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import signal

from .errors import InsufficientDataError, InvalidConfigError
from .rng import stream

VACUUM_VAR = 0.5


@dataclass(frozen=True)
class DspConfig:
    sample_rate: float = 100e6
    band_low: float = 33e6
    band_high: float = 50e6
    symbol_rate: float = 17e6
    equalizer_taps: tuple = (1.0,)
    filter_order: int = 201
    rrc_rolloff: float = 0.2
    rrc_span: int = 32

    def __post_init__(self):
        if not 0.0 < self.band_low < self.band_high <= self.sample_rate / 2:
            raise InvalidConfigError(
                "need 0 < band_low < band_high <= sample_rate/2"
            )
        if abs(self.symbol_rate - (self.band_high - self.band_low)) > 1e-6:
            raise InvalidConfigError("symbol_rate must equal band_high - band_low")
        ratio = Fraction(self.sample_rate / self.symbol_rate).limit_denominator(
            10000
        )
        if abs(float(ratio) - self.sample_rate / self.symbol_rate) > 1e-9:
            raise InvalidConfigError(
                "sample_rate / symbol_rate must be rational with a small "
                "denominator"
            )
        if self.filter_order < 3 or self.filter_order % 2 == 0:
            raise InvalidConfigError("filter_order must be odd and >= 3")
        d = (self.filter_order - 1) // 2
        if (d * ratio.denominator) % ratio.numerator != 0:
            raise InvalidConfigError(
                f"filter_order={self.filter_order}: group delay does not land "
                f"on the symbol grid; choose (order-1)/2 divisible by "
                f"{ratio.numerator // np.gcd(ratio.numerator, ratio.denominator)}"
            )
        occupied = self.band_low + (1.0 + self.rrc_rolloff) * self.symbol_rate / 2
        if occupied > self.band_high + 2e6:
            raise InvalidConfigError("pulse bandwidth exceeds the band window")

    @property
    def resample_up(self):
        return Fraction(self.sample_rate / self.symbol_rate).limit_denominator(
            10000
        ).numerator

    @property
    def resample_down(self):
        return Fraction(self.sample_rate / self.symbol_rate).limit_denominator(
            10000
        ).denominator

    def _key(self):
        return (
            self.sample_rate, self.band_low, self.band_high, self.symbol_rate,
            self.filter_order, self.rrc_rolloff, self.rrc_span,
        )


def root_raised_cosine(samples_per_symbol, span, rolloff):
    """Unit-energy RRC taps spanning ``span`` symbols each side."""
    n = np.arange(-span * samples_per_symbol, span * samples_per_symbol + 1)
    t = n / samples_per_symbol
    b = rolloff
    h = np.empty_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.sin(np.pi * t * (1 - b)) + 4 * b * t * np.cos(np.pi * t * (1 + b))
        den = np.pi * t * (1 - (4 * b * t) ** 2)
        h = num / den
    h[t == 0] = 1 - b + 4 * b / np.pi
    if b > 0:
        sing = np.isclose(np.abs(t), 1 / (4 * b))
        h[sing] = (b / np.sqrt(2)) * (
            (1 + 2 / np.pi) * np.sin(np.pi / (4 * b))
            + (1 - 2 / np.pi) * np.cos(np.pi / (4 * b))
        )
    return h / np.sqrt(np.sum(h * h))


@dataclass
class _Calibration:
    gain: complex
    delay_symbols: int
    lead_symbols: int
    tail_symbols: int
    noise_gain: float


_CAL_CACHE = {}


def _rrc_taps(config):
    return root_raised_cosine(config.resample_up, config.rrc_span,
                              config.rrc_rolloff)


def _lpf_taps(config):
    cutoff = (1.0 + config.rrc_rolloff) * config.symbol_rate / 2 + 1.5e6
    return signal.firwin(config.filter_order, cutoff,
                         fs=config.sample_rate)


def _pad_symbols(config):
    # enough slack for both RRC spans plus the decode low-pass transient
    lpf_sym = int(np.ceil(config.filter_order
                          * config.resample_down / config.resample_up))
    return 2 * config.rrc_span + lpf_sym + 4


def _synthesize_clean(symbols, config):
    symbols = np.asarray(symbols, dtype=float)
    pad = _pad_symbols(config)
    padded = np.concatenate([np.zeros(pad), symbols, np.zeros(pad)])
    shaped = signal.upfirdn(_rrc_taps(config), padded,
                            up=config.resample_up, down=config.resample_down)
    analytic = signal.hilbert(shaped)
    n = np.arange(len(analytic))
    carrier = np.exp(2j * np.pi * config.band_low * n / config.sample_rate)
    return np.real(analytic * carrier)


def _decode_raw(waveform, config):
    """Decode without gain/delay correction; complex symbol-rate stream."""
    n = np.arange(len(waveform))
    mixed = waveform * 2.0 * np.exp(
        -2j * np.pi * config.band_low * n / config.sample_rate
    )
    low = signal.upfirdn(_lpf_taps(config), mixed, up=1, down=1)
    return signal.upfirdn(_rrc_taps(config), low,
                          up=config.resample_down, down=config.resample_up)


def _calibration(config):
    key = config._key()
    cal = _CAL_CACHE.get(key)
    if cal is not None:
        return cal
    pad = _pad_symbols(config)
    probe = np.zeros(2 * pad + 1)
    probe[pad] = 1.0
    raw = _decode_raw(_synthesize_clean(probe, config), config)
    peak = int(np.argmax(np.abs(raw)))
    gain = complex(raw[peak])
    if abs(gain) < 1e-9:
        raise InvalidConfigError("decode chain has no signal path")
    # the decoded stream is analytic: its imaginary part (the Hilbert
    # transform of the pulse) is large at the neighbors even when aligned,
    # so judge leakage on the gain-corrected real part only
    for nb in (peak - 1, peak + 1):
        if 0 <= nb < len(raw) and abs(np.real(raw[nb] / gain)) > 3e-2:
            raise InvalidConfigError(
                "filter delays misaligned with the symbol grid; adjust "
                "filter_order or the sample/symbol rate ratio"
            )
    # delay measured relative to the padded stream start
    delay = peak - (pad + pad)  # synthesize prepends pad symbols itself
    noise_rng = stream(0x5EED_CA1, "dsp-noise-calibration")
    wn = noise_rng.normal(0.0, 1.0, 1 << 17)
    nr = _decode_raw(wn, config)
    trim = max(4 * config.rrc_span, 64)
    core = np.real(nr[trim:-trim] / gain)
    noise_gain = float(np.var(core))
    cal = _Calibration(gain, delay, pad, pad, noise_gain)
    _CAL_CACHE[key] = cal
    return cal


def synthesize_waveform(symbols, config, noise_seed=None,
                        noise_var=VACUUM_VAR):
    """Carry a symbol stream in the sideband window as a real waveform.

    With ``noise_seed`` set, white Gaussian noise is added at the per-sample
    variance that makes the decoded per-symbol noise variance equal to
    ``noise_var`` (vacuum, by default).
    """
    symbols = np.asarray(symbols, dtype=float)
    wf = _synthesize_clean(symbols, config)
    if noise_seed is not None:
        cal = _calibration(config)
        sigma = np.sqrt(noise_var / cal.noise_gain)
        wf = wf + stream(noise_seed, "dsp", "measurement-noise").normal(
            0.0, sigma, len(wf)
        )
    return wf


def decode_waveform(waveform, config, n_symbols=None, equalize=True):
    """Recover the symbol stream from a sideband waveform.

    Returns the aligned, gain-normalized real symbol estimates; filter
    transients are discarded.  ``n_symbols`` truncates to the expected
    count when known.
    """
    waveform = np.asarray(waveform, dtype=float)
    min_samples = int(config.sample_rate / config.symbol_rate) + 1
    if len(waveform) < max(min_samples, config.filter_order):
        raise InsufficientDataError(
            f"waveform of {len(waveform)} samples is shorter than the "
            "filter transient"
        )
    cal = _calibration(config)
    raw = _decode_raw(waveform, config)
    start = cal.lead_symbols + cal.delay_symbols
    if start >= len(raw):
        raise InsufficientDataError("waveform shorter than the filter transient")
    out = np.real(raw[start:] / cal.gain)
    if n_symbols is not None:
        out = out[:n_symbols]
    taps = np.asarray(config.equalizer_taps, dtype=float)
    if equalize and not (len(taps) == 1 and taps[0] == 1.0):
        out = np.convolve(out, taps, mode="same")
    return out


def dsp_roundtrip(symbols, config, noise_seed=None, noise_var=VACUUM_VAR):
    """Synthesize then decode, returning exactly len(symbols) estimates."""
    wf = synthesize_waveform(symbols, config, noise_seed, noise_var)
    return decode_waveform(wf, config, n_symbols=len(symbols))
