import dataclasses
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cvqkd import bands
from cvqkd.errors import InvalidConfigError, VerificationFailedError
from cvqkd.pipeline import (
    PipelineConfig,
    band_plan,
    ledger_text,
    reveal_indices,
    run_pipeline,
)
from cvqkd.privamp import unpack_key


def _config(**kw):
    base = dict(loss=0.54, var_mod=4.0, n_symbols=50_000, n_bands=6, seed=21)
    base.update(kw)
    return PipelineConfig(**base)


def test_config_text_roundtrip():
    cfg = PipelineConfig(
        loss=0.3, var_mod=2.5, n_symbols=12_345, n_bands=7, seed=9,
        security_bits=11, reveal_fraction=0.07, min_reveal=1500,
        cascade_passes=5, ad_target=0.09, ad_cap=6, doubled_exponent=True,
        holdout=True, symbol_rate=1e6)
    assert all(getattr(cfg, f.name) != f.default
               for f in dataclasses.fields(cfg))
    back = PipelineConfig.from_text(cfg.to_text())
    assert back == cfg
    assert PipelineConfig.from_text("var_mod=").var_mod is None
    flags = PipelineConfig.from_text("holdout=YES\ndoubled_exponent=False")
    assert flags.holdout and not flags.doubled_exponent


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        _config(loss=1.0)
    with pytest.raises(InvalidConfigError):
        _config(n_symbols=100)
    with pytest.raises(InvalidConfigError):
        _config(var_mod=-1.0)


def test_band_plan_breaks_ties_x_before_p_then_by_band():
    # 3 bands: x holds bands 0, 0, 1 and p bands 0, 0, so x2, p1 and p2 are
    # empty (p_pred 0.0), x0 and p0 tie, and x1 (lower u) comes last
    band_idx = np.array([0, 0, 1, 0, 0], np.uint8)
    ps = SimpleNamespace(
        kept=SimpleNamespace(u=np.array([0.3, 0.3, 0.1, 0.3, 0.3])),
        slices=bands.BandSlices(3, band_idx, 3), mask=np.ones(5, bool),
        partition=SimpleNamespace(band_idx=band_idx))
    plan = band_plan(ps, SimpleNamespace(eta=lambda quad: 0.5),
                     PipelineConfig())
    assert plan.table[["quad", "band"]].tolist() == [
        (0, 2), (1, 1), (1, 2), (0, 0), (1, 0), (0, 1)]
    assert plan.table["p_pred"][:3].tolist() == [0.0] * 3


def test_reveal_indices_deterministic_and_sized():
    a = reveal_indices(3, 100_000, 0.05, 2000)
    b = reveal_indices(3, 100_000, 0.05, 2000)
    assert np.array_equal(a, b)
    assert len(a) == 5000
    assert len(np.unique(a)) == len(a)
    # floor at min_reveal for small batches
    assert len(reveal_indices(3, 10_000, 0.05, 2000)) == 2000


def test_run_pipeline_produces_confirmed_key():
    res = run_pipeline(_config())
    assert res.confirmed
    assert np.array_equal(res.alice_key, res.bob_key)
    n_bits = len(res.alice_key)
    assert n_bits > 0
    assert np.array_equal(unpack_key(res.key_bytes, n_bits), res.alice_key)
    # sized from the per-band ledgers
    assert n_bits == sum(r.key_bits for r in res.records)


def test_run_pipeline_deterministic():
    r1 = run_pipeline(_config())
    r2 = run_pipeline(_config())
    assert r1.key_bytes == r2.key_bytes
    r3 = run_pipeline(_config(seed=22))
    assert r3.key_bytes != r1.key_bytes


def test_report_stage_structure():
    res = run_pipeline(_config())
    names = [row.stage for row in res.report.rows]
    assert names == ["raw", "post_selected", "advantage_distilled",
                     "reconciled", "amplified"]
    rates = [row.bits_per_second for row in res.report.rows]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    # post-selection flips the information balance
    by_name = {row.stage: row for row in res.report.rows}
    assert by_name["post_selected"].delta_i > 0
    assert by_name["advantage_distilled"].delta_i \
        > by_name["post_selected"].delta_i
    assert by_name["amplified"].delta_i == pytest.approx(1.0)
    assert by_name["amplified"].p_eve == pytest.approx(0.5)
    text = res.report.render()
    assert "post_selected" in text and "amplified" in text


def test_band_records_consistency():
    res = run_pipeline(_config())
    for rec in res.records:
        assert 0 <= rec.p_emp <= 0.5 + 1e-9
        assert rec.n_distilled <= rec.n_kept
        assert rec.key_bits <= rec.n_distilled
        assert rec.leaked_bits == (rec.ad_mask_bits + rec.cascade_bits
                                   + rec.confirm_bits)
        # distillation must not help Eve
        assert rec.eve_error_ad >= rec.eve_error - 1e-9
    assert sum(r.confirm_bits for r in res.records) == 64


def test_ledger_text_parses():
    res = run_pipeline(_config())
    text = ledger_text(res.records)
    entries = dict(line.split("=", 1) for line in text.strip().splitlines())
    total = sum(r.leaked_bits for r in res.records)
    assert int(entries["total.leaked_bits"]) == total
    assert int(entries["total.key_bits"]) == len(res.alice_key)


# SHA-256 of key_bytes and of ledger_text(records) for _config() without and
# with holdout.  A change that moves keys or ledgers on purpose updates these
# and says so in CHANGES.md.
PINS = {
    False: ("c1772b8cd0f45e993f8b44cb3cf9645fdfdf36907495821ade5eb96969912387",
            "36137b06f156fa48f03e120d9f4a5b347cb3e515db5fc5b98a9c3c48fe0fe429"),
    True: ("9260713c485d0e5480e246096e18e9cb9c6dcc4b50ed32e4eed57dcf735287b4",
           "c16df902e4fd7ffa0b8f1d2b4582e878697639c5964ecd011f0c1f364c7329fd"),
}


@pytest.mark.parametrize("holdout", [False, True])
def test_keys_and_ledgers_pinned(holdout):
    res = run_pipeline(_config(holdout=holdout))
    got = (hashlib.sha256(res.key_bytes).hexdigest(),
           hashlib.sha256(ledger_text(res.records).encode()).hexdigest())
    assert got == PINS[holdout]


@pytest.mark.xfail(raises=VerificationFailedError, strict=True,
                   reason="Cascade fails in bands that can never yield key")
@pytest.mark.parametrize("seed", [13, 4242])
def test_pipeline_90_known_aborts(seed):
    res = run_pipeline(PipelineConfig(loss=0.9, var_mod=0.51,
                                      n_symbols=1_000_000, seed=seed))
    assert res.confirmed


def test_holdout_calibration_runs():
    res = run_pipeline(_config(n_symbols=80_000, holdout=True))
    assert res.confirmed


def test_optimized_variance_resolution():
    cfg = _config(var_mod=None)
    s2 = cfg.resolve_var_mod()
    assert 0.1 < s2 < 100.0
    # resolves to a fixed value thereafter
    assert cfg.resolve_var_mod() == s2


def test_peak_memory_per_symbol():
    # the four per-symbol float64 arrays (symbols and Bob's outcomes) stay
    # whole, 32 B/symbol; the sift -> keep pass adds the 1-byte keep mask
    # per sifted bit and block-sized temporaries, nothing over all sifted
    # bits
    n = 1_000_000
    tracemalloc.start()
    try:
        res = run_pipeline(PipelineConfig(loss=0.9, var_mod=0.51,
                                          n_symbols=n, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.confirmed
    assert peak / n <= 60.0
