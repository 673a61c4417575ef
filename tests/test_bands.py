import numpy as np
import pytest

from cvqkd import security
from cvqkd.bands import (
    SiftedData,
    band_statistic,
    build_partition,
    eve_information_bits,
    halves,
    keep_mask,
    postselect,
    sift,
    sift_blocks,
    write_kept_csv,
)
from cvqkd.channel import (SYMBOL_BLOCK, ChannelParams, SymbolBatch,
                           generate_symbols, measure, transmit_and_measure)
from cvqkd.errors import InsufficientDataError, InvalidConfigError
from cvqkd.pipeline import PipelineConfig, calibration_mask, sift_layout


def _sifted(loss=0.54, var_mod=4.0, n=30_000, seed=3):
    params = ChannelParams.from_loss(loss, var_mod)
    sym = generate_symbols(n, params, seed)
    meas, _ = transmit_and_measure(sym, params, seed + 1)
    return sift(sym, meas), params


def _scored(n):
    """Sifted bits with their u at eta = 0.46, ready to partition."""
    s, _ = _sifted(n=n)
    s.u = band_statistic(s, 0.46, 0.46)
    return s


def test_sift_signs_and_magnitudes():
    from cvqkd.channel import MeasurementBatch, SymbolBatch

    sym = SymbolBatch(np.array([1.5, -0.2]), np.array([-3.0, 0.4]))
    meas = MeasurementBatch(np.array([0.7, -0.1]), np.array([2.0, -0.5]))
    s = sift(sym, meas)
    assert len(s) == 4  # one bit per quadrature per symbol
    assert list(s.quad) == [0, 0, 1, 1]
    assert list(s.alice_bit) == [1, 0, 0, 1]
    assert list(s.bob_bit) == [1, 0, 1, 0]
    assert np.allclose(s.abs_v_a, [1.5, 0.2, 3.0, 0.4])
    assert np.allclose(s.v_b, [0.7, -0.1, 2.0, -0.5])


def test_sift_length_mismatch():
    from cvqkd.channel import MeasurementBatch, SymbolBatch

    with pytest.raises(InvalidConfigError):
        sift(SymbolBatch(np.zeros(3), np.zeros(3)),
             MeasurementBatch(np.zeros(2), np.zeros(2)))


def test_band_statistic_formula():
    s, params = _sifted(n=2000)
    u = band_statistic(s, 0.46, 0.46)
    want = np.abs(s.abs_v_a * s.v_b) * np.sqrt(2 * 0.46)
    assert np.allclose(u, want)


def test_keep_mask_matches_pointwise_rule():
    s, params = _sifted(n=5000)
    mask = keep_mask(s, 0.46, 0.46)
    for qi in (0, 1):
        sel = s.quad == qi
        di = security.pointwise_net_information(s.abs_v_a[sel], s.v_b[sel], 0.46)
        assert np.array_equal(mask[sel], di > 0.0)
    assert 0 < mask.sum() < len(s)


def test_build_partition_equal_counts():
    s = _scored(30_000)
    part = build_partition(s, n_bands=10)
    counts = part.n_good + part.n_error
    for qi in (0, 1):
        n_q = np.count_nonzero(s.quad == qi)
        assert counts[qi].sum() == n_q
        assert counts[qi].max() - counts[qi].min() <= 1
    # band 0 (highest u) has the lowest empirical error rate
    p = part.p_emp
    assert p[0, 0] < p[0, -1]
    assert np.all(p >= 0) and np.all(p <= 1)


def test_band_of_consistent_with_tallies():
    s = _scored(20_000)
    part = build_partition(s, n_bands=8)
    idx = part.band_of(s, 0.46, 0.46)
    errors = s.alice_bit != s.bob_bit
    for qi in (0, 1):
        for k in range(8):
            in_k = (s.quad == qi) & (idx == k)
            assert np.count_nonzero(in_k & errors) == part.n_error[qi, k]
            assert np.count_nonzero(in_k & ~errors) == part.n_good[qi, k]


def test_build_partition_requires_enough_points():
    s = _scored(300)
    with pytest.raises(InsufficientDataError):
        build_partition(s, n_bands=10)
    for n_bands in (0, 256):
        with pytest.raises(InvalidConfigError):
            build_partition(s, n_bands=n_bands)


def test_postselect_turns_net_information_positive():
    s, params = _sifted(loss=0.54, n=60_000)
    res = postselect(s, params, n_bands=10)
    assert res.report_post.delta_i > 0
    assert 0 < len(res.kept) < len(res.mask)
    assert len(res.kept) == res.mask.sum()
    # post-selection keeps high-u points
    u = band_statistic(s, 0.46, 0.46)
    assert u[res.mask].mean() > u[~res.mask].mean()


def test_postselect_calibration_mask_disjoint():
    s, params = _sifted(loss=0.54, n=80_000)
    calib = np.arange(len(s)) % 2 == 0
    res = postselect(s, params, n_bands=5, calibration_mask=calib)
    assert res.report_post.delta_i > 0


def test_write_kept_csv(tmp_path):
    s, params = _sifted(n=5000)
    res = postselect(s, params, n_bands=4)
    idx = res.partition.band_of(res.kept, 0.46, 0.46)
    path = tmp_path / "kept.csv"
    write_kept_csv(path, res.kept, idx)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "quadrature,band,alice_bit,bob_bit,abs_v_a,v_b"
    assert len(lines) == len(res.kept) + 1
    first = lines[1].split(",")
    assert first[0] in ("x", "p")
    assert float(first[4]) == pytest.approx(res.kept.abs_v_a[0])


@pytest.mark.parametrize("holdout", [False, True])
def test_blocked_pass_matches_whole_array_oracle(holdout):
    # a partial last block, and one x block with v_a = 0, where u = 0 and
    # nothing is kept
    config = PipelineConfig(loss=0.9, var_mod=0.51, n_bands=4, seed=11,
                            n_symbols=3 * SYMBOL_BLOCK + 17, holdout=holdout)
    params = config.channel_params()
    eta = params.eta("x")
    sym = generate_symbols(config.n_symbols, params, 12)
    sym.x_a[SYMBOL_BLOCK:2 * SYMBOL_BLOCK] = 0.0
    meas = measure(sym, params, 13)
    _, symbol_mask = sift_layout(config)
    calib = calibration_mask(config, symbol_mask)

    sifted_pos = np.tile(symbol_mask, 2)
    va = np.concatenate([sym.x_a, sym.p_a])[sifted_pos]
    vb = np.concatenate([meas.x_b, meas.p_b])[sifted_pos]
    whole = SiftedData(len(va) // 2,
                       (va > 0).astype(np.uint8), (vb > 0).astype(np.uint8),
                       np.abs(va), vb)
    mask = keep_mask(whole, eta, eta)
    kept = whole.subset(mask)
    eve_sum = sum(np.sum(security.helstrom_error(security.eve_overlap(
        whole.abs_v_a[whole.quad == qi], eta))) for qi in (0, 1))
    part = build_partition(kept, 4,
                           None if calib is None else calib[mask])
    n_x = len(va) // 2
    empty = slice(n_x - np.count_nonzero(symbol_mask[SYMBOL_BLOCK:]),
                  n_x - np.count_nonzero(symbol_mask[2 * SYMBOL_BLOCK:]))
    assert len(va[empty]) > 60_000 and not mask[empty].any()

    res = postselect(sift_blocks(sym, meas, symbol_mask), params, 4,
                     calibration_mask=calib)
    assert np.array_equal(res.mask, mask)
    for name in ("quad", "alice_bit", "bob_bit", "abs_v_a", "v_b"):
        assert np.array_equal(getattr(res.kept, name), getattr(kept, name))
    assert res.n_flip == np.count_nonzero(whole.alice_bit != whole.bob_bit)
    assert res.eve_error_sum == pytest.approx(eve_sum, rel=1e-12)
    assert np.array_equal(res.partition.band_idx, part.band_idx)
    assert np.array_equal(res.partition.n_error, part.n_error)

    # the receiver's view: the same decisions without Alice's bits
    view = postselect(sift_blocks(SymbolBatch(np.abs(sym.x_a),
                                              np.abs(sym.p_a)),
                                  meas, symbol_mask, signed=False),
                      params, 4, calibration_mask=calib)
    assert np.array_equal(view.mask, mask)
    assert view.kept.alice_bit is None and view.n_flip is None
    assert view.eve_error_sum == res.eve_error_sum


@pytest.mark.parametrize("holdout", [False, True])
def test_carried_arrays_match_the_kept_bits(holdout):
    # the u, Eve information and Helstrom tally that the one pass carries
    # equal their values recomputed over the kept bits, at unequal eta
    config = PipelineConfig(loss=0.54, var_mod=4.0, n_bands=4, seed=5,
                            n_symbols=SYMBOL_BLOCK + 5000, holdout=holdout)
    params = ChannelParams(0.43, 0.49, 4.0, 4.0)
    sym = generate_symbols(config.n_symbols, params, 6)
    meas = measure(sym, params, 7)
    _, symbol_mask = sift_layout(config)
    res = postselect(sift_blocks(sym, meas, symbol_mask), params, 4,
                     calibration_mask=calibration_mask(config, symbol_mask))
    kept = res.kept
    assert 0 < kept.n_x < len(kept)
    assert np.array_equal(kept.u, band_statistic(kept, 0.43, 0.49))
    assert np.array_equal(res.eve_info, eve_information_bits(
        kept.n_x, kept.abs_v_a, 0.43, 0.49, False))
    eve_kept = sum(np.sum(security.helstrom_error(security.eve_overlap(
        kept.abs_v_a[s], (0.43, 0.49)[qi])))
        for s, qi in halves(kept.n_x, len(kept)))
    assert res.eve_error_kept == pytest.approx(eve_kept, rel=1e-12)
    assert kept.eve_q is None and res.partition.band_idx.dtype == np.uint8
