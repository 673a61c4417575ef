import numpy as np
import pytest

from cvqkd import security
from cvqkd.bands import (
    SiftedData,
    band_statistic,
    build_partition,
    keep_mask,
    postselect,
    sift,
    write_kept_csv,
)
from cvqkd.channel import ChannelParams, generate_symbols, transmit_and_measure
from cvqkd.errors import InsufficientDataError, InvalidConfigError


def _sifted(loss=0.54, var_mod=4.0, n=30_000, seed=3):
    params = ChannelParams.from_loss(loss, var_mod)
    sym = generate_symbols(n, params, seed)
    meas, _ = transmit_and_measure(sym, params, seed + 1)
    return sift(sym, meas), params


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
    s, params = _sifted()
    part = build_partition(s, 0.46, 0.46, n_bands=10)
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
    s, _ = _sifted(n=20_000)
    part = build_partition(s, 0.46, 0.46, n_bands=8)
    idx = part.band_of(s, 0.46, 0.46)
    errors = s.alice_bit != s.bob_bit
    for qi in (0, 1):
        for k in range(8):
            in_k = (s.quad == qi) & (idx == k)
            assert np.count_nonzero(in_k & errors) == part.n_error[qi, k]
            assert np.count_nonzero(in_k & ~errors) == part.n_good[qi, k]


def test_build_partition_requires_enough_points():
    s, _ = _sifted(n=300)
    with pytest.raises(InsufficientDataError):
        build_partition(s, 0.46, 0.46, n_bands=10)
    with pytest.raises(InvalidConfigError):
        build_partition(s, 0.46, 0.46, n_bands=0)


def test_postselect_turns_net_information_positive():
    s, params = _sifted(loss=0.54, n=60_000)
    res = postselect(s, params, n_bands=10)
    assert res.report_post.delta_i > 0
    assert 0 < res.keep_fraction < 1
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
