import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from spectralpq.errors import StructuralError
from spectralpq.frames import Frame
from spectralpq.metrics import psnr, quality_report, sequence_psnr, ssim


def test_psnr_identical_is_infinite():
    plane = np.random.default_rng(0).integers(0, 256, (32, 32))
    assert math.isinf(psnr(plane, plane, 8))


def test_psnr_constant_offset_one():
    plane = np.random.default_rng(1).integers(0, 255, (64, 64))
    assert psnr(plane, plane + 1, 8) == pytest.approx(48.1308, abs=0.01)


def test_psnr_symmetry_and_monotonicity():
    rng = np.random.default_rng(2)
    ref = rng.integers(0, 256, (32, 32)).astype(np.int64)
    small = np.clip(ref + rng.integers(-2, 3, ref.shape), 0, 255)
    large = np.clip(ref + rng.integers(-20, 21, ref.shape), 0, 255)
    assert psnr(ref, small, 8) == pytest.approx(psnr(small, ref, 8))
    assert psnr(ref, small, 8) > psnr(ref, large, 8)


def test_psnr_shape_mismatch():
    with pytest.raises(StructuralError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)), 8)


def test_ssim_identical_is_exactly_one():
    plane = np.random.default_rng(3).integers(0, 256, (24, 24))
    assert ssim(plane, plane, 8) == 1.0


def test_ssim_window_size_guard():
    with pytest.raises(StructuralError):
        ssim(np.zeros((6, 6)), np.zeros((6, 6)), 8)


def test_ssim_monotone_under_scaled_noise():
    rng = np.random.default_rng(4)
    ref = rng.integers(60, 196, (32, 32)).astype(np.float64)
    noise = rng.normal(0.0, 1.0, ref.shape)
    scores = []
    for amp in (2.0, 8.0, 24.0):
        rec = np.clip(ref + amp * noise, 0, 255)
        scores.append(ssim(ref, rec, 8))
    assert scores[0] > scores[1] > scores[2]


def test_ssim_checkerboard_inverse_near_minus_one():
    # direct evaluation: means cancel the luminance term and covariance is
    # -variance, so every window scores (C2 - 2*127.5^2) / (C2 + 2*127.5^2)
    board = np.indices((16, 16)).sum(axis=0) % 2 * 255
    inverse_board = 255 - board
    expected = (58.5225 - 2 * 127.5**2) / (58.5225 + 2 * 127.5**2)
    assert ssim(board, inverse_board, 8) == pytest.approx(expected, abs=1e-9)
    assert ssim(board, inverse_board, 8) == pytest.approx(-0.9964, abs=1e-3)


def test_ssim_offset_invariance_within_tolerance():
    rng = np.random.default_rng(5)
    ref = rng.integers(40, 200, (32, 32)).astype(np.float64)
    rec = np.clip(ref + rng.normal(0.0, 6.0, ref.shape), 0, 255)
    base = ssim(ref, rec, 8)
    for c in (-10, -3, 3, 10):
        assert abs(ssim(ref + c, rec + c, 8) - base) <= 1e-3


def _frame(planes):
    g, b, r = planes
    return Frame(g.shape[1], g.shape[0], 8, (g.astype(np.uint8), b.astype(np.uint8), r.astype(np.uint8)))


def test_quality_report_aggregates():
    rng = np.random.default_rng(7)
    ref = _frame([rng.integers(0, 256, (16, 16)) for _ in range(3)])
    rep = quality_report(ref, ref)
    assert all(math.isinf(v) for v in rep.psnr.values())
    assert rep.ssim_mean == 1.0
    assert rep.visually_lossless

    noisy = _frame([np.clip(p.astype(int) + rng.integers(-60, 61, p.shape), 0, 255)
                    for p in ref.planes])
    rep2 = quality_report(ref, noisy)
    assert rep2.ssim_mean == pytest.approx(sum(rep2.ssim.values()) / 3)
    assert not rep2.visually_lossless


def test_sequence_psnr_pools_frames():
    rng = np.random.default_rng(8)
    refs = [_frame([rng.integers(0, 255, (16, 16)) for _ in range(3)]) for _ in range(2)]
    assert math.isinf(sequence_psnr(refs, refs, "G"))
    recs = [_frame([f.planes[i].astype(int) + 1 for i in range(3)]) for f in refs]
    assert sequence_psnr(refs, recs, "G") == pytest.approx(48.1308, abs=0.01)


def _sliding_window_ssim(ref, rec, bit_depth):
    """The earlier ssim formula, which built every window: the reference the
    box-sum version must equal bit for bit on integer planes."""
    window = 8
    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    x = sliding_window_view(ref.astype(np.float64), (window, window))
    y = sliding_window_view(rec.astype(np.float64), (window, window))
    mu_x = x.mean(axis=(2, 3))
    mu_y = y.mean(axis=(2, 3))
    var_x = (x * x).mean(axis=(2, 3)) - mu_x * mu_x
    var_y = (y * y).mean(axis=(2, 3)) - mu_y * mu_y
    cov = (x * y).mean(axis=(2, 3)) - mu_x * mu_y
    score = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(score.mean())


@pytest.mark.parametrize("bit_depth,dtype", [(8, np.uint8), (10, np.uint16)])
@pytest.mark.parametrize("seed", range(6))
def test_ssim_equals_sliding_window_formula_on_integer_planes(bit_depth, dtype, seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(8, 40)), int(rng.integers(8, 40)))
    if seed % 2:
        shape = shape[::-1]
    top = (1 << bit_depth) - 1
    ref = rng.integers(0, top + 1, shape).astype(dtype)
    noise = rng.integers(-top // 8, top // 8 + 1, shape)
    rec = np.clip(ref.astype(np.int64) + noise, 0, top).astype(dtype)
    assert ssim(ref, rec, bit_depth) == _sliding_window_ssim(ref, rec, bit_depth)
    assert ssim(ref, ref, bit_depth) == _sliding_window_ssim(ref, ref, bit_depth)


@pytest.mark.parametrize("seed", range(4))
def test_ssim_close_to_sliding_window_formula_on_float_planes(seed):
    rng = np.random.default_rng(100 + seed)
    shape = (int(rng.integers(8, 40)), int(rng.integers(8, 40)))
    ref = rng.random(shape) * 255
    rec = np.clip(ref + rng.normal(0, 10, shape), 0, 255)
    assert abs(ssim(ref, rec, 8) - _sliding_window_ssim(ref, rec, 8)) <= 1e-12


def test_ssim_peak_memory_per_pixel():
    rng = np.random.default_rng(7)
    ref = rng.integers(0, 256, (256, 256)).astype(np.uint8)
    rec = rng.integers(0, 256, (256, 256)).astype(np.uint8)
    ssim(ref, rec, 8)  # warm up
    tracemalloc.start()
    try:
        ssim(ref, rec, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ref.size < 160
