import numpy as np
import pytest

from spectralpq.frames import Frame, partition
from spectralpq.motion import (
    MotionVector,
    estimate_motion_field,
    estimate_mv,
    frame_mean_magnitude,
    mv_magnitude,
)


def test_mv_magnitude():
    assert mv_magnitude(MotionVector(3, 4)) == pytest.approx(5.0)
    assert mv_magnitude(MotionVector(0, 0)) == 0.0
    assert mv_magnitude(MotionVector(-3, 4)) == pytest.approx(5.0)


def test_frame_mean_magnitude():
    assert frame_mean_magnitude([5.0, 0.0, 0.0, 0.0]) == pytest.approx(1.25)
    assert frame_mean_magnitude([7.5]) == 7.5
    with pytest.raises(ValueError):
        frame_mean_magnitude([])


def test_identical_frames_give_zero_vector():
    rng = np.random.default_rng(41)
    plane = rng.integers(0, 256, (64, 64)).astype(np.int64)
    mv = estimate_mv(plane[16:32, 16:32], plane, 16, 16, 8)
    assert (mv.vx, mv.vy) == (0, 0)


def test_known_translation_recovered():
    rng = np.random.default_rng(43)
    ref = rng.integers(0, 256, (64, 64)).astype(np.int64)
    cur = np.roll(ref, shift=(0, 3), axis=(0, 1))  # content moved 3 right
    block = cur[24:40, 24:40]
    mv = estimate_mv(block, ref, 24, 24, 8)
    assert (mv.vx, mv.vy) == (-3, 0)
    assert np.array_equal(ref[24:40, 21:37], block)


def test_zero_search_range():
    rng = np.random.default_rng(47)
    ref = rng.integers(0, 256, (32, 32)).astype(np.int64)
    cur = np.roll(ref, 5, axis=1)
    mv = estimate_mv(cur[8:16, 8:16], ref, 8, 8, 0)
    assert (mv.vx, mv.vy) == (0, 0)


def test_full_search_optimality_against_brute_force():
    rng = np.random.default_rng(53)
    ref = rng.integers(0, 256, (40, 40)).astype(np.int64)
    cur = rng.integers(0, 256, (40, 40)).astype(np.int64)
    size, x, y, rng_w = 8, 16, 12, 3
    block = cur[y : y + size, x : x + size]
    chosen = estimate_mv(block, ref, x, y, rng_w)
    chosen_sad = np.abs(ref[y + chosen.vy : y + chosen.vy + size,
                            x + chosen.vx : x + chosen.vx + size] - block).sum()
    for vy in range(-rng_w, rng_w + 1):
        for vx in range(-rng_w, rng_w + 1):
            sad = np.abs(ref[y + vy : y + vy + size, x + vx : x + vx + size] - block).sum()
            assert chosen_sad <= sad


def test_tie_breaks():
    flat = np.full((32, 32), 99, dtype=np.int64)
    mv = estimate_mv(flat[8:16, 8:16], flat, 8, 8, 4)
    assert (mv.vx, mv.vy) == (0, 0)  # all SADs zero, minimal magnitude wins

    # horizontal stripes with period 2: (0, -1) and (0, +1) both match; the
    # smaller vy wins the magnitude tie
    stripes = np.tile(np.array([[0], [255]]), (16, 32)).astype(np.int64)
    cur = np.roll(stripes, 1, axis=0)
    mv = estimate_mv(cur[8:16, 8:16], stripes, 8, 8, 2)
    assert (mv.vx, mv.vy) == (0, -1)


def test_window_clamps_at_frame_edge():
    rng = np.random.default_rng(59)
    ref = rng.integers(0, 256, (32, 32)).astype(np.int64)
    mv = estimate_mv(ref[0:8, 0:8], ref, 0, 0, 16)
    assert (mv.vx, mv.vy) == (0, 0)


def _frame_from_plane(plane):
    p = plane.astype(np.uint8)
    return Frame(p.shape[1], p.shape[0], 8, (p, p.copy(), p.copy()))


def test_field_mean_and_translation_consistency():
    rng = np.random.default_rng(61)
    ref = rng.integers(0, 256, (128, 128)).astype(np.int64)
    a, b = 2, 3  # shift right 2, down 3
    cur = np.roll(ref, shift=(b, a), axis=(0, 1))
    tree = partition(_frame_from_plane(ref), 32)
    field = estimate_motion_field(cur, ref, tree, 8)
    assert field.mean_magnitude == pytest.approx(frame_mean_magnitude(field.magnitudes))
    rows, cols = tree.grid_shape
    for idx, cu in enumerate(tree):
        r, c = idx // cols, idx % cols
        if 0 < r < rows - 1 and 0 < c < cols - 1:  # interior only (no wrap seam)
            assert (field.vectors[idx].vx, field.vectors[idx].vy) == (-a, -b)
            assert field.magnitudes[idx] == pytest.approx(np.hypot(a, b))
