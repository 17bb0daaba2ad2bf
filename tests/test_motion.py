import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectralpq import motion
from spectralpq.corpus import high_motion_translation
from spectralpq.errors import ConfigurationError, StructuralError
from spectralpq.frames import BlockTree, Frame, box_sums, partition
from spectralpq.motion import (
    MotionVector,
    _Reference,
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


def test_motion_field_keeps_under_100_bytes_per_cu():
    # A vector, its magnitude and their two list entries: a vector with a
    # __dict__ alone took the field to about 128 bytes per CU.
    rng = np.random.default_rng(26)
    ref = rng.integers(0, 256, (256, 256)).astype(np.int64)
    cur = np.roll(ref, shift=(3, -2), axis=(0, 1))
    tree = partition(_frame_from_plane(ref), 8)
    estimate_motion_field(cur, ref, tree, 4)    # warm numpy's small-block caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        field = estimate_motion_field(cur, ref, tree, 4)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(field.vectors) == 1024
    assert kept / 1024 <= 100


# Differential test: the pruned search against a per-CU brute force that
# evaluates every SAD in the clamped window.

def _brute_force_mv(block, ref, x, y, search_range):
    size = block.shape[0]
    h, w = ref.shape
    sads = {}
    for vy in range(max(-search_range, -y), min(search_range, h - size - y) + 1):
        for vx in range(max(-search_range, -x), min(search_range, w - size - x) + 1):
            window = ref[y + vy : y + vy + size, x + vx : x + vx + size]
            sads[vx, vy] = int(np.abs(window.astype(np.int64) - block).sum())
    vx, vy = min(sads, key=lambda v: (sads[v], v[0] ** 2 + v[1] ** 2, v[1], v[0]))
    return MotionVector(vx, vy)


def _plane_pair(kind, h, w):
    rng = np.random.default_rng(67)
    if kind == "random":
        ref = rng.integers(0, 256, (h, w))
        cur = np.clip(np.roll(ref, (2, -3), axis=(0, 1)) + rng.integers(-6, 7, (h, w)), 0, 255)
    elif kind == "stripes":  # period 2 in both directions: the tie-break decides
        ref = np.tile(np.array([[0, 255], [255, 0]]), (h // 2, w // 2))
        cur = np.roll(ref, 1, axis=0)
        cur[h // 4 : h // 2, : w // 2] = 128  # a patch no candidate matches
    elif kind == "flat":  # every bound is zero: nothing is pruned
        ref = np.full((h, w), 99)
        cur = np.full((h, w), 99)
    else:  # 10-bit extremes: the largest SADs the search can meet
        ref = rng.choice([0, 1023], (h, w))
        cur = 1023 - np.roll(ref, 1, axis=1)
        cur[: h // 2] = rng.choice([0, 1023], (h // 2, w))
    return cur.astype(np.int64), ref.astype(np.int64)


@pytest.mark.parametrize("search_range", [0, 1, 5, 100])
@pytest.mark.parametrize("cu_size", [8, 16, 32])
@pytest.mark.parametrize("kind", ["random", "stripes", "flat", "10bit"])
def test_pruned_search_equals_brute_force(kind, cu_size, search_range):
    h, w = (32, 64) if search_range == 100 else (64, 96)
    cur, ref = _plane_pair(kind, h, w)
    tree = BlockTree(w, h, cu_size)
    field = estimate_motion_field(cur, ref, tree, search_range)
    for cu, vector in zip(tree, field.vectors):  # every CU, edges included
        block = cur[cu.y : cu.y + cu_size, cu.x : cu.x + cu_size]
        expected = _brute_force_mv(block, ref, cu.x, cu.y, search_range)
        assert vector == expected, (cu, vector, expected)
        assert estimate_mv(block, ref, cu.x, cu.y, search_range) == expected
    assert field.magnitudes == [mv_magnitude(v) for v in field.vectors]


def _texture(kind, h, w, top, rng):
    """A plane of one texture family; most tie under some sub-block sums."""
    y, x = np.mgrid[:h, :w]
    if kind == "checkerboard":  # every 2x2 and 4x4 sum is the same
        return (y + x) % 2 * top
    if kind == "stripes":  # period 2: every 2x2 and 4x4 sum is the same
        return y % 2 * top
    if kind == "period4":  # every 4x4 sum is the same, the 2x2 sums are not
        return np.tile(rng.choice([0, top], (4, 4)), (h // 4, w // 4))
    if kind == "flat":
        return np.full((h, w), rng.integers(0, top + 1))
    if kind == "extremes":
        return rng.choice([0, top], (h, w))
    return rng.integers(0, top + 1, (h, w))  # noise


@st.composite
def _searches(draw):
    cu_size = draw(st.sampled_from([8, 16, 32]))
    grid = st.integers(1, min(4, 96 // cu_size))  # CUs down and across, at most 96 samples
    h, w = draw(grid) * cu_size, draw(grid) * cu_size
    top = (1 << draw(st.sampled_from([8, 10]))) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["checkerboard", "stripes", "period4", "flat", "extremes", "noise"]))
    ref = _texture(kind, h, w, top, rng)
    shift = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    cur = np.roll(ref, shift, axis=(0, 1))
    if draw(st.booleans()):  # shifted noise
        cur = np.clip(cur + rng.integers(-8, 9, (h, w)), 0, top)
    if draw(st.booleans()):  # a patch of a fresh draw, out of phase with the rest
        py, px = rng.integers(0, h // 2 + 1), rng.integers(0, w // 2 + 1)
        cur[py : py + h // 2, px : px + w // 2] = _texture(kind, h, w, top, rng)[: h // 2, : w // 2]
    dtype = np.uint8 if top == 255 else np.uint16
    return cur.astype(dtype), ref.astype(dtype), cu_size, draw(st.integers(0, 20))


def _moved(kind):
    """A 96x96 10-bit plane of `kind` and its copy rolled 1 row down and 2
    columns left, for a CU 32 search wide enough to take the 2x2 level."""
    ref = _texture(kind, 96, 96, 1023, np.random.default_rng(5)).astype(np.uint16)
    return np.roll(ref, (1, -2), axis=(0, 1)), ref, 32, 16


@settings(max_examples=100, deadline=None)
@given(_searches())
@example(_moved("period4"))
@example(_moved("extremes"))
@example(_moved("checkerboard"))
def test_search_equals_brute_force_on_drawn_planes(search):
    cur, ref, cu_size, search_range = search
    h, w = cur.shape
    tree = BlockTree(w, h, cu_size)
    field = estimate_motion_field(cur, ref, tree, search_range)
    for cu, vector in zip(tree, field.vectors):
        block = cur[cu.y : cu.y + cu_size, cu.x : cu.x + cu_size]
        expected = _brute_force_mv(block.astype(np.int64), ref, cu.x, cu.y, search_range)
        assert vector == expected, (cu, vector, expected)
        assert estimate_mv(block, ref, cu.x, cu.y, search_range) == expected


def test_pair_level_prunes_a_moving_texture(monkeypatch):
    # Each CU's SADs and 2x2 bounds go through motion._sads: a call on 2x2
    # sums takes the CU's 4x4 survivors, and the call after it takes what
    # the 2x2 level left of them for the full SADs.
    calls = []

    def spy(stack, target):
        calls.append((stack.shape[-1], len(stack)))
        return sads(stack, target)

    sads = motion._sads
    monkeypatch.setattr(motion, "_sads", spy)
    frames = high_motion_translation(seed=4).frames
    cur, ref = frames[1].planes[0], frames[0].planes[0]
    tree = BlockTree(*cur.shape[::-1], 32)
    estimate_motion_field(cur, ref, tree, 16)
    pairs = [i for i, (side, _) in enumerate(calls) if side == 16]
    assert pairs, "no CU took the 2x2 level"
    for i in pairs:
        assert calls[i + 1][0] == 32
        assert calls[i + 1][1] < calls[i][1]
    assert sum(calls[i + 1][1] for i in pairs) < sum(calls[i][1] for i in pairs) / 2


@pytest.mark.parametrize("size", [8, 16, 32])
def test_block_sums_equal_strided_box_sums(size):
    rng = np.random.default_rng(size)
    ref = _Reference(np.zeros((64, 64), dtype=np.int32), size)
    for top in (255, 1023):
        for block in (rng.integers(0, top + 1, (size, size)), rng.integers(0, top + 1, (64, 96)),
                      np.full((size, size), top)):
            block = block.astype(np.int32)
            old = box_sums(block, ref.sub)[:: ref.sub, :: ref.sub].astype(np.int32)
            got = ref.block_sums(block)
            assert got.dtype == np.int32
            assert np.array_equal(got, old)


def _mv_args():
    rng = np.random.default_rng(9)
    reference = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    return reference[8:16, 8:16], reference


@pytest.mark.parametrize("search_range", [-1, 2.0, True, None])
def test_estimate_mv_rejects_bad_search_range(search_range):
    block, reference = _mv_args()
    with pytest.raises(ConfigurationError, match="search_range"):
        estimate_mv(block, reference, 8, 8, search_range)


@pytest.mark.parametrize("x,y", [(8.0, 8), (8, np.float64(8)), (True, 8), (8, False), (None, 8)])
def test_estimate_mv_rejects_a_non_integer_position(x, y):
    block, reference = _mv_args()
    with pytest.raises(ConfigurationError, match="block position must be integers"):
        estimate_mv(block, reference, x, y, 4)


def test_estimate_mv_accepts_a_numpy_integer_position():
    block, reference = _mv_args()
    assert estimate_mv(block, reference, np.int64(8), np.int32(8), 4) == estimate_mv(
        block, reference, 8, 8, 4
    )


def test_estimate_mv_rejects_non_integer_planes():
    block, reference = _mv_args()
    with pytest.raises(ConfigurationError, match="integer"):
        estimate_mv(block.astype(np.float64), reference, 8, 8, 4)
    with pytest.raises(ConfigurationError, match="integer"):
        estimate_mv(block, reference.astype(np.float32), 8, 8, 4)


def test_estimate_mv_rejects_a_block_that_is_not_square():
    _, reference = _mv_args()
    with pytest.raises(StructuralError, match="not a square block"):
        estimate_mv(reference[8:24, 8:16], reference, 8, 8, 4)


@pytest.mark.parametrize("x,y", [(-4, 8), (8, -1), (25, 8), (8, 25), (28, 28)])
def test_estimate_mv_rejects_a_block_outside_the_reference(x, y):
    block, reference = _mv_args()
    with pytest.raises(StructuralError, match="inside"):
        estimate_mv(block, reference, x, y, 4)
    assert estimate_mv(block, reference, 8, 8, 4) == MotionVector(0, 0)
