import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralpq.errors import StructuralError
from spectralpq.frames import Frame, partition, tiles
from spectralpq.perceptual import (
    DEFAULT_CONSTANTS,
    adaptiveqp_offset,
    cb_activity,
    frame_activity,
    frame_mean_activity,
    normalized_activity,
    offset_range,
    perceptual_qp,
    round_half_away,
    spatial_term,
    temporal_offset,
)


def test_round_half_away():
    assert round_half_away(3.5) == 4
    assert round_half_away(-3.5) == -4
    assert round_half_away(3.49) == 3
    assert round_half_away(-3.09) == -3
    assert round_half_away(0.0) == 0


def test_cb_activity_constant():
    assert cb_activity(np.full((16, 16), 77)) == 1.0


def test_cb_activity_takes_minimum_quadrant():
    cb = np.zeros((8, 8))
    cb[:4, 4:] = np.arange(16).reshape(4, 4) * 2      # variance > 0
    cb[4:, :4] = np.arange(16).reshape(4, 4) * 3
    cb[4:, 4:] = np.arange(16).reshape(4, 4) * 4
    assert cb_activity(cb) == 1.0  # top-left quadrant is constant


def test_cb_activity_alternating_pattern():
    # each quadrant alternates {0, 2}: population variance 1, so g = 2
    quad = np.tile(np.array([[0, 2], [2, 0]]), (2, 2))
    cb = np.tile(quad, (2, 2)).astype(np.float64)
    assert cb_activity(cb) == pytest.approx(2.0)


def test_frame_mean_activity():
    assert frame_mean_activity([16.0, 4.0, 4.0, 4.0]) == pytest.approx(7.0)
    assert frame_mean_activity([3.5]) == 3.5
    with pytest.raises(ValueError):
        frame_mean_activity([])


def test_normalized_activity_values():
    assert normalized_activity(5.0, 5.0) == pytest.approx(1.0)
    assert normalized_activity(16.0, 4.0) == pytest.approx(1.5)
    assert normalized_activity(1e12, 1.0) == pytest.approx(2.0, abs=1e-5)
    rng = np.random.default_rng(67)
    for _ in range(500):
        g = 1.0 + rng.uniform(0.0, 1e4)
        h = 1.0 + rng.uniform(0.0, 1e4)
        a = normalized_activity(g, h)
        assert 0.5 < a < 2.0


@pytest.mark.parametrize(
    "d,f,channel,expected",
    [(7.0, 5.0, "G", 3), (7.0, 5.0, "B", 6), (7.0, 5.0, "R", 6), (5.0, 5.0, "G", 0), (5.0, 5.0, "B", 0)],
)
def test_temporal_offset(d, f, channel, expected):
    assert temporal_offset(d, f, channel) == expected


def test_offset_ranges():
    assert offset_range("G") == (3, 6)
    assert offset_range("B") == (6, 12)
    assert offset_range("R") == (6, 12)


def test_perceptual_qp_worked_examples():
    r = perceptual_qp(22, 1.5, 0, "G")
    assert (r.spatial_term, r.total_offset, r.qp) == (4, 4, 26)

    r = perceptual_qp(22, 1.5, 0, "B")
    assert (r.total_offset, r.qp) == (6, 28)

    r = perceptual_qp(22, 1.0, 6, "R")
    assert (r.total_offset, r.qp) == (6, 28)

    r = perceptual_qp(22, 1.0, 0, "G")
    assert (r.total_offset, r.qp) == (3, 25)


def test_perceptual_qp_bounds_and_monotonicity():
    rng = np.random.default_rng(71)
    for _ in range(500):
        a = float(rng.uniform(0.51, 1.99))
        x = int(rng.integers(0, 46))
        for ch in ("G", "B", "R"):
            z_high = temporal_offset(9.0, 1.0, ch)
            lo, hi = offset_range(ch)
            for z in (0, z_high):
                r = perceptual_qp(x, a, z, ch)
                assert lo <= r.total_offset <= hi
                assert r.qp >= x  # offsets never drop below the frame QP
    # monotone in activity and in the temporal trigger
    for ch in ("G", "B", "R"):
        prev = None
        for a in (0.6, 0.9, 1.0, 1.3, 1.7, 1.95):
            q = perceptual_qp(30, a, 0, ch).qp
            if prev is not None:
                assert q >= prev
            prev = q
        assert perceptual_qp(30, 1.0, 6, ch).qp >= perceptual_qp(30, 1.0, 0, ch).qp


def test_channel_offset_ordering():
    for a in (0.6, 1.0, 1.5, 1.95):
        g = perceptual_qp(27, a, 0, "G")
        b = perceptual_qp(27, a, 0, "B")
        r = perceptual_qp(27, a, 0, "R")
        assert b.total_offset == r.total_offset
        assert b.total_offset >= g.total_offset


def test_perceptual_qp_clamps_at_51():
    assert perceptual_qp(50, 1.95, 6, "B").qp == 51


def test_spatial_term_rounding():
    assert spatial_term(1.5) == 4   # 6*log2(1.5) = 3.51
    assert spatial_term(1.0) == 0
    assert spatial_term(0.7) == -3  # 6*log2(0.7) = -3.09


def test_frame_activity_summary():
    rng = np.random.default_rng(73)
    plane = np.full((64, 64), 100.0)
    plane[32:, 32:] += rng.normal(0.0, 20.0, (32, 32))
    frame = Frame(64, 64, 8, tuple(np.zeros((64, 64), np.uint8) for _ in range(3)))
    tree = partition(frame, 32)
    acts = frame_activity(plane, tree, "G")
    assert len(acts) == 4
    assert acts[0].channel == "G"
    gs = [a.g for a in acts]
    assert acts[0].frame_mean == pytest.approx(sum(gs) / 4)
    assert gs[3] > gs[0] == 1.0
    assert acts[3].a > 1.0 > acts[0].a


def test_adaptiveqp_offsets():
    assert adaptiveqp_offset(1.0) == 0
    assert adaptiveqp_offset(2.0) == 6
    assert adaptiveqp_offset(0.7) == -3
    assert adaptiveqp_offset(0.5) == -6
    # unlike the perceptual mode, the anchor may lower the QP
    assert adaptiveqp_offset(0.7) < 0
    assert DEFAULT_CONSTANTS.qp_offset_mean == 6
    assert DEFAULT_CONSTANTS.qp_offset_max == 12
    assert DEFAULT_CONSTANTS.activity_scale == 2


def _activity_planes(bit_depth, rng, shape=(128, 192)):
    top = (1 << bit_depth) - 1
    near_flat = rng.integers(top // 2, top // 2 + 2, shape)
    near_flat[rng.random(shape) < 0.98] = top // 2
    return {
        "flat": np.full(shape, top),
        "zero": np.zeros(shape, dtype=np.int64),
        "near_flat": near_flat,
        "extremes": rng.choice([0, top], shape),
        "uniform": rng.integers(0, top + 1, shape),
        "mixed": np.where(rng.random(shape) < 0.5, rng.integers(0, top + 1, shape), top),
    }


def _quadrant_var_oracle(plane, cu_size):
    """1 + the minimum np.var over the four quadrants of each block, one block at a time."""
    half = cu_size // 2
    rows, cols = plane.shape[0] // cu_size, plane.shape[1] // cu_size
    g = np.empty((rows, cols))
    for r in range(rows):
        for c in range(cols):
            y, x = r * cu_size, c * cu_size
            g[r, c] = 1.0 + min(float(np.var(plane[y + dy : y + dy + half, x + dx : x + dx + half]))
                                for dy in (0, half) for dx in (0, half))
    return g


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("cu_size", [8, 16, 32])
def test_cu_activities_equal_cb_activity_exactly(bit_depth, cu_size):
    # cb_activity over a plane's CU tiles equals a per-quadrant np.var
    # oracle, and cb_activity block by block, exactly on integer samples.
    rng = np.random.default_rng(bit_depth * cu_size)
    dtypes = (np.int32, np.uint16, np.float64) + ((np.uint8,) if bit_depth == 8 else ())
    for dtype in dtypes:
        for name, plane in _activity_planes(bit_depth, rng).items():
            plane = plane.astype(dtype)
            got = cb_activity(tiles(plane, cu_size))
            assert got.shape == (plane.shape[0] // cu_size, plane.shape[1] // cu_size), name
            assert np.array_equal(got, _quadrant_var_oracle(plane, cu_size)), (dtype, name)
            blocks = tiles(plane, cu_size)
            assert all(got[r, c] == cb_activity(blocks[r, c])
                       for r in range(got.shape[0]) for c in range(got.shape[1])), (dtype, name)


@pytest.mark.parametrize("cu_size", [8, 16, 32])
def test_cb_activity_of_a_non_integer_plane_is_within_rounding(cu_size):
    plane = np.random.default_rng(cu_size).random((96, 128)) * 1000.0
    got = cb_activity(tiles(plane, cu_size))
    np.testing.assert_allclose(got, _quadrant_var_oracle(plane, cu_size), rtol=1e-12, atol=0)


def test_cb_activity_of_one_block_is_a_float_and_of_a_stack_an_array():
    block = np.arange(256).reshape(16, 16)
    assert type(cb_activity(block)) is float
    stack = np.stack([block, block.T, np.zeros((16, 16))])
    assert cb_activity(stack).tolist() == [cb_activity(b) for b in stack]


def test_cu_activities_rejects_a_plane_off_the_grid():
    for bad in (np.zeros((64, 72)), np.zeros((3, 64, 72)), np.zeros(64)):
        with pytest.raises(StructuralError):
            tiles(bad, 16)
    with pytest.raises(StructuralError):
        tiles(np.zeros((64, 64)), 0)
    # block shapes cb_activity rejects, alone and as a stack
    for shape in ((9, 9), (4, 4), (8, 16), (10, 10, 8), (2, 3, 12, 16), (8,)):
        with pytest.raises(StructuralError):
            cb_activity(np.zeros(shape))


_CHANNELS = ("G", "B", "R")


def _assert_array_equals_scalar(array_result, scalar_results):
    # Every element equals the scalar call's result, and the array is integer
    # where the scalar results are ints.
    assert array_result.shape == (len(scalar_results),)
    if all(type(v) is int for v in scalar_results):
        assert array_result.dtype.kind == "i"
    assert array_result.tolist() == scalar_results


def _assert_perceptual_arrays_equal_scalars(gs, frame_mean, mags, mean_mag, frame_qp):
    gs, mags = np.array(gs, dtype=np.float64), np.array(mags, dtype=np.float64)
    a = normalized_activity(gs, frame_mean)
    _assert_array_equals_scalar(a, [normalized_activity(g, frame_mean) for g in gs.tolist()])
    _assert_array_equals_scalar(spatial_term(a), [spatial_term(v) for v in a.tolist()])
    _assert_array_equals_scalar(round_half_away(6.0 * np.log2(a)),
                                [round_half_away(6.0 * v) for v in np.log2(a).tolist()])
    # the anchor mode: one G-driven offset per CU
    _assert_array_equals_scalar(adaptiveqp_offset(a), [adaptiveqp_offset(v) for v in a.tolist()])
    for ch in _CHANNELS:
        z = temporal_offset(mags, mean_mag, ch)
        _assert_array_equals_scalar(z, [temporal_offset(d, mean_mag, ch) for d in mags.tolist()])
        got = perceptual_qp(frame_qp, a, z, ch)
        want = [perceptual_qp(frame_qp, v, zv, ch) for v, zv in zip(a.tolist(), z.tolist())]
        for name in ("spatial_term", "total_offset", "qp"):
            _assert_array_equals_scalar(getattr(got, name), [getattr(w, name) for w in want])


_activities = st.floats(1.0, 1e7, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    gs=st.lists(_activities, min_size=1, max_size=40),
    frame_mean=_activities,
    mags=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40),
    mean_mag=st.floats(0.0, 30.0),
    frame_qp=st.integers(0, 51),
)
def test_array_calls_equal_scalar_calls(gs, frame_mean, mags, mean_mag, frame_qp):
    # The array path is what the encoder runs; the scalar functions are the
    # reference it must equal, element by element, for every channel.
    size = min(len(gs), len(mags))
    _assert_perceptual_arrays_equal_scalars(gs[:size], frame_mean, mags[:size], mean_mag, frame_qp)


def _boundary_activities():
    """Every a = 2 ** ((k + 0.5) / 6) in (1/2, 2), where 6 log2 a crosses a
    half, and its two neighbouring floats."""
    bounds = np.array([2.0 ** ((k + 0.5) / 6) for k in range(-6, 6)])
    return np.concatenate([bounds, np.nextafter(bounds, 0.0), np.nextafter(bounds, 4.0)])


def test_array_spatial_terms_equal_scalar_ones_at_every_rounding_boundary():
    # np.log2 and math.log2 may round these a differently.
    a = _boundary_activities()
    _assert_array_equals_scalar(spatial_term(a), [spatial_term(v) for v in a.tolist()])
    for ch in _CHANNELS:
        got = perceptual_qp(30, a, np.zeros(a.size, dtype=np.int64), ch)
        assert got.qp.tolist() == [perceptual_qp(30, v, 0, ch).qp for v in a.tolist()]
    assert adaptiveqp_offset(a).tolist() == [adaptiveqp_offset(v) for v in a.tolist()]
    # g = H * (2 - a) / (2a - 1) puts a on the boundary through normalized_activity
    frame_mean = 37.0
    gs = (frame_mean * (2.0 - a) / (2.0 * a - 1.0)).tolist()
    _assert_perceptual_arrays_equal_scalars(gs, frame_mean, [0.0, 1.0] * (len(gs) // 2), 0.5, 27)


def test_array_spatial_terms_follow_math_log2_where_np_log2_rounds_across_a_half(monkeypatch):
    # An np.log2 two ulps off, up and down in turn, moves some boundary terms
    # across a half; the array path recomputes those with math.log2.
    a = _boundary_activities()
    want = [spatial_term(v) for v in a.tolist()]
    real = np.log2

    def skewed(x):
        away = np.where(np.arange(np.size(x)) % 2, np.inf, -np.inf).reshape(np.shape(x))
        return np.nextafter(np.nextafter(real(x), away), away)

    assert (round_half_away(6.0 * skewed(a)) != np.array(want)).any()
    monkeypatch.setattr(np, "log2", skewed)
    assert spatial_term(a).tolist() == want


def test_scalar_calls_return_python_numbers():
    assert type(round_half_away(2.5)) is int
    assert type(spatial_term(1.3)) is int
    assert type(temporal_offset(2.0, 1.0, "B")) is int
    assert type(adaptiveqp_offset(1.9)) is int
    r = perceptual_qp(27, 1.3, 3, "G")
    assert all(type(v) is int for v in (r.spatial_term, r.total_offset, r.qp))
    assert type(normalized_activity(3.0, 5.0)) is float
