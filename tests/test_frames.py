import re
import tracemalloc

import numpy as np
import pytest

from spectralpq.errors import ConfigurationError, IngestionError, StructuralError
from spectralpq.frames import (
    Frame,
    box_sums,
    frame_size_bytes,
    load_sequence,
    pad_plane,
    partition,
    save_sequence,
    subblocks,
    tiles,
    windows,
)


def _raw_frame_bytes(width, height, bit_depth, rng):
    top = (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth == 8 else np.dtype("<u2")
    samples = rng.integers(0, top + 1, 3 * width * height).astype(dtype)
    return samples.tobytes()


def test_load_all_black(tmp_path):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(12))
    frames = load_sequence(p, 2, 2, 8, 1)
    assert len(frames) == 1
    for plane in frames[0].planes:
        assert plane.shape == (2, 2)
        assert np.all(plane == 0)


def test_10bit_frame_size_and_endianness(tmp_path):
    assert frame_size_bytes(2, 2, 10) == 24
    p = tmp_path / "seq.raw"
    data = bytearray(24)
    data[0:2] = b"\x04\x00"  # little-endian 4 as the first G sample
    p.write_bytes(bytes(data))
    frames = load_sequence(p, 2, 2, 10, 1)
    assert frames[0].planes[0][0, 0] == 4


@pytest.mark.parametrize("width,height", [(0, 0), (0, 2), (2, 0)])
def test_load_rejects_empty_dimensions(tmp_path, width, height):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(12))
    message = f"frame dimensions must be >= 1, got {width}x{height}"
    with pytest.raises(IngestionError, match=message):
        load_sequence(p, width, height, 8)


def test_short_file_error(tmp_path):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(11))
    with pytest.raises(IngestionError, match="12 bytes"):
        load_sequence(p, 2, 2, 8, 1)


def test_10bit_out_of_range_error_names_location(tmp_path):
    p = tmp_path / "seq.raw"
    data = np.zeros(12, dtype="<u2")
    data[5] = 1024  # second plane (B), sample index 1
    p.write_bytes(data.tobytes())
    with pytest.raises(IngestionError, match=r"frame 0 plane B"):
        load_sequence(p, 2, 2, 10, 1)


@pytest.mark.parametrize("frame,plane,index", [(0, 0, 0), (1, 2, 5), (2, 1, 3)])
def test_10bit_error_names_first_bad_sample(tmp_path, frame, plane, index):
    p = tmp_path / "seq.raw"
    data = np.zeros((3, 3, 2, 3), dtype="<u2")
    data[frame, plane].flat[index] = 1500
    data[2, 2, 1, 2] = 1024  # a later bad sample is not the one reported
    p.write_bytes(data.tobytes())
    offset = 2 * ((frame * 3 + plane) * 6 + index)
    name = "GBR"[plane]
    message = f"sample 1500 > 1023 in frame {frame} plane {name} at byte offset {offset}$"
    with pytest.raises(IngestionError, match=message):
        load_sequence(p, 3, 2, 10)


def test_load_rejects_negative_frame_count(tmp_path):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(12 * 3))
    with pytest.raises(IngestionError, match="frame count must be >= 0, got -1"):
        load_sequence(p, 2, 2, 8, -1)
    assert load_sequence(p, 2, 2, 8, 0) == []


@pytest.mark.parametrize("args,kwargs,message", [
    ((8.0, 8), {}, "width must be an integer, got 8.0"),
    ((True, 8), {}, "width must be an integer, got True"),
    ((8, "8"), {}, "height must be an integer, got '8'"),
    ((8, None), {}, "height must be an integer, got None"),
    ((8, 8), {"frame_count": True}, "frame_count must be an integer, got True"),
    ((8, 8), {"frame_count": 1.5}, "frame_count must be an integer, got 1.5"),
    ((8, 8), {"bit_depth": 12}, "bit depth must be 8 or 10, got 12"),
    ((8, 8), {"bit_depth": "8"}, "bit depth must be 8 or 10, got '8'"),
    ((8, 8), {"bit_depth": 8.0}, "bit depth must be 8 or 10, got 8.0"),
    ((8, 8), {"bit_depth": True}, "bit depth must be 8 or 10, got True"),
])
def test_load_rejects_bad_arguments_before_reading(tmp_path, monkeypatch, args, kwargs, message):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(384))

    def no_read(*args, **kwargs):
        raise AssertionError("the file was read")

    monkeypatch.setattr(np, "fromfile", no_read)
    with pytest.raises(IngestionError, match=re.escape(message)):
        load_sequence(p, *args, **kwargs)


def test_load_accepts_numpy_integer_arguments(tmp_path):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(range(48)))
    (frame,) = load_sequence(p, np.int64(4), np.uint16(4), np.int32(8), np.int8(1))
    assert (frame.width, frame.height, frame.bit_depth) == (4, 4, 8)
    assert frame.planes[2][3, 3] == 47


def test_frame_count_reads_only_the_frames_asked_for(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    p = tmp_path / "seq.raw"
    first = _raw_frame_bytes(6, 4, 10, rng)
    p.write_bytes(first + _raw_frame_bytes(6, 4, 10, rng) * 2 + bytes(7))
    read_sizes = []
    fromfile = np.fromfile

    def recording_fromfile(*args, **kwargs):
        data = fromfile(*args, **kwargs)
        read_sizes.append(data.size)
        return data

    monkeypatch.setattr(np, "fromfile", recording_fromfile)
    (frame,) = load_sequence(p, 6, 4, 10, 1)
    assert read_sizes == [len(first)]
    assert b"".join(plane.astype("<u2").tobytes() for plane in frame.planes) == first


@pytest.mark.parametrize("count", [2, 4])
def test_frame_rejects_wrong_plane_count(count):
    plane = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(StructuralError, match=f"frame needs 3 planes \\(G, B, R\\), got {count}"):
        Frame(2, 2, 8, tuple(plane.copy() for _ in range(count)))


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_save_load_round_trip_byte_identical(tmp_path, bit_depth):
    rng = np.random.default_rng(3)
    p = tmp_path / "seq.raw"
    raw = b"".join(_raw_frame_bytes(6, 4, bit_depth, rng) for _ in range(3))
    p.write_bytes(raw)
    frames = load_sequence(p, 6, 4, bit_depth, 3)
    out = tmp_path / "copy.raw"
    save_sequence(out, frames)
    assert out.read_bytes() == raw


@pytest.mark.parametrize("bit_depth,dtype", [(8, np.int32), (10, np.int64)])
def test_save_writes_the_raw_layout_whatever_the_source_dtype(tmp_path, bit_depth, dtype):
    # Frames used to keep their source dtype, and save_sequence wrote it as is:
    # 4 or 8 bytes a sample, which reloads as several frames of garbage.
    rng = np.random.default_rng(bit_depth)
    planes = tuple(rng.integers(0, 1 << bit_depth, (8, 8)).astype(dtype) for _ in range(3))
    p = tmp_path / "seq.raw"
    save_sequence(p, [Frame(8, 8, bit_depth, planes)])
    assert p.stat().st_size == frame_size_bytes(8, 8, bit_depth)
    (frame,) = load_sequence(p, 8, 8, bit_depth)
    assert all(np.array_equal(got, want) for got, want in zip(frame.planes, planes))


@pytest.mark.parametrize("bit_depth,dtype", [
    (8, np.uint8), (8, np.int8), (8, np.uint16), (8, np.int32), (8, np.uint64),
    (10, np.uint16), (10, np.int16), (10, np.int64),
])
def test_frame_stores_samples_as_uint8_or_uint16(bit_depth, dtype):
    top = min((1 << bit_depth) - 1, np.iinfo(dtype).max)
    plane = (np.arange(64).reshape(8, 8) * top // 63).astype(dtype)
    frame = Frame(8, 8, bit_depth, (plane, plane, plane))
    want = np.uint8 if bit_depth == 8 else np.uint16
    assert all(p.dtype == want and np.array_equal(p, plane) for p in frame.planes)


def test_frame_count_default_reads_whole_frames(tmp_path):
    p = tmp_path / "seq.raw"
    p.write_bytes(bytes(12 * 2 + 5))  # two complete frames plus garbage tail
    assert len(load_sequence(p, 2, 2, 8)) == 2


@pytest.mark.parametrize("bit_depth", [8, 10])
def test_load_holds_the_bytes_it_reads_once(tmp_path, bit_depth):
    # The frames' planes are views of the one array the file is read into:
    # a copy per frame would take the peak to twice the bytes read.
    rng = np.random.default_rng(bit_depth)
    raw = b"".join(_raw_frame_bytes(320, 240, bit_depth, rng) for _ in range(4))
    p = tmp_path / "seq.raw"
    p.write_bytes(raw)
    tracemalloc.start()
    try:
        frames = load_sequence(p, 320, 240, bit_depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(raw)
    assert b"".join(plane.tobytes() for f in frames for plane in f.planes) == raw


def _frame(width, height, fill=0, bit_depth=8):
    plane = np.full((height, width), fill, dtype=np.uint8 if bit_depth == 8 else np.uint16)
    return Frame(width, height, bit_depth, (plane.copy(), plane.copy(), plane.copy()))


def test_pad_preserves_and_is_idempotent():
    rng = np.random.default_rng(4)
    plane = rng.integers(0, 256, (60, 100), dtype=np.uint8)
    padded = pad_plane(plane, 64)
    assert padded.shape == (64, 128)
    assert np.array_equal(padded[:60, :100], plane)
    again = pad_plane(padded, 64)
    assert np.array_equal(again, padded)

    # padding a (3, h, w) stack pads each plane
    stack = rng.integers(0, 1024, (3, 60, 100)).astype(np.int32)
    padded = pad_plane(stack, 64)
    assert padded.shape == (3, 64, 128) and padded.dtype == np.int32
    for plane, padded_plane in zip(stack, padded):
        assert np.array_equal(padded_plane, pad_plane(plane, 64))
    assert np.array_equal(pad_plane(padded, 64), padded)


def test_partition_counts_and_padding():
    tree = partition(_frame(128, 128), 32)
    assert len(list(tree)) == 16
    assert tree.grid_shape == (4, 4)

    tree = partition(_frame(100, 60), 32)
    assert (tree.width, tree.height) == (128, 64)

    # CB areas per channel tile the padded frame exactly
    assert sum(cu.size * cu.size for cu in tree) == tree.width * tree.height


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        partition(_frame(64, 64), 48)
    with pytest.raises(ConfigurationError):
        partition(_frame(64, 64), 64)
    with pytest.raises(ConfigurationError):
        partition(_frame(64, 64), 4)


def test_frame_validation():
    with pytest.raises(ConfigurationError):
        _frame(8, 8, bit_depth=9)
    with pytest.raises(StructuralError):
        Frame(8, 8, 8, (np.zeros((8, 8), np.uint8), np.zeros((4, 8), np.uint8), np.zeros((8, 8), np.uint8)))


@pytest.mark.parametrize("width,height", [(0, 0), (0, 8), (8, 0)])
def test_frame_rejects_empty_dimensions(width, height):
    message = f"frame dimensions must be >= 1, got {width}x{height}"
    with pytest.raises(ConfigurationError, match=message):
        _frame(width, height)


@pytest.mark.parametrize("name,value", [
    ("width", 8.0), ("height", 8.0), ("bit_depth", 8.0), ("width", "8"),
    ("height", True), ("bit_depth", None),
])
def test_frame_rejects_non_integer_fields(name, value):
    plane = np.zeros((8, 8), np.uint8)
    fields = {"width": 8, "height": 8, "bit_depth": 8, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        Frame(**fields, planes=(plane, plane, plane))


@pytest.mark.parametrize(
    "plane,bit_depth,message",
    [
        (np.full((8, 8), 100.0), 8, "non-integer dtype float64"),
        (np.full((8, 8), -1, np.int16), 8, r"outside \[0, 255\]"),
        (np.full((8, 8), 1023, np.uint16), 8, r"outside \[0, 255\]"),
        (np.full((8, 8), 1024, np.uint16), 10, r"outside \[0, 1023\]"),
        (np.zeros((8, 8), bool), 8, "non-integer dtype bool"),
    ],
)
def test_frame_rejects_unrepresentable_samples(plane, bit_depth, message):
    ok = np.zeros((8, 8), np.uint16)
    with pytest.raises(ConfigurationError, match=message):
        Frame(8, 8, bit_depth, (ok, plane, ok.copy()))


@pytest.mark.parametrize("size", [8, 64])
def test_subblocks_quadrants(size):
    rng = np.random.default_rng(size)
    cb = rng.integers(0, 256, (size, size))
    quads = subblocks(cb)
    assert all(q.shape == (size // 2, size // 2) for q in quads)
    stacked = np.concatenate([q.ravel() for q in quads])
    assert sorted(stacked.tolist()) == sorted(cb.ravel().tolist())
    # raster order
    assert np.array_equal(quads[0], cb[: size // 2, : size // 2])
    assert np.array_equal(quads[3], cb[size // 2 :, size // 2 :])


def test_subblocks_rejects_bad_shapes():
    with pytest.raises(StructuralError):
        subblocks(np.zeros((9, 9)))
    with pytest.raises(StructuralError):
        subblocks(np.zeros((4, 4)))
    with pytest.raises(StructuralError):
        subblocks(np.zeros((8, 16)))


def _brute_box_sums(plane, size):
    h, w = plane.shape
    out = np.zeros((h - size + 1, w - size + 1), dtype=np.result_type(plane.dtype, np.int64))
    for y in range(out.shape[0]):
        for x in range(out.shape[1]):
            out[y, x] = plane[y : y + size, x : x + size].sum(dtype=out.dtype)
    return out


@pytest.mark.parametrize("size", [1, 2, 4, 8])
@pytest.mark.parametrize("shape", [(8, 8), (9, 13), (21, 10)])
@pytest.mark.parametrize("dtype,top", [
    (np.uint8, 255), (np.uint16, 1023), (np.int32, 2**24), (np.int32, 2**31 - 1),
    (np.float64, 1.0),
])
def test_box_sums_match_brute_force(size, shape, dtype, top):
    rng = np.random.default_rng(size * 100 + shape[0] * 10 + shape[1])
    if dtype is np.float64:
        plane = rng.random(shape)
    else:
        lo = -top - 1 if dtype is np.int32 else 0
        plane = rng.integers(lo, top, shape, endpoint=True).astype(dtype)
        if top == 2**31 - 1:            # its window sums overflow int32
            plane = plane.astype(np.int64)
    sums = box_sums(plane, size)
    expected = _brute_box_sums(plane, size)
    assert sums.shape == expected.shape
    if dtype is np.float64:
        assert sums.dtype == np.float64
        np.testing.assert_allclose(sums, expected, rtol=0, atol=1e-12)
    else:
        assert sums.dtype == (np.int64 if plane.dtype == np.int64 else np.int32)
        assert np.array_equal(sums, expected)


@pytest.mark.parametrize("size", [0, 3, 6])
def test_box_sums_reject_a_size_not_a_power_of_two(size):
    with pytest.raises(StructuralError):
        box_sums(np.zeros((8, 8), dtype=np.int32), size)


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("shape", [(8, 8), (16, 24), (3, 8, 16)])
def test_tiles_is_a_raster_view_of_the_blocks(n, shape):
    plane = np.arange(np.prod(shape)).reshape(shape)
    view = tiles(plane, n)
    *lead, h, w = shape
    assert view.shape == (*lead, h // n, w // n, n, n)
    assert np.shares_memory(view, plane)
    for r in range(h // n):
        for c in range(w // n):
            assert np.array_equal(view[..., r, c, :, :], plane[..., r * n : (r + 1) * n,
                                                               c * n : (c + 1) * n])


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("shape", [(8, 8), (9, 24), (3, 16, 11), (2, 3, 10, 12)])
def test_windows_equal_sliding_window_view(n, shape):
    rng = np.random.default_rng(n * len(shape))
    for dtype in (np.int32, np.uint8, np.float64):
        stack = rng.integers(0, 256, shape).astype(dtype)
        for plane in (stack, stack[..., 1:, ::2]):       # contiguous, and a strided view
            if min(plane.shape[-2:]) < n:
                continue
            view = windows(plane, n)
            want = np.lib.stride_tricks.sliding_window_view(plane, (n, n), axis=(-2, -1))
            assert view.shape == want.shape and view.dtype == plane.dtype
            assert np.array_equal(view, want)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[(0,) * view.ndim] = 1


def test_windows_reject_a_window_larger_than_the_plane():
    for plane, n in ((np.zeros((8, 12)), 9), (np.zeros((2, 4, 8)), 5), (np.zeros(8), 2),
                     (np.zeros((8, 8)), 0)):
        with pytest.raises(StructuralError):
            windows(plane, n)


def test_tiles_rejects_a_plane_off_the_grid():
    for plane, n in ((np.zeros((8, 12)), 8), (np.zeros((2, 12, 8)), 8), (np.zeros(8), 4),
                     (np.zeros((8, 8)), 0)):
        with pytest.raises(StructuralError):
            tiles(plane, n)
