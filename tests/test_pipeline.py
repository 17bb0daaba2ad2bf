import functools
import importlib.util
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec
import test_reference_codec
from spectralpq import entropy
from spectralpq import frames as frames_mod
from spectralpq import perceptual, pipeline
from spectralpq.corpus import noise_patches, static_gradient
from reference_codec import reference_decode
from spectralpq.entropy import LEVEL_LIMIT, WINDOW_BITS, BitWriter
from spectralpq.errors import ConfigurationError, DecodeError
from spectralpq.frames import PLANE_ORDER, Frame
from spectralpq.metrics import sequence_psnr
from spectralpq.pipeline import (
    MODES,
    QP_FIELD_BITS,
    EncoderConfig,
    StreamHeader,
    decode_sequence,
    encode_sequence,
    intra_predict_dc,
    stream_header,
)


def _const_frame(value, size=64, bit_depth=8):
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    plane = np.full((size, size), value, dtype=dtype)
    return Frame(size, size, bit_depth, (plane.copy(), plane.copy(), plane.copy()))


def _noise_frames(count, size=64, bit_depth=8, seed=0):
    rng = np.random.default_rng(seed)
    top = (1 << bit_depth) - 1
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    frames = []
    for _ in range(count):
        planes = tuple(rng.integers(0, top + 1, (size, size)).astype(dtype) for _ in range(3))
        frames.append(Frame(size, size, bit_depth, planes))
    return frames


def _assert_master_invariant(result):
    decoded = decode_sequence(result.bitstream)
    assert len(decoded) == len(result.reconstruction)
    for dec, rec in zip(decoded, result.reconstruction):
        dtype = np.uint8 if rec.bit_depth == 8 else np.uint16
        for ch in PLANE_ORDER:
            assert dec.plane(ch).dtype == rec.plane(ch).dtype == dtype
            assert np.array_equal(dec.plane(ch), rec.plane(ch))


def test_intra_predict_dc_rules():
    recon = np.zeros((64, 64), dtype=np.int64)
    assert np.all(intra_predict_dc(recon, 0, 0, 32, 8) == 128)
    assert np.all(intra_predict_dc(recon, 0, 0, 32, 10) == 512)

    recon[7, 8:16] = 100   # top row for the block at (8, 8)
    recon[8:16, 7] = 60    # left column
    assert np.all(intra_predict_dc(recon, 8, 8, 8, 8) == 80)

    # a (3, H, W) stack gives each plane's own DC block
    stack = np.stack([recon, 2 * recon, np.full_like(recon, 7)]).astype(np.int32)
    for x, y in ((0, 0), (8, 0), (0, 8), (8, 8), (16, 24)):
        got = intra_predict_dc(stack, x, y, 8, 8)
        assert got.shape == (3, 8, 8) and got.dtype == np.int64
        for plane, block in zip(stack, got):
            assert np.array_equal(block, intra_predict_dc(plane, x, y, 8, 8))


def test_constant_sequence_hits_header_floor():
    frames = [_const_frame(200) for _ in range(5)]
    result = encode_sequence(frames, EncoderConfig(base_qp=27, mode="anchor-flat"))
    _assert_master_invariant(result)
    p_frames = result.stats.frames[1:]
    for f in p_frames:
        # all-zero residual blocks: each channel pays 4 CUs x 11 token bits
        assert f.bits_channel == {"G": 44, "B": 44, "R": 44}
        assert f.bits_total == p_frames[0].bits_total
    assert result.stats.frames[0].bits_total > p_frames[0].bits_total


def test_constant_source_with_exact_dc_prediction_is_lossless():
    frames = [_const_frame(128)]  # matches the no-neighbor mid-level exactly
    result = encode_sequence(frames, EncoderConfig(base_qp=37))
    assert np.all(result.reconstruction[0].plane("G") == 128)


def test_single_frame_intra_round_trip():
    frames = _noise_frames(1, seed=11)
    result = encode_sequence(frames, EncoderConfig(base_qp=22, mode="spectral-pq"))
    _assert_master_invariant(result)
    assert sequence_psnr(frames, result.reconstruction, "G") > 20.0


@pytest.mark.parametrize("mode", ["anchor-flat", "anchor-adaptiveqp", "spectral-pq"])
def test_decode_matches_reconstruction_all_modes(mode):
    seq = static_gradient(frame_count=6)
    result = encode_sequence(seq.frames, EncoderConfig(base_qp=27, mode=mode))
    _assert_master_invariant(result)


def test_non_multiple_of_ctu_dimensions():
    rng = np.random.default_rng(13)
    frames = []
    for _ in range(3):
        planes = tuple(rng.integers(0, 256, (60, 100)).astype(np.uint8) for _ in range(3))
        frames.append(Frame(100, 60, 8, planes))
    result = encode_sequence(frames, EncoderConfig(base_qp=32))
    _assert_master_invariant(result)
    decoded = decode_sequence(result.bitstream)
    assert (decoded[0].width, decoded[0].height) == (100, 60)


def test_ten_bit_end_to_end():
    frames = _noise_frames(3, size=64, bit_depth=10, seed=17)
    result = encode_sequence(frames, EncoderConfig(base_qp=27))
    _assert_master_invariant(result)
    assert decode_sequence(result.bitstream)[0].bit_depth == 10


@pytest.mark.parametrize("qp", [30, 45, 51])
def test_ten_bit_frame_of_uint8_planes_decodes_as_reconstructed(qp):
    # Reconstructed samples above 255 used to wrap mod 256 in the uint8 source dtype.
    rng = np.random.default_rng(qp)
    planes = tuple(rng.choice(np.array([0, 255], np.uint8), (64, 64)) for _ in range(3))
    result = encode_sequence([Frame(64, 64, 10, planes)], EncoderConfig(base_qp=qp))
    _assert_master_invariant(result)


def test_eight_bit_frames_of_int8_planes_encode():
    # Reconstructed samples above 127 used to wrap in the int8 source dtype,
    # and the wrapped Frame raised ConfigurationError after the first frame.
    rng = np.random.default_rng(8)
    frames = [Frame(64, 64, 8, tuple(rng.choice(np.array([0, 127], np.int8), (64, 64))
                                     for _ in range(3))) for _ in range(2)]
    result = encode_sequence(frames, EncoderConfig(base_qp=37))
    _assert_master_invariant(result)


def test_rate_monotone_in_qp():
    seq = static_gradient(frame_count=8)
    for mode in ("anchor-flat", "spectral-pq"):
        sizes = [
            len(encode_sequence(seq.frames, EncoderConfig(base_qp=qp, mode=mode)).bitstream)
            for qp in (22, 27, 32, 37)
        ]
        assert sizes == sorted(sizes, reverse=True) or all(
            a >= b for a, b in zip(sizes, sizes[1:])
        )


def test_spectral_mode_never_lowers_qp_but_anchor_can():
    seq = noise_patches(frame_count=2, seed=2)  # mixed-variance quadrants
    spq = encode_sequence(seq.frames, EncoderConfig(base_qp=27, mode="spectral-pq"))
    for f in spq.stats.frames:
        for cb in f.cb:
            assert cb.qp >= 27
            assert cb.offset >= 3

    adaptive = encode_sequence(seq.frames, EncoderConfig(base_qp=27, mode="anchor-adaptiveqp"))
    offsets = [cb.offset for f in adaptive.stats.frames for cb in f.cb]
    assert min(offsets) < 0  # below-average-variance regions pull the anchor down


def test_stream_qp_fields_within_range():
    seq = static_gradient(frame_count=4)
    result = encode_sequence(seq.frames, EncoderConfig(base_qp=37, mode="spectral-pq"))
    for f in result.stats.frames:
        for cb in f.cb:
            assert 0 <= cb.qp <= 51
            lo, hi = (3, 6) if cb.channel == "G" else (6, 12)
            assert lo <= cb.offset <= hi


def test_header_round_trip():
    frames = _noise_frames(2, seed=19)
    config = EncoderConfig(base_qp=33, mode="anchor-adaptiveqp", fps=50, cu_size=16)
    result = encode_sequence(frames, config)
    header = stream_header(result.bitstream)
    assert header == {
        "width": 64, "height": 64, "bit_depth": 8, "fps": 50,
        "cu_size": 16, "mode": 1, "base_qp": 33, "frame_count": 2,
    }
    _assert_master_invariant(result)


def test_corrupt_magic_rejected():
    frames = _noise_frames(1, seed=23)
    result = encode_sequence(frames, EncoderConfig(base_qp=27))
    bad = b"XXXX" + result.bitstream[4:]
    with pytest.raises(DecodeError, match="magic"):
        decode_sequence(bad)
    with pytest.raises(DecodeError):
        stream_header(b"\x01\x02")


@pytest.mark.parametrize(
    "byte,value,message",
    [
        (8, b"\x09", "unsupported bit depth 9"),
        (11, b"\x0c", "invalid cu_size 12"),
        (12, b"\x03", "unknown mode id 3"),
        (13, b"\x34", "base_qp 52 out of range"),
        (4, b"\x00\x00", "zero frame dimensions"),
        (6, b"\x00\x00", "zero frame dimensions"),
        (4, b"\xff\xff\xff\xff", "frame size 65535x65535 exceeds the decoder limit"),
    ],
)
def test_bad_header_field_rejected_by_both_parsers(byte, value, message):
    stream = encode_sequence(_noise_frames(1, seed=29), EncoderConfig(base_qp=27)).bitstream
    bad = stream[:byte] + value + stream[byte + len(value) :]
    for parse in (stream_header, decode_sequence):
        with pytest.raises(DecodeError, match=f"^{message}$"):
            parse(bad)


def test_truncated_and_mangled_streams_fail_cleanly():
    frames = _noise_frames(2, seed=29)
    data = encode_sequence(frames, EncoderConfig(base_qp=27)).bitstream
    step = max(1, len(data) // 200)
    for cut in range(0, len(data), step):
        try:
            decode_sequence(data[:cut])
        except DecodeError:
            pass
    rng = np.random.default_rng(31)
    for _ in range(50):
        mangled = bytearray(data)
        for _ in range(3):
            mangled[rng.integers(0, len(mangled))] ^= int(rng.integers(1, 256))
        try:
            decode_sequence(bytes(mangled))
        except DecodeError:
            pass


def test_config_validation():
    frames = _noise_frames(1)
    with pytest.raises(ConfigurationError):
        EncoderConfig(base_qp=52)
    with pytest.raises(ConfigurationError):
        EncoderConfig(base_qp=22, mode="nope")
    with pytest.raises(ConfigurationError):
        EncoderConfig(base_qp=22, gop_length=0)
    with pytest.raises(ConfigurationError):
        EncoderConfig(base_qp=22, fps=0)
    with pytest.raises(ConfigurationError):
        EncoderConfig(base_qp=22, cu_size=64)  # no transform that large
    with pytest.raises(ConfigurationError):
        encode_sequence([], EncoderConfig(base_qp=22))
    mixed = frames + _noise_frames(1, size=32)
    with pytest.raises(ConfigurationError):
        encode_sequence(mixed, EncoderConfig(base_qp=22))


@pytest.mark.parametrize("name,value", [
    ("base_qp", 27.5), ("gop_length", 1.5), ("cu_size", 32.0), ("search_range", 2.5),
    ("fps", 30.0), ("fps", "30"), ("gop_length", True), ("search_range", False),
])
def test_non_integer_settings_rejected_at_config(name, value):
    options = {"base_qp": 22, name: value}
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        EncoderConfig(**options)


def test_numpy_integer_settings_accepted():
    settings = dict(base_qp=np.int64(30), gop_length=np.int32(2), cu_size=np.int64(32),
                    search_range=np.uint8(4), fps=np.int16(25))
    numpy_result = encode_sequence(_noise_frames(2), EncoderConfig(**settings))
    plain = {name: int(value) for name, value in settings.items()}
    assert numpy_result.bitstream == encode_sequence(_noise_frames(2), EncoderConfig(**plain)).bitstream


@pytest.mark.parametrize("value", ["off", "on", 0, 1, None])
def test_non_bool_rdoq_rejected_at_config(value):
    with pytest.raises(ConfigurationError, match="rdoq must be a bool"):
        EncoderConfig(base_qp=22, rdoq=value)


@pytest.mark.parametrize("rdoq", [False, True])
def test_numpy_bool_rdoq_accepted(rdoq):
    config = EncoderConfig(base_qp=22, rdoq=np.bool_(rdoq))
    assert config.rdoq is rdoq
    stream = encode_sequence(_noise_frames(1, size=16), config).bitstream
    assert stream == encode_sequence(_noise_frames(1, size=16),
                                     EncoderConfig(base_qp=22, rdoq=rdoq)).bitstream


@pytest.mark.parametrize("name", ["width", "height", "bit_depth"])
def test_frame_numpy_integer_fields_stored_as_int(name):
    fields = {"width": 40, "height": 24, "bit_depth": 8}
    plain = _noise_frames(1, size=40)[0]
    planes = tuple(plane[:24] for plane in plain.planes)
    frame = Frame(**{**fields, name: np.int64(fields[name])}, planes=planes)
    assert type(getattr(frame, name)) is int
    config = EncoderConfig(base_qp=27)
    assert (encode_sequence([frame], config).bitstream
            == encode_sequence([Frame(**fields, planes=planes)], config).bitstream)


def test_fps_beyond_header_field_rejected_at_config():
    EncoderConfig(base_qp=22, fps=65535)
    with pytest.raises(ConfigurationError, match="fps"):
        EncoderConfig(base_qp=22, fps=70000)


def test_more_frames_than_the_header_counts_rejected():
    frames = _noise_frames(1, size=8) * 65536
    with pytest.raises(ConfigurationError, match="frame_count 65536"):
        encode_sequence(frames, EncoderConfig(base_qp=22))


@pytest.mark.parametrize("width,height", [(65536, 1), (1, 65536)])
def test_dimension_beyond_header_field_rejected(width, height):
    plane = np.zeros((height, width), np.uint8)
    frame = Frame(width, height, 8, (plane, plane, plane))
    name = "width" if width > height else "height"
    with pytest.raises(ConfigurationError, match=f"{name} 65536"):
        encode_sequence([frame], EncoderConfig(base_qp=22))


def test_frame_beyond_decoder_sample_limit_rejected():
    plane = np.broadcast_to(np.uint8(0), (8193, 8192))
    frame = Frame(8192, 8193, 8, (plane, plane, plane))
    with pytest.raises(ConfigurationError, match="frame size 8192x8193 exceeds 67108864 samples"):
        encode_sequence([frame], EncoderConfig(base_qp=22))


def _count_batch_cus(patch):
    # Spy on the decoder's walk: the CUs of each batch pipeline._batches
    # makes, counted as the batch is made.
    made = []
    batches = pipeline._batches

    def counting(*args, **kwargs):
        for batch in batches(*args, **kwargs):
            made.append(batch[0].size)
            yield batch

    patch.setattr(pipeline, "_batches", counting)
    return made


def _most_cus_made(stream, cu_size):
    # Every CU the decoder finishes took at least its three QP fields and
    # three block tokens (I and P frames alike), so a stream of B bits holds
    # at most B / that many; the decoder may make one batch past them.
    cu_bits = len(PLANE_ORDER) * (QP_FIELD_BITS + (cu_size * cu_size).bit_length())
    batch = max(1, pipeline.RECONSTRUCT_LEVELS // (len(PLANE_ORDER) * cu_size * cu_size))
    return batch + 8 * len(stream) // cu_bits


def _oversize_stream(cu_size):
    # A 20-byte stream whose header claims one 8192x8192 frame.
    writer = BitWriter()
    StreamHeader(8192, 8192, 8, 30, cu_size, 0, 27, 1).write(writer)
    return writer.getvalue() + bytes(4)


def test_decode_work_bounded_by_stream(monkeypatch):
    # At cu_size 8 the decoder must fail in the first batch, not make the
    # batches of the 1,048,576 CUs the header implies.
    data = _oversize_stream(8)
    assert len(data) == 20
    made = _count_batch_cus(monkeypatch)
    with pytest.raises(DecodeError) as err:
        decode_sequence(data)
    assert str(err.value) == "bitstream truncated: need 7 bits at bit offset 154, stream has 160"
    assert 0 < sum(made) <= _most_cus_made(data, 8)


@pytest.mark.parametrize("cu_size", [8, 16, 32])
def test_oversize_header_decode_keeps_little_memory(cu_size):
    # A batch list for the whole 8192x8192 grid peaked at 29.0 MiB at cu_size
    # 8 (11.1 and 6.9 MiB at 16 and 32) before the 20-byte stream failed.
    data = _oversize_stream(cu_size)
    with pytest.raises(DecodeError):
        decode_sequence(data)                           # first-call caches outside the trace
    tracemalloc.start()
    try:
        with pytest.raises(DecodeError):
            decode_sequence(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _traced_peak(call) -> int:
    """tracemalloc's peak over one call of `call`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bit_depth", [8, 10])
@pytest.mark.parametrize("cu_size", [8, 32])
def test_pictures_take_the_sample_type(cu_size, bit_depth):
    # Both sides reconstruct into pictures of the frames' sample type and
    # return cropped views of them.  Int32 pictures cropped into copies
    # peaked at 12.1-14.0 MiB to encode and 8.6-9.8 MiB to decode this clip.
    # Search range 4 keeps the motion search at its 4x4 level, whose int32
    # copies of the G planes and their window sums do not depend on the
    # sample type or the CU size: the encode peaks at 2.4-2.7 int32 planes
    # above three frames and 1.5 MiB (4.1-4.5 with a summed-area table).
    size, mib = 512, 1 << 20
    frames = _noise_frames(2, size=size, bit_depth=bit_depth)
    config = EncoderConfig(base_qp=37, cu_size=cu_size, search_range=4)
    frame_bytes = frames_mod.frame_size_bytes(size, size, bit_depth)
    result = encode_sequence(frames, config)            # first-call caches outside the trace
    decoded = decode_sequence(result.bitstream)
    encode_peak = _traced_peak(lambda: encode_sequence(frames, config))
    decode_peak = _traced_peak(lambda: decode_sequence(result.bitstream))
    assert encode_peak < 3 * frame_bytes + 3.5 * 4 * size * size + 1.5 * mib
    assert decode_peak < 4 * frame_bytes + 2.5 * mib
    for frame in result.reconstruction + decoded:       # views of one padded picture each
        picture = frame.planes[0].base
        assert picture is not None and all(p.base is picture for p in frame.planes)


@functools.lru_cache(maxsize=None)
def _coded(content, count, cu_size, bit_depth):
    frames = ([_const_frame(40 * k, bit_depth=bit_depth) for k in range(1, count + 1)]
              if content == "flat" else _noise_frames(count, bit_depth=bit_depth, seed=count))
    return encode_sequence(frames, EncoderConfig(base_qp=37, cu_size=cu_size)).bitstream


@settings(max_examples=60, deadline=None)
@given(content=st.sampled_from(["flat", "noise"]), count=st.integers(1, 3),
       cu_size=st.sampled_from([8, 16, 32]), bit_depth=st.sampled_from([8, 10]),
       data=st.data())
def test_decode_work_bounded_by_stream_bits(content, count, cu_size, bit_depth, data):
    # A stream of B bits makes batches of at most one batch plus the CUs its
    # bits can hold, whatever its header claims.
    stream = bytearray(_coded(content, count, cu_size, bit_depth))
    if data.draw(st.booleans(), "oversize header"):
        header = stream_header(bytes(stream))
        width = data.draw(st.integers(header["width"], 8192), "width")
        height = data.draw(st.integers(header["height"], 8192), "height")
        frames = data.draw(st.integers(header["frame_count"], 65535), "frame_count")
        stream[4:8] = width.to_bytes(2, "big") + height.to_bytes(2, "big")
        stream[14:16] = frames.to_bytes(2, "big")
    stream = bytes(stream[: data.draw(st.integers(0, len(stream)), "length")])
    with pytest.MonkeyPatch.context() as patch:
        made = _count_batch_cus(patch)
        try:
            decode_sequence(stream)
        except DecodeError:
            pass
    assert sum(made) <= _most_cus_made(stream, cu_size)
    header_bits = 8 * len(pipeline.MAGIC) + sum(pipeline.HEADER_FIELDS.values())
    if 8 * len(stream) > header_bits:                  # the first frame's type bit is there
        assert made


def test_decoder_rejects_bad_header_fields():
    frames = _noise_frames(1, seed=37)
    data = bytearray(encode_sequence(frames, EncoderConfig(base_qp=27)).bitstream)
    # header layout: magic(4) w(2) h(2) depth(1) fps(2) cu(1) mode(1) qp(1) count(2)
    for offset, value, label in (
        (11, 64, "cu_size"),       # valid power of two but no such transform
        (11, 48, "cu_size"),
        (12, 9, "mode"),
        (8, 12, "bit_depth"),
        (13, 55, "base_qp"),
    ):
        bad = bytearray(data)
        bad[offset] = value
        with pytest.raises(DecodeError):
            decode_sequence(bytes(bad))
    huge = bytearray(data)
    huge[4:8] = (60000).to_bytes(2, "big") + (60000).to_bytes(2, "big")
    with pytest.raises(DecodeError, match="limit"):
        decode_sequence(bytes(huge))


def test_gop_structure_marks_intra_frames():
    seq = static_gradient(frame_count=10)
    result = encode_sequence(seq.frames, EncoderConfig(base_qp=32, gop_length=4))
    types = [f.frame_type for f in result.stats.frames]
    assert types == ["I", "P", "P", "P", "I", "P", "P", "P", "I", "P"]
    for f in result.stats.frames:
        assert (f.motion is None) == (f.frame_type == "I")


# Hand-built 64x64 streams at CU 32: a frame has 4 CUs, each with three 6-bit
# QPs, an MV pair in P-frames and three coded blocks, whose all-zero form is
# an 11-bit zero token.
def _hand_built(frame_count, *frames):
    writer = BitWriter()
    StreamHeader(64, 64, 8, 30, 32, 0, 27, frame_count).write(writer)
    for write in frames:
        write(writer)
    return writer


def _zero_intra_frame(writer):
    writer.write_uint(0, 1)
    for _ in range(4):
        for _ in range(3):
            writer.write_uint(27, 6)
        for _ in range(3):
            writer.write_uint(0, 11)


def _inter_frame_to_first_mv(writer):
    writer.write_uint(1, 1)
    for _ in range(3):
        writer.write_uint(27, 6)


def _decode_error(data) -> str:
    with pytest.raises(DecodeError) as err:
        decode_sequence(data)
    return str(err.value)


def test_hand_built_zero_intra_frame_decodes():
    writer = _hand_built(1, _zero_intra_frame)
    assert writer.tell() == 128 + 1 + 4 * 51
    (frame,) = decode_sequence(writer.getvalue())
    assert all(np.all(p == 128) for p in frame.planes)


def test_first_frame_inter_rejected():
    data = _hand_built(1, _inter_frame_to_first_mv).getvalue()
    assert _decode_error(data) == "frame 0 is inter but no reference exists"


def test_motion_vector_at_stream_end_is_truncation():
    writer = _hand_built(2, _zero_intra_frame, _inter_frame_to_first_mv)
    assert writer.tell() == 352  # the stream ends on a byte boundary, where the MV starts
    assert _decode_error(writer.getvalue()) == "bitstream truncated at bit offset 352"


def test_motion_vector_prefix_past_stream_end_is_truncation():
    # 9 zeros and a 1-bit need 9 more bits; 6 bits, padding included, remain.
    writer = _hand_built(2, _zero_intra_frame, _inter_frame_to_first_mv)
    writer.write_uint(1, 10)
    assert len(writer.getvalue()) * 8 == 352 + 16
    assert _decode_error(writer.getvalue()) == "bitstream truncated at bit offset 352"


def _intra_cu_with_level_over_limit(writer):
    # The G block's one level is over the limit; B and R are zero.
    for _ in range(3):
        writer.write_uint(27, 6)
    writer.write_uint(1, 11)
    writer.write_se(-(LEVEL_LIMIT + 1))
    writer.write_uint(0, 11)
    writer.write_uint(0, 11)


def _qps(writer, qp=27):
    for _ in range(3):
        writer.write_uint(qp, 6)


# Faults that follow, later in the stream, a CU with a level over the limit.
_LATER_FAULTS = {
    "qp": lambda w: _qps(w, 63),
    "token": lambda w: (_qps(w), w.write_uint(1025, 11)),
    "prefix": lambda w: (_qps(w), w.write_uint(1, 11), w.write_uint(1, 41)),
    "truncation": lambda w: _qps(w),
}


@pytest.mark.parametrize("fault", sorted(_LATER_FAULTS))
def test_level_over_limit_is_reported_before_a_later_fault(fault):
    def frame(writer):
        writer.write_uint(0, 1)
        _intra_cu_with_level_over_limit(writer)
        _LATER_FAULTS[fault](writer)

    data = _hand_built(1, frame).getvalue()
    message = _decode_error(data)
    assert message == "level magnitude 32769 exceeds limit at bit offset 191"
    with pytest.raises(DecodeError) as err:
        reference_decode(data)
    assert str(err.value) == message


def test_level_over_limit_is_reported_before_a_motion_vector_fault():
    def frame(writer):
        writer.write_uint(1, 1)
        _qps(writer)
        writer.write_se(0)
        writer.write_se(0)
        writer.write_uint(1, 11)
        writer.write_se(LEVEL_LIMIT + 1)
        writer.write_uint(0, 22)
        _qps(writer)
        writer.write_se(-40)
        writer.write_se(0)

    data = _hand_built(2, _zero_intra_frame, frame).getvalue()
    message = _decode_error(data)
    assert message == "level magnitude 32769 exceeds limit at bit offset 398"
    with pytest.raises(DecodeError) as err:
        reference_decode(data)
    assert str(err.value) == message


@functools.lru_cache(maxsize=None)
def _coded_intra_frame():
    """The header, bit count and bits of a coded 128x128 noise I-frame at CU 32."""
    result = encode_sequence(_noise_frames(1, size=128, seed=23), EncoderConfig(base_qp=27))
    reader, nbits = entropy.BitReader(result.bitstream), result.stats.total_bits
    reader.read_uint(128)
    return stream_header(result.bitstream), nbits, reader.read_uint(nbits)


def _intra_then_inter(mvs):
    """A stream of that I-frame and a hand-built P-frame whose 16 CUs take the
    vectors `mvs` and code no residual, so each CU is the block its vector
    points to."""
    header, nbits, bits = _coded_intra_frame()
    writer = BitWriter()
    StreamHeader(**dict(header, frame_count=2)).write(writer)
    writer.write_uint(bits, nbits)
    writer.write_uint(1, 1)
    for vx, vy in mvs:
        _qps(writer)
        writer.write_se(vx)
        writer.write_se(vy)
        writer.write_uint(0, 3 * 11)    # three zero tokens
    return writer.getvalue()


@pytest.mark.parametrize("cu", [0, 6])   # the first CU, and one inside the second batch
def test_motion_vectors_reach_each_frame_edge_but_not_past_it(cu):
    # The decoder gathers a batch's motion-compensated blocks from a window
    # view of the reference, where a negative index wraps silently: the MV
    # bounds check is the only guard, and the round-trip properties would not
    # notice it gone.  The 128x128 frame at CU 32 has 16 CUs in batches of 5.
    assert pipeline.RECONSTRUCT_LEVELS // (3 * 32 * 32) == 5
    x, y, last = 32 * (cu % 4), 32 * (cu // 4), 128 - 32
    for vx, vy in [(-x, 0), (last - x, 0), (0, -y), (0, last - y)]:
        data = _intra_then_inter([(vx, vy) if k == cu else (0, 0) for k in range(16)])
        decoded, expected = decode_sequence(data), reference_decode(data)
        assert all(np.array_equal(a, b) for got, want in zip(decoded, expected, strict=True)
                   for a, b in zip(got.planes, want.planes))
        for got, ref in zip(decoded[1].planes, decoded[0].planes):
            block = ref[y + vy : y + vy + 32, x + vx : x + vx + 32]
            assert np.array_equal(got[y : y + 32, x : x + 32], block), (vx, vy)
    for vx, vy in [(-x - 1, 0), (last - x + 1, 0), (0, -y - 1), (0, last - y + 1)]:
        data = _intra_then_inter([(vx, vy) if k == cu else (0, 0) for k in range(16)])
        message = f"motion vector ({vx}, {vy}) leaves the frame at CU ({x}, {y})"
        assert _decode_error(data) == message
        with pytest.raises(DecodeError) as err:
            reference_decode(data)
        assert str(err.value) == message


def test_trailing_data_after_last_frame_rejected():
    writer = _hand_built(1, _zero_intra_frame)
    data = writer.getvalue()
    assert decode_sequence(data)
    message = "trailing data after the last frame at bit offset 333"
    padding_bit = data[:-1] + bytes([data[-1] | 1])
    for bad in (data + bytes(1), data + b"\x80", padding_bit):
        assert _decode_error(bad) == message
    stream = encode_sequence(_noise_frames(2, seed=41), EncoderConfig(base_qp=27))
    assert len(decode_sequence(stream.bitstream)) == 2
    end = 128 + stream.stats.total_bits
    garbage = np.random.default_rng(41).integers(0, 256, 700, dtype=np.uint8).tobytes()
    assert _decode_error(stream.bitstream + garbage) == (
        f"trailing data after the last frame at bit offset {end}"
    )


def test_every_name_the_tracer_wraps_is_bound():
    # codecbench's tracer wraps functions by name in pipeline and bench; a
    # renamed or unused import would leave its layer untimed.
    path = Path(__file__).resolve().parents[1] / "codecbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("codecbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unbound = [(module.__name__, name) for module, name, *_ in tracer.WRAPPED
               if not callable(getattr(module, name, None))]
    assert tracer.WRAPPED and not unbound


@pytest.mark.parametrize("mode", MODES)
def test_encoder_takes_activity_from_pipeline_cb_activity_once_per_plane(monkeypatch, mode):
    real, shapes = pipeline.cb_activity, []

    def counted(cb):
        shapes.append(cb.shape)
        return real(cb)

    monkeypatch.setattr(pipeline, "cb_activity", counted)
    frames = _noise_frames(3)
    result = encode_sequence(frames, EncoderConfig(base_qp=30, mode=mode, gop_length=2,
                                                   cu_size=16, search_range=2))
    assert shapes == [(4, 4, 16, 16)] * 3 * len(frames)
    _assert_master_invariant(result)


def _moving_frames(width, height, count, seed):
    """Random walks along rows that slide a few samples a frame, so P-frame CUs move."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-6, 7, (3, height + 8 * count, width + 8 * count)).cumsum(axis=2) % 256
    return [Frame(width, height, 8, tuple(base[:, 3 * k : 3 * k + height, 2 * k : 2 * k + width]))
            for k in range(count)]


def _encode_outputs(frames, config):
    result = encode_sequence(frames, config)
    planes = [plane for frame in result.reconstruction for plane in frame.planes]
    return result.bitstream, result.stats, planes


@pytest.mark.parametrize("cu_size", [8, 16, 32])
@pytest.mark.parametrize("width,height", [(64, 192), (192, 64), (130, 70)])
def test_batch_boundaries_do_not_change_the_encode(monkeypatch, cu_size, width, height):
    # One CTU column, one CTU row and a non-square grid, coded I, P, I: with
    # batches of one CU and of two, every intra anti-diagonal and inter raster
    # run splits, and the stream, stats and reconstruction must not change.
    frames = _moving_frames(width, height, 3, seed=cu_size)
    config = EncoderConfig(base_qp=30, gop_length=2, cu_size=cu_size, search_range=4)
    stream, stats, planes = _encode_outputs(frames, config)
    assert [f.frame_type for f in stats.frames] == ["I", "P", "I"]
    cu_levels = len(PLANE_ORDER) * cu_size * cu_size
    for levels in (cu_levels, int(2.5 * cu_levels)):
        monkeypatch.setattr(pipeline, "RECONSTRUCT_LEVELS", levels)
        got_stream, got_stats, got_planes = _encode_outputs(frames, config)
        assert got_stream == stream
        assert got_stats == stats
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(got_planes, planes, strict=True))
        decoded = [plane for frame in decode_sequence(got_stream) for plane in frame.planes]
        assert all(np.array_equal(a, b) for a, b in zip(decoded, planes, strict=True))


def _cu_starts(stream):
    """The bit offset of every CU of a valid stream: where the decoder reads
    the first of its three QP fields."""
    starts, real = [], entropy.BitReader.read_uint

    def spy(reader, nbits):
        if nbits == QP_FIELD_BITS:
            starts.append(reader.tell())
        return real(reader, nbits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entropy.BitReader, "read_uint", spy)
        decode_sequence(stream)
    return starts[: len(starts) - len(starts) % 3 : 3]   # less a 6-bit padding read


def _splice(stream, start, end, write):
    """The stream with its bits [start, end) replaced by what `write` writes."""
    reader, writer = entropy.BitReader(stream), BitWriter()
    writer.write_uint(reader.read_uint(start), start)
    write(writer)
    reader.read_uint(end - start)
    rest = 8 * len(stream) - end
    writer.write_uint(reader.read_uint(rest), rest)
    return writer.getvalue()


def _decode_outcome(data):
    try:
        return [plane for frame in decode_sequence(data) for plane in frame.planes]
    except DecodeError as err:
        return str(err)


@pytest.mark.parametrize("cu_size", [8, 16, 32])
def test_batch_boundaries_do_not_change_the_decode(monkeypatch, cu_size):
    # The decoder parses and reconstructs a frame one batch at a time.  With
    # batches of one CU, of two and of the default bound, an I+P stream
    # decodes to the same frames, and the stream cut, or given a level over
    # the limit, in the first CU of a second batch raises the same error.
    frames = _moving_frames(130, 70, 2, seed=cu_size)
    config = EncoderConfig(base_qp=30, cu_size=cu_size, search_range=4)
    result = encode_sequence(frames, config)
    stream = result.bitstream
    assert [f.frame_type for f in result.stats.frames] == ["I", "P"]
    starts = _cu_starts(stream) + [128 + result.stats.total_bits]
    grid = len(starts) // 2
    cu_levels = len(PLANE_ORDER) * cu_size * cu_size
    bounds = (cu_levels, int(2.5 * cu_levels), pipeline.RECONSTRUCT_LEVELS)
    steps = [bound // cu_levels for bound in bounds]
    assert steps[:2] == [1, 2] and 2 < steps[2] < grid   # every bound splits the frame
    token_bits = (cu_size * cu_size).bit_length()

    def level_over_limit(inter):
        def write(writer):
            _qps(writer)
            if inter:
                writer.write_se(0)
                writer.write_se(0)
            writer.write_uint(1, token_bits)
            writer.write_se(LEVEL_LIMIT + 1)
            writer.write_uint(0, 2 * token_bits)
        return write

    cases = {"valid": (stream, None)}
    for step in steps:
        for cu in (step, grid + step):   # the first CU of the I- and the P-frame's second batch
            start, end = starts[cu], starts[cu + 1]
            cases[f"cut in CU {cu}"] = (stream[: (start + end) // 16],
                                        ("bitstream truncated", "invalid exp-Golomb prefix"))
            # the QPs, a (0, 0) MV of two 1-bit codes in P, the G token, the level
            level_end = (start + 3 * QP_FIELD_BITS + 2 * (cu >= grid) + token_bits
                         + entropy.level_bits(LEVEL_LIMIT + 1))
            cases[f"level over the limit in CU {cu}"] = (
                _splice(stream, start, end, level_over_limit(cu >= grid)),
                (f"level magnitude {LEVEL_LIMIT + 1} exceeds limit at bit offset {level_end}",),
            )
    expected = {name: _decode_outcome(data) for name, (data, _) in cases.items()}
    for name, (_, message) in cases.items():
        if message is None:
            planes = [plane for frame in result.reconstruction for plane in frame.planes]
            assert all(np.array_equal(a, b) for a, b in zip(expected[name], planes, strict=True))
        else:
            assert expected[name].startswith(message), name
    for bound in bounds[:2]:
        monkeypatch.setattr(pipeline, "RECONSTRUCT_LEVELS", bound)
        for name, (data, _) in cases.items():
            got = _decode_outcome(data)
            if isinstance(got, str):
                assert got == expected[name], (bound, name)
            else:
                assert all(np.array_equal(a, b) and a.dtype == b.dtype
                           for a, b in zip(got, expected[name], strict=True)), (bound, name)


# One more round trip of codecbench's inter_motion clip after two warm-up
# ones, in a fresh process that first frees an array of argv[1] bytes;
# prints the process's minor page faults during that round trip.
_STEADY_STATE_FAULTS = """
import resource, sys
import numpy as np
from spectralpq.corpus import high_motion_translation
from spectralpq.pipeline import EncoderConfig, decode_sequence, encode_sequence

freed = np.ones(int(sys.argv[1]), dtype=np.uint8)
del freed
frames = high_motion_translation(seed=104).frames
config = EncoderConfig(base_qp=27, cu_size=32, gop_length=8)
for _ in range(2):
    decode_sequence(encode_sequence(frames, config).bitstream)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
decode_sequence(encode_sequence(frames, config).bitstream)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc's thresholds")
@pytest.mark.parametrize("freed_mib", [0, 1, 4])
def test_steady_state_round_trip_takes_few_page_faults(freed_mib):
    # A batch's temporaries stay under glibc's default mmap threshold, so a
    # steady-state encode and decode reuse heap pages whatever the process
    # freed before: not the tens of thousands of faults of whole-frame
    # temporaries mapped and unmapped on every frame.
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _STEADY_STATE_FAULTS, str(freed_mib << 20)],
                         env=env, capture_output=True, text=True, check=True, timeout=300)
    assert int(out.stdout) <= 3000


def test_no_transform_or_quantizer_call_exceeds_the_batch_bound(monkeypatch):
    # A 512x512 picture at CU 8 holds 786,432 levels, 48 times the bound:
    # its intra frame is coded one anti-diagonal at a time and its inter frame
    # in raster runs of at most RECONSTRUCT_LEVELS levels.
    sizes = {"forward": [], "rdoq_quantize": []}
    for name, seen in sizes.items():
        def spy(coeffs, *args, _real=getattr(pipeline, name), _seen=seen):
            _seen.append(coeffs.size)
            return _real(coeffs, *args)

        monkeypatch.setattr(pipeline, name, spy)
    frames = _moving_frames(512, 512, 2, seed=5)
    result = encode_sequence(frames, EncoderConfig(base_qp=30, cu_size=8, search_range=1))
    assert [f.frame_type for f in result.stats.frames] == ["I", "P"]
    samples = len(PLANE_ORDER) * 512 * 512
    assert max(sizes["forward"] + sizes["rdoq_quantize"]) <= pipeline.RECONSTRUCT_LEVELS
    assert sum(sizes["forward"]) == sum(sizes["rdoq_quantize"]) == 2 * samples
    batch = pipeline.RECONSTRUCT_LEVELS // (len(PLANE_ORDER) * 8 * 8)
    assert len(sizes["forward"]) == (64 + 64 - 1) + -(-64 * 64 // batch)


def test_blocks_longer_than_a_window_stay_in_the_parser(monkeypatch):
    # The QP 51 stream's +-LEVEL_LIMIT blocks take 33 bits a level, up to
    # three windows a block.  The parser takes every block: the decoder's
    # reader reads no level code by code, only the two MV codes of each of
    # the P frame's 4 CUs.  The windows tile the stream: each window after
    # the first starts at the first level code that the window before does
    # not hold whole, stays within WINDOW_BITS and is built once.
    read_ue_calls = []

    class CountingReader(entropy.BitReader):
        def read_ue(self):
            read_ue_calls.append(self.tell())
            return super().read_ue()

    monkeypatch.setattr(pipeline, "BitReader", CountingReader)
    windows = []
    real_window = entropy._Window.__init__

    def recording_window(self, data, start, width):
        windows.append((start, width))
        real_window(self, data, start, width)

    monkeypatch.setattr(entropy._Window, "__init__", recording_window)
    starts, ends = [], []    # of each level code, from the reference decoder
    real_block = reference_codec.decode_block

    def recording_block(reader, n):
        first = reader.tell() + entropy._token_bits(n)
        levels = real_block(reader, n)
        scan = levels.ravel()[entropy._zigzag_flat(n)]
        token = int(np.flatnonzero(scan)[-1]) + 1 if scan.any() else 0
        lengths = entropy.level_bits(scan[:token])
        code_ends = first + np.cumsum(lengths)
        assert (code_ends.tolist() or [first])[-1] == reader.tell()
        starts.extend((code_ends - lengths).tolist())
        ends.extend(code_ends.tolist())
        return levels

    monkeypatch.setattr(reference_codec, "decode_block", recording_block)
    test_reference_codec.test_level_limit_stream_at_qp_51_decodes_as_reference()
    starts, ends = np.array(starts), np.array(ends)
    assert len(read_ue_calls) == 2 * 4
    assert len(windows) == len(set(windows))
    assert all(width <= WINDOW_BITS for _, width in windows)
    assert windows[0][0] == starts[0]
    for (start, _), (before, width) in zip(windows[1:], windows):
        assert start == starts[(starts >= before) & (ends > before + width)].min()


def _scalar_frame_cbs(config, idx, orig, tree, motion):
    """A frame's CbStat rows from scalar calls of the perceptual functions,
    one channel block at a time: the reference for the encoder's columns."""
    n = tree.cu_size
    gs = {ch: [perceptual.cb_activity(orig[c, y : y + n, x : x + n]) for x, y in
               ((cu.x, cu.y) for cu in tree)] for c, ch in enumerate(PLANE_ORDER)}
    means = {ch: perceptual.frame_mean_activity(gs[ch]) for ch in PLANE_ORDER}
    f = motion.mean_magnitude if motion else 0.0
    rows = []
    for i in range(len(gs["G"])):
        d = motion.magnitudes[i] if motion else 0.0
        a, z, offset, qp = 0.0, 0, 0, config.base_qp
        if config.mode == "anchor-adaptiveqp":
            a = perceptual.normalized_activity(gs["G"][i], means["G"])
            offset = perceptual.adaptiveqp_offset(a)
            qp = min(max(config.base_qp + offset, 0), 51)
        for ch in PLANE_ORDER:
            if config.mode == "spectral-pq":
                a = perceptual.normalized_activity(gs[ch][i], means[ch])
                z = perceptual.temporal_offset(d, f, ch) if motion else 0
                pqp = perceptual.perceptual_qp(config.base_qp, a, z, ch)
                offset, qp = pqp.total_offset, pqp.qp
            rows.append(pipeline.CbStat(idx, i, ch, gs[ch][i], means[ch], a, d, f, z, offset, qp))
    return rows


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bit_depth", [8, 10])
def test_frame_cbs_columns_equal_scalar_rows(mode, bit_depth):
    # The encoder's array statistics equal, row by row, what the scalar
    # perceptual functions give one channel block at a time, in I and P frames.
    frames = _moving_frames(130, 70, 2, seed=bit_depth)
    top = (1 << bit_depth) - 1
    frames = [Frame(f.width, f.height, bit_depth, tuple(p.astype(np.uint16) * top // 255
                                                        for p in f.planes)) for f in frames]
    config = EncoderConfig(base_qp=45, mode=mode, cu_size=16)
    tree = frames_mod.partition(frames[0], config.cu_size)
    orig = [frames_mod.pad_plane(np.stack(f.planes), frames_mod.DEFAULT_CTU_SIZE) for f in frames]
    motion = pipeline.estimate_motion_field(orig[1][0], orig[0][0].astype(np.int32), tree, 4)
    assert len(set(motion.magnitudes)) > 1
    for idx, field in ((0, None), (1, motion)):
        got = pipeline._frame_cbs(config, idx, orig[idx], tree, field)
        want = _scalar_frame_cbs(config, idx, orig[idx], tree, field)
        assert list(got) == want
        assert [type(v) for v in astuple(got[-1])] == [type(v) for v in astuple(want[-1])]
        assert got.qp.tolist() == np.reshape([cb.qp for cb in want], (-1, 3)).tolist()


def test_frame_stats_cb_reads_as_a_sequence_of_rows():
    frames = _noise_frames(2, seed=5)
    stats = encode_sequence(frames, EncoderConfig(base_qp=30, cu_size=16, gop_length=1)).stats
    other = encode_sequence(frames[:1], EncoderConfig(base_qp=30, cu_size=16)).stats
    cb = stats.frames[1].cb
    rows = list(cb)
    assert len(cb) == len(rows) == 3 * 16
    assert [(r.frame, r.cu, r.channel) for r in rows[:4]] == [
        (1, 0, "G"), (1, 0, "B"), (1, 0, "R"), (1, 1, "G")]
    assert cb[0] == rows[0] and cb[-1] == rows[-1] == cb[len(cb) - 1]
    assert cb[3:6] == rows[3:6] and cb[-2:] == rows[-2:] and cb[::7] == rows[::7]
    assert cb[40:100] == rows[40:] and cb[5:2] == []
    for index in (len(cb), -len(cb) - 1):
        with pytest.raises(IndexError):
            cb[index]
    assert cb == rows and rows == cb and cb != rows[:-1]
    assert stats.frames[0].cb == other.frames[0].cb and stats.frames[0].cb != cb
    assert not hasattr(cb, "__setitem__") and not hasattr(cb, "append")


def test_encoder_statistics_keep_few_bytes_per_channel_block():
    # A CbStat object per channel block kept about 187 bytes each for the
    # whole sequence; the columns keep about 22.
    frames = _noise_frames(1, size=256, seed=9)          # 1,024 CUs at CU 8
    config = EncoderConfig(base_qp=32, cu_size=8)
    encode_sequence(frames, config)                     # first-call caches outside the trace
    tracemalloc.start()
    try:
        stats = encode_sequence(frames, config).stats
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    blocks = sum(len(f.cb) for f in stats.frames)
    assert blocks == 3 * 1024
    assert kept / blocks <= 48
