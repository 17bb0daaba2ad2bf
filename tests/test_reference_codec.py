"""Differential property: the pipeline against the per-channel-block reference
codec in reference_codec.py, on the random clips and settings of
test_round_trip_properties.py."""

import numpy as np
from hypothesis import given, settings

from reference_codec import reference_decode, reference_encode
from spectralpq.entropy import LEVEL_LIMIT, BitWriter, encode_block
from spectralpq.pipeline import QP_FIELD_BITS, StreamHeader, decode_sequence, encode_sequence
from spectralpq.quantizer import QP_MAX, urq_dequantize
from spectralpq.transform import _float_basis
from test_round_trip_properties import clips, configs


def _assert_same_frames(got, want):
    assert len(got) == len(want)
    for got_frame, want_frame in zip(got, want):
        for got_plane, want_plane in zip(got_frame.planes, want_frame.planes):
            assert got_plane.dtype == want_plane.dtype
            assert np.array_equal(got_plane, want_plane)


@settings(max_examples=20, deadline=None)
@given(clips(), configs)
def test_pipeline_matches_reference_codec(frames, config):
    result = encode_sequence(frames, config)
    stream, reconstruction = reference_encode(frames, config, result.stats)
    assert stream == result.bitstream
    _assert_same_frames(result.reconstruction, reconstruction)
    _assert_same_frames(decode_sequence(stream), reference_decode(stream))


def test_level_limit_stream_at_qp_51_decodes_as_reference():
    # Dequantized LEVEL_LIMIT levels at QP 51 are far above the float64 bound
    # of the inverse transform, so the decoder takes its int64 product; both
    # frames, I then P with zero motion, must match the int64 reference.
    rng = np.random.default_rng(51)
    n = 32
    blocks = [np.full((n, n), LEVEL_LIMIT), np.full((n, n), -LEVEL_LIMIT),
              LEVEL_LIMIT * rng.choice([-1, 1], (n, n)), np.zeros((n, n), dtype=np.int64)]
    dc = np.zeros((n, n), dtype=np.int64)
    dc[0, 0] = -LEVEL_LIMIT
    blocks.append(dc)
    writer = BitWriter()
    StreamHeader(64, 64, 8, 30, n, 2, 51, 2).write(writer)
    for inter in (0, 1):
        writer.write_uint(inter, 1)
        for cu in range(4):
            for _ in range(3):
                writer.write_uint(QP_MAX, QP_FIELD_BITS)
            if inter:
                writer.write_se(0)
                writer.write_se(0)
            for k in range(3):
                encode_block(blocks[(3 * cu + k + inter) % len(blocks)], writer)
    stream = writer.getvalue()
    decoded = decode_sequence(stream)
    _assert_same_frames(decoded, reference_decode(stream))
    assert urq_dequantize(LEVEL_LIMIT, QP_MAX, n) > _float_basis("DCT", n, True)[1]
