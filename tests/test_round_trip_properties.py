"""Property tests of the master invariant on random clips and settings.

Each example draws a clip (size, bit depth, plane dtype, 1-3 frames) and an
encoder configuration, then checks that the decoder reproduces the encoder's
reconstruction, that the header carries the configuration, and that a
truncated or bit-flipped stream raises nothing but DecodeError.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralpq.errors import DecodeError
from spectralpq.frames import CU_SIZES, Frame
from spectralpq.pipeline import (
    MODES,
    EncoderConfig,
    decode_sequence,
    encode_sequence,
    stream_header,
)


# The integer dtypes that hold every sample of each bit depth.
PLANE_DTYPES = {8: (np.uint8, np.uint16, np.int16, np.int32, np.int64),
                10: (np.uint16, np.int16, np.int32, np.int64)}


@st.composite
def clips(draw):
    """1-3 frames of random samples in a random integer dtype; each later
    frame is the previous one shifted by a few samples, so inter CUs find
    real motion."""
    width, height = draw(st.integers(1, 96)), draw(st.integers(1, 96))
    bit_depth = draw(st.sampled_from((8, 10)))
    dtype = draw(st.sampled_from(PLANE_DTYPES[bit_depth]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = rng.integers(0, 1 << bit_depth, (3, height, width)).astype(dtype)
    frames = [Frame(width, height, bit_depth, tuple(planes))]
    for _ in range(draw(st.integers(1, 3)) - 1):
        shift = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
        planes = np.roll(planes, shift, axis=(1, 2))
        frames.append(Frame(width, height, bit_depth, tuple(planes.copy())))
    return frames


configs = st.builds(
    EncoderConfig,
    base_qp=st.integers(0, 51),
    mode=st.sampled_from(MODES),
    rdoq=st.booleans(),
    gop_length=st.integers(1, 4),
    cu_size=st.sampled_from(CU_SIZES),
    search_range=st.integers(0, 16),
)


@settings(max_examples=20, deadline=None)
@given(clips(), configs, st.data())
def test_round_trip_header_and_damaged_streams(frames, config, data):
    result = encode_sequence(frames, config)
    stream = result.bitstream

    decoded = decode_sequence(stream)
    assert len(decoded) == len(result.reconstruction) == len(frames)
    for dec, rec in zip(decoded, result.reconstruction):
        for dec_plane, rec_plane in zip(dec.planes, rec.planes):
            assert dec_plane.dtype == rec_plane.dtype
            assert np.array_equal(dec_plane, rec_plane)

    first = frames[0]
    assert stream_header(stream) == {
        "width": first.width, "height": first.height, "bit_depth": first.bit_depth,
        "fps": config.fps, "cu_size": config.cu_size, "mode": MODES.index(config.mode),
        "base_qp": config.base_qp, "frame_count": len(frames),
    }

    cut = data.draw(st.integers(0, len(stream) - 1), label="truncate at byte")
    with pytest.raises(DecodeError):
        decode_sequence(stream[:cut])

    bit = data.draw(st.integers(0, 8 * len(stream) - 1), label="flip bit")
    flipped = bytearray(stream)
    flipped[bit // 8] ^= 0x80 >> (bit % 8)
    try:
        decode_sequence(bytes(flipped))
    except DecodeError:
        pass
