"""Differential property: the pipeline against the per-channel-block reference
codec in reference_codec.py, on the random clips and settings of
test_round_trip_properties.py."""

import numpy as np
from hypothesis import given, settings

from reference_codec import reference_decode, reference_encode
from spectralpq.pipeline import decode_sequence, encode_sequence
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
