import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_codec
from spectralpq import entropy, pipeline
from spectralpq.entropy import (
    LEVEL_LIMIT,
    WINDOW_BITS,
    BitReader,
    BitWriter,
    BlockParser,
    _token_bits,
    block_bits,
    decode_block,
    encode_block,
    level_bits,
    scan_block,
    zigzag_order,
)
from spectralpq.errors import DecodeError, EncodeError
from spectralpq.frames import Frame
from spectralpq.pipeline import EncoderConfig, decode_sequence, encode_sequence


def bits_of(writer: BitWriter) -> str:
    raw = "".join(f"{b:08b}" for b in writer.getvalue())
    return raw[: writer.tell()]


@pytest.mark.parametrize("value,code", [(0, "1"), (1, "010"), (2, "011"), (3, "00100")])
def test_unsigned_exp_golomb_codes(value, code):
    w = BitWriter()
    w.write_ue(value)
    assert bits_of(w) == code


@pytest.mark.parametrize("value,code", [(0, "1"), (1, "010"), (-1, "011"), (2, "00100"), (-2, "00101")])
def test_signed_exp_golomb_codes(value, code):
    w = BitWriter()
    w.write_se(value)
    assert bits_of(w) == code


def test_level_bits_matches_emitted_length():
    assert level_bits(0) == 1
    assert level_bits(1) == 3
    assert level_bits(-1) == 3
    prev = 0
    for level in range(0, 3000, 7):
        for signed in (level, -level):
            w = BitWriter()
            w.write_se(signed)
            assert w.tell() == level_bits(signed)
        assert level_bits(level) >= prev
        prev = level_bits(level)


def test_level_bits_array_matches_level_bits():
    edges = [s * ((1 << k) + d) for k in range(50) for d in (-1, 0, 1) for s in (1, -1)]
    levels = np.array(list(range(-300, 301)) + edges, dtype=np.int64)
    emitted = []
    for v in levels:
        w = BitWriter()
        w.write_se(int(v))
        emitted.append(w.tell())
    assert level_bits(levels).tolist() == emitted
    assert [level_bits(int(v)) for v in levels] == emitted
    assert type(level_bits(-5)) is int and type(level_bits(np.int64(5))) is int
    # every level the codec can meet: the code length of the signed-mapped value
    levels = np.arange(-70000, 70001)
    mapped = [2 * v - 1 if v > 0 else -2 * v for v in levels.tolist()]
    assert level_bits(levels).tolist() == [2 * (m + 1).bit_length() - 1 for m in mapped]


def test_writer_reader_inverse_random_fields():
    rng = np.random.default_rng(31)
    fields = []
    w = BitWriter()
    for _ in range(2000):
        width = int(rng.integers(1, 33))
        value = int(rng.integers(0, 1 << width))
        fields.append((value, width))
        w.write_uint(value, width)
    data = w.getvalue()
    assert len(data) == (w.tell() + 7) // 8
    r = BitReader(data)
    for value, width in fields:
        assert r.read_uint(width) == value


def test_signed_round_trip_sequence():
    values = list(range(-40, 41)) + [500, -500, 32768, -32768]
    w = BitWriter()
    for v in values:
        w.write_se(v)
    r = BitReader(w.getvalue())
    assert [r.read_se() for _ in values] == values


def test_writer_value_range_check():
    w = BitWriter()
    with pytest.raises(EncodeError):
        w.write_uint(4, 2)
    with pytest.raises(EncodeError):
        w.write_uint(-1, 8)
    with pytest.raises(EncodeError):
        w.write_ue(-1)


def test_reader_truncation_reports_offset():
    r = BitReader(b"\xff")
    r.read_uint(6)
    with pytest.raises(DecodeError, match="bit offset 6"):
        r.read_uint(4)


def test_zigzag_order_prefix_and_coverage():
    order = zigzag_order(4)
    assert order[:6] == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2))
    for n in (4, 8, 16, 32):
        cells = zigzag_order(n)
        assert len(set(cells)) == n * n


def test_scan_block_last_significant():
    levels = np.zeros((4, 4), dtype=np.int64)
    assert scan_block(levels).last_significant == -1
    levels[0, 1] = 5  # zigzag position 1
    levels[1, 0] = -2  # zigzag position 2
    coded = scan_block(levels)
    assert coded.last_significant == 2
    assert coded.scan[1] == 5 and coded.scan[2] == -2


def test_all_zero_block_is_token_only():
    w = BitWriter()
    nbits = encode_block(np.zeros((8, 8), dtype=np.int64), w)
    assert nbits == 7  # log2(64) + 1 sentinel bits, nothing else
    got = decode_block(BitReader(w.getvalue()), 8)
    assert np.all(got == 0)


def test_zero_block_cheaper_than_any_nonzero():
    for n in (4, 8, 32):
        zero = np.zeros((n, n), dtype=np.int64)
        one = zero.copy()
        one[0, 0] = 1
        assert block_bits(zero) < block_bits(one)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_block_round_trip_random(n):
    rng = np.random.default_rng(n)
    for _ in range(400):
        mask = rng.random((n, n)) < 0.25
        levels = rng.integers(-3000, 3001, (n, n)) * mask
        w = BitWriter()
        nbits = encode_block(levels.astype(np.int64), w)
        assert nbits == block_bits(levels)
        assert np.array_equal(decode_block(BitReader(w.getvalue()), n), levels)


def test_single_dc_level_round_trip():
    levels = np.zeros((32, 32), dtype=np.int64)
    levels[0, 0] = 1
    w = BitWriter()
    encode_block(levels, w)
    assert np.array_equal(decode_block(BitReader(w.getvalue()), 32), levels)


def _packer_test_blocks(n, rng):
    zero = np.zeros((n, n), dtype=np.int64)
    dc = zero.copy()
    dc[0, 0] = -7
    last = zero.copy()
    last[-1, -1] = 1
    signs = rng.choice([-1, 1], (n, n))
    return [zero, dc, last, rng.integers(-40, 41, (n, n)), rng.integers(-3000, 3001, (n, n)),
            LEVEL_LIMIT * signs, np.full((n, n), -LEVEL_LIMIT), np.full((n, n), LEVEL_LIMIT)]


@pytest.mark.parametrize("n", [4, 8, 16, 32])
@pytest.mark.parametrize("offset", [0, 3, 7])
def test_encode_block_matches_python_int_packer(n, offset):
    # The vectorised bit placement against the per-level Python-int packer
    # of the reference codec and its eager writer, after `offset` bits of
    # other syntax.
    rng = np.random.default_rng(n + offset)
    for levels in _packer_test_blocks(n, rng):
        got, want = BitWriter(), reference_codec.BitWriter()
        for w in (got, want):
            w.write_uint((1 << offset) - 1, offset)
        nbits = encode_block(levels, got)
        assert nbits == reference_codec.encode_block(levels, want)
        assert got.tell() == want.tell() and got.getvalue() == want.getvalue()
        assert nbits == block_bits(levels)


def test_writer_packs_across_the_default_bound(monkeypatch):
    # Dense 32x32 blocks between header-like fields fill PACK_CODES several
    # times over; the packed stream equals the eager writer's.
    packs = []
    real_pack = BitWriter._pack
    monkeypatch.setattr(BitWriter, "_pack", lambda w: (packs.append(w._count), real_pack(w)))
    rng = np.random.default_rng(12)
    got, want = BitWriter(), reference_codec.BitWriter()
    for k in range(40):
        levels = rng.integers(-300, 301, (32, 32), dtype=np.int32)
        mv = int(rng.integers(-99, 100))
        for w in (got, want):
            w.write_uint(k % 64, 6)
            w.write_se(mv)
        assert encode_block(levels, got) == reference_codec.encode_block(levels, want)
        assert got.tell() == want.tell()
    assert got.getvalue() == want.getvalue()
    assert len([c for c in packs if c]) >= 4
    assert max(packs) <= entropy.PACK_CODES + 32 * 32


def test_writer_keeps_its_buffers_through_every_kind_of_write():
    # The pending codes go through the two arrays made with the writer: a
    # 130-bit field, dense 32x32 blocks across several packs, and a field
    # of 100,000 bits, wider than one run of codes.
    rng = np.random.default_rng(26)
    got, want = BitWriter(), reference_codec.BitWriter()
    buffers = got._values, got._lengths
    for w in (got, want):
        w.write_uint((1 << 130) - 3, 130)
    for _ in range(30):
        levels = rng.integers(-300, 301, (32, 32))
        assert encode_block(levels, got) == reference_codec.encode_block(levels, want)
    wide = int.from_bytes(rng.bytes(12_500), "big")
    for w in (got, want):
        w.write_uint(wide, 100_000)
    assert got._values is buffers[0] and got._lengths is buffers[1]
    assert got.tell() == want.tell() and got.getvalue() == want.getvalue()


def test_encode_block_rejects_a_block_larger_than_a_run():
    with pytest.raises(EncodeError, match="more than 1024 levels"):
        encode_block(np.zeros((64, 64), dtype=np.int64), BitWriter())


def test_level_overflow_rejected():
    levels = np.zeros((4, 4), dtype=np.int64)
    levels[0, 0] = (1 << 15) + 1
    with pytest.raises(EncodeError):
        encode_block(levels, BitWriter())


def test_invalid_last_significant_token():
    w = BitWriter()
    w.write_uint(17, 5)  # 4x4 token may be at most 16
    with pytest.raises(DecodeError, match="token"):
        decode_block(BitReader(w.getvalue()), 4)


def test_truncation_fuzz_never_crashes():
    rng = np.random.default_rng(37)
    levels = (rng.integers(-50, 51, (8, 8)) * (rng.random((8, 8)) < 0.4)).astype(np.int64)
    w = BitWriter()
    total = encode_block(levels, w)
    data = w.getvalue()
    for cut_bits in range(total):
        nbytes = (cut_bits + 7) // 8
        chopped = bytearray(data[:nbytes])
        if chopped and cut_bits % 8:
            keep = cut_bits % 8
            chopped[-1] &= (0xFF << (8 - keep)) & 0xFF
        try:
            decode_block(BitReader(bytes(chopped)), 8)
        except DecodeError:
            pass  # clean failure is the contract; anything else would crash the test


def _bytes_of(bits: str) -> bytes:
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


@pytest.mark.parametrize("align", range(8))
@pytest.mark.parametrize("zeros", range(32, 37))
def test_prefix_limit_independent_of_alignment(align, zeros):
    data = _bytes_of("1" * align + "0" * zeros + "1" + "0" * zeros + "1" * 16)
    reader = BitReader(data)
    reader.read_uint(align)
    if zeros <= 32:
        assert reader.read_ue() == (1 << zeros) - 1
        assert reader.tell() == align + 2 * zeros + 1
    else:
        with pytest.raises(DecodeError, match=f"value too large at bit offset {align}$"):
            reader.read_ue()
    _assert_block_parses_as_scalar_parse(_one_level_block(align, zeros), align + 1, 8)


@pytest.mark.parametrize("align", range(8))
@pytest.mark.parametrize("zeros", [33, 66, 70, 71, 72, 80])
def test_overlong_prefix_error_independent_of_alignment(align, zeros):
    # Prefixes under 72 zeros that end in a 1-bit are too large; longer ones
    # are invalid.  Either way the text must not depend on the bit alignment.
    data = _bytes_of("1" * align + "0" * zeros + "1" + "0" * zeros + "1" * 16)
    problem = "exp-Golomb value too large" if zeros < 72 else "invalid exp-Golomb prefix"
    expected = f"{problem} at bit offset {align}"
    reader = BitReader(data)
    reader.read_uint(align)
    with pytest.raises(DecodeError) as excinfo:
        reader.read_ue()
    assert str(excinfo.value) == expected
    block = _one_level_block(align, zeros)
    assert _parse(decode_block, block, align + 1, 8) == (
        f"{problem} at bit offset {align + 8}", align + 8
    )


def _one_level_block(align: int, zeros: int) -> bytes:
    """align + 1 padding bits, then an 8x8 block of token 1 whose level code,
    `zeros` zeros, a 1 and `zeros` zeros, starts at bit align + 8: bit
    `align` of the stream's second byte."""
    return _bytes_of("1" * (align + 1) + f"{1:07b}" + "0" * zeros + "1" + "0" * zeros + "1" * 16)


# The scalar parse that the block parser and decode_block must match.
def _reference_levels(reader: BitReader, count: int) -> np.ndarray:
    levels = []
    for _ in range(count):
        level = reader.read_se()
        if abs(level) > LEVEL_LIMIT:
            raise DecodeError(
                f"level magnitude {abs(level)} exceeds limit at bit offset {reader.tell()}"
            )
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def _reference_decode_block(reader: BitReader, n: int) -> np.ndarray:
    token = reader.read_uint(_token_bits(n))
    if token > n * n:
        raise DecodeError(
            f"last-significant token {token} exceeds {n * n} at bit offset {reader.tell()}"
        )
    levels = np.zeros((n, n), dtype=np.int64)
    for (i, j), level in zip(zigzag_order(n), _reference_levels(reader, token)):
        levels[i, j] = level
    return levels


def _parse(parse, data: bytes, skip: int, arg: int):
    """(values or DecodeError text, final bit position) of parse(reader, arg)."""
    reader = BitReader(data)
    try:
        reader.read_uint(skip)
        result = parse(reader, arg).tolist()
    except DecodeError as exc:
        result = str(exc)
    return result, reader.tell()


def _assert_block_parses_as_scalar_parse(data: bytes, skip: int, n: int):
    # decode_block, the decoder's BlockParser on one block, gives the scalar
    # parse's levels or error text, and stops where it stops.
    want, end = _parse(_reference_decode_block, data, skip, n)
    assert _parse(decode_block, data, skip, n) == (want, end)
    return want


def _truncated(data: bytes, cut_bits: int) -> bytes:
    chopped = bytearray(data[: (cut_bits + 7) // 8])
    if cut_bits % 8:
        chopped[-1] &= (0xFF << (8 - cut_bits % 8)) & 0xFF
    return bytes(chopped)


_EXTREMES = [LEVEL_LIMIT, -LEVEL_LIMIT, LEVEL_LIMIT + 1, -LEVEL_LIMIT - 1]


@st.composite
def raw_blocks(draw, sizes=(8, 16, 32)):
    """A coded block written level by level, so levels past LEVEL_LIMIT and
    tokens with trailing zero levels occur; after `skip` bits of padding."""
    n = draw(st.sampled_from(sizes))
    token = draw(st.one_of(st.just(n * n), st.integers(0, n * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1, 4, 60, 3000]))
    levels = rng.integers(-scale, scale + 1, token) * (rng.random(token) < 0.6)
    for _ in range(draw(st.integers(0, 3)) if token else 0):
        levels[draw(st.integers(0, token - 1))] = draw(st.sampled_from(_EXTREMES))
    skip = draw(st.integers(0, 7))
    w = BitWriter()
    w.write_uint(0, skip)
    w.write_uint(token, _token_bits(n))
    for level in levels.tolist():
        w.write_se(level)
    if draw(st.booleans()):
        w.write_uint(draw(st.integers(0, 255)), 8)
    return w.getvalue(), skip, n


@settings(max_examples=60, deadline=None)
@given(raw_blocks())
def test_decode_block_matches_scalar_parse(block):
    _assert_block_parses_as_scalar_parse(*block)


@settings(max_examples=10, deadline=None)
@given(raw_blocks(sizes=(8,)))
def test_decode_block_matches_scalar_parse_at_every_truncation(block):
    data, skip, n = block
    for cut_bits in range(8 * len(data) + 1):
        _assert_block_parses_as_scalar_parse(_truncated(data, cut_bits), skip, n)


@pytest.mark.parametrize("case", ["whole", "over_limit_in_last_window", "cut_in_second_window"])
def test_block_over_three_windows_matches_scalar_parse(monkeypatch, case):
    # 1024 codes of 33 bits: fresh windows of WINDOW_BITS take 496 codes, 496
    # and the last 32, each starting where the codes of the one before stop.
    levels = LEVEL_LIMIT * np.random.default_rng(32).choice([-1, 1], 32 * 32)
    if case == "over_limit_in_last_window":
        levels[1010] = -LEVEL_LIMIT - 1
    w = BitWriter()
    w.write_uint(0, 3)
    w.write_uint(32 * 32, _token_bits(32))
    for level in levels.tolist():
        w.write_se(level)
    data = w.getvalue()
    first = 3 + _token_bits(32)
    if case == "cut_in_second_window":
        data = _truncated(data, first + WINDOW_BITS + WINDOW_BITS // 2)
    windows = []
    real_window = entropy._Window.__init__

    def recording_window(self, data, start, width):
        windows.append((start, width))
        real_window(self, data, start, width)

    monkeypatch.setattr(entropy._Window, "__init__", recording_window)
    outcome = _assert_block_parses_as_scalar_parse(data, 3, 32)
    assert str(outcome).startswith({"whole": "[[", "over_limit_in_last_window": "level magnitude",
                                    "cut_in_second_window": "bitstream truncated"}[case])
    assert len(windows) == 3
    starts = [start for start, _ in windows]
    assert starts == [first, first + 496 * 33, starts[1] + windows[1][1] // 33 * 33]
    assert all(width <= min(8 * len(data) - start, WINDOW_BITS) for start, width in windows)


@pytest.mark.parametrize("fault", ["token", "long_prefix", "cut"])
def test_parser_raises_a_block_fault_and_flush_an_earlier_one(fault):
    # One parser over two blocks, as the decoder shares it.  Block 1 holds a
    # level over LEVEL_LIMIT, which only flush() checks; block 2 is malformed.
    # read(1) raises block 2's error, and the caller's flush() then raises
    # block 1's: each with the text and end of a scalar parse from its block.
    n = 8
    w = BitWriter()
    w.write_uint(2, _token_bits(n))
    w.write_se(5)
    w.write_se(LEVEL_LIMIT + 1)
    second = w.tell()
    w.write_uint(n * n + 1 if fault == "token" else 3, _token_bits(n))
    w.write_se(-7)
    if fault == "long_prefix":
        w.write_uint(1, 34)    # 33 zeros, then the 1-bit
    w.write_se(LEVEL_LIMIT)    # 16 zeros, the 1-bit and 16 more bits
    data = w.getvalue()
    if fault == "cut":    # the stream ends at the first byte end after that code's 1-bit
        one = w.tell() - 16
        data = _truncated(data, one + -one % 8)
    reader = BitReader(data)
    parser = BlockParser(reader, n, np.zeros((2, n * n), dtype=np.int32))
    parser.read(0)
    with pytest.raises(DecodeError) as second_fault:
        parser.read(1)
    assert (str(second_fault.value), reader.tell()) == _parse(_reference_decode_block, data, second, n)
    assert str(second_fault.value).startswith({"token": "last-significant token",
                                               "long_prefix": "exp-Golomb value too large",
                                               "cut": "bitstream truncated"}[fault])
    with pytest.raises(DecodeError) as first_fault:
        parser.flush()
    assert (str(first_fault.value), reader.tell()) == _parse(_reference_decode_block, data, 0, n)
    assert str(first_fault.value).startswith(f"level magnitude {LEVEL_LIMIT + 1} exceeds limit")


def _clip_stream() -> tuple[bytes, int]:
    """A two-frame clip's stream, and the number of its P-frame CUs."""
    rng = np.random.default_rng(41)
    base = rng.integers(0, 256, (3, 48, 48))
    frames = [
        Frame(40, 40, 8, tuple(np.roll(p, 2 * k, axis=1)[:40, :40].astype(np.uint8) for p in base))
        for k in range(2)
    ]
    result = encode_sequence(frames, EncoderConfig(base_qp=22, cu_size=16))
    rows, cols = result.stats.grid_shape
    return result.bitstream, rows * cols * sum(f.frame_type == "P" for f in result.stats.frames)


_CLIP, _CLIP_P_CUS = _clip_stream()


def _noise_stream(cu_size: int) -> bytes:
    """One 128x128 noise frame at QP 4: its levels span several windows."""
    planes = np.random.default_rng(43).integers(0, 256, (3, 128, 128)).astype(np.uint8)
    frame = Frame(128, 128, 8, tuple(planes))
    return encode_sequence([frame], EncoderConfig(base_qp=4, cu_size=cu_size)).bitstream


_NOISE = {cu_size: _noise_stream(cu_size) for cu_size in (8, 32)}


def _decode_outcome(decode, data: bytes):
    try:
        return [f.planes for f in decode(data)]
    except DecodeError as exc:
        return str(exc)


def _assert_decodes_as_reference(data: bytes, offset: int, kind: str, run: int):
    """Damage `data` from bit `offset` (one bit flipped, or `run` bits
    zeroed); the decoder must fail as the code-by-code reference decoder
    does, or give the same frames."""
    bits = list(f"{int.from_bytes(data, 'big'):0{8 * len(data)}b}")
    for i in range(offset, min(offset + (1 if kind == "flip" else run), len(bits))):
        bits[i] = "0" if kind == "zeros" else "10"[int(bits[i])]
    data = _bytes_of("".join(bits))
    fast = _decode_outcome(decode_sequence, data)
    scalar = _decode_outcome(reference_codec.reference_decode, data)
    if isinstance(scalar, str):
        assert fast == scalar
    else:
        assert not isinstance(fast, str)
        assert all(np.array_equal(a, b) for fa, fb in zip(fast, scalar) for a, b in zip(fa, fb))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(128, 8 * len(_CLIP) - 1),
    st.sampled_from(["flip", "zeros"]),
    st.integers(1, 80),
)
def test_mangled_stream_decodes_as_with_scalar_parse(offset, kind, run):
    _assert_decodes_as_reference(_CLIP, offset, kind, run)


@pytest.mark.parametrize("cu_size", sorted(_NOISE))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mangled_multi_window_stream_decodes_as_with_scalar_parse(cu_size, data):
    stream = _NOISE[cu_size]
    assert 8 * len(stream) > 4 * WINDOW_BITS
    _assert_decodes_as_reference(
        stream,
        data.draw(st.integers(128, 8 * len(stream) - 1), label="offset"),
        data.draw(st.sampled_from(["flip", "zeros"]), label="kind"),
        data.draw(st.integers(1, 80), label="run"),
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(65, 4096),
    raw_blocks(),
    st.integers(128, 8 * len(_CLIP) - 1),
    st.sampled_from(["flip", "zeros"]),
    st.integers(1, 80),
)
def test_windows_of_any_width_parse_as_scalar_parse(window_bits, block, offset, kind, run):
    # Blocks straddle window ends at every width down to 65 bits, a longest
    # code: below that, a fresh window may not hold the code it starts at.
    # The unmangled clip's decoder reads no level code by code: its reader's
    # read_ue takes only the two MV codes of each P-frame CU.
    read_ue_calls = []

    class CountingReader(BitReader):
        def read_ue(self):
            read_ue_calls.append(self.tell())
            return super().read_ue()

    want = _decode_outcome(reference_codec.reference_decode, _CLIP)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entropy, "WINDOW_BITS", window_bits)
        _assert_block_parses_as_scalar_parse(*block)
        _assert_decodes_as_reference(_CLIP, offset, kind, run)
        patch.setattr(pipeline, "BitReader", CountingReader)
        got = _decode_outcome(decode_sequence, _CLIP)
    assert all(np.array_equal(a, b) for fa, fb in zip(got, want) for a, b in zip(fa, fb))
    assert _CLIP_P_CUS and len(read_ue_calls) == 2 * _CLIP_P_CUS


@pytest.mark.parametrize("cu_size", sorted(_NOISE))
def test_level_windows_tile_the_stream(monkeypatch, cu_size):
    # Each window starts at a level code, the first that the window before
    # could not take, so it overlaps that window by less than a longest code
    # (65 bits) and the stream takes at most one window per WINDOW_BITS - 64.
    stream = _NOISE[cu_size]
    code_starts = set()
    reference_block = reference_codec.decode_block

    def recording_block(reader, n):
        first = reader.tell() + _token_bits(n)
        levels = reference_block(reader, n)
        coded = scan_block(levels)
        lengths = level_bits(coded.scan[: coded.last_significant + 1])
        code_starts.update((first + np.cumsum(lengths) - lengths).tolist())
        return levels

    monkeypatch.setattr(reference_codec, "decode_block", recording_block)
    want = reference_codec.reference_decode(stream)
    windows = []
    real_window = entropy._Window.__init__

    def recording_window(self, data, start, width):
        windows.append((start, width))
        real_window(self, data, start, width)

    monkeypatch.setattr(entropy._Window, "__init__", recording_window)
    got = decode_sequence(stream)
    assert all(np.array_equal(a, b) for fa, fb in zip(got, want)
               for a, b in zip(fa.planes, fb.planes))
    bits = 8 * len(stream)
    assert len(windows) > 4
    assert len(windows) == len(set(windows))
    assert {start for start, _ in windows} <= code_starts
    assert all(width <= min(bits - start, WINDOW_BITS) for start, width in windows)
    overlaps = [before + width - start for (start, _), (before, width) in zip(windows[1:], windows)]
    assert max(overlaps) <= 64
    assert len(windows) <= -(-bits // (WINDOW_BITS - 64)) + 1


class _StringWriter:
    """The stream as a string of '0' and '1': the model the packing writer
    must match."""

    def __init__(self):
        self.bits = ""

    def tell(self) -> int:
        return len(self.bits)

    def write_uint(self, value: int, nbits: int) -> None:
        if value < 0 or value >= 1 << nbits:
            raise EncodeError(f"value {value} does not fit in {nbits} bits")
        self.bits += format(value, f"0{nbits}b") if nbits else ""

    def write_ue(self, value: int) -> None:
        if value < 0:
            raise EncodeError(f"unsigned exp-Golomb value must be >= 0, got {value}")
        payload = format(value + 1, "b")
        self.bits += "0" * (len(payload) - 1) + payload

    def write_se(self, value: int) -> None:
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def getvalue(self) -> bytes:
        padded = self.bits + "0" * (-len(self.bits) % 8)
        return bytes(int(padded[k : k + 8], 2) for k in range(0, len(padded), 8))


@st.composite
def _writer_blocks(draw, over_limit=False):
    """An n x n level block of one kind; with `over_limit`, one that
    encode_block must reject."""
    n = draw(st.sampled_from([8, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    levels = np.zeros((n, n), dtype=dtype)
    kind = draw(st.sampled_from(["zero", "dc", "last", "dense", "limit"]))
    if kind in ("dc", "last"):
        levels[(0, 0) if kind == "dc" else (-1, -1)] = draw(
            st.integers(1, LEVEL_LIMIT)) * draw(st.sampled_from([1, -1]))
    elif kind == "dense":
        scale = draw(st.sampled_from([1, 40, 3000]))
        levels[...] = rng.integers(-scale, scale + 1, (n, n)) * (rng.random((n, n)) < 0.8)
    elif kind == "limit":
        levels[...] = LEVEL_LIMIT * rng.choice([-1, 1], (n, n))
    if over_limit:
        if draw(st.booleans()):
            return levels[:, 1:]
        levels[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = (
            (LEVEL_LIMIT + 1) * draw(st.sampled_from([1, -1])))
    return levels


_WIDTHS = st.integers(0, 130)
_WRITER_OPS = st.one_of(
    _WIDTHS.flatmap(lambda nbits: st.tuples(
        st.just("uint"), st.integers(0, (1 << nbits) - 1), st.just(nbits))),
    _WIDTHS.flatmap(lambda nbits: st.tuples(
        st.just("uint"), st.one_of(st.integers(1 << nbits, 1 << (nbits + 2)),
                                   st.integers(-9, -1)), st.just(nbits))),
    st.tuples(st.just("ue"), st.integers(-2, 1 << 40)),
    st.tuples(st.just("se"), st.integers(-(1 << 40), 1 << 40)),
    st.tuples(st.just("block"), _writer_blocks()),
    st.tuples(st.just("block"), _writer_blocks(over_limit=True)),
    st.tuples(st.just("getvalue")),
)


def _model_encode_block(levels, writer) -> int:
    if levels.shape[0] != levels.shape[1] or np.abs(levels).max() > LEVEL_LIMIT:
        raise EncodeError("rejected")
    return reference_codec.encode_block(levels, writer)


def _apply(op, args, writer, encode):
    if op == "block":
        return encode(args[0], writer)
    return getattr(writer, f"write_{op}")(*args)


@pytest.mark.parametrize("bound", [None, 1, 2, 7])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(_WRITER_OPS, min_size=8, max_size=60))
def test_packing_writer_matches_a_string_writer(bound, ops):
    # After every step the writer's tell() and bytes equal the model's; the
    # bytes are read from a copy, so the writer's pending codes stay as they
    # are.  A write that raises changes neither.  A pack takes at most the
    # bound plus one record's codes.
    with pytest.MonkeyPatch.context() as mp:
        if bound is not None:
            mp.setattr(entropy, "PACK_CODES", bound)
        packs = []
        real_pack = BitWriter._pack
        mp.setattr(BitWriter, "_pack", lambda w: (packs.append(w._count), real_pack(w)))
        writer, model = BitWriter(), _StringWriter()
        largest = 3    # a 130-bit field is three codes
        for op, *args in ops:
            if op == "getvalue":
                assert writer.getvalue() == model.getvalue()
                continue
            if op == "block":
                largest = max(largest, args[0].size)
            before = writer.tell(), copy.deepcopy(writer).getvalue()
            try:
                want = _apply(op, args, model, _model_encode_block)
            except EncodeError:
                with pytest.raises(EncodeError):
                    _apply(op, args, writer, encode_block)
                assert (writer.tell(), copy.deepcopy(writer).getvalue()) == before
                continue
            assert _apply(op, args, writer, encode_block) == want
            assert writer.tell() == model.tell()
            assert copy.deepcopy(writer).getvalue() == model.getvalue()
            assert writer._count < entropy.PACK_CODES
        assert writer.getvalue() == model.getvalue()
        assert max(packs, default=0) <= entropy.PACK_CODES + largest
