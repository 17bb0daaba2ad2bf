"""Bit-level syntax coding: bit reader/writer, order-0 exp-Golomb codes, and
zigzag-scanned coefficient blocks.

Signed levels map 0 -> 0, +k -> 2k-1, -k -> 2k before unsigned exp-Golomb
coding, so level_bits() is the exact emitted length and the RDOQ rate term
is truthful for this bitstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DecodeError, EncodeError

LEVEL_LIMIT = 1 << 15
MAX_PREFIX_ZEROS = 32   # longest exp-Golomb prefix the decoder accepts
_MAX_CODE_BITS = 2 * MAX_PREFIX_ZEROS + 1


class BitWriter:
    """Accumulates bits MSB-first; the final byte is zero-padded."""

    def __init__(self):
        self._chunks = bytearray()
        self._acc = 0
        self._nacc = 0
        self._nbits = 0

    def tell(self) -> int:
        return self._nbits

    def write_uint(self, value: int, nbits: int) -> None:
        if value < 0 or value >> nbits:
            raise EncodeError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nacc += nbits
        self._nbits += nbits
        if self._nacc >= 8:
            rem = self._nacc & 7
            self._chunks += (self._acc >> rem).to_bytes((self._nacc - rem) // 8, "big")
            self._acc &= (1 << rem) - 1
            self._nacc = rem

    def write_ue(self, value: int) -> None:
        if value < 0:
            raise EncodeError(f"unsigned exp-Golomb value must be >= 0, got {value}")
        width = (value + 1).bit_length()
        self.write_uint(value + 1, 2 * width - 1)

    def write_se(self, value: int) -> None:
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def getvalue(self) -> bytes:
        out = bytes(self._chunks)
        if self._nacc:
            out += bytes([(self._acc << (8 - self._nacc)) & 0xFF])
        return out


class BitReader:
    """Reads bits MSB-first from a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._total = 8 * len(data)

    def tell(self) -> int:
        return self._pos

    def read_uint(self, nbits: int) -> int:
        end = self._pos + nbits
        if end > self._total:
            raise DecodeError(
                f"bitstream truncated: need {nbits} bits at bit offset {self._pos}, "
                f"stream has {self._total}"
            )
        first, last = self._pos >> 3, (end + 7) >> 3
        word = int.from_bytes(self._data[first:last], "big")
        word >>= 8 * (last - first) - (end - 8 * first)
        self._pos = end
        return word & ((1 << nbits) - 1)

    def read_ue(self) -> int:
        # A window of the 72 bits from pos covers any prefix up to 32 zeros
        # plus its payload; a prefix of 72 or more zeros leaves it empty.
        pos = self._pos
        if pos >= self._total:
            raise DecodeError(f"bitstream truncated at bit offset {pos}")
        byte0 = pos >> 3
        tail = self._data[byte0 : byte0 + 10]
        avail = min(72, 8 * len(tail) - (pos & 7))
        window = int.from_bytes(tail, "big") >> (8 * len(tail) - (pos & 7) - avail)
        window &= (1 << avail) - 1
        if window == 0:
            raise DecodeError(f"invalid exp-Golomb prefix at bit offset {pos}")
        zeros = avail - window.bit_length()
        need = 2 * zeros + 1
        if need > avail and pos + avail >= self._total:
            raise DecodeError(f"bitstream truncated at bit offset {pos}")
        if need > avail or zeros > MAX_PREFIX_ZEROS:
            raise DecodeError(f"exp-Golomb value too large at bit offset {pos}")
        self._pos = pos + need
        return (window >> (avail - need)) - 1

    def read_se(self) -> int:
        v = self.read_ue()
        return (v + 1) >> 1 if v & 1 else -(v >> 1)

    def read_levels(self, count: int) -> np.ndarray:
        """The next `count` coefficient levels (signed exp-Golomb, magnitude
        at most LEVEL_LIMIT).

        Values, final position and every DecodeError, text and bit offset,
        are those of a read_se loop that checks each level against
        LEVEL_LIMIT.  Codes are parsed a window at a time through a jump
        table; a code no window can take is malformed, and read_se raises
        its error.
        """
        parts = [np.zeros(0, dtype=np.int64)]
        while count:
            pos = self._pos
            # Room for one longest code, so a window that takes no code
            # means the code at pos is malformed.
            width = min(self._total - pos, 3 * count + _MAX_CODE_BITS)
            ends, levels = self._parse_window(pos, width, count)
            if not len(ends):
                break
            bad = np.flatnonzero(np.abs(levels) > LEVEL_LIMIT)
            if bad.size:
                self._pos = pos + int(ends[bad[0]])
                raise DecodeError(
                    f"level magnitude {abs(int(levels[bad[0]]))} exceeds limit "
                    f"at bit offset {self._pos}"
                )
            self._pos = pos + int(ends[-1])
            parts.append(levels)
            count -= len(levels)
        if count:
            self.read_se()
            raise AssertionError(f"read_se took a code at bit offset {pos} that no window took")
        return np.concatenate(parts)

    def _parse_window(self, pos: int, width: int, count: int):
        """End offsets (relative to pos) and signed values of the first
        codes, at most `count`, that lie wholly in bits [pos, pos + width)
        and have at most MAX_PREFIX_ZEROS leading zeros."""
        # The window's bytes, zero-padded so that 8 bytes follow each.
        chunk = self._data[pos >> 3 : (pos + width + 7) >> 3] + bytes(8)
        chunk = np.frombuffer(chunk, dtype=np.uint8)
        shift = pos & 7
        bits = np.unpackbits(chunk)[shift : shift + width]
        p = np.arange(width + 1)
        # next_one[p]: the first 1-bit at or after p, with a 1-bit appended
        # at `width` so that every entry is an index of the window.
        next_one = np.where(np.append(bits, 1), p, width)
        next_one = np.minimum.accumulate(next_one[::-1])[::-1]
        code_end = 2 * next_one - p + 1
        takes = (next_one - p <= MAX_PREFIX_ZEROS) & (code_end <= width)
        # jump[p]: where the next code starts if one starts at p; width + 1
        # stands for "no code" and maps to itself.
        jump = np.append(np.where(takes, code_end, width + 1), width + 1)
        # chain[i] = jump^i(0) by pointer doubling: while jump is
        # jump^filled, it maps chain[:filled] onto the next `filled` entries.
        chain = np.zeros(count + 1, dtype=np.intp)
        filled = 1
        while True:
            step = min(filled, count + 1 - filled)
            chain[filled : filled + step] = jump[chain[:step]]
            filled += step
            if filled > count:
                break
            jump = jump[jump]
        taken = int(np.count_nonzero(chain[1:] <= width))
        ends = chain[1 : taken + 1]
        # A code's value + 1 is its bits from the first 1-bit to its end, at
        # most 33 bits, so the 64-bit big-endian word from the byte holding
        # that 1-bit contains them.
        one = next_one[chain[:taken]]
        first, nbits = shift + one, ends - one
        words = np.lib.stride_tricks.sliding_window_view(chunk, 8)[first >> 3]
        words = words.view(">u8").ravel().astype(np.int64)
        ue = ((words >> (64 - (first & 7) - nbits)) & ((1 << nbits) - 1)) - 1
        return ends, np.where(ue & 1, (ue + 1) >> 1, -(ue >> 1))


def level_bits(levels):
    """Exact signed exp-Golomb code length of a level (an int), or of each
    level of an integer array, of magnitude below 2^51."""
    # The signed map sends k to 2|k| - 1 or 2|k|, so the coded value + 1 has
    # one bit more than |k| and the code 2 * bit_length(|k|) + 1 bits; frexp's
    # exponent of an integer below 2^53 is exactly its bit length.
    bits = 2 * np.frexp(np.abs(levels))[1] + 1
    return bits if bits.ndim else int(bits)


def _signed_map(levels: np.ndarray) -> np.ndarray:
    return np.where(levels > 0, 2 * levels - 1, -2 * levels)


@lru_cache(maxsize=None)
def zigzag_order(n: int) -> tuple[tuple[int, int], ...]:
    """Classic diagonal scan from DC: even diagonals run up-right, odd down-left."""
    order = []
    for d in range(2 * n - 1):
        lo = max(0, d - n + 1)
        hi = min(d, n - 1)
        rows = range(hi, lo - 1, -1) if d % 2 == 0 else range(lo, hi + 1)
        order.extend((i, d - i) for i in rows)
    return tuple(order)


@lru_cache(maxsize=None)
def _zigzag_flat(n: int) -> np.ndarray:
    idx = np.array([i * n + j for i, j in zigzag_order(n)], dtype=np.int64)
    idx.setflags(write=False)
    return idx


@dataclass
class CodedBlock:
    """Zigzag-scanned levels with the index of the last nonzero one (-1 if none)."""

    scan: np.ndarray
    last_significant: int


def scan_block(levels: np.ndarray) -> CodedBlock:
    n = levels.shape[0]
    scan = levels.reshape(-1)[_zigzag_flat(n)].astype(np.int64)
    nz = np.nonzero(scan)[0]
    return CodedBlock(scan, int(nz[-1]) if nz.size else -1)


def _token_bits(n: int) -> int:
    # last-significant token ranges over [0, n*n]; 0 is the all-zero sentinel
    return (n * n).bit_length()


def encode_block(levels: np.ndarray, writer: BitWriter) -> int:
    """Append one coefficient block to the stream; returns the bits written."""
    n = levels.shape[0]
    if levels.shape != (n, n):
        raise EncodeError(f"level block must be square, got {levels.shape}")
    if np.any(np.abs(levels) > LEVEL_LIMIT):
        bad = int(np.max(np.abs(levels)))
        raise EncodeError(f"level magnitude {bad} exceeds limit {LEVEL_LIMIT}")
    start = writer.tell()
    coded = scan_block(levels)
    writer.write_uint(coded.last_significant + 1, _token_bits(n))
    if coded.last_significant >= 0:
        vals = coded.scan[: coded.last_significant + 1]
        # signed map then +1: the value written for each (2*width-1)-bit code
        plus1 = _signed_map(vals) + 1
        nbits = level_bits(vals)
        ends = np.cumsum(nbits)
        total = int(ends[-1])
        # Bit k of the concatenated codes is bit (end of its code - 1 - k)
        # of its value: the code's leading zeros are the value's high bits.
        shifts = np.repeat(ends - 1, nbits) - np.arange(total)
        bits = (np.repeat(plus1, nbits) >> shifts).astype(np.uint8) & 1
        packed = int.from_bytes(np.packbits(bits).tobytes(), "big")
        writer.write_uint(packed >> (-total % 8), total)
    return writer.tell() - start


def decode_block(reader: BitReader, n: int) -> np.ndarray:
    """Exact inverse of encode_block."""
    token = reader.read_uint(_token_bits(n))
    if token > n * n:
        raise DecodeError(
            f"last-significant token {token} exceeds {n * n} at bit offset {reader.tell()}"
        )
    levels = np.zeros(n * n, dtype=np.int64)
    levels[_zigzag_flat(n)[:token]] = reader.read_levels(token)
    return levels.reshape(n, n)


def block_bits(levels: np.ndarray) -> int:
    """Size of encode_block's output, written to a scratch writer."""
    return encode_block(levels, BitWriter())
