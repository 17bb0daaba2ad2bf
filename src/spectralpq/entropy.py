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
WINDOW_BITS = 1 << 14   # widest level window; its 11 jump tables take 1.4 MiB


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
        self._window = None    # a BlockParser's last window, reused by read_levels

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
        LEVEL_LIMIT.  Codes are taken a window at a time through its
        tables; a code no window can take is malformed, and read_se raises
        its error.
        """
        parts = [np.zeros(0, dtype=np.int64)]
        while count:
            pos = self._pos
            # The rest of the stream, capped, and no more than `count`
            # longest codes need: room for one longest code at least, so a
            # window that takes no code means the code at pos is malformed.
            width = min(self._total - pos, WINDOW_BITS, count * _MAX_CODE_BITS)
            window = self._window    # a block's first window, built by a BlockParser
            if window is None or window.start != pos:
                window = _Window(self._data, pos, width)
            taken = window.skip(0, count)[1]
            if not taken:
                break
            _, ends, levels = window.levels([0], [taken])
            ok = _count_within_limit(levels)
            self._pos = pos + int(ends[min(ok, taken - 1)])
            if ok < taken:
                raise DecodeError(
                    f"level magnitude {abs(int(levels[ok]))} exceeds limit "
                    f"at bit offset {self._pos}"
                )
            parts.append(levels)
            count -= taken
        if count:
            self.read_se()
            raise AssertionError(f"read_se took a code at bit offset {pos} that no window took")
        return np.concatenate(parts)


class _Window:
    """Code tables over the bits [start, start + width) of a stream.

    A code is taken when it lies wholly in the window and has at most
    MAX_PREFIX_ZEROS leading zeros.  The k-th jump table maps a position
    to the end of the 2^k-th taken code from there (binary lifting), and
    width + 1 stands for "no such code" and maps to itself; a table is
    built on first use, from the one before it.
    """

    def __init__(self, data: bytes, start: int, width: int):
        # The window's bytes, zero-padded to whole 8-byte words and one more.
        chunk = data[start >> 3 : (start + width + 7) >> 3]
        chunk = np.frombuffer(chunk + bytes(8 + -len(chunk) % 8), dtype=np.uint8)
        bits = np.empty(width + 1, dtype=np.uint8)
        bits[:width] = np.unpackbits(chunk)[start & 7 : (start & 7) + width]
        bits[width] = 1
        p = np.arange(width + 1)
        # next_one[p]: the first 1-bit at or after p, with a 1-bit appended
        # at `width` so that every entry is an index of the window.
        next_one = p + (bits ^ 1) * (width - p)   # p at a 1-bit, else width
        next_one = np.minimum.accumulate(next_one[::-1])[::-1]
        # jump[p]: where a code that starts at p ends, or width + 1.
        jump = np.empty(width + 2, dtype=np.intp)
        jump[-1] = width + 1
        code_end = jump[:-1]
        np.subtract(2 * next_one + 1, p, out=code_end)
        code_end[(next_one - p > MAX_PREFIX_ZEROS) | (code_end > width)] = width + 1
        # words[b]: the bits of the 64-bit big-endian word at byte b.
        words = np.empty((len(chunk) // 8 - 1, 8), dtype=np.int64)
        for b in range(8):
            words[:, b] = np.frombuffer(chunk, ">u8", len(words), b)
        self.start, self.width = start, width
        self._shift, self._words = start & 7, words.ravel()
        self._jumps = [jump]

    def _jump(self, k: int) -> np.ndarray:
        jumps = self._jumps
        while len(jumps) <= k:
            jumps.append(jumps[-1].take(jumps[-1]))
        return jumps[k]

    def skip(self, p: int, count: int) -> tuple[int, int]:
        """(end, taken): the most codes from p, at most `count`, that the
        window takes, and where the last of them ends; one lookup per bit
        of `count`."""
        taken = 0
        for k in reversed(range(count.bit_length())):
            if taken + (1 << k) <= count:
                q = self._jump(k).item(p)
                if q <= self.width:
                    p, taken = q, taken + (1 << k)
        return p, taken

    def levels(self, starts, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The codes of a run of blocks, `counts[b]` codes from `starts[b]`,
        all of which the window takes: a (blocks, w) mask of the codes in a
        table of w >= max(counts) columns, and each code's end offset and
        signed value, block by block in stream order."""
        counts = np.asarray(counts)
        width = 1 << int(counts.max() - 1).bit_length()
        # chain[b, i] = jump^i(starts[b]), its columns filled by doubling.
        chain = np.empty((len(counts), width), dtype=np.intp)
        chain[:, 0] = starts
        for k in range(width.bit_length() - 1):
            chain[:, 1 << k : 2 << k] = self._jump(k).take(chain[:, : 1 << k])
        mask = np.arange(width) < counts[:, None]
        code = chain[mask]
        ends = self._jumps[0].take(code)
        # A code's value + 1 is its bits from the first 1-bit to its end, at
        # most 33 bits, so the 64-bit word from the byte holding that 1-bit
        # contains them.  The 1-bit is halfway between the code's start and
        # its end, less one.
        one = (code + ends - 1) >> 1
        first, nbits = self._shift + one, ends - one
        words = self._words.take(first >> 3)
        plus1 = (words >> (64 - (first & 7) - nbits)) & ((1 << nbits) - 1)
        # value + 1 = 2k for level +k and 2k + 1 for level -k
        return mask, ends, np.where(plus1 & 1, -(plus1 >> 1), plus1 >> 1)


class BlockParser:
    """Reads coded n x n blocks, in stream order, into rows of level stacks.

    read() takes a block's token with the reader and skips its levels by
    binary lifting in the current window, or in a fresh one that starts at
    the block's first level.  The levels of a window's blocks are extracted
    together, when the parse leaves the window or at flush().  A caller
    that raises a fault of its own calls flush() first: a level over the
    limit in an earlier block is the first error in stream order.
    """

    def __init__(self, reader: BitReader, n: int):
        self._reader, self._n = reader, n
        self._window = None
        self._out = None
        self._pending = ([], [], [])    # starts in the window, counts, rows

    def read(self, out: np.ndarray, row: int) -> bool:
        """Parse one block, whose levels go to out[row], a zero row of n*n
        levels in raster order, by the next flush().  False, with the reader
        back at the block's token, when the tables cannot take the block (a
        token over n*n, a malformed code, a code past the end, or a block
        longer than a window); decode_block must then parse it."""
        reader, n = self._reader, self._n
        start = reader.tell()
        token = reader.read_uint(_token_bits(n))
        if token > n * n:
            reader._pos = start
            return False
        if not token:
            return True
        pos = reader.tell()
        window = self._window
        end = taken = 0
        if window is not None and window.start <= pos < window.start + window.width:
            end, taken = window.skip(pos - window.start, token)
        if taken < token and (window is None or window.start != pos):
            self.flush()
            window = _Window(reader._data, pos, min(reader._total - pos, WINDOW_BITS))
            self._window = reader._window = window
            end, taken = window.skip(0, token)
        if taken < token:
            reader._pos = start
            return False
        if out is not self._out:
            self.flush()
            self._out = out
        starts, counts, rows = self._pending
        starts.append(pos - window.start)
        counts.append(token)
        rows.append(row)
        reader._pos = window.start + end
        return True

    def flush(self) -> None:
        """Extract the levels of every block read so far, in one step, into
        their rows; a level over LEVEL_LIMIT raises the DecodeError that a
        code-by-code parse would."""
        starts, counts, rows = self._pending
        if not starts:
            return
        self._pending = ([], [], [])
        mask, ends, levels = self._window.levels(starts, counts)
        ok = _count_within_limit(levels)
        if ok < len(levels):
            raise DecodeError(
                f"level magnitude {abs(int(levels[ok]))} exceeds limit "
                f"at bit offset {self._window.start + int(ends[ok])}"
            )
        flat = np.asarray(rows)[:, None] * self._n ** 2 + _zigzag_flat(self._n)[: mask.shape[1]]
        np.put(self._out, flat[mask], levels)


def _count_within_limit(levels: np.ndarray) -> int:
    """The number of leading levels of magnitude at most LEVEL_LIMIT."""
    over = np.flatnonzero(np.abs(levels) > LEVEL_LIMIT)
    return int(over[0]) if over.size else len(levels)


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
