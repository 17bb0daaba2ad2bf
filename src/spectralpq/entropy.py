"""Bit-level syntax coding: bit reader/writer, order-0 exp-Golomb codes, and
zigzag-scanned coefficient blocks.

Signed levels map 0 -> 0, +k -> 2k-1, -k -> 2k before unsigned exp-Golomb
coding, so level_bits() is the exact emitted length and the RDOQ rate term
is truthful for this bitstream.

The writer defers packing: write_uint and encode_block record (value,
length) codes in two buffers allocated once per writer, and BitWriter packs
the pending codes into bytes in one vectorized step once PACK_CODES are
pending and at getvalue().  A block costs a few array operations on its
coded levels, not one per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DecodeError, EncodeError
from .frames import CU_SIZES

LEVEL_LIMIT = 1 << 15
MAX_PREFIX_ZEROS = 32   # longest exp-Golomb prefix the decoder accepts
WINDOW_BITS = 1 << 14   # widest level window; its 11 jump tables take 1.4 MiB
PACK_CODES = 1 << 13    # pending codes that make a BitWriter pack
RUN_CODES = max(CU_SIZES) ** 2   # longest run a write records: a largest block's levels


class BitWriter:
    """Accumulates bits MSB-first; the final byte is zero-padded.

    Writes are recorded as codes of at most 64 bits, (value, length) pairs,
    and packed into bytes in one vectorized step once PACK_CODES are
    pending, and at getvalue().  Fewer than PACK_CODES are pending before a
    write, which records at most RUN_CODES, so two buffers made with the
    writer hold them all (72 KiB each, under glibc's 128 KiB mmap
    threshold); a write_uint wider than a run is recorded a run at a time.
    tell() counts the pending bits too.
    """

    def __init__(self):
        self._data = bytearray()      # packed whole bytes
        self._tail = self._ntail = 0  # the packed bits after them, fewer than 8
        self._values = np.empty(PACK_CODES + RUN_CODES, dtype=np.uint64)   # pending codes
        self._lengths = np.empty(PACK_CODES + RUN_CODES, dtype=np.int64)
        self._count = 0
        self._nbits = 0

    def tell(self) -> int:
        return self._nbits

    def write_uint(self, value: int, nbits: int) -> None:
        if value < 0 or value >> nbits:
            raise EncodeError(f"value {value} does not fit in {nbits} bits")
        if nbits > 64:
            # 64-bit codes, high part first; the first holds what is left over.
            words = -(-nbits // 64)
            lengths = np.full(words, 64)
            lengths[0] = nbits - 64 * (words - 1)
            values = np.frombuffer(int(value).to_bytes(8 * words, "big"), ">u8")
            for k in range(0, words, RUN_CODES):
                self.write_codes(values[k : k + RUN_CODES], lengths[k : k + RUN_CODES])
        elif nbits:
            i = self._count
            self._values[i] = value
            self._lengths[i] = nbits
            self._count = i + 1
            self._nbits += nbits
            if i + 1 >= PACK_CODES:
                self._pack()

    def write_codes(self, values: np.ndarray, lengths: np.ndarray) -> None:
        """Append a run of at most RUN_CODES codes: values[k] in lengths[k]
        bits, 1 to 64 bits each.  Unchecked: callers derive the lengths from
        the values and keep to the run bound."""
        i = self._count
        j = i + len(values)
        self._values[i:j] = values
        self._lengths[i:j] = lengths
        self._count = j
        self._nbits += int(lengths.sum())
        if j >= PACK_CODES:
            self._pack()

    def _pack(self) -> None:
        """Pack the pending codes after the tail bits into 64-bit big-endian
        words: each code is shifted into the word that holds its last bit,
        the codes of a word are OR-ed together by one reduceat, and a code
        that starts in the word before puts its high part there."""
        count, self._count = self._count, 0
        if not count:
            return
        values, lengths = self._values[:count], self._lengths[:count]
        lengths[0] += self._ntail - 1    # so the sums count from the tail's first bit
        word = np.cumsum(lengths)        # each code's last bit, then its word
        lengths[0] -= self._ntail - 1
        total = int(word[-1]) + 1
        shift = ~word
        shift &= 63                      # 63 - the last bit's place in its word
        word >>= 6
        # The first code of each word; only such a code can start in the word before.
        heads = np.flatnonzero(word[1:] != word[:-1])
        heads += 1
        heads = np.concatenate(([0], heads))
        spill = heads[lengths[heads] + shift[heads] > 64]
        words = np.zeros(int(word[-1]) + 1, dtype=np.uint64)
        words[word[spill] - 1] = values[spill] >> (64 - shift[spill]).view(np.uint64)
        shift = np.left_shift(values, shift.view(np.uint64), out=shift.view(np.uint64))
        words[word[heads]] |= np.bitwise_or.reduceat(shift, heads)
        if self._ntail:
            words[0] |= np.uint64(self._tail << (64 - self._ntail))
        out = memoryview(words.astype(">u8")).cast("B")
        self._data += out[: total >> 3]
        self._ntail = total & 7
        self._tail = out[total >> 3] >> (8 - self._ntail) if self._ntail else 0

    def write_ue(self, value: int) -> None:
        if value < 0:
            raise EncodeError(f"unsigned exp-Golomb value must be >= 0, got {value}")
        width = (value + 1).bit_length()
        self.write_uint(value + 1, 2 * width - 1)

    def write_se(self, value: int) -> None:
        self.write_ue(2 * value - 1 if value > 0 else -2 * value)

    def getvalue(self) -> bytes:
        self._pack()
        out = bytes(self._data)
        if self._ntail:
            out += bytes([self._tail << (8 - self._ntail)])
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


class _Window:
    """Code tables over the bits [start, start + width) of a stream.

    A code is taken when it lies wholly in the window and has at most
    MAX_PREFIX_ZEROS leading zeros.  The k-th jump table maps a position
    to the end of the 2^k-th taken code from there (binary lifting), and
    width + 1 stands for "no such code" and maps to itself; a table is
    built on first use, from the one before it.
    """

    def __init__(self, data: bytes, start: int, width: int):
        # The window's bytes and 8 zero bytes, so that a whole word starts at each of them.
        chunk = np.frombuffer(data[start >> 3 : (start + width + 7) >> 3] + bytes(8), np.uint8)
        bits = np.empty(width + 1, dtype=np.uint8)
        bits[:width] = np.unpackbits(chunk)[start & 7 : (start & 7) + width]
        bits[width] = 1
        p = np.arange(width + 1, dtype=np.int32)   # every index is at most width + 1
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
        # words[b]: the bits of the 64-bit big-endian word at byte b, in one strided cast.
        words = np.ndarray(len(chunk) - 7, ">i8", chunk, 0, (1,)).astype(np.int64)
        self.start, self.width = start, width
        self._shift, self._words = start & 7, words
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
    """Reads coded n x n blocks, in stream order, into the rows of a level
    buffer.

    read() takes a block's token with the reader and skips its levels by
    binary lifting in windows that tile the stream: the current window
    takes what it can of a block, and the parse goes on in a fresh window
    at the first code the last one could not take.  Each window's part of
    a block is recorded with its offset in the scan, and the levels of a
    window's records are extracted together, when the parse leaves the
    window or at flush().  It is the decoder's only level parser: read()
    raises a block's own faults, and a caller flushes before it passes on
    any DecodeError, read()'s or its own: a level over the limit in an
    earlier block is the first error in stream order.
    """

    def __init__(self, reader: BitReader, n: int, out: np.ndarray):
        self._reader, self._n, self._out = reader, n, out
        # raster[row * n*n + i]: the index in `out` of the row's i-th level in
        # scan order, with one row more; _scans[place]: its n*n entries from place.
        raster = np.add.outer(np.arange(len(out) + 1) * n * n, _zigzag_flat(n), dtype=np.int32)
        self._scans = sliding_window_view(raster.ravel(), n * n)
        self._window = None
        self._pending = []    # (start in the window, codes, scan place) per record

    def read(self, row: int) -> None:
        """Parse one block, whose levels go to out[row], a zero row of n*n
        levels in raster order, by the next flush().  A token over n*n or a
        malformed code raises its DecodeError with the reader where a
        code-by-code parse stops; the caller flushes before passing it on."""
        reader, n = self._reader, self._n
        token = reader.read_uint(_token_bits(n))
        if token > n * n:
            raise DecodeError(
                f"last-significant token {token} exceeds {n * n} at bit offset {reader.tell()}"
            )
        pos, window = reader.tell(), self._window
        place, left = row * n * n, token    # the next level's scan place, the levels to go
        while left:
            if window is not None and window.start <= pos < window.start + window.width:
                end, taken = window.skip(pos - window.start, left)
                if taken:
                    self._pending.append((pos - window.start, taken, place))
                    pos, place, left = window.start + end, place + taken, left - taken
                    continue
            # Go on in a fresh window at the code the current one cannot take.
            # It holds a longest code unless the stream ends, so taking none
            # of it means a malformed code, whose error read_ue raises.
            fresh = _Window(reader._data, pos, min(reader._total - pos, WINDOW_BITS))
            if not fresh.skip(0, 1)[1]:
                reader._pos = pos
                reader.read_ue()
                raise AssertionError(f"a fresh window missed the code at bit offset {pos}")
            self.flush()
            window = self._window = fresh
        reader._pos = pos

    def flush(self) -> None:
        """Extract the levels of every block read so far, in one step, into
        their rows; a level over LEVEL_LIMIT raises the DecodeError that a
        code-by-code parse would, with the reader at the end of its code."""
        if not self._pending:
            return
        starts, counts, places = zip(*self._pending)
        self._pending = []
        mask, ends, levels = self._window.levels(starts, counts)
        over = np.flatnonzero(np.abs(levels) > LEVEL_LIMIT)
        if over.size:
            self._reader._pos = end = self._window.start + int(ends[over[0]])
            raise DecodeError(
                f"level magnitude {abs(int(levels[over[0]]))} exceeds limit at bit offset {end}"
            )
        np.put(self._out, self._scans[np.array(places), : mask.shape[1]][mask], levels)


def level_bits(levels):
    """Exact signed exp-Golomb code length of a level (an int), or of each
    level of an integer array, of magnitude below 2^51."""
    # The signed map sends k to 2|k| - 1 or 2|k|, so the coded value + 1 has
    # one bit more than |k| and the code 2 * bit_length(|k|) + 1 bits; frexp's
    # exponent of an integer below 2^53 is exactly its bit length.
    bits = 2 * np.frexp(np.abs(levels))[1] + 1
    return bits if bits.ndim else int(bits)


_LEVEL_LENGTHS = level_bits(np.arange(LEVEL_LIMIT + 1)).astype(np.uint8)   # by magnitude


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


def _scan(levels: np.ndarray) -> tuple[np.ndarray, int]:
    """A square block's zigzag scan, in the block's dtype, and its token: the
    number of levels up to the last nonzero one."""
    n = levels.shape[0]
    scan = levels.reshape(-1)[_zigzag_flat(n)]
    nonzero = scan != 0
    token = n * n - int(nonzero[::-1].argmax())   # n * n when all are zero
    return scan, token if nonzero[token - 1] else 0


def scan_block(levels: np.ndarray) -> CodedBlock:
    scan, token = _scan(levels)
    return CodedBlock(scan.astype(np.int64), token - 1)


def _token_bits(n: int) -> int:
    # last-significant token ranges over [0, n*n]; 0 is the all-zero sentinel
    return (n * n).bit_length()


def encode_block(levels: np.ndarray, writer: BitWriter) -> int:
    """Append one coefficient block to the stream; returns the bits written."""
    n = levels.shape[0]
    if levels.shape != (n, n):
        raise EncodeError(f"level block must be square, got {levels.shape}")
    if n * n > RUN_CODES:
        raise EncodeError(f"level block {levels.shape} has more than {RUN_CODES} levels")
    scan, token = _scan(levels)
    prefix = scan[:token].astype(np.int64)
    magnitude = np.abs(prefix)
    if token and magnitude.max() > LEVEL_LIMIT:
        raise EncodeError(f"level magnitude {int(magnitude.max())} exceeds limit {LEVEL_LIMIT}")
    start = writer.tell()
    writer.write_uint(token, _token_bits(n))
    if token:
        lengths = _LEVEL_LENGTHS.take(magnitude)
        magnitude <<= 1
        magnitude |= prefix <= 0     # the signed map plus one: +k -> 2k, -k -> 2k + 1
        writer.write_codes(magnitude, lengths)
    return writer.tell() - start


def decode_block(reader: BitReader, n: int) -> np.ndarray:
    """Exact inverse of encode_block: BlockParser's parse of one block, which
    fails as a code-by-code parse would and leaves the reader where it stops."""
    out = np.zeros((1, n * n), dtype=np.int64)
    parser = BlockParser(reader, n, out)
    try:
        parser.read(0)
    finally:
        parser.flush()
    return out.reshape(n, n)


def block_bits(levels: np.ndarray) -> int:
    """Size of encode_block's output, written to a scratch writer."""
    return encode_block(levels, BitWriter())
