"""Closed-loop encoder and decoder with the "SPQ1" container.

GOP structure is IPPP: frame 0 and every gop-th frame is intra (DC
prediction per channel block), the rest are inter predicted from the
previous reconstruction with one full-pel motion vector per CU.  Every CU
carries three explicit channel QPs in the stream, so the decoder never
recomputes perceptual statistics.  Both sides code a frame's CUs in
cache-sized batches of at most RECONSTRUCT_LEVELS levels, so the working set
does not grow with the frame.  A batch is plain arrays: its CUs' raster
indices and corners, (K, 3) QPs and (K, 2) motion vectors.  Its source
blocks and its motion-compensated prediction are each one gather, and the
shared _reconstruct makes one transform call, one quantizer call per QP and
one store.  The encoder batches an intra frame by anti-diagonals (a
wavefront) and writes each CU as soon as the CUs before it in raster order
are coded.  The decoder reconstructs each raster batch as soon as it is
parsed, in one level buffer.  The decoder's output is bit-exact equal to the
encoder's own reconstruction; that identity is the codec's master invariant.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

# decode_block stays bound here for codecbench's tracer, which wraps pipeline.decode_block.
from .entropy import BitReader, BitWriter, BlockParser, _token_bits, decode_block, encode_block
from .errors import ConfigurationError, DecodeError
from .frames import (
    BIT_DEPTHS, CU_SIZES, DEFAULT_CTU_SIZE, PLANE_ORDER, Frame, _store_integers, pad_plane,
    partition, tiles, windows,
)
from .motion import MotionField, estimate_motion_field
from .perceptual import (
    adaptiveqp_offset,
    cb_activity,
    frame_mean_activity,
    normalized_activity,
    perceptual_qp,
    temporal_offset,
)
from .quantizer import QP_MAX, QP_MIN, rdoq_config, rdoq_quantize, urq_dequantize, urq_quantize
from .transform import forward, inverse, make_spec

MAGIC = b"SPQ1"
MODES = ("anchor-flat", "anchor-adaptiveqp", "spectral-pq")
QP_FIELD_BITS = 6
MAX_FRAME_SAMPLES = 1 << 26    # cap on width * height, checked on encode and decode
PLANE_DTYPE = np.int32         # reconstructions; residual and transform arithmetic is int64
# Most levels coded or reconstructed per batch of a frame's CUs.  A batch's
# int64 coefficient stack is then under 128 KiB at every CU size: it stays in
# L2, and below glibc malloc's default mmap threshold, so the chain's
# temporaries come from the heap, not from fresh pages mapped for each call.
RECONSTRUCT_LEVELS = 1 << 14

# Header fields after the magic, in stream order, with their widths in bits.
HEADER_FIELDS = {"width": 16, "height": 16, "bit_depth": 8, "fps": 16,
                 "cu_size": 8, "mode": 8, "base_qp": 8, "frame_count": 16}
# Checks the decoder makes on a field as soon as it has read it.
_HEADER_CHECKS = {
    "bit_depth": (lambda v: v in BIT_DEPTHS, "unsupported bit depth {}"),
    "cu_size": (lambda v: v in CU_SIZES, "invalid cu_size {}"),
    "mode": (lambda v: v < len(MODES), "unknown mode id {}"),
    "base_qp": (lambda v: v <= QP_MAX, "base_qp {} out of range"),
}


@dataclass(frozen=True)
class EncoderConfig:
    base_qp: int
    mode: str = "spectral-pq"
    rdoq: bool = True
    gop_length: int = 8
    cu_size: int = 32
    search_range: int = 16
    fps: int = 30

    def __post_init__(self):
        _store_integers(self, ("base_qp", "gop_length", "cu_size", "search_range", "fps"))
        if not isinstance(self.rdoq, (bool, np.bool_)):
            raise ConfigurationError(f"rdoq must be a bool, got {self.rdoq!r}")
        object.__setattr__(self, "rdoq", bool(self.rdoq))
        if not QP_MIN <= self.base_qp <= QP_MAX:
            raise ConfigurationError(f"base_qp must be in [0, 51], got {self.base_qp}")
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.cu_size not in CU_SIZES:
            raise ConfigurationError(f"cu_size must be one of {CU_SIZES}, got {self.cu_size}")
        if self.gop_length < 1:
            raise ConfigurationError(f"gop_length must be >= 1, got {self.gop_length}")
        if self.search_range < 0:
            raise ConfigurationError(f"search_range must be >= 0, got {self.search_range}")
        if self.fps <= 0:
            raise ConfigurationError(f"fps must be > 0, got {self.fps}")
        if self.fps >= 1 << HEADER_FIELDS["fps"]:
            raise ConfigurationError(f"fps must fit in 16 bits, got {self.fps}")


@dataclass(frozen=True)
class StreamHeader:
    """The container header; `mode` is the index into MODES."""

    width: int
    height: int
    bit_depth: int
    fps: int
    cu_size: int
    mode: int
    base_qp: int
    frame_count: int

    def __post_init__(self):
        for name, bits in HEADER_FIELDS.items():
            value = getattr(self, name)
            if not 0 <= value < 1 << bits:
                raise ConfigurationError(
                    f"{name} {value} does not fit the header's {bits}-bit field"
                )
        if self.width * self.height > MAX_FRAME_SAMPLES:
            raise ConfigurationError(
                f"frame size {self.width}x{self.height} exceeds {MAX_FRAME_SAMPLES} samples"
            )

    def write(self, writer: BitWriter) -> None:
        writer.write_uint(int.from_bytes(MAGIC, "big"), 32)
        for name, bits in HEADER_FIELDS.items():
            writer.write_uint(getattr(self, name), bits)

    @classmethod
    def read(cls, reader: BitReader) -> "StreamHeader":
        """Parse and validate the header; every fault raises DecodeError."""
        if reader.read_uint(32) != int.from_bytes(MAGIC, "big"):
            raise DecodeError("bad magic: not an SPQ1 stream")
        values = {}
        for name, bits in HEADER_FIELDS.items():
            value = values[name] = reader.read_uint(bits)
            accepts, message = _HEADER_CHECKS.get(name, (None, ""))
            if accepts and not accepts(value):
                raise DecodeError(message.format(value))
        width, height = values["width"], values["height"]
        if width == 0 or height == 0:
            raise DecodeError("zero frame dimensions")
        if width * height > MAX_FRAME_SAMPLES:
            raise DecodeError(f"frame size {width}x{height} exceeds the decoder limit")
        return cls(**values)


@dataclass(slots=True)
class CbStat:
    """One channel block's perceptual bookkeeping (audit CSV row)."""

    frame: int
    cu: int
    channel: str
    g: float
    frame_mean_g: float
    a: float
    mv_magnitude: float
    frame_mean_magnitude: float
    temporal: int
    offset: int
    qp: int


@dataclass(frozen=True, eq=False, slots=True)
class CbColumns(Sequence):
    """A frame's CbStat rows, CU-major then G, B, R, kept as columns: (K, 3)
    arrays with a row per CU and a column per channel, the CUs' (K,) motion
    magnitudes, and the frame's index and means as numbers.  It reads as a
    read-only sequence of CbStat, each row built when it is read; `==`
    compares the rows."""

    frame: int
    frame_mean_g: tuple                   # one H per channel
    frame_mean_magnitude: float
    g: np.ndarray                         # (K, 3) float64
    a: np.ndarray                         # (K, 3) float64
    mv_magnitude: np.ndarray              # (K,) float64
    temporal: np.ndarray                  # (K, 3) int8, as are offset and qp
    offset: np.ndarray
    qp: np.ndarray

    def __len__(self) -> int:
        return self.qp.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cu, c = divmod(range(len(self))[index], len(PLANE_ORDER))
        return CbStat(self.frame, cu, PLANE_ORDER[c], self.g[cu, c].item(),
                      self.frame_mean_g[c], self.a[cu, c].item(), self.mv_magnitude[cu].item(),
                      self.frame_mean_magnitude, self.temporal[cu, c].item(),
                      self.offset[cu, c].item(), self.qp[cu, c].item())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class FrameStats:
    """One coded frame: its type, bits by channel and in total, its CbStat rows
    (CbColumns from the encoder) and its motion field."""

    index: int
    frame_type: str                       # "I" or "P"
    bits_channel: dict = field(default_factory=dict)
    bits_total: int = 0
    cb: Sequence = ()
    motion: Optional[MotionField] = None  # the frame's motion search; None for I-frames


@dataclass
class SequenceStats:
    frames: list = field(default_factory=list)
    grid_shape: Optional[tuple] = None    # (rows, cols) of the CU grid

    @property
    def total_bits(self) -> int:
        return sum(f.bits_total for f in self.frames)


@dataclass
class EncodeResult:
    bitstream: bytes
    stats: SequenceStats
    reconstruction: list    # encoder-side reconstructed frames, cropped


def intra_predict_dc(
    recon: np.ndarray, x: int, y: int, size: int, bit_depth: int
) -> np.ndarray:
    """Constant block from reconstructed top-row/left-column neighbors; `recon`
    is a plane or a stack of planes, and each plane gets its own DC block."""
    refs = []
    if y > 0:
        refs.append(recon[..., y - 1, x : x + size])
    if x > 0:
        refs.append(recon[..., y : y + size, x - 1])
    value = np.full(recon.shape[:-2], 1 << (bit_depth - 1), dtype=np.int64)
    if refs:
        samples = np.concatenate(refs, axis=-1).astype(np.int64)
        value = (samples.sum(axis=-1) + samples.shape[-1] // 2) // samples.shape[-1]
    return np.full(recon.shape[:-2] + (size, size), value[..., None, None], dtype=np.int64)


def _predict(recon, prev, x, y, mvs, n, bit_depth):
    """The (K, 3, n, n) prediction of the CUs with corners `x` and `y`: one DC
    block per CU from `recon` when `prev` is None, else the blocks that the
    (K, 2) `mvs` point to, in one gather from `prev`: the (3, H - n + 1,
    W - n + 1, n, n) view of every n x n window of the previous reconstruction."""
    if prev is None:
        return np.stack([intra_predict_dc(recon, cx, cy, n, bit_depth)
                         for cx, cy in zip(x.tolist(), y.tolist())])
    return prev[:, y + mvs[:, 1], x + mvs[:, 0]].swapaxes(0, 1)


def _reconstruct(recon, x, y, pred, levels, qps, bit_depth, spec):
    """Reconstruct a batch of CUs, with corners `x` and `y`, onto `recon`, for
    the encoder and the decoder alike: their (K, 3, n, n) levels are
    dequantized with one call per distinct QP of the (K, 3) `qps` and inverse
    transformed in one call, then the prediction stack `pred` is added and
    the clipped batch stored in one assignment.  With `pred` None each CU is
    DC-predicted and stored in turn, from the ones stored before it."""
    coeffs = np.empty(levels.shape, dtype=np.int64)
    for qp in set(qps.ravel().tolist()):
        sel = qps == qp
        coeffs[sel] = urq_dequantize(levels[sel], qp, spec.size)
    residual = inverse(coeffs, spec)
    n, top = spec.size, (1 << bit_depth) - 1
    if pred is not None:
        tiles(recon, n)[:, y // n, x // n] = np.clip(pred + residual, 0, top).swapaxes(0, 1)
        return
    for cx, cy, block in zip(x.tolist(), y.tolist(), residual):
        block = np.clip(intra_predict_dc(recon, cx, cy, n, bit_depth) + block, 0, top)
        recon[:, cy : cy + n, cx : cx + n] = block


def _code_batch(orig, recon, prev, x, y, mvs, qps, config, spec, bit_depth) -> np.ndarray:
    """The (K, 3, n, n) int32 levels of CUs that predict independently, from one
    prediction stack, source gather, forward transform, quantizer call per QP
    and _reconstruct."""
    n = config.cu_size
    pred = _predict(recon, prev, x, y, mvs, n, bit_depth)
    coeffs = forward(tiles(orig, n)[:, y // n, x // n].swapaxes(0, 1) - pred, spec)
    levels = np.empty(coeffs.shape, dtype=np.int32)
    for qp in set(qps.ravel().tolist()):
        sel = qps == qp
        if config.rdoq:
            levels[sel] = rdoq_quantize(coeffs[sel], qp, n, rdoq_config(qp, n, bit_depth))
        else:
            levels[sel] = urq_quantize(coeffs[sel], qp, n)
    _reconstruct(recon, x, y, pred, levels, qps, bit_depth, spec)
    return levels


def _batches(tree, wavefront: bool):
    """A frame's CUs in batches of at most RECONSTRUCT_LEVELS levels (one CU at
    least), each as (run, x, y) arrays of raster indices and corners: raster
    runs, or with `wavefront` the grid's anti-diagonals, whose CUs DC-predict
    only from earlier diagonals (the CUs above and to the left)."""
    (rows, cols), n = tree.grid_shape, tree.cu_size
    runs = [[r * cols + d - r for r in range(max(0, d - cols + 1), min(d, rows - 1) + 1)]
            for d in range(rows + cols - 1)] if wavefront else [range(rows * cols)]
    step = max(1, RECONSTRUCT_LEVELS // (len(PLANE_ORDER) * n * n))
    batches = [np.array(run[k : k + step]) for run in runs for k in range(0, len(run), step)]
    return [(run, run % cols * n, run // cols * n) for run in batches]


def _crop(recon, shape) -> Frame:
    """The visible part of a padded picture as a Frame shaped like `shape`."""
    return Frame(shape.width, shape.height, shape.bit_depth,
                 tuple(recon[:, : shape.height, : shape.width]))


def _frame_cbs(config, idx, orig, tree, motion: Optional[MotionField]) -> CbColumns:
    """The frame's channel-block statistics: each block's activity, masking
    terms and QP according to the mode, with one call of each perceptual
    function per channel over all the frame's CUs."""
    g = np.stack([cb_activity(tiles(p, tree.cu_size)).ravel() for p in orig], axis=1)
    means = tuple(frame_mean_activity(col.tolist()) for col in g.T)
    d = np.array(motion.magnitudes) if motion else np.zeros(len(g))
    f = motion.mean_magnitude if motion else 0.0
    a = np.zeros(g.shape)
    z, offset = np.zeros(g.shape, np.int8), np.zeros(g.shape, np.int8)
    qp = np.full(g.shape, config.base_qp, np.int8)
    if config.mode == "anchor-adaptiveqp":
        a[:] = normalized_activity(g[:, :1], means[0])    # G's, for the whole CU
        cu_offset = adaptiveqp_offset(a[:, :1])
        offset[:], qp[:] = cu_offset, np.clip(config.base_qp + cu_offset, QP_MIN, QP_MAX)
    elif config.mode == "spectral-pq":
        for c, ch in enumerate(PLANE_ORDER):
            a[:, c] = normalized_activity(g[:, c], means[c])
            if motion:
                z[:, c] = temporal_offset(d, f, ch)
            pqp = perceptual_qp(config.base_qp, a[:, c], z[:, c], ch)
            offset[:, c], qp[:, c] = pqp.total_offset, pqp.qp
    return CbColumns(idx, means, f, g, a, d, z, offset, qp)


def encode_sequence(frames: list, config: EncoderConfig) -> EncodeResult:
    """Encode a sequence; returns the bitstream, stats, and reconstructions."""
    if not frames:
        raise ConfigurationError("no frames to encode")
    first = frames[0]
    for fr in frames:
        if (fr.width, fr.height, fr.bit_depth) != (first.width, first.height, first.bit_depth):
            raise ConfigurationError("all frames must share dimensions and bit depth")

    bit_depth = first.bit_depth
    header = StreamHeader(first.width, first.height, bit_depth, config.fps, config.cu_size,
                          MODES.index(config.mode), config.base_qp, len(frames))
    spec = make_spec(config.cu_size, "DCT", bit_depth)
    writer = BitWriter()
    header.write(writer)

    recon_frames = []
    prev_recon = None
    tree = partition(first, config.cu_size)
    batches = {intra: _batches(tree, intra) for intra in (False, True)}
    stats = SequenceStats(grid_shape=tree.grid_shape)

    for idx, frame in enumerate(frames):
        orig = pad_plane(np.stack(frame.planes), DEFAULT_CTU_SIZE)
        recon = np.zeros(orig.shape, dtype=PLANE_DTYPE)
        intra = idx % config.gop_length == 0

        motion = None if intra else estimate_motion_field(
            orig[0], prev_recon[0], tree, config.search_range
        )
        cbs = _frame_cbs(config, idx, orig, tree, motion)
        fstat = FrameStats(idx, "I" if intra else "P", cb=cbs, motion=motion)
        frame_start = writer.tell()
        writer.write_uint(0 if intra else 1, 1)

        qps = cbs.qp
        mvs = (np.empty((len(qps), 0), dtype=np.int64) if intra    # an I-frame codes no MVs
               else np.array([(v.vx, v.vy) for v in motion.vectors]))
        prev = None if intra else windows(prev_recon, tree.cu_size)
        ready, written = {}, 0
        for run, x, y in batches[intra]:
            levels = _code_batch(orig, recon, prev, x, y, mvs[run], qps[run], config, spec,
                                 bit_depth)
            ready.update(zip(run.tolist(), levels))
            while written in ready:
                # The writer takes Python ints: write_ue calls int.bit_length.
                for qp in qps[written].tolist():
                    writer.write_uint(qp, QP_FIELD_BITS)
                for v in mvs[written].tolist():
                    writer.write_se(v)
                for ch, block in zip(PLANE_ORDER, ready.pop(written)):
                    nbits = encode_block(block, writer)
                    fstat.bits_channel[ch] = fstat.bits_channel.get(ch, 0) + nbits
                written += 1

        fstat.bits_total = writer.tell() - frame_start
        stats.frames.append(fstat)

        prev_recon = recon
        recon_frames.append(_crop(recon, frame))

    return EncodeResult(writer.getvalue(), stats, recon_frames)


def _read_frame(reader, stream_bits, parser, tree, batches, levels, prev_recon, bit_depth, spec):
    """Parse and reconstruct a frame's CUs after its type bit, with
    motion-compensated prediction from `prev_recon` (None for an intra
    frame).  Each of the raster `batches` is parsed into the first K * 3 rows
    of `levels`, zeroed first, and into (K, 3) QP and (K, 2) MV arrays, then
    flushed from `parser` and reconstructed before the next batch is parsed."""
    n, size = len(PLANE_ORDER), tree.cu_size
    # Each CU takes at least its QP fields and block tokens.  A frame that the
    # rest of the stream cannot hold ends in a DecodeError, so it is parsed
    # without a picture: memory stays in proportion to the input.
    cu_bits = n * (QP_FIELD_BITS + _token_bits(size))
    fits = stream_bits - reader.tell() >= tree.grid_shape[0] * tree.grid_shape[1] * cu_bits
    recon = np.zeros((n, tree.height, tree.width), dtype=PLANE_DTYPE) if fits else None
    inter = prev_recon is not None
    prev = windows(prev_recon, size) if inter else None
    for run, x, y in batches:
        qps = np.empty((len(run), n), dtype=np.int64)
        mvs = np.empty((len(run), 2), dtype=np.int64) if inter else None
        rows = levels[: n * len(run)]
        rows.fill(0)
        for k, (cx, cy) in enumerate(zip(x.tolist(), y.tolist())):
            for c in range(n):
                qp = qps[k, c] = reader.read_uint(QP_FIELD_BITS)
                if qp > QP_MAX:
                    raise DecodeError(f"qp {qp} out of range at bit offset {reader.tell()}")
            if inter:
                vx, vy = reader.read_se(), reader.read_se()
                if not (0 <= cx + vx <= tree.width - size and 0 <= cy + vy <= tree.height - size):
                    raise DecodeError(
                        f"motion vector ({vx}, {vy}) leaves the frame at CU ({cx}, {cy})")
                mvs[k] = vx, vy
            for row in range(n * k, n * k + n):
                parser.read(row)
        parser.flush()
        if fits:
            pred = _predict(None, prev, x, y, mvs, size, None) if inter else None
            _reconstruct(recon, x, y, pred, rows.reshape(-1, n, size, size), qps, bit_depth, spec)
    return recon


def decode_sequence(data: bytes) -> list:
    """Decode an "SPQ1" stream into frames (bit-exact encoder reconstructions).

    The stream must end in the byte that holds the last frame's last bit, and
    the bits after it must be zero.
    """
    reader = BitReader(data)
    header = StreamHeader.read(reader)
    bit_depth, cu_size = header.bit_depth, header.cu_size
    tree = partition(header, cu_size)
    spec = make_spec(cu_size, "DCT", bit_depth)

    batches = _batches(tree, wavefront=False)
    # The level rows of one batch, reused by every batch of every frame.
    levels = np.empty((len(PLANE_ORDER) * batches[0][0].size, cu_size ** 2), dtype=np.int32)
    parser = BlockParser(reader, cu_size, levels)
    frames = []
    prev_recon = None
    try:
        for idx in range(header.frame_count):
            inter = reader.read_uint(1)
            if inter and idx == 0:
                raise DecodeError(f"frame {idx} is inter but no reference exists")
            prev_recon = _read_frame(reader, 8 * len(data), parser, tree, batches, levels,
                                     prev_recon if inter else None, bit_depth, spec)
            frames.append(_crop(prev_recon, header))
    except DecodeError:
        parser.flush()  # a level over the limit earlier in the stream is the first error
        raise
    end = reader.tell()
    padding = 8 * len(data) - end
    if padding >= 8 or reader.read_uint(padding):
        raise DecodeError(f"trailing data after the last frame at bit offset {end}")
    return frames


def stream_header(data: bytes) -> dict:
    """Parse and validate just the container header (for tooling and tests)."""
    return asdict(StreamHeader.read(BitReader(data)))
