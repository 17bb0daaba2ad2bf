"""Closed-loop encoder and decoder with the "SPQ1" container.

GOP structure is IPPP: frame 0 and every gop-th frame is intra (DC
prediction per channel block), the rest are inter predicted from the
previous reconstruction with one full-pel motion vector per CU.  Every CU
carries three explicit channel QPs in the stream, so the decoder never
recomputes perceptual statistics.  Both sides code a frame's CUs in batches
of at most RECONSTRUCT_LEVELS levels, each with one transform call, one
quantizer call per QP and one shared _reconstruct.  The encoder batches an
intra frame by anti-diagonals (a wavefront) and writes each CU as soon as
the CUs before it in raster order are coded.  The decoder's output is
bit-exact equal to the encoder's own reconstruction; that identity is the
codec's master invariant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .entropy import BitReader, BitWriter, BlockParser, decode_block, encode_block
from .errors import ConfigurationError, DecodeError
from .frames import (
    BIT_DEPTHS, CU_SIZES, DEFAULT_CTU_SIZE, PLANE_ORDER, Frame, _store_integers, pad_plane,
    partition, tiles,
)
from .motion import MotionField, MotionVector, estimate_motion_field
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
PLANE_DTYPE = np.int32         # padded pictures; residual and transform arithmetic is int64
RECONSTRUCT_LEVELS = 1 << 18   # most levels coded or reconstructed per batch of a frame's CUs

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


@dataclass
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


@dataclass
class FrameStats:
    index: int
    frame_type: str                       # "I" or "P"
    bits_channel: dict = field(default_factory=dict)
    bits_total: int = 0
    cb: list = field(default_factory=list)
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


def _block(planes, cu):
    return planes[..., cu.y : cu.y + cu.size, cu.x : cu.x + cu.size]


def _predict(recon, prev, cu, mv: Optional[MotionVector], bit_depth):
    """DC prediction when mv is None, else motion compensation from `prev`;
    `recon` and `prev` are planes or stacks of planes."""
    if mv is None:
        return intra_predict_dc(recon, cu.x, cu.y, cu.size, bit_depth)
    x, y = cu.x + mv.vx, cu.y + mv.vy
    return prev[..., y : y + cu.size, x : x + cu.size]


def _reconstruct(recon, cus, pred, levels, qps, bit_depth, spec):
    """Reconstruct a batch of CUs onto `recon`, for the encoder and the
    decoder alike: their (K, 3, n, n) levels are dequantized with one call
    per distinct QP of the (K, 3) `qps` and inverse transformed in one call,
    then each CU's prediction is added and the clipped result stored at the
    CU.  `pred` is the batch's prediction stack, or None to DC-predict the
    CUs in order, each from the ones stored before it."""
    coeffs = np.empty(levels.shape, dtype=np.int64)
    for qp in set(qps.ravel().tolist()):
        sel = qps == qp
        coeffs[sel] = urq_dequantize(levels[sel], qp, spec.size)
    residual = inverse(coeffs, spec)
    top = (1 << bit_depth) - 1
    if pred is not None:
        residual = np.clip(pred + residual, 0, top)
    for cu, block in zip(cus, residual):
        if pred is None:
            block = np.clip(intra_predict_dc(recon, cu.x, cu.y, cu.size, bit_depth) + block,
                            0, top)
        _block(recon, cu)[...] = block


def _code_batch(orig, recon, prev, cus, mvs, qps, config, spec, bit_depth) -> np.ndarray:
    """The (K, 3, n, n) int32 levels of CUs that predict independently, from one
    prediction stack, forward transform, quantizer call per QP and _reconstruct."""
    n = config.cu_size
    pred = np.stack([_predict(recon, prev, cu, mv, bit_depth) for cu, mv in zip(cus, mvs)])
    coeffs = forward(np.stack([_block(orig, cu) for cu in cus]) - pred, spec)
    levels = np.empty(coeffs.shape, dtype=np.int32)
    for qp in set(qps.ravel().tolist()):
        sel = qps == qp
        if config.rdoq:
            levels[sel] = rdoq_quantize(coeffs[sel], qp, n, rdoq_config(qp, n, bit_depth))
        else:
            levels[sel] = urq_quantize(coeffs[sel], qp, n)
    _reconstruct(recon, cus, pred, levels, qps, bit_depth, spec)
    return levels


def _batches(tree, wavefront: bool):
    """A frame's CU indices in batches of at most RECONSTRUCT_LEVELS levels (one CU
    at least): raster runs, or with `wavefront` the grid's anti-diagonals, whose
    CUs DC-predict only from earlier diagonals (the CUs above and to the left)."""
    rows, cols = tree.grid_shape
    runs = [[r * cols + d - r for r in range(max(0, d - cols + 1), min(d, rows - 1) + 1)]
            for d in range(rows + cols - 1)] if wavefront else [range(rows * cols)]
    step = max(1, RECONSTRUCT_LEVELS // (len(PLANE_ORDER) * tree.cu_size ** 2))
    return [run[k : k + step] for run in runs for k in range(0, len(run), step)]


def _crop(recon, shape) -> Frame:
    """The visible part of a padded picture as a Frame shaped like `shape`."""
    return Frame(shape.width, shape.height, shape.bit_depth,
                 tuple(recon[:, : shape.height, : shape.width]))


def _frame_cbs(config, idx, orig, tree, motion: Optional[MotionField]) -> list:
    """The frame's CbStat rows, CU-major then G, B, R: each channel block's
    activity, masking terms and QP according to the mode."""
    gs = {ch: cb_activity(tiles(p, tree.cu_size)).ravel().tolist()
          for ch, p in zip(PLANE_ORDER, orig)}
    means = {ch: frame_mean_activity(gs[ch]) for ch in PLANE_ORDER}
    f = motion.mean_magnitude if motion else 0.0
    cbs = []
    for i in range(len(gs["G"])):
        d = motion.magnitudes[i] if motion else 0.0
        a, z, offset, qp = 0.0, 0, 0, config.base_qp
        if config.mode == "anchor-adaptiveqp":
            a = normalized_activity(gs["G"][i], means["G"])
            offset = adaptiveqp_offset(a)
            qp = min(max(config.base_qp + offset, QP_MIN), QP_MAX)
        for ch in PLANE_ORDER:
            if config.mode == "spectral-pq":
                a = normalized_activity(gs[ch][i], means[ch])
                z = temporal_offset(d, f, ch) if motion else 0
                pqp = perceptual_qp(config.base_qp, a, z, ch)
                offset, qp = pqp.total_offset, pqp.qp
            cbs.append(CbStat(idx, i, ch, gs[ch][i], means[ch], a, d, f, z, offset, qp))
    return cbs


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
    cus = list(tree)
    stats = SequenceStats(grid_shape=tree.grid_shape)

    for idx, frame in enumerate(frames):
        orig = pad_plane(np.stack(frame.planes), DEFAULT_CTU_SIZE).astype(PLANE_DTYPE)
        recon = np.zeros_like(orig)
        intra = idx % config.gop_length == 0

        motion = None if intra else estimate_motion_field(
            orig[0], prev_recon[0], tree, config.search_range
        )
        cbs = _frame_cbs(config, idx, orig, tree, motion)
        fstat = FrameStats(idx, "I" if intra else "P", cb=cbs, motion=motion)
        frame_start = writer.tell()
        writer.write_uint(0 if intra else 1, 1)

        n = len(PLANE_ORDER)
        mvs = motion.vectors if motion else [None] * len(cus)
        qps = np.array([cb.qp for cb in cbs]).reshape(-1, n)
        ready, written = {}, 0
        for run in _batches(tree, intra):
            ready.update(zip(run, _code_batch(orig, recon, prev_recon, [cus[i] for i in run],
                                              [mvs[i] for i in run], qps[run], config, spec,
                                              bit_depth)))
            while written in ready:
                for cb in cbs[n * written : n * (written + 1)]:
                    writer.write_uint(cb.qp, QP_FIELD_BITS)
                if motion:
                    writer.write_se(mvs[written].vx)
                    writer.write_se(mvs[written].vy)
                for cb, block in zip(cbs[n * written : n * (written + 1)], ready.pop(written)):
                    nbits = encode_block(block, writer)
                    fstat.bits_channel[cb.channel] = fstat.bits_channel.get(cb.channel, 0) + nbits
                written += 1

        fstat.bits_total = writer.tell() - frame_start
        stats.frames.append(fstat)

        prev_recon = recon
        recon_frames.append(_crop(recon, frame))

    return EncodeResult(writer.getvalue(), stats, recon_frames)


def _read_frame(reader, stream_bits, parser, tree, prev_recon):
    """Parse a frame's CUs after its type bit: the CUs, their motion-compensated
    predictions from `prev_recon` (None for an intra frame), their
    (K, 3, n, n) levels and (K, 3) QPs.  Levels wait in `parser` until its
    flush(), which follows the frame's last CU."""
    n, size = len(PLANE_ORDER), tree.cu_size
    # Each CU takes at least its QP fields, so the level stack needs no more
    # CUs than the rest of the stream can hold.
    cus_left = 1 + (stream_bits - reader.tell()) // (n * QP_FIELD_BITS)
    rows, cols = tree.grid_shape
    levels = np.zeros((min(rows * cols, cus_left) * n, size * size), dtype=np.int32)
    cus, qps = [], []
    pred = None if prev_recon is None else []
    for cu in tree:
        cu_qps = []
        for _ in PLANE_ORDER:
            qp = reader.read_uint(QP_FIELD_BITS)
            if qp > QP_MAX:
                raise DecodeError(f"qp {qp} out of range at bit offset {reader.tell()}")
            cu_qps.append(qp)
        if pred is not None:
            mv = MotionVector(reader.read_se(), reader.read_se())
            if not (0 <= cu.x + mv.vx <= tree.width - size
                    and 0 <= cu.y + mv.vy <= tree.height - size):
                raise DecodeError(
                    f"motion vector ({mv.vx}, {mv.vy}) leaves the frame at CU ({cu.x}, {cu.y})"
                )
            pred.append(_predict(None, prev_recon, cu, mv, None))
        for row in range(n * len(cus), n * len(cus) + n):
            if not parser.read(levels, row):
                levels[row] = decode_block(reader, size).ravel()
        cus.append(cu)
        qps.append(cu_qps)
    parser.flush()
    return cus, pred, levels.reshape(-1, n, size, size), np.array(qps)


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

    parser = BlockParser(reader, cu_size)
    frames = []
    prev_recon = None
    try:
        for idx in range(header.frame_count):
            inter = reader.read_uint(1)
            if inter and idx == 0:
                raise DecodeError(f"frame {idx} is inter but no reference exists")
            cus, pred, levels, qps = _read_frame(reader, 8 * len(data), parser, tree,
                                                 prev_recon if inter else None)
            recon = np.zeros((len(PLANE_ORDER), tree.height, tree.width), dtype=PLANE_DTYPE)
            for run in _batches(tree, wavefront=False):
                part = slice(run.start, run.stop)
                _reconstruct(recon, cus[part], None if pred is None else np.stack(pred[part]),
                             levels[part], qps[part], bit_depth, spec)
            prev_recon = recon
            frames.append(_crop(recon, header))
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
