"""Closed-loop encoder and decoder with the "SPQ1" container.

GOP structure is IPPP: frame 0 and every gop-th frame is intra (DC
prediction per channel block), the rest are inter predicted from the
previous reconstruction with one full-pel motion vector per CU.  Every CU
carries three explicit channel QPs in the stream, so the decoder never
recomputes perceptual statistics.  The decoder's output is bit-exact equal
to the encoder's own reconstruction; that identity is the codec's master
invariant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .entropy import BitReader, BitWriter, decode_block, encode_block
from .errors import ConfigurationError, DecodeError
from .frames import CU_SIZES, DEFAULT_CTU_SIZE, PLANE_ORDER, Frame, pad_plane, partition
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

# Header fields after the magic, in stream order, with their widths in bits.
HEADER_FIELDS = {"width": 16, "height": 16, "bit_depth": 8, "fps": 16,
                 "cu_size": 8, "mode": 8, "base_qp": 8, "frame_count": 16}
# Checks the decoder makes on a field as soon as it has read it.
_HEADER_CHECKS = {
    "bit_depth": (lambda v: v in (8, 10), "unsupported bit depth {}"),
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
        for name in ("base_qp", "gop_length", "cu_size", "search_range", "fps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers become ints
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
    """Constant block from reconstructed top-row/left-column neighbors."""
    refs = []
    if y > 0:
        refs.append(recon[y - 1, x : x + size])
    if x > 0:
        refs.append(recon[y : y + size, x - 1])
    if not refs:
        value = 1 << (bit_depth - 1)
    else:
        samples = np.concatenate(refs).astype(np.int64)
        value = int((samples.sum() + samples.size // 2) // samples.size)
    return np.full((size, size), value, dtype=np.int64)


def _block(plane, cu):
    return plane[cu.y : cu.y + cu.size, cu.x : cu.x + cu.size]


def _predict(recon_plane, prev_plane, cu, mv: Optional[MotionVector], bit_depth):
    """DC prediction when mv is None, else motion compensation from prev_plane."""
    if mv is None:
        return intra_predict_dc(recon_plane, cu.x, cu.y, cu.size, bit_depth)
    x, y = cu.x + mv.vx, cu.y + mv.vy
    return prev_plane[y : y + cu.size, x : x + cu.size]


def _reconstruct_cb(recon_plane, cu, pred, levels, qp, bit_depth, spec):
    """Decode the levels onto the prediction and store the block at the CU."""
    residual = inverse(urq_dequantize(levels, qp, cu.size), spec)
    _block(recon_plane, cu)[...] = np.clip(pred + residual, 0, (1 << bit_depth) - 1)


def _crop(recon, shape, dtype) -> Frame:
    """The visible part of padded planes as a Frame shaped like `shape`."""
    planes = tuple(recon[ch][: shape.height, : shape.width].astype(dtype) for ch in PLANE_ORDER)
    return Frame(shape.width, shape.height, shape.bit_depth, planes)


def _frame_cbs(config, idx, orig, tree, motion: Optional[MotionField]) -> list:
    """The frame's CbStat rows, CU-major then G, B, R: each channel block's
    activity, masking terms and QP according to the mode."""
    gs = {ch: [cb_activity(_block(orig[ch], cu)) for cu in tree] for ch in PLANE_ORDER}
    means = {ch: frame_mean_activity(gs[ch]) for ch in PLANE_ORDER}
    f = motion.mean_magnitude if motion else 0.0
    cbs = []
    for i in range(len(gs["G"])):
        d = motion.magnitudes[i] if motion else 0.0
        if config.mode == "anchor-flat":
            for ch in PLANE_ORDER:
                cbs.append(CbStat(idx, i, ch, gs[ch][i], means[ch], 0.0, d, f, 0, 0,
                                  config.base_qp))
        elif config.mode == "anchor-adaptiveqp":
            a_g = normalized_activity(gs["G"][i], means["G"])
            delta = adaptiveqp_offset(a_g)
            qp = min(max(config.base_qp + delta, QP_MIN), QP_MAX)
            for ch in PLANE_ORDER:
                cbs.append(CbStat(idx, i, ch, gs[ch][i], means[ch], a_g, d, f, 0, delta, qp))
        else:
            for ch in PLANE_ORDER:
                a = normalized_activity(gs[ch][i], means[ch])
                z = temporal_offset(d, f, ch) if motion else 0
                pqp = perceptual_qp(config.base_qp, a, z, ch)
                cbs.append(CbStat(idx, i, ch, gs[ch][i], means[ch], a, d, f, z,
                                  pqp.total_offset, pqp.qp))
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
    prev_recon = dict.fromkeys(PLANE_ORDER)
    tree = partition(first, config.cu_size)
    stats = SequenceStats(grid_shape=tree.grid_shape)

    for idx, frame in enumerate(frames):
        orig = {ch: pad_plane(frame.plane(ch), DEFAULT_CTU_SIZE).astype(np.int64)
                for ch in PLANE_ORDER}
        recon = {ch: np.zeros_like(orig[ch]) for ch in PLANE_ORDER}
        intra = idx % config.gop_length == 0

        motion = None if intra else estimate_motion_field(
            orig["G"], prev_recon["G"], tree, config.search_range
        )
        cbs = _frame_cbs(config, idx, orig, tree, motion)
        fstat = FrameStats(idx, "I" if intra else "P", cb=cbs, motion=motion)
        frame_start = writer.tell()
        writer.write_uint(0 if intra else 1, 1)

        n = len(PLANE_ORDER)
        for cu_index, cu in enumerate(tree):
            cu_cbs = cbs[n * cu_index : n * (cu_index + 1)]
            for cb in cu_cbs:
                writer.write_uint(cb.qp, QP_FIELD_BITS)
            mv = motion.vectors[cu_index] if motion else None
            if motion:
                writer.write_se(mv.vx)
                writer.write_se(mv.vy)

            for cb in cu_cbs:
                ch, qp = cb.channel, cb.qp
                pred = _predict(recon[ch], prev_recon[ch], cu, mv, bit_depth)
                coeffs = forward(_block(orig[ch], cu) - pred, spec)
                if config.rdoq:
                    cfg = rdoq_config(qp, config.cu_size, bit_depth)
                    levels = rdoq_quantize(coeffs, qp, config.cu_size, cfg)
                else:
                    levels = urq_quantize(coeffs, qp, config.cu_size)
                nbits = encode_block(levels, writer)
                _reconstruct_cb(recon[ch], cu, pred, levels, qp, bit_depth, spec)
                fstat.bits_channel[ch] = fstat.bits_channel.get(ch, 0) + nbits

        fstat.bits_total = writer.tell() - frame_start
        stats.frames.append(fstat)

        prev_recon = recon
        recon_frames.append(_crop(recon, frame, frame.planes[0].dtype))

    return EncodeResult(writer.getvalue(), stats, recon_frames)


def decode_sequence(data: bytes) -> list:
    """Decode an "SPQ1" stream into frames (bit-exact encoder reconstructions)."""
    reader = BitReader(data)
    header = StreamHeader.read(reader)
    bit_depth, cu_size = header.bit_depth, header.cu_size
    tree = partition(header, cu_size)
    spec = make_spec(cu_size, "DCT", bit_depth)
    dtype = np.uint8 if bit_depth == 8 else np.uint16

    frames = []
    prev_recon = dict.fromkeys(PLANE_ORDER)
    for idx in range(header.frame_count):
        inter = reader.read_uint(1)
        if inter and idx == 0:
            raise DecodeError(f"frame {idx} is inter but no reference exists")
        recon = {ch: np.zeros((tree.height, tree.width), dtype=np.int64) for ch in PLANE_ORDER}
        for cu in tree:
            qps = []
            for _ in PLANE_ORDER:
                qp = reader.read_uint(QP_FIELD_BITS)
                if qp > QP_MAX:
                    raise DecodeError(f"qp {qp} out of range at bit offset {reader.tell()}")
                qps.append(qp)
            mv = MotionVector(reader.read_se(), reader.read_se()) if inter else None
            if inter and not (0 <= cu.x + mv.vx <= tree.width - cu_size
                              and 0 <= cu.y + mv.vy <= tree.height - cu_size):
                raise DecodeError(
                    f"motion vector ({mv.vx}, {mv.vy}) leaves the frame at CU ({cu.x}, {cu.y})"
                )
            for ch, qp in zip(PLANE_ORDER, qps):
                pred = _predict(recon[ch], prev_recon[ch], cu, mv, bit_depth)
                levels = decode_block(reader, cu_size)
                _reconstruct_cb(recon[ch], cu, pred, levels, qp, bit_depth, spec)
        prev_recon = recon
        frames.append(_crop(recon, header, dtype))
    return frames


def stream_header(data: bytes) -> dict:
    """Parse and validate just the container header (for tooling and tests)."""
    return asdict(StreamHeader.read(BitReader(data)))
