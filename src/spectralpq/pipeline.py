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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .entropy import BitReader, BitWriter, decode_block, encode_block
from .errors import ConfigurationError, DecodeError
from .frames import DEFAULT_CTU_SIZE, PLANE_ORDER, Frame, pad_plane, partition
from .motion import MotionField, estimate_motion_field
from .perceptual import (
    DEFAULT_CONSTANTS,
    PerceptualConstants,
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
CU_SIZES = (8, 16, 32)
QP_FIELD_BITS = 6
MAX_FRAME_SAMPLES = 1 << 26    # decoder sanity cap on width * height


@dataclass(frozen=True)
class EncoderConfig:
    base_qp: int
    mode: str = "spectral-pq"
    rdoq: bool = True
    gop_length: int = 8
    cu_size: int = 32
    search_range: int = 16
    fps: int = 30
    constants: PerceptualConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
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
class MotionStat:
    frame: int
    cu: int
    vx: int
    vy: int
    magnitude: float


@dataclass
class FrameStats:
    index: int
    frame_type: str                       # "I" or "P"
    bits_channel: dict = field(default_factory=dict)
    bits_overhead: int = 0
    bits_total: int = 0
    mean_mv_magnitude: Optional[float] = None
    cb: list = field(default_factory=list)
    motion: list = field(default_factory=list)


@dataclass
class SequenceStats:
    frames: list = field(default_factory=list)
    grid_shape: Optional[tuple] = None    # (rows, cols) of the CU grid

    @property
    def total_bits(self) -> int:
        return sum(f.bits_total for f in self.frames)

    def channel_bits(self, channel: str) -> int:
        return sum(f.bits_channel.get(channel, 0) for f in self.frames)


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


def _reconstruct_cb(pred, levels, qp, size, bit_depth, spec):
    coeffs = urq_dequantize(levels, qp, size)
    residual = inverse(coeffs, spec)
    return np.clip(pred + residual, 0, (1 << bit_depth) - 1)


def _cu_qps(config, cu_index, activities, means, motion: Optional[MotionField]):
    """Per-channel (qp, stat fields) for one CU, according to the mode."""
    out = {}
    d = motion.magnitudes[cu_index] if motion else 0.0
    f = motion.mean_magnitude if motion else 0.0
    if config.mode == "anchor-flat":
        for ch in PLANE_ORDER:
            out[ch] = (config.base_qp, 0.0, 0, 0)
        return out, d, f
    if config.mode == "anchor-adaptiveqp":
        a_g = normalized_activity(
            activities["G"][cu_index], means["G"], config.constants.activity_scale
        )
        delta = adaptiveqp_offset(a_g)
        qp = min(max(config.base_qp + delta, QP_MIN), QP_MAX)
        for ch in PLANE_ORDER:
            out[ch] = (qp, a_g, 0, delta)
        return out, d, f
    for ch in PLANE_ORDER:
        a = normalized_activity(
            activities[ch][cu_index], means[ch], config.constants.activity_scale
        )
        z = temporal_offset(d, f, ch, config.constants) if motion else 0
        pqp = perceptual_qp(config.base_qp, a, z, ch, config.constants)
        out[ch] = (pqp.qp, a, z, pqp.total_offset)
    return out, d, f


def encode_sequence(frames: list, config: EncoderConfig) -> EncodeResult:
    """Encode a sequence; returns the bitstream, stats, and reconstructions."""
    if not frames:
        raise ConfigurationError("no frames to encode")
    first = frames[0]
    for fr in frames:
        if (fr.width, fr.height, fr.bit_depth) != (first.width, first.height, first.bit_depth):
            raise ConfigurationError("all frames must share dimensions and bit depth")

    bit_depth = first.bit_depth
    spec = make_spec(config.cu_size, "DCT", bit_depth)
    writer = BitWriter()
    writer.write_uint(int.from_bytes(MAGIC, "big"), 32)
    writer.write_uint(first.width, 16)
    writer.write_uint(first.height, 16)
    writer.write_uint(bit_depth, 8)
    writer.write_uint(config.fps, 16)
    writer.write_uint(config.cu_size, 8)
    writer.write_uint(MODES.index(config.mode), 8)
    writer.write_uint(config.base_qp, 8)
    writer.write_uint(len(frames), 16)

    recon_frames = []
    prev_recon = None
    tree = partition(first, DEFAULT_CTU_SIZE, config.cu_size)
    stats = SequenceStats(grid_shape=tree.grid_shape)

    for idx, frame in enumerate(frames):
        orig = {ch: pad_plane(frame.plane(ch), DEFAULT_CTU_SIZE).astype(np.int64)
                for ch in PLANE_ORDER}
        recon = {ch: np.zeros_like(orig[ch]) for ch in PLANE_ORDER}
        intra = idx % config.gop_length == 0 or prev_recon is None

        activities = {
            ch: [
                cb_activity(orig[ch][cu.y : cu.y + cu.size, cu.x : cu.x + cu.size])
                for cu in tree
            ]
            for ch in PLANE_ORDER
        }
        means = {ch: frame_mean_activity(activities[ch]) for ch in PLANE_ORDER}

        motion = None
        if not intra:
            motion = estimate_motion_field(
                orig["G"], prev_recon["G"], tree, config.search_range, idx
            )

        fstat = FrameStats(idx, "I" if intra else "P")
        fstat.mean_mv_magnitude = motion.mean_magnitude if motion else None
        frame_start = writer.tell()
        writer.write_uint(0 if intra else 1, 1)

        for cu_index, cu in enumerate(tree):
            qps, d, f = _cu_qps(config, cu_index, activities, means, motion)
            for ch in PLANE_ORDER:
                writer.write_uint(qps[ch][0], QP_FIELD_BITS)
            if motion:
                mv = motion.vectors[cu_index]
                writer.write_se(mv.vx)
                writer.write_se(mv.vy)
                cu.mv = (mv.vx, mv.vy)
                fstat.motion.append(MotionStat(idx, cu_index, mv.vx, mv.vy, d))

            for ch in PLANE_ORDER:
                qp, a, z, off = qps[ch]
                src = orig[ch][cu.y : cu.y + cu.size, cu.x : cu.x + cu.size]
                if intra:
                    pred = intra_predict_dc(recon[ch], cu.x, cu.y, cu.size, bit_depth)
                else:
                    mv = motion.vectors[cu_index]
                    pred = prev_recon[ch][
                        cu.y + mv.vy : cu.y + mv.vy + cu.size,
                        cu.x + mv.vx : cu.x + mv.vx + cu.size,
                    ].astype(np.int64)
                coeffs = forward(src - pred, spec)
                if config.rdoq:
                    levels = rdoq_quantize(
                        coeffs, qp, config.cu_size, rdoq_config(qp, config.cu_size, bit_depth)
                    )
                else:
                    levels = urq_quantize(coeffs, qp, config.cu_size)
                nbits = encode_block(levels, writer)
                recon[ch][cu.y : cu.y + cu.size, cu.x : cu.x + cu.size] = _reconstruct_cb(
                    pred, levels, qp, config.cu_size, bit_depth, spec
                )
                cu.activity[ch] = activities[ch][cu_index]
                fstat.bits_channel[ch] = fstat.bits_channel.get(ch, 0) + nbits
                fstat.cb.append(
                    CbStat(idx, cu_index, ch, activities[ch][cu_index], means[ch],
                           a, d, f, z, off, qp)
                )

        fstat.bits_total = writer.tell() - frame_start
        fstat.bits_overhead = fstat.bits_total - sum(fstat.bits_channel.values())
        stats.frames.append(fstat)

        dtype = frame.planes[0].dtype
        prev_recon = {ch: recon[ch] for ch in PLANE_ORDER}
        recon_frames.append(
            Frame(
                frame.width,
                frame.height,
                bit_depth,
                tuple(
                    recon[ch][: frame.height, : frame.width].astype(dtype)
                    for ch in PLANE_ORDER
                ),
            )
        )

    return EncodeResult(writer.getvalue(), stats, recon_frames)


def _read_header(reader: BitReader) -> dict:
    """Parse and validate the container header; keys as in stream_header."""
    if reader.read_uint(32) != int.from_bytes(MAGIC, "big"):
        raise DecodeError("bad magic: not an SPQ1 stream")
    width = reader.read_uint(16)
    height = reader.read_uint(16)
    bit_depth = reader.read_uint(8)
    if bit_depth not in (8, 10):
        raise DecodeError(f"unsupported bit depth {bit_depth}")
    fps = reader.read_uint(16)
    cu_size = reader.read_uint(8)
    if cu_size not in CU_SIZES:
        raise DecodeError(f"invalid cu_size {cu_size}")
    mode_id = reader.read_uint(8)
    if mode_id >= len(MODES):
        raise DecodeError(f"unknown mode id {mode_id}")
    base_qp = reader.read_uint(8)
    if base_qp > QP_MAX:
        raise DecodeError(f"base_qp {base_qp} out of range")
    frame_count = reader.read_uint(16)
    if width == 0 or height == 0:
        raise DecodeError("zero frame dimensions")
    if width * height > MAX_FRAME_SAMPLES:
        raise DecodeError(f"frame size {width}x{height} exceeds the decoder limit")
    return {
        "width": width,
        "height": height,
        "bit_depth": bit_depth,
        "fps": fps,
        "cu_size": cu_size,
        "mode": mode_id,
        "base_qp": base_qp,
        "frame_count": frame_count,
    }


def decode_sequence(data: bytes) -> list:
    """Decode an "SPQ1" stream into frames (bit-exact encoder reconstructions)."""
    reader = BitReader(data)
    header = _read_header(reader)
    width, height = header["width"], header["height"]
    bit_depth, cu_size = header["bit_depth"], header["cu_size"]

    pw = width + (-width) % DEFAULT_CTU_SIZE
    ph = height + (-height) % DEFAULT_CTU_SIZE
    positions = [(x, y) for y in range(0, ph, cu_size) for x in range(0, pw, cu_size)]
    spec = make_spec(cu_size, "DCT", bit_depth)
    dtype = np.uint8 if bit_depth == 8 else np.uint16

    frames = []
    prev_recon = None
    for idx in range(header["frame_count"]):
        inter = reader.read_uint(1)
        if inter and prev_recon is None:
            raise DecodeError(f"frame {idx} is inter but no reference exists")
        recon = {ch: np.zeros((ph, pw), dtype=np.int64) for ch in PLANE_ORDER}
        for x, y in positions:
            qps = {}
            for ch in PLANE_ORDER:
                qp = reader.read_uint(QP_FIELD_BITS)
                if qp > QP_MAX:
                    raise DecodeError(f"qp {qp} out of range at bit offset {reader.tell()}")
                qps[ch] = qp
            if inter:
                vx = reader.read_se()
                vy = reader.read_se()
                if not (0 <= x + vx <= pw - cu_size and 0 <= y + vy <= ph - cu_size):
                    raise DecodeError(
                        f"motion vector ({vx}, {vy}) leaves the frame at CU ({x}, {y})"
                    )
            for ch in PLANE_ORDER:
                if inter:
                    pred = prev_recon[ch][y + vy : y + vy + cu_size, x + vx : x + vx + cu_size]
                else:
                    pred = intra_predict_dc(recon[ch], x, y, cu_size, bit_depth)
                levels = decode_block(reader, cu_size)
                recon[ch][y : y + cu_size, x : x + cu_size] = _reconstruct_cb(
                    pred, levels, qps[ch], cu_size, bit_depth, spec
                )
        prev_recon = recon
        frames.append(
            Frame(
                width,
                height,
                bit_depth,
                tuple(recon[ch][:height, :width].astype(dtype) for ch in PLANE_ORDER),
            )
        )
    return frames


def stream_header(data: bytes) -> dict:
    """Parse and validate just the container header (for tooling and tests)."""
    return _read_header(BitReader(data))
