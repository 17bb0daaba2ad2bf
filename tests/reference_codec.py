"""A per-channel-block reference codec: the differential oracle for the pipeline.

This is the SPQ1 coding loop as it was written before CUs were coded as
stacks: each picture is three int64 planes in a {channel: plane} dict, and
every channel block of a CU is predicted, transformed, quantized, coded and
reconstructed on its own.  Its block kernels are the plain int64 and
Python-int versions: the transforms multiply int64 matrices, the quantizers
and RDOQ work on signed int64 levels, and encode_block appends each level's
code to one Python int; decode_block parses each level with read_se.  Its
BitWriter is its own: the library's eager big-int writer from before the
library's writer deferred its packing.  It shares with the library the
header codec, the bit reader, the CU grid, the basis matrices and the
quantizer tables, but none of the pipeline's prediction or reconstruction
helpers and none of its transform, quantization or block-coding kernels.  Its pictures are cropped to uint8
(8-bit) or uint16 (10-bit) samples.

The encoder side takes each frame's decisions, the CbStat QPs and the
MotionField, from the library encoder's SequenceStats; the cb and motion
CSV digests lock those decisions.  Everything else is recomputed here, so
tests can compare streams, reconstructions and decodes on random inputs.
"""

from __future__ import annotations

import numpy as np

from spectralpq.entropy import LEVEL_LIMIT, BitReader, zigzag_order
from spectralpq.errors import DecodeError, EncodeError
from spectralpq.frames import DEFAULT_CTU_SIZE, PLANE_ORDER, Frame, partition
from spectralpq.motion import MotionVector
from spectralpq.pipeline import MODES, QP_FIELD_BITS, StreamHeader
from spectralpq.quantizer import M_TABLE, QP_MAX, S_TABLE, rdoq_config
from spectralpq.transform import _inverse_matrix, make_spec


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


def _shift_round(v, shift):
    half = 1 << (shift - 1)
    return np.sign(v) * ((np.abs(v) + half) >> shift)


def forward(block, spec):
    """int64 basis @ block @ basis.T, rounded down by the forward shift."""
    x = block.astype(np.int64)
    return _shift_round(spec.basis @ x @ spec.basis.T, spec.forward_shift)


def inverse(coeffs, spec):
    """int64 inverse basis product at every coefficient magnitude."""
    bi = _inverse_matrix(spec.kind, spec.size)
    return _shift_round(bi @ coeffs.astype(np.int64) @ bi.T, spec.inverse_shift)


def _quant(qp, n):
    """(m, s, f, qbits, period) of one (qp, n) pair, from the library's tables."""
    qbits = 21 + qp // 6 - int(np.log2(n))
    return M_TABLE[qp % 6], S_TABLE[qp % 6], 1 << (qbits - 1), qbits, qp // 6


def urq_quantize(x, qp, n):
    m, _, f, qbits, _ = _quant(qp, n)
    v = np.asarray(x, dtype=np.int64)
    return np.clip(np.sign(v) * ((np.abs(v) * m + f) >> qbits), -LEVEL_LIMIT, LEVEL_LIMIT)


def urq_dequantize(t, qp, n):
    _, s, _, _, period = _quant(qp, n)
    v = np.asarray(t, dtype=np.int64)
    return np.sign(v) * ((np.abs(v) * s << period) >> (int(np.log2(n)) - 1))


def _signed_map(levels):
    return np.where(levels > 0, 2 * levels - 1, -2 * levels)


def _level_bits(levels):
    return 2 * np.frexp(_signed_map(levels) + 1)[1].astype(np.int64) - 1


def rdoq_quantize(coeffs, qp, n, cfg):
    """First minimum of err^2 + lambda * bits over the candidates (0, l1, l1 + 1)."""
    m, _, _, qbits, _ = _quant(qp, n)
    x = np.asarray(coeffs, dtype=np.int64)
    ax = np.abs(x)
    l1 = np.minimum((ax * m) >> qbits, LEVEL_LIMIT - 1)
    candidates = np.stack((np.zeros_like(l1), l1, l1 + 1))
    err = (ax - urq_dequantize(candidates, qp, n)).astype(np.float64)
    costs = err * err + cfg.lam * _level_bits(candidates)
    return np.sign(x) * np.choose(costs.argmin(axis=0), candidates)


def encode_block(levels, writer):
    """The token, then each level's exp-Golomb code appended to one Python int."""
    n = levels.shape[0]
    scan = [int(levels[i, j]) for i, j in zigzag_order(n)]
    last = max((k for k, v in enumerate(scan) if v), default=-1)
    start = writer.tell()
    writer.write_uint(last + 1, (n * n).bit_length())
    acc = nbits = 0
    for v in scan[: last + 1]:
        code = (2 * v - 1 if v > 0 else -2 * v) + 1
        width = code.bit_length()
        acc = (acc << (2 * width - 1)) | code
        nbits += 2 * width - 1
    if nbits:
        writer.write_uint(acc, nbits)
    return writer.tell() - start


def decode_block(reader, n):
    """The token, then one read_se per level up to the last significant one."""
    token = reader.read_uint((n * n).bit_length())
    if token > n * n:
        raise DecodeError(
            f"last-significant token {token} exceeds {n * n} at bit offset {reader.tell()}"
        )
    levels = np.zeros((n, n), dtype=np.int64)
    for i, j in zigzag_order(n)[:token]:
        level = reader.read_se()
        if abs(level) > LEVEL_LIMIT:
            raise DecodeError(
                f"level magnitude {abs(level)} exceeds limit at bit offset {reader.tell()}"
            )
        levels[i, j] = level
    return levels


def _pad(plane):
    h, w = plane.shape
    return np.pad(plane, ((0, (-h) % DEFAULT_CTU_SIZE), (0, (-w) % DEFAULT_CTU_SIZE)),
                  mode="edge")


def intra_predict_dc(recon, x, y, size, bit_depth):
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


def _predict(recon_plane, prev_plane, cu, mv, bit_depth):
    if mv is None:
        return intra_predict_dc(recon_plane, cu.x, cu.y, cu.size, bit_depth)
    x, y = cu.x + mv.vx, cu.y + mv.vy
    return prev_plane[y : y + cu.size, x : x + cu.size]


def _reconstruct_cb(recon_plane, cu, pred, levels, qp, bit_depth, spec):
    residual = inverse(urq_dequantize(levels, qp, cu.size), spec)
    _block(recon_plane, cu)[...] = np.clip(pred + residual, 0, (1 << bit_depth) - 1)


def _crop(recon, shape):
    dtype = np.uint8 if shape.bit_depth == 8 else np.uint16
    planes = tuple(recon[ch][: shape.height, : shape.width].astype(dtype) for ch in PLANE_ORDER)
    return Frame(shape.width, shape.height, shape.bit_depth, planes)


def reference_encode(frames, config, stats):
    """The stream and cropped reconstructions of `frames`, coded with the QPs
    and motion vectors recorded in the library encoder's `stats`."""
    first = frames[0]
    bit_depth = first.bit_depth
    header = StreamHeader(first.width, first.height, bit_depth, config.fps, config.cu_size,
                          MODES.index(config.mode), config.base_qp, len(frames))
    spec = make_spec(config.cu_size, "DCT", bit_depth)
    writer = BitWriter()
    header.write(writer)

    recon_frames = []
    prev_recon = dict.fromkeys(PLANE_ORDER)
    tree = partition(first, config.cu_size)
    n = len(PLANE_ORDER)
    for idx, (frame, fstat) in enumerate(zip(frames, stats.frames)):
        orig = {ch: _pad(frame.plane(ch)).astype(np.int64) for ch in PLANE_ORDER}
        recon = {ch: np.zeros_like(orig[ch]) for ch in PLANE_ORDER}
        intra = idx % config.gop_length == 0
        motion = None if intra else fstat.motion
        vectors = motion.vectors if motion else None
        writer.write_uint(0 if intra else 1, 1)

        for cu_index, cu in enumerate(tree):
            cu_cbs = fstat.cb[n * cu_index : n * (cu_index + 1)]
            for cb in cu_cbs:
                writer.write_uint(cb.qp, QP_FIELD_BITS)
            mv = vectors[cu_index] if motion else None
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
                encode_block(levels, writer)
                _reconstruct_cb(recon[ch], cu, pred, levels, qp, bit_depth, spec)

        prev_recon = recon
        recon_frames.append(_crop(recon, frame))
    return writer.getvalue(), recon_frames


def reference_decode(data: bytes) -> list:
    """Decode an SPQ1 stream one channel block at a time."""
    reader = BitReader(data)
    header = StreamHeader.read(reader)
    bit_depth, cu_size = header.bit_depth, header.cu_size
    tree = partition(header, cu_size)
    spec = make_spec(cu_size, "DCT", bit_depth)

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
        frames.append(_crop(recon, header))
    end = reader.tell()
    if 8 * len(data) - end >= 8 or any(reader.read_uint(1) for _ in range(8 * len(data) - end)):
        raise DecodeError(f"trailing data after the last frame at bit offset {end}")
    return frames
