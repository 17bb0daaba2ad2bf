"""A per-channel-block reference codec: the differential oracle for the pipeline.

This is the SPQ1 coding loop as it was written before CUs were coded as
stacks: each picture is three int64 planes in a {channel: plane} dict, and
every channel block of a CU is predicted, transformed, quantized, coded and
reconstructed on its own.  It shares the header codec, the CU grid and the
per-block primitives (transform, quantizer, entropy coder) with the library,
but none of the pipeline's prediction or reconstruction helpers.

The encoder side takes each frame's decisions, the CbStat QPs and the
MotionField, from the library encoder's SequenceStats; the cb and motion
CSV digests lock those decisions.  Everything else is recomputed here, so
tests can compare streams, reconstructions and decodes on random inputs.
"""

from __future__ import annotations

import numpy as np

from spectralpq.entropy import BitReader, BitWriter, decode_block, encode_block
from spectralpq.errors import DecodeError
from spectralpq.frames import DEFAULT_CTU_SIZE, PLANE_ORDER, Frame, partition
from spectralpq.motion import MotionVector
from spectralpq.pipeline import MODES, QP_FIELD_BITS, StreamHeader
from spectralpq.quantizer import QP_MAX, rdoq_config, rdoq_quantize, urq_dequantize, urq_quantize
from spectralpq.transform import forward, inverse, make_spec


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


def _crop(recon, shape, dtype):
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
        writer.write_uint(0 if intra else 1, 1)

        for cu_index, cu in enumerate(tree):
            cu_cbs = fstat.cb[n * cu_index : n * (cu_index + 1)]
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
                encode_block(levels, writer)
                _reconstruct_cb(recon[ch], cu, pred, levels, qp, bit_depth, spec)

        prev_recon = recon
        recon_frames.append(_crop(recon, frame, frame.planes[0].dtype))
    return writer.getvalue(), recon_frames


def reference_decode(data: bytes) -> list:
    """Decode an SPQ1 stream one channel block at a time."""
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
