"""Experiment harness: mode/QP sweeps, bitrate accounting, and CSV reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from .corpus import CorpusSequence
from .errors import CodecError, ConfigurationError
from .frames import PLANE_ORDER
from .metrics import sequence_psnr, ssim
from .pipeline import EncodeResult, EncoderConfig, decode_sequence, encode_sequence

CSV_HEADER = (
    "sequence,mode,qp,kbps,psnr_g,psnr_b,psnr_r,"
    "ssim_g,ssim_b,ssim_r,ssim_mean,reduction_pct,status"
)
ANCHOR_MODE = "anchor-flat"    # the mode every reduction_pct is measured against


def kbps(total_bits: int, frame_count: int, fps: float) -> float:
    """Kilobits per second of a stream played at the given rate."""
    if frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {frame_count}")
    if fps <= 0:
        raise ValueError(f"fps must be > 0, got {fps}")
    return total_bits * fps / (frame_count * 1000.0)


def bitrate_reduction(test_kbps: float, ref_kbps: float) -> float:
    """Signed percentage change of test vs reference; negative means smaller."""
    if ref_kbps <= 0:
        raise ValueError(f"reference kbps must be > 0, got {ref_kbps}")
    return (test_kbps - ref_kbps) / ref_kbps * 100.0


@dataclass
class ExperimentRow:
    sequence: str
    mode: str
    base_qp: int
    kbps: float = 0.0
    psnr: dict = None
    ssim: dict = None
    ssim_mean: float = 0.0
    reduction_pct: Optional[float] = None
    status: str = "ok"


def _fmt(value, spec) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return format(value, spec)


def row_to_csv(row: ExperimentRow) -> str:
    fields = [
        row.sequence,
        row.mode,
        str(row.base_qp),
        _fmt(row.kbps, ".2f"),
    ]
    for ch in PLANE_ORDER:
        fields.append(_fmt(row.psnr.get(ch) if row.psnr else None, ".2f"))
    for ch in PLANE_ORDER:
        fields.append(_fmt(row.ssim.get(ch) if row.ssim else None, ".4f"))
    fields.append(_fmt(row.ssim_mean, ".4f"))
    fields.append(_fmt(row.reduction_pct, ".1f"))
    fields.append(row.status)
    return ",".join(fields)


def verify_cell(result: EncodeResult) -> None:
    """Decode the stream and require bit-exact equality with the encoder's
    own reconstruction (the codec's master invariant)."""
    decoded = decode_sequence(result.bitstream)
    if len(decoded) != len(result.reconstruction):
        raise CodecError("decoded frame count differs from reconstruction")
    for i, (dec, rec) in enumerate(zip(decoded, result.reconstruction)):
        for ch in PLANE_ORDER:
            if not np.array_equal(dec.plane(ch), rec.plane(ch)):
                raise CodecError(f"decode mismatch at frame {i} channel {ch}")


def run_cell(
    seq: CorpusSequence, qp: int, mode: str, **options
) -> tuple[ExperimentRow, Optional[EncodeResult]]:
    """Encode, decode-verify, and measure one (sequence, qp, mode) cell."""
    row = ExperimentRow(seq.name, mode, qp)
    try:
        config = EncoderConfig(base_qp=qp, mode=mode, fps=seq.fps, **options)
        result = encode_sequence(seq.frames, config)
        verify_cell(result)
        row.kbps = kbps(len(result.bitstream) * 8, len(seq.frames), seq.fps)
        row.psnr = {
            ch: sequence_psnr(seq.frames, result.reconstruction, ch)
            for ch in PLANE_ORDER
        }
        bd = seq.frames[0].bit_depth
        row.ssim = {
            ch: float(np.mean([
                ssim(f.plane(ch), r.plane(ch), bd)
                for f, r in zip(seq.frames, result.reconstruction)
            ]))
            for ch in PLANE_ORDER
        }
        row.ssim_mean = sum(row.ssim.values()) / len(row.ssim)
        return row, result
    except Exception as exc:  # recorded, not raised: one bad cell must not kill the sweep
        row.status = f"error: {exc}"
        return row, None


def run_experiment(
    sequences: list[CorpusSequence],
    qps: list[int],
    modes: list[str],
    workers: int = 1,
    qp_map_dir: Optional[Path] = None,
    **options,
) -> list[ExperimentRow]:
    """Full sweep over sequences x qps x modes with reductions vs ANCHOR_MODE.

    `options` are EncoderConfig settings shared by every cell.  Cells run in
    (sequence, qp, mode) order in the calling thread, and each ok cell's QP
    maps go to `qp_map_dir` (if given) as soon as it ends.  `workers` is
    accepted for existing callers and has no effect: cells are GIL-bound
    Python, so threads made sweeps slower.
    """
    names = [seq.name for seq in sequences]
    if len(set(names)) < len(names):
        dup = next(name for name in names if names.count(name) > 1)
        raise ConfigurationError(f"sequence names must be unique; {dup!r} appears twice")
    rows = []
    for seq, qp, mode in product(sequences, qps, modes):
        row, result = run_cell(seq, qp, mode, **options)
        if qp_map_dir is not None and result is not None:
            write_qp_maps(result, qp_map_dir, seq.name, mode, qp)
        rows.append(row)
    anchors = {(r.sequence, r.base_qp): r.kbps for r in rows
               if r.mode == ANCHOR_MODE and r.status == "ok"}
    for row in rows:
        ref = anchors.get((row.sequence, row.base_qp))
        if row.status == "ok" and ref is not None:
            row.reduction_pct = (
                0.0 if row.mode == ANCHOR_MODE else bitrate_reduction(row.kbps, ref)
            )
    return rows


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    return "\n".join([CSV_HEADER] + [row_to_csv(r) for r in rows]) + "\n"


def write_cb_csv(stats, path) -> None:
    """Per channel-block audit rows: activity, masking terms, final QP."""
    with open(path, "w") as fh:
        fh.write("frame,cu,channel,g,H,a,D,F,z,offset,qp\n")
        for fstat in stats.frames:
            for cb in fstat.cb:
                fh.write(
                    f"{cb.frame},{cb.cu},{cb.channel},{cb.g:.4f},{cb.frame_mean_g:.4f},"
                    f"{cb.a:.6f},{cb.mv_magnitude:.4f},{cb.frame_mean_magnitude:.4f},"
                    f"{cb.temporal},{cb.offset},{cb.qp}\n"
                )


def write_motion_csv(stats, path) -> None:
    with open(path, "w") as fh:
        fh.write("frame,cu,vx,vy,magnitude,frame_mean\n")
        for fstat in (f for f in stats.frames if f.motion):
            m = fstat.motion
            for cu, (mv, mag) in enumerate(zip(m.vectors, m.magnitudes)):
                fh.write(f"{fstat.index},{cu},{mv.vx},{mv.vy},{mag:.4f},{m.mean_magnitude:.4f}\n")


def write_qp_maps(result: EncodeResult, outdir, sequence: str, mode: str, qp: int) -> None:
    """One PGM per frame per channel: each pixel is a CU's QP (maxval 51)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    height, width = result.stats.grid_shape
    for fstat in result.stats.frames:
        grids = fstat.cb.qp.astype(np.uint8).reshape(height, width, len(PLANE_ORDER))
        for c, ch in enumerate(PLANE_ORDER):
            name = f"{sequence}_{mode}_qp{qp}_f{fstat.index:04d}_{ch}.pgm"
            with open(outdir / name, "wb") as fh:
                fh.write(f"P5 {width} {height} 51\n".encode())
                fh.write(grids[..., c].tobytes())
