"""Per-channel PSNR and SSIM quality metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .frames import PLANE_ORDER, Frame, box_sums

SSIM_WINDOW = 8
VISUALLY_LOSSLESS_SSIM = 0.95


@dataclass(frozen=True)
class QualityReport:
    """Per-channel PSNR/SSIM plus the mean SSIM over G, B, R.

    A mean SSIM above 0.95 is annotated as the visually-lossless correlate;
    it is informational, never a gate.
    """

    psnr: dict
    ssim: dict
    ssim_mean: float
    visually_lossless: bool


def _sse(ref: np.ndarray, rec: np.ndarray) -> float:
    diff = ref.astype(np.float64) - rec.astype(np.float64)
    return float(np.sum(diff * diff))


def _psnr_db(sse: float, count: int, bit_depth: int) -> float:
    """10*log10(MAX^2 / MSE) from a sum of squared errors over `count` samples;
    math.inf when the error is zero."""
    if sse == 0.0:
        return math.inf
    peak = (1 << bit_depth) - 1
    return 10.0 * math.log10(peak * peak / (sse / count))


def psnr(ref: np.ndarray, rec: np.ndarray, bit_depth: int) -> float:
    """10*log10(MAX^2 / MSE); identical planes return math.inf."""
    if ref.shape != rec.shape:
        raise StructuralError(f"plane shapes differ: {ref.shape} vs {rec.shape}")
    return _psnr_db(_sse(ref, rec), ref.size, bit_depth)


def ssim(ref: np.ndarray, rec: np.ndarray, bit_depth: int) -> float:
    """Mean local SSIM over uniformly weighted SSIM_WINDOW x SSIM_WINDOW windows.

    Window means are box sums over the window area, exact on integer planes.
    """
    window = SSIM_WINDOW
    if ref.shape != rec.shape:
        raise StructuralError(f"plane shapes differ: {ref.shape} vs {rec.shape}")
    if min(ref.shape) < window:
        raise StructuralError(f"plane {ref.shape} smaller than {window}x{window} window")

    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2

    x = ref.astype(np.result_type(ref.dtype, np.int64))
    y = rec.astype(np.result_type(rec.dtype, np.int64))
    area = window * window
    mu_x = box_sums(x, window) / area
    mu_y = box_sums(y, window) / area
    var_x = box_sums(x * x, window) / area - mu_x * mu_x
    var_y = box_sums(y * y, window) / area - mu_y * mu_y
    cov = box_sums(x * y, window) / area - mu_x * mu_y

    score = ((2 * mu_x * mu_y + c1) * (2 * cov + c2)) / (
        (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    )
    return float(score.mean())


def quality_report(ref: Frame, rec: Frame) -> QualityReport:
    """Per-channel metrics between a source frame and its reconstruction."""
    psnrs = {}
    ssims = {}
    for ch in PLANE_ORDER:
        psnrs[ch] = psnr(ref.plane(ch), rec.plane(ch), ref.bit_depth)
        ssims[ch] = ssim(ref.plane(ch), rec.plane(ch), ref.bit_depth)
    mean = sum(ssims.values()) / len(ssims)
    return QualityReport(psnrs, ssims, mean, mean > VISUALLY_LOSSLESS_SSIM)


def sequence_psnr(refs: list[Frame], recs: list[Frame], channel: str) -> float:
    """PSNR of one channel pooled over all frames of a sequence."""
    if len(refs) != len(recs):
        raise StructuralError("sequence lengths differ")
    sse = sum(_sse(ref.plane(channel), rec.plane(channel)) for ref, rec in zip(refs, recs))
    count = sum(ref.plane(channel).size for ref in refs)
    return _psnr_db(sse, count, refs[0].bit_depth if refs else 8)
