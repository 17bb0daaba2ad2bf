"""Full-search block-matching motion estimation on the G plane.

One motion vector per CU (the prediction unit covers the whole CU); the
three channel blocks of a CU share it.  The search is exhaustive SAD over a
square window clamped to the padded frame, so optimality is checkable by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frames import BlockTree


@dataclass(frozen=True)
class MotionVector:
    vx: int
    vy: int


@dataclass
class MotionField:
    """Per-CU vectors of one inter frame plus the mean magnitude."""

    vectors: list[MotionVector]
    magnitudes: list[float]
    mean_magnitude: float


def mv_magnitude(v: MotionVector) -> float:
    return math.hypot(v.vx, v.vy)


def frame_mean_magnitude(magnitudes) -> float:
    mags = list(magnitudes)
    if not mags:
        raise ValueError("motion field is empty")
    return float(sum(mags)) / len(mags)


def estimate_mv(
    current: np.ndarray,
    reference: np.ndarray,
    x: int,
    y: int,
    search_range: int,
) -> MotionVector:
    """Minimum-SAD vector over [-range, +range]^2, window clamped in-frame.

    Ties break by smaller magnitude, then smaller vy, then smaller vx.
    """
    size = current.shape[0]
    h, w = reference.shape
    y_lo = max(-search_range, -y)
    y_hi = min(search_range, h - size - y)
    x_lo = max(-search_range, -x)
    x_hi = min(search_range, w - size - x)

    region = reference[y + y_lo : y + y_hi + size, x + x_lo : x + x_hi + size]
    windows = sliding_window_view(region, (size, size))
    diffs = np.abs(windows.astype(np.int64) - current.astype(np.int64))
    sads = diffs.sum(axis=(2, 3))

    vy_grid, vx_grid = np.meshgrid(
        np.arange(y_lo, y_hi + 1), np.arange(x_lo, x_hi + 1), indexing="ij"
    )
    mag2 = vy_grid * vy_grid + vx_grid * vx_grid
    keys = np.lexsort(
        (vx_grid.ravel(), vy_grid.ravel(), mag2.ravel(), sads.ravel())
    )
    best = keys[0]
    return MotionVector(int(vx_grid.ravel()[best]), int(vy_grid.ravel()[best]))


def estimate_motion_field(
    current_g: np.ndarray,
    reference_g: np.ndarray,
    tree: BlockTree,
    search_range: int,
) -> MotionField:
    """Search every CU of the frame and aggregate the mean magnitude."""
    vectors = []
    for cu in tree:
        block = current_g[cu.y : cu.y + cu.size, cu.x : cu.x + cu.size]
        vectors.append(estimate_mv(block, reference_g, cu.x, cu.y, search_range))
    mags = [mv_magnitude(v) for v in vectors]
    return MotionField(vectors, mags, frame_mean_magnitude(mags))
