"""Exact block-matching motion estimation on the G plane.

One motion vector per CU (the prediction unit covers the whole CU); the
three channel blocks of a CU share it.  The vector is the minimum-SAD one
over a square window clamped to the padded frame; ties break by smaller
magnitude, then smaller vy, then smaller vx.

The search returns exactly the full search's vector at a fraction of its
work, by multilevel successive elimination (Li & Salari, IEEE TIP 1995;
Gao, Duanmu & Zou, IEEE TIP 2000).  Splitting a block into sub-blocks, the
sum over them of |sum(current) - sum(reference)| is a lower bound on the
SAD, and a finer split gives a tighter bound.  The levels, coarse to fine:

1. 4x4 sums, for every candidate of the window at once, from the frame's
   summed-area table.
2. 2x2 sums, gathered for the candidates that pass level 1.  They are built
   for the frame on first need, and a CU takes its own from the block.  A
   CU descends to this level only when its survivors are many enough that
   the gather costs less than the SADs it may save (`DESCEND_SAMPLES`).
3. The SADs of the candidates that pass the last level taken.

The threshold is the smallest SAD among (0, 0), the final vectors of the
left and top CUs, and the winner of level 1 (its candidate of least bound:
a winner update, Chen, Hung & Fuh, IEEE TIP 2001).  Every CU takes the
winner, not only those that descend: on the corpus clips it cuts the SADs
of CUs that do not descend by more than it adds.  A candidate passes a
level when its bound is at most the threshold.  Every threshold is the SAD
of some candidate, so it is at least the minimum SAD; the minimum-SAD
candidate and every candidate tied with it have every bound at most that
minimum, so they pass every level and the tie-break is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, StructuralError
from .frames import BlockTree, _is_integer, box_sums, tiles, windows

SUB_BLOCK = 4    # side of the sub-blocks whose sums bound the SAD
DESCEND_SAMPLES = 1 << 17  # survivors x block samples from which level 2 pays


@dataclass(frozen=True, slots=True)
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


class _Reference:
    """A reference plane's candidate windows for one block size, with the
    sub-block sums of each window, both indexed by the window's top-left."""

    def __init__(self, reference: np.ndarray, size: int):
        self.sub = math.gcd(size, SUB_BLOCK)
        self.plane = np.ascontiguousarray(reference, dtype=np.int32)
        span = size - self.sub + 1
        sums = box_sums(self.plane, self.sub).astype(np.int32)
        self.windows = windows(self.plane, size)
        self.window_sums = windows(sums, span)[:, :, :: self.sub, :: self.sub]

    def block_sums(self, block: np.ndarray) -> np.ndarray:
        """The sub-block sums of a block, in the layout of `window_sums`."""
        return tiles(block, self.sub).sum(axis=(-2, -1), dtype=np.int32)

    @cached_property
    def pair_windows(self) -> np.ndarray:
        """The 2x2 sub-block sums of every window, built on first need."""
        pairs = self.plane[:, 1:] + self.plane[:, :-1]
        pairs = pairs[1:] + pairs[:-1]
        span = self.windows.shape[-1] - 1
        return windows(pairs, span)[:, :, ::2, ::2]

    def search(self, block, sums, x, y, search_range, seeds=()) -> MotionVector:
        """The minimum-SAD vector of the block at (x, y); the SADs of (0, 0),
        of the `seeds` that lie in the window and of the candidate with the
        least 4x4 bound set the pruning threshold."""
        rows, cols = self.windows.shape[:2]
        y_lo, y_hi = max(-search_range, -y), min(search_range, rows - 1 - y)
        x_lo, x_hi = max(-search_range, -x), min(search_range, cols - 1 - x)
        top, left = y + y_lo, x + x_lo
        # level 1, with the candidates on the last axes: the sum then adds whole rows
        region = self.window_sums[top : y + y_hi + 1, left : x + x_hi + 1].transpose(2, 3, 0, 1)
        diffs = np.subtract(region, sums[:, :, None, None], order="C")
        bounds = np.abs(diffs, out=diffs).sum(axis=(0, 1), dtype=np.int32)
        wy, wx = divmod(int(bounds.argmin()), bounds.shape[1])
        tried = [(top + wy, left + wx)] + [
            (y + v.vy, x + v.vx) for v in (MotionVector(0, 0), *seeds)
            if y_lo <= v.vy <= y_hi and x_lo <= v.vx <= x_hi
        ]
        ty, tx = zip(*tried)
        threshold = _sads(self.windows[ty, tx], block).min()
        iy, ix = np.nonzero(bounds <= threshold)
        iy += top
        ix += left
        if self.sub == SUB_BLOCK and iy.size * block.size > DESCEND_SAMPLES:
            pair_sums = block[::2] + block[1::2]
            pair_sums = pair_sums[:, ::2] + pair_sums[:, 1::2]
            keep = _sads(self.pair_windows[iy, ix], pair_sums) <= threshold
            iy, ix = iy[keep], ix[keep]
        sads = _sads(self.windows[iy, ix], block)
        best = np.flatnonzero(sads == sads.min())
        vy, vx = iy[best] - y, ix[best] - x
        pick = np.lexsort((vx, vy, vy * vy + vx * vx))[0] if best.size > 1 else 0
        return MotionVector(int(vx[pick]), int(vy[pick]))


def _sads(stack: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum |stack - target| over the last two axes, in int32.  It overwrites
    `stack`, a fresh gather: a second temporary as large costs more than the
    arithmetic."""
    stack -= target
    return np.abs(stack, out=stack).sum(axis=(-2, -1), dtype=np.int32)


def estimate_mv(
    current: np.ndarray,
    reference: np.ndarray,
    x: int,
    y: int,
    search_range: int,
) -> MotionVector:
    """Minimum-SAD vector over [-range, +range]^2, window clamped in-frame.

    Ties break by smaller magnitude, then smaller vy, then smaller vx.  The
    search is exact, pruned by sub-block sum bounds with the SADs of (0, 0)
    and of the best-bounded candidate as its threshold.  A non-integer
    position, a bad search_range or plane dtype raises ConfigurationError,
    and a block not square or not inside `reference` StructuralError.
    """
    if not (_is_integer(x) and _is_integer(y)):
        raise ConfigurationError(f"block position must be integers, got ({x!r}, {y!r})")
    if not _is_integer(search_range) or search_range < 0:
        raise ConfigurationError(f"search_range must be an integer >= 0, got {search_range!r}")
    if not all(np.issubdtype(p.dtype, np.integer) for p in (current, reference)):
        raise ConfigurationError(f"planes must be integer, got {current.dtype}, {reference.dtype}")
    size = current.shape[0]
    h, w = reference.shape
    if not (size and current.shape == (size, size) and 0 <= x <= w - size and 0 <= y <= h - size):
        raise StructuralError(f"block {current.shape} at ({x}, {y}) is not a square block "
                              f"inside the {reference.shape} reference")
    top, left = max(0, y - search_range), max(0, x - search_range)
    bottom, right = min(h, y + size + search_range), min(w, x + size + search_range)
    ref = _Reference(reference[top:bottom, left:right], size)
    block = current.astype(np.int32)
    return ref.search(block, ref.block_sums(block), x - left, y - top, search_range)


def estimate_motion_field(
    current_g: np.ndarray,
    reference_g: np.ndarray,
    tree: BlockTree,
    search_range: int,
) -> MotionField:
    """Search every CU of the frame and aggregate the mean magnitude.

    Each CU's pruning threshold also tries the final vectors of its left
    and top neighbours.
    """
    size = tree.cu_size
    ref = _Reference(reference_g, size)
    current = np.asarray(current_g, dtype=np.int32)
    sub = ref.sub
    sums = ref.block_sums(current)
    cols = tree.grid_shape[1]
    vectors = []
    for i, cu in enumerate(tree):
        left = vectors[i - 1 : i] if i % cols else []
        top = vectors[i - cols : i - cols + 1] if i >= cols else []
        block = current[cu.y : cu.y + size, cu.x : cu.x + size]
        block_sums = sums[cu.y // sub : (cu.y + size) // sub, cu.x // sub : (cu.x + size) // sub]
        vectors.append(ref.search(block, block_sums, cu.x, cu.y, search_range, left + top))
    mags = [mv_magnitude(v) for v in vectors]
    return MotionField(vectors, mags, frame_mean_magnitude(mags))
