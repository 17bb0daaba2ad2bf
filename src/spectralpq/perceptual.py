"""Per-channel perceptual QP derivation.

Three masking signals set a channel block's QP offset above the frame QP:

* color masking: the G channel gets offsets in [3, 6], B and R in [6, 12],
  because quantization artifacts are hardest to see in green;
* spatial masking: the offset grows with normalized block activity
  a = (B*g + H) / (g + B*H), where g is 1 + the minimum quadrant variance of
  the block and H is the frame mean of g for that channel;
* temporal masking: blocks whose motion magnitude exceeds the frame mean
  get a fixed extra offset (half for G).

Offsets never go below their channel floor, so this mode never spends bits
refining smooth regions; the anchor adaptive-QP mode (G-driven, symmetric
range) is included for comparison.

The per-block functions take arrays as well as numbers, so an encoder gets
a frame's terms with one call per channel; for numbers they return ints and
floats, the reference that the array results equal element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import _quadrant_size, tiles
from .quantizer import QP_MAX, QP_MIN
from .transform import _round_half_away

@dataclass(frozen=True)
class PerceptualConstants:
    qp_offset_mean: int = 6      # o: mean block-level offset; G uses o/2 floors
    qp_offset_max: int = 12      # upper clamp for B and R offsets
    activity_scale: int = 2      # B: bounds normalized activity in (1/B, B)


DEFAULT_CONSTANTS = PerceptualConstants()


@dataclass(frozen=True)
class ChannelActivity:
    channel: str
    g: float
    frame_mean: float
    a: float


@dataclass(frozen=True)
class PerceptualQp:
    spatial_term: int
    total_offset: int
    qp: int


def round_half_away(x):
    """x rounded to the nearest integer, halves away from zero: an int, or an
    int64 array for an array x."""
    if np.ndim(x):
        return _round_half_away(x)
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def _clamp(x, lo, hi):
    """x limited to [lo, hi]: a number, or an array for an array x."""
    return np.minimum(np.maximum(x, lo), hi) if np.ndim(x) else min(max(x, lo), hi)


def cb_activity(cb: np.ndarray):
    """1 + the minimum population variance over the four quadrants of a
    2Nx2N channel block (a float), or of each block of a (..., 2N, 2N)
    stack (an array).  For integer samples and power-of-two block sizes every
    step of np.var is exact in float64, so no summation order changes g.
    Where the samples' dtype bounds the quadrant sums below 2**26.5, the
    variance is (M sum x^2 - (sum x)^2) / M^2 over a quadrant's M samples, in
    int64: the same exact value at a fraction of np.var's calls."""
    n = _quadrant_size(cb)
    quads = tiles(cb, n)
    sums_bounded = (n * n << 8 * cb.dtype.itemsize) ** 2 < 1 << 53
    if cb.dtype.kind in "iu" and not n & (n - 1) and sums_bounded:
        # C order keeps the reshape a view: astype copies a strided view in its own layout.
        x = quads.astype(np.int64, order="C").reshape(*quads.shape[:-4], 4, n * n)
        sums = x.sum(axis=-1)
        spread = n * n * np.einsum("...i,...i->...", x, x) - sums * sums
        g = 1.0 + spread.min(axis=-1) / (n ** 4)
    else:
        g = 1.0 + np.var(quads, axis=(-2, -1)).min(axis=(-2, -1))
    return g if cb.ndim > 2 else float(g)


def frame_mean_activity(activities) -> float:
    acts = list(activities)
    if not acts:
        raise ValueError("no channel blocks in picture")
    return float(sum(acts)) / len(acts)


def normalized_activity(g, frame_mean):
    """a = (B*g + H) / (g + B*H), elementwise for arrays."""
    scale = DEFAULT_CONSTANTS.activity_scale
    return (scale * g + frame_mean) / (g + scale * frame_mean)


def frame_activity(plane: np.ndarray, cus, channel: str) -> list[ChannelActivity]:
    """g, the frame mean H of g and the normalized activity a of every CU of
    one channel plane, in the order of `cus`."""
    gs = [cb_activity(plane[cu.y : cu.y + cu.size, cu.x : cu.x + cu.size]) for cu in cus]
    mean = frame_mean_activity(gs)
    return [ChannelActivity(channel, g, mean, normalized_activity(g, mean)) for g in gs]


def offset_range(channel: str) -> tuple[int, int]:
    o = DEFAULT_CONSTANTS.qp_offset_mean
    if channel == "G":
        return o // 2, o
    return o, DEFAULT_CONSTANTS.qp_offset_max


def temporal_offset(magnitude, frame_mean: float, channel: str):
    """Extra offset when a block's motion strictly exceeds the frame mean: an
    int, or an int array for an array of magnitudes."""
    o = DEFAULT_CONSTANTS.qp_offset_mean
    extra = o // 2 if channel == "G" else o
    if np.ndim(magnitude):
        return np.where(magnitude <= frame_mean, 0, extra)
    return 0 if magnitude <= frame_mean else extra


def spatial_term(a):
    """round_half_away(6 log2 a) as math.log2 gives it, elementwise for
    arrays.  np.log2 may differ from math.log2 in the last bit, which moves
    the rounding only next to a half, so the terms of an array whose 6 log2 a
    lies within 1e-9 of a half are recomputed with math.log2: far more
    than the few-ulp gap between the two, times 6."""
    if not np.ndim(a):
        return round_half_away(6.0 * math.log2(a))
    a = np.asarray(a)
    t = np.log2(a)
    t *= 6.0
    term = round_half_away(t)
    t -= term
    near = np.abs(t, out=t) > 0.5 - 1e-9
    if near.any():
        term[near] = [spatial_term(v) for v in a[near].tolist()]
    return term


def perceptual_qp(frame_qp: int, a, z, channel: str) -> PerceptualQp:
    """Channel-block QP: frame QP plus the clamped masking offset; with arrays
    of a (and z) the fields are arrays, one element per block."""
    lo, hi = offset_range(channel)
    term = spatial_term(a)
    total = _clamp(z + term, lo, hi)
    return PerceptualQp(term, total, _clamp(frame_qp + total, QP_MIN, QP_MAX))


def adaptiveqp_offset(a_g):
    """Anchor mode: symmetric G-driven delta applied to the whole CU
    (elementwise for an array of G activities)."""
    return _clamp(spatial_term(a_g), -6, 6)
