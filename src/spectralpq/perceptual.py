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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .frames import box_sums, subblocks
from .quantizer import QP_MAX, QP_MIN

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


def round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def cb_activity(cb: np.ndarray) -> float:
    """1 + the minimum population variance over the four quadrants."""
    return 1.0 + min(float(np.var(q)) for q in subblocks(cb))


def cu_activities(plane: np.ndarray, cu_size: int) -> np.ndarray:
    """cb_activity of every cu_size x cu_size block of an integer plane, as a
    (rows, cols) array, from the quadrant sums S1 of x and S2 of x^2.

    A quadrant has N = (cu_size / 2)^2 samples, a power of two.  For integer
    samples every step of np.var is then exact in float64 and equals
    (N * S2 - S1^2) / N^2, which int64 sums give exactly, so the result
    equals cb_activity block by block.
    """
    rows, cols = plane.shape
    if not np.issubdtype(plane.dtype, np.integer):
        raise StructuralError(f"plane dtype {plane.dtype} is not an integer type")
    if cu_size < 8 or cu_size % 2 or rows % cu_size or cols % cu_size:
        raise StructuralError(f"plane {plane.shape} is not a grid of {cu_size}x{cu_size} blocks")
    half = cu_size // 2
    x = plane.astype(np.int64)
    s1 = box_sums(x, half)[::half, ::half]
    s2 = box_sums(x * x, half)[::half, ::half]
    n = half * half
    var = (n * s2 - s1 * s1) / (n * n)
    return 1.0 + var.reshape(rows // cu_size, 2, cols // cu_size, 2).min(axis=(1, 3))


def frame_mean_activity(activities) -> float:
    acts = list(activities)
    if not acts:
        raise ValueError("no channel blocks in picture")
    return float(sum(acts)) / len(acts)


def normalized_activity(g: float, frame_mean: float) -> float:
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


def temporal_offset(magnitude: float, frame_mean: float, channel: str) -> int:
    """Extra offset when a block's motion strictly exceeds the frame mean."""
    if magnitude <= frame_mean:
        return 0
    o = DEFAULT_CONSTANTS.qp_offset_mean
    return o // 2 if channel == "G" else o


def spatial_term(a: float) -> int:
    return round_half_away(6.0 * math.log2(a))


def perceptual_qp(frame_qp: int, a: float, z: int, channel: str) -> PerceptualQp:
    """Channel-block QP: frame QP plus the clamped masking offset."""
    lo, hi = offset_range(channel)
    term = spatial_term(a)
    total = min(max(z + term, lo), hi)
    assert lo <= total <= hi
    qp = min(max(frame_qp + total, QP_MIN), QP_MAX)
    return PerceptualQp(term, total, qp)


def adaptiveqp_offset(a_g: float) -> int:
    """Anchor mode: symmetric G-driven delta applied to the whole CU."""
    return min(max(spatial_term(a_g), -6), 6)
