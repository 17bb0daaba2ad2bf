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

from .frames import _quadrant_size, tiles
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


def cb_activity(cb: np.ndarray):
    """1 + the minimum population variance over the four quadrants of a
    2Nx2N channel block (a float), or of each block of a (..., 2N, 2N)
    stack (an array).  For integer samples and power-of-two block sizes every
    step of np.var is exact in float64, so no summation order changes g."""
    g = 1.0 + np.var(tiles(cb, _quadrant_size(cb)), axis=(-2, -1)).min(axis=(-2, -1))
    return g if cb.ndim > 2 else float(g)


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
