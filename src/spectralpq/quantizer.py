"""Scalar quantization: uniform-reconstruction (URQ) and rate-distortion
optimized (RDOQ) level selection.

Step sizes follow the 6-periodic schedule qstep(qp) = 2^((qp-4)/6): one QP
step is a ~12% increase, six steps double the step size.  The integer
multiplication factor m and scaling factor s are taken from the base period
(s = round(64 * qstep), m = round(2^20 / s)) so that m * s stays within a few
parts in 10^5 of 2^20 at every QP; the 2^(qp//6) doubling lives in the shift
exponents instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entropy import LEVEL_LIMIT, _LEVEL_LENGTHS, level_bits
from .errors import ConfigurationError
from .frames import BIT_DEPTHS, _is_integer
from .transform import coefficient_scale

QP_MIN = 0
QP_MAX = 51

# Base period, qp 0..5.  s = round(2^6 * qstep), m = round(2^20 / s).
QSTEP_TABLE = (0.6300, 0.7071, 0.7937, 0.8909, 1.0000, 1.1225)
M_TABLE = (26214, 23302, 20560, 18396, 16384, 14564)
S_TABLE = (40, 45, 51, 57, 64, 72)

BLOCK_SIZES = (4, 8, 16, 32)


@dataclass(frozen=True)
class QuantParams:
    """Everything urq_quantize / urq_dequantize need for one (qp, N) pair."""

    qp: int
    qstep: float
    m: int
    s: int
    f: int
    qbits: int

    @property
    def period(self) -> int:
        return self.qp // 6


def qstep(qp: int) -> float:
    return 2.0 ** ((qp - 4) / 6.0)


def _check_qp_and_size(qp, n) -> None:
    """ConfigurationError unless qp is an integer in [QP_MIN, QP_MAX] and n one of BLOCK_SIZES."""
    if not (_is_integer(qp) and QP_MIN <= qp <= QP_MAX):
        raise ConfigurationError(f"qp must be an integer in [{QP_MIN}, {QP_MAX}], got {qp!r}")
    if not (_is_integer(n) and n in BLOCK_SIZES):
        raise ConfigurationError(f"block size must be one of {BLOCK_SIZES}, got {n!r}")


# quant_params and rdoq_config are pure and cached per argument type, so a bool
# or a float never hits the entry of an equal int: every call with a bad
# argument runs the checks and raises ConfigurationError.
@lru_cache(maxsize=None, typed=True)
def quant_params(qp: int, n: int) -> QuantParams:
    _check_qp_and_size(qp, n)
    r = qp % 6
    qbits = 21 + qp // 6 - int(np.log2(n))
    # Rounding offset of half a step; equals the canonical 2^18 at N=4, qp < 6.
    return QuantParams(qp, qstep(qp), M_TABLE[r], S_TABLE[r], 1 << (qbits - 1), qbits)


def urq_quantize(x, qp: int, n: int):
    """Uniform quantization of a coefficient (or array) to a level."""
    p = quant_params(qp, n)
    v = np.asarray(x, dtype=np.int64)
    t = np.sign(v) * ((np.abs(v) * p.m + p.f) >> p.qbits)
    t = np.clip(t, -LEVEL_LIMIT, LEVEL_LIMIT)
    return t if t.ndim else int(t)


def urq_dequantize(t, qp: int, n: int):
    """Reconstructed coefficient for a level, rounded toward zero."""
    p = quant_params(qp, n)
    v = np.asarray(t, dtype=np.int64)
    shift = int(np.log2(n)) - 1
    x = np.sign(v) * ((np.abs(v) * p.s << p.period) >> shift)
    return x if x.ndim else int(x)


def inverse_step(qp: int, n: int) -> float:
    """Spacing between adjacent reconstruction points, in coefficient units."""
    p = quant_params(qp, n)
    return p.s * 2.0**p.period / 2.0 ** (int(np.log2(n)) - 1)


def default_lambda(qp: int) -> float:
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


@dataclass(frozen=True)
class RdoqConfig:
    """Lagrange multiplier for RDOQ level decisions; the rate is level_bits."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigurationError(f"lambda must be > 0, got {self.lam}")


@lru_cache(maxsize=None, typed=True)
def rdoq_config(qp: int, n: int = 4, bit_depth: int = 8) -> RdoqConfig:
    """Default config with the multiplier expressed in coefficient units.

    The distortion term is measured on transform coefficients, which carry a
    gain of 2^(16 - bit_depth - log2 n) over sample amplitudes, so the
    sample-domain schedule is scaled by that gain squared.
    """
    _check_qp_and_size(qp, n)
    if not (_is_integer(bit_depth) and bit_depth in BIT_DEPTHS):
        raise ConfigurationError(f"bit depth must be 8 or 10, got {bit_depth!r}")
    scale = coefficient_scale(n, bit_depth)
    return RdoqConfig(default_lambda(qp) * scale * scale)


def rdoq_candidates(x: int, qp: int, n: int) -> tuple[int, int, int]:
    """Candidate magnitudes {0, l1, l1+1} bracketing |x| / step."""
    p = quant_params(qp, n)
    l1 = (abs(int(x)) * p.m) >> p.qbits
    l1 = min(l1, LEVEL_LIMIT - 1)
    return 0, l1, l1 + 1


def rdoq_cost(x: int, level: int, qp: int, n: int, cfg: RdoqConfig) -> float:
    """Lagrangian cost of quantizing coefficient x to the given magnitude."""
    recon = urq_dequantize(level, qp, n)
    err = abs(int(x)) - recon
    return err * err + cfg.lam * level_bits(level)


def rdoq_quantize(coeffs: np.ndarray, qp: int, n: int, cfg: RdoqConfig) -> np.ndarray:
    """Per-coefficient level choice minimizing distortion + lambda * bits.

    The candidates (0, l1, l1 + 1) are scored side by side and the first
    minimum wins, so ties break toward the smaller level; relative to plain
    URQ rounding the rate term only ever pulls levels down.  `cfg` carries
    the bit-depth dependent multiplier (see rdoq_config).
    """
    p = quant_params(qp, n)
    x = np.asarray(coeffs, dtype=np.int64)
    ax = np.abs(x)
    l1 = np.minimum((ax * p.m) >> p.qbits, LEVEL_LIMIT - 1)
    shift = int(np.log2(n)) - 1

    def cost(level):
        # Candidates are non-negative: urq_dequantize without its sign.  The
        # code lengths are uint8, so an int lam is made a float first.
        err = (ax - ((level * p.s << p.period) >> shift)).astype(np.float64)
        return err * err + float(cfg.lam) * _LEVEL_LENGTHS[level]

    c0, c1, c2 = cost(0), cost(l1), cost(l1 + 1)
    # The first minimum: l1 + 1 only if strictly cheaper than l1, 0 on a tie.
    level = l1 + (c2 < c1)
    level[c0 <= np.minimum(c1, c2)] = 0
    return np.where(x < 0, -level, level)
