"""Integer block transforms (DCT for sizes 4-32, DST for 4x4 intra).

The forward basis is the 64-scale integer cosine family: the 4x4 matrix is
the standard core matrix, larger sizes embed the half-size matrix in their
even rows and round 64*sqrt(2)*cos(...) for the odd rows.  Because a 64-scale
integer basis is only approximately orthogonal, the inverse uses a
higher-precision integer matrix round(2^24 * inv(basis)); with the shift
schedule below that keeps forward->inverse within one sample unit for
10-bit residuals and makes the 8-bit round trip exact.

The integer products define the results.  They are evaluated in float64,
which is exact while every partial sum of `basis @ x @ basis.T` stays below
2^53; `_float_basis` derives that bound from each basis.  Sample residuals
are far inside it; the inverse takes the int64 product above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StructuralError

INVERSE_BASIS_BITS = 24

DST_4X4 = np.array(
    [[29, 55, 74, 84],
     [74, 74, 0, -74],
     [84, -29, -74, 55],
     [55, -84, 74, -29]],
    dtype=np.int64,
)

_DCT_4X4 = np.array(
    [[64, 64, 64, 64],
     [83, 36, -36, -83],
     [64, -64, -64, 64],
     [36, -83, 83, -36]],
    dtype=np.int64,
)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """64-scale integer DCT basis for n in {4, 8, 16, 32}."""
    if n == 4:
        return _DCT_4X4
    if n not in (8, 16, 32):
        raise StructuralError(f"transform size must be 4, 8, 16, or 32, got {n}")
    prev = dct_matrix(n // 2)
    mat = np.zeros((n, n), dtype=np.int64)
    for k in range(n // 2):
        mat[2 * k, : n // 2] = prev[k]
        mat[2 * k, n // 2 :] = prev[k][::-1]
    cols = np.arange(n)
    for k in range(1, n, 2):
        mat[k] = _round_half_away(
            64.0 * np.sqrt(2.0) * np.cos(np.pi * k * (2 * cols + 1) / (2 * n))
        )
    mat.setflags(write=False)
    return mat


def _basis(kind: str, n: int) -> np.ndarray:
    return DST_4X4 if kind == "DST" else dct_matrix(n)


@lru_cache(maxsize=None)
def _inverse_matrix(kind: str, n: int) -> np.ndarray:
    inv = np.linalg.inv(_basis(kind, n).astype(np.float64))
    out = _round_half_away(inv * (1 << INVERSE_BASIS_BITS))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _float_basis(kind: str, n: int, inverse: bool) -> tuple[np.ndarray, int]:
    """The forward or inverse basis in float64, and the largest input magnitude
    at which float64 `basis @ x @ basis.T` is exact: every partial sum is at
    most that magnitude times the square of the basis's largest row L1 norm,
    and float64 holds every integer below 2^53."""
    basis = _inverse_matrix(kind, n) if inverse else _basis(kind, n)
    l1 = int(np.abs(basis).sum(axis=1).max())
    out = basis.astype(np.float64)
    out.setflags(write=False)
    return out, ((1 << 53) - 1) // (l1 * l1)


def _max_magnitude(x: np.ndarray) -> int:
    return max(int(x.max()), -int(x.min()))


@dataclass(frozen=True)
class TransformSpec:
    """Basis and shift schedule for one transform size / kind / bit depth."""

    size: int
    kind: str           # "DCT" or "DST"
    basis: np.ndarray
    forward_shift: int
    inverse_shift: int


def make_spec(size: int, kind: str = "DCT", bit_depth: int = 8) -> TransformSpec:
    if kind not in ("DCT", "DST"):
        raise StructuralError(f"kind must be DCT or DST, got {kind!r}")
    if kind == "DST" and size != 4:
        raise StructuralError("DST is defined for 4x4 blocks only")
    basis = _basis(kind, size)
    fwd = 2 * int(np.log2(size)) + bit_depth - 4
    return TransformSpec(size, kind, basis, fwd, 2 * INVERSE_BASIS_BITS - fwd)


def _shift_round(v: np.ndarray, shift: int) -> np.ndarray:
    half = 1 << (shift - 1)
    return np.sign(v) * ((np.abs(v) + half) >> shift)


def forward(block: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Forward transform of a block or a stack of blocks; DC lands at (0, 0).
    A block beyond the float64 bound (2^31 - 1 at size 32) raises StructuralError."""
    if block.shape[-2:] != (spec.size, spec.size):
        raise StructuralError(f"block shape {block.shape} does not match spec size {spec.size}")
    basis, limit = _float_basis(spec.kind, spec.size, False)
    x = np.asarray(block, dtype=np.int64)
    peak = _max_magnitude(x)
    if peak > limit:
        raise StructuralError(f"block magnitude {peak} exceeds the transform limit {limit}")
    x = x.astype(np.float64)
    return _shift_round((basis @ x @ basis.T).astype(np.int64), spec.forward_shift)


def inverse(coeffs: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """Inverse transform of a block or a stack of blocks (precision inverse basis);
    coefficients beyond the float64 bound (about 2^17) take the int64 product."""
    if coeffs.shape[-2:] != (spec.size, spec.size):
        raise StructuralError(f"coeff shape {coeffs.shape} does not match spec size {spec.size}")
    basis, limit = _float_basis(spec.kind, spec.size, True)
    c = np.asarray(coeffs, dtype=np.int64)
    if _max_magnitude(c) <= limit:
        c = c.astype(np.float64)
        return _shift_round((basis @ c @ basis.T).astype(np.int64), spec.inverse_shift)
    bi = _inverse_matrix(spec.kind, spec.size)
    return _shift_round(bi @ c @ bi.T, spec.inverse_shift)


def coefficient_distance(position: tuple[int, int], n: int) -> float:
    """Euclidean distance of a coefficient position from DC at (0, 0)."""
    i, j = position
    if not (0 <= i < n and 0 <= j < n):
        raise StructuralError(f"position {position} outside {n}x{n} block")
    return float(np.hypot(i, j))


def coefficient_scale(size: int, bit_depth: int) -> int:
    """Gain of forward() relative to the orthonormal transform (power of two)."""
    return 1 << (16 - bit_depth - int(np.log2(size)))
