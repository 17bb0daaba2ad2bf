"""Raw RGB 4:4:4 sequence I/O, block partitioning, block views and window sums.

Sequences are header-less planar files: frames concatenated, each frame
stored as its G plane, then B, then R, row-major.  8-bit samples take one
byte; 10-bit samples take two bytes little-endian with the low 10 bits
significant.

A frame is partitioned into a fixed grid of coding units (CUs).  Each CU is
one co-located 2Nx2N block in all three channel planes; the three blocks
share geometry and one motion vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigurationError, IngestionError, StructuralError

PLANE_ORDER = ("G", "B", "R")
BIT_DEPTHS = (8, 10)
DEFAULT_CTU_SIZE = 64    # frames are padded to a multiple of this
CU_SIZES = (8, 16, 32)


def _is_integer(value) -> bool:
    """True for ints and numpy integers; False for bools and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _store_integers(obj, names) -> None:
    """Store each named field as an int; a bool or other non-integer raises ConfigurationError."""
    for name in names:
        value = getattr(obj, name)
        if not _is_integer(value):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))  # numpy integers become ints


@dataclass
class Frame:
    """One RGB 4:4:4 picture: equal-sized G, B, R planes, stored as uint8 (8-bit)
    or uint16 (10-bit) whatever integer dtype they were built from."""

    width: int
    height: int
    bit_depth: int
    planes: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        _store_integers(self, ("width", "height", "bit_depth"))
        if self.bit_depth not in BIT_DEPTHS:
            raise ConfigurationError(f"bit depth must be 8 or 10, got {self.bit_depth}")
        if self.width < 1 or self.height < 1:
            raise ConfigurationError(
                f"frame dimensions must be >= 1, got {self.width}x{self.height}"
            )
        if len(self.planes) != len(PLANE_ORDER):
            raise StructuralError(f"frame needs 3 planes (G, B, R), got {len(self.planes)}")
        for name, plane in zip(PLANE_ORDER, self.planes):
            if plane.shape != (self.height, self.width):
                raise StructuralError(
                    f"plane {name} has shape {plane.shape}, "
                    f"expected {(self.height, self.width)}"
                )
            if not np.issubdtype(plane.dtype, np.integer):
                raise ConfigurationError(f"plane {name} has non-integer dtype {plane.dtype}")
            if plane.size and (plane.min() < 0 or plane.max() > self.max_sample):
                raise ConfigurationError(
                    f"plane {name} has samples outside [0, {self.max_sample}] "
                    f"for {self.bit_depth}-bit frames"
                )
        dtype = _sample_dtype(self.bit_depth)    # cast after the range check: nothing wraps
        self.planes = tuple(plane.astype(dtype, copy=False) for plane in self.planes)

    @property
    def max_sample(self) -> int:
        return (1 << self.bit_depth) - 1

    def plane(self, channel: str) -> np.ndarray:
        return self.planes[PLANE_ORDER.index(channel)]


@dataclass(frozen=True)
class CodingUnit:
    """Geometry of one CU: top-left corner and side length in samples."""

    x: int
    y: int
    size: int


@dataclass(frozen=True)
class BlockTree:
    """Fixed grid of cu_size CUs over a padded frame; each walk makes its CUs in raster order."""

    width: int            # padded
    height: int           # padded
    cu_size: int

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.height // self.cu_size, self.width // self.cu_size

    def __iter__(self) -> Iterator[CodingUnit]:
        for y in range(0, self.height, self.cu_size):
            for x in range(0, self.width, self.cu_size):
                yield CodingUnit(x, y, self.cu_size)


def _sample_dtype(bit_depth: int) -> np.dtype:
    """The dtype of a sample, in a Frame and in a raw file: uint8, or little-endian uint16."""
    return np.dtype(np.uint8 if bit_depth == 8 else "<u2")


def frame_size_bytes(width: int, height: int, bit_depth: int) -> int:
    return 3 * width * height * _sample_dtype(bit_depth).itemsize


def load_sequence(
    path,
    width: int,
    height: int,
    bit_depth: int = 8,
    frame_count: Optional[int] = None,
) -> list[Frame]:
    """Read a raw planar sequence file.

    frame_count=None reads every complete frame in the file; otherwise only
    the bytes of the first frame_count frames are read, into one buffer that
    the frames share: each plane is a view of it.  Bad arguments (checked
    before the file is read), a short file and out-of-range 10-bit
    samples raise IngestionError; the last names the frame, plane, and byte
    offset of the first offending sample.
    """
    for name, value in (("width", width), ("height", height), ("frame_count", frame_count)):
        if not (_is_integer(value) or name == "frame_count" and value is None):
            raise IngestionError(f"{path}: {name} must be an integer, got {value!r}")
    if not (_is_integer(bit_depth) and bit_depth in BIT_DEPTHS):
        raise IngestionError(f"{path}: bit depth must be 8 or 10, got {bit_depth!r}")
    if width < 1 or height < 1:
        raise IngestionError(f"{path}: frame dimensions must be >= 1, got {width}x{height}")
    fsize = frame_size_bytes(width, height, bit_depth)
    if frame_count is not None and frame_count < 0:
        raise IngestionError(f"{path}: frame count must be >= 0, got {frame_count}")
    count = -1 if frame_count is None else frame_count * fsize
    data = np.fromfile(path, dtype=np.uint8, count=count)
    if frame_count is None:
        frame_count = data.size // fsize
    if data.size < frame_count * fsize:
        raise IngestionError(
            f"{path}: need {frame_count * fsize} bytes for {frame_count} "
            f"frame(s) of {width}x{height}@{bit_depth}bit, file has {data.size}"
        )

    samples = data[: frame_count * fsize].view(_sample_dtype(bit_depth))
    samples = samples.reshape(frame_count, len(PLANE_ORDER), height, width)
    if bit_depth == 10 and samples.size and samples.max() > 1023:
        i = int(np.argmax(samples.ravel() > 1023))
        f, p = np.unravel_index(i, samples.shape)[:2]
        raise IngestionError(
            f"{path}: 10-bit sample {int(samples.flat[i])} > 1023 in frame {f}"
            f" plane {PLANE_ORDER[p]} at byte offset {2 * i}"
        )
    return [Frame(width, height, bit_depth, tuple(planes)) for planes in samples]


def save_sequence(path, frames: list[Frame]) -> None:
    """Write frames back to the raw planar format (bit-exact with load)."""
    with open(path, "wb") as fh:
        for frame in frames:
            for plane in frame.planes:
                fh.write(plane.astype(_sample_dtype(frame.bit_depth), copy=False).tobytes())


def pad_plane(plane: np.ndarray, multiple: int) -> np.ndarray:
    """Edge-replicate a plane, or each plane of a stack, up to the next multiple of `multiple`."""
    h, w = plane.shape[-2:]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return plane
    return np.pad(plane, ((0, 0),) * (plane.ndim - 2) + ((0, ph), (0, pw)), mode="edge")


def partition(frame: Frame, cu_size: int = 32) -> BlockTree:
    """Tile the frame, padded to DEFAULT_CTU_SIZE, with a fixed grid of cu_size CUs."""
    if cu_size not in CU_SIZES:
        raise ConfigurationError(f"cu_size must be one of {CU_SIZES}, got {cu_size}")
    return BlockTree(
        frame.width + (-frame.width) % DEFAULT_CTU_SIZE,
        frame.height + (-frame.height) % DEFAULT_CTU_SIZE,
        cu_size,
    )


def box_sums(plane: np.ndarray, size: int) -> np.ndarray:
    """Sum of every size x size window, indexed by its top-left corner, from a summed-area
    table; integer planes sum in int64 (exact while the total fits), others in float64."""
    dtype = np.result_type(plane.dtype, np.int64)
    sat = np.zeros((plane.shape[0] + 1, plane.shape[1] + 1), dtype=dtype)
    np.cumsum(plane, axis=0, dtype=dtype, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    return sat[size:, size:] - sat[:-size, size:] - sat[size:, :-size] + sat[:-size, :-size]


def tiles(plane: np.ndarray, n: int) -> np.ndarray:
    """The n x n blocks of a plane, or of each plane of a stack, as a
    (..., rows, cols, n, n) view in raster order."""
    if plane.ndim < 2 or n < 1 or plane.shape[-2] % n or plane.shape[-1] % n:
        raise StructuralError(f"plane {plane.shape} is not a grid of {n}x{n} blocks")
    *lead, h, w = plane.shape
    return plane.reshape(*lead, h // n, n, w // n, n).swapaxes(-3, -2)


def windows(plane: np.ndarray, n: int) -> np.ndarray:
    """Every n x n window of a plane, or of each plane of a stack, as a
    read-only (..., h - n + 1, w - n + 1, n, n) view indexed by the window's
    top-left corner; what sliding_window_view gives, built with the ndarray
    constructor at a tenth of its cost.  A non-contiguous plane is copied."""
    if plane.ndim < 2 or not 1 <= n <= min(plane.shape[-2:]):
        raise StructuralError(f"plane {plane.shape} has no {n}x{n} windows")
    plane = np.ascontiguousarray(plane)
    *lead, h, w = plane.shape
    strides = plane.strides + plane.strides[-2:]
    view = np.ndarray((*lead, h - n + 1, w - n + 1, n, n), plane.dtype, plane, 0, strides)
    view.flags.writeable = False
    return view


def _quadrant_size(cb: np.ndarray) -> int:
    """N of a 2Nx2N channel block, or of each block of a stack."""
    if cb.ndim < 2 or cb.shape[-1] != cb.shape[-2] or cb.shape[-1] % 2 or cb.shape[-1] < 8:
        raise StructuralError(f"channel block must be square, even, >= 8; got {cb.shape}")
    return cb.shape[-1] // 2


def subblocks(cb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four NxN quadrants of a 2Nx2N channel block, raster order."""
    n = _quadrant_size(cb)
    return cb[..., :n, :n], cb[..., :n, n:], cb[..., n:, :n], cb[..., n:, n:]
