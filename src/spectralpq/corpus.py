"""Seeded synthetic test sequences.

Four 64x64x30 clips cover the low/high spatial-variance by low/high motion
quadrants (static gradient, moving gradient, static noise patches, moving
textured object), plus one larger clip with a strongly translating textured
object over a static textured background, sized so its CU grid has interior
rows and columns for temporal-masking checks.  Generation is deterministic
for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import Frame

BENCH_NAMES = ("static_gradient", "moving_gradient", "noise_patches", "moving_object")
HIGH_MOTION_NAME = "high_motion_translation"


@dataclass
class CorpusSequence:
    name: str
    frames: list
    fps: int = 30


def _to_frame(planes) -> Frame:
    h, w = planes[0].shape
    return Frame(w, h, 8, tuple(np.clip(p, 0, 255).astype(np.int64) for p in planes))


def _gradients(size, rng):
    """Per-channel sawtooth ramps summed over two non-collinear directions,
    phase-shifted a third of a period apart so the three channels share
    statistics, plus independent texture.  Two directions make (0, 0) the
    only translation that maps the pattern onto itself, which keeps motion
    search unambiguous even when quantization erases the fine texture."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    planes = {}
    for phase, ch in zip((0.0, 1.0 / 3.0, 2.0 / 3.0), ("G", "B", "R")):
        saw_a = ((xx + 2 * yy) / size + phase) % 1.0
        saw_b = ((2 * xx + yy) / size + phase) % 1.0
        planes[ch] = 127.5 * (saw_a + saw_b) + rng.normal(0.0, 6.0, (size, size))
    return planes


def static_gradient(size=64, frame_count=30, seed=0) -> CorpusSequence:
    rng = np.random.default_rng(seed)
    planes = _gradients(size, rng)
    frame = _to_frame((planes["G"], planes["B"], planes["R"]))
    return CorpusSequence("static_gradient", [frame] * frame_count)


def moving_gradient(size=64, frame_count=30, seed=1) -> CorpusSequence:
    rng = np.random.default_rng(seed)
    planes = _gradients(size, rng)
    frames = []
    for t in range(frame_count):
        shifted = {ch: np.roll(planes[ch], shift=(t, 2 * t), axis=(0, 1)) for ch in planes}
        frames.append(_to_frame((shifted["G"], shifted["B"], shifted["R"])))
    return CorpusSequence("moving_gradient", frames)


def noise_patches(size=64, frame_count=30, seed=2) -> CorpusSequence:
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(3):
        plane = np.full((size, size), 128.0)
        half = size // 2
        sigmas = ((4.0, 0, 0), (16.0, 0, half), (40.0, half, 0), (70.0, half, half))
        for sigma, oy, ox in sigmas:
            plane[oy : oy + half, ox : ox + half] += rng.normal(0.0, sigma, (half, half))
        # a ramp keeps low-frequency energy in every channel at high QP
        plane += np.linspace(-60.0, 60.0, size)[None, :]
        planes.append(plane)
    frame = _to_frame(tuple(planes))
    return CorpusSequence("noise_patches", [frame] * frame_count)


def _object_scene(size, obj_size, rng):
    background = [
        128.0 + rng.normal(0.0, 10.0, (size, size))
        + np.linspace(-40.0, 40.0, size)[:, None]
        for _ in range(3)
    ]
    obj = [rng.normal(0.0, 45.0, (obj_size, obj_size)) + 128.0 for _ in range(3)]
    return background, obj


def _compose(background, obj, ox, oy):
    planes = []
    for bg, texture in zip(background, obj):
        plane = bg.copy()
        n = texture.shape[0]
        plane[oy : oy + n, ox : ox + n] = texture
        planes.append(plane)
    return planes


def moving_object(size=64, frame_count=30, seed=3) -> CorpusSequence:
    rng = np.random.default_rng(seed)
    background, obj = _object_scene(size, 24, rng)
    frames = []
    base = (size - 24) // 2
    for t in range(frame_count):
        dx, dy = (2, 1) if t % 2 else (0, 0)
        frames.append(_to_frame(_compose(background, obj, base + dx, base + dy)))
    return CorpusSequence("moving_object", frames)


def high_motion_translation(size=160, frame_count=10, seed=4) -> CorpusSequence:
    """A 112x112 textured object oscillating by (3, 4) over a static
    textured background: interior CUs see an exact translation, border CUs
    stay put, so per-CU motion magnitudes exceed the frame mean inside."""
    rng = np.random.default_rng(seed)
    background, obj = _object_scene(size, 112, rng)
    frames = []
    for t in range(frame_count):
        dx, dy = (3, 4) if t % 2 else (0, 0)
        frames.append(_to_frame(_compose(background, obj, 24 + dx, 24 + dy)))
    return CorpusSequence(HIGH_MOTION_NAME, frames)


def make_corpus(seed=0, include_high_motion=True) -> list[CorpusSequence]:
    """The deterministic benchmark corpus for the given seed."""
    seqs = [
        static_gradient(seed=seed),
        moving_gradient(seed=seed + 1),
        noise_patches(seed=seed + 2),
        moving_object(seed=seed + 3),
    ]
    if include_high_motion:
        seqs.append(high_motion_translation(seed=seed + 4))
    return seqs
