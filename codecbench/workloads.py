"""The benchmark's workloads: inputs made from the seed by the repo's own
corpus generators, one op per workload, and the checks each op must pass.

``inter_motion`` times one ``encode_sequence`` and one ``decode_sequence``
per op.  ``corpus_sweep`` times one ``run_experiment`` call; each of its
cells counts as an op of its own for the checks.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import threading
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter, thread_time

import numpy as np
from spectralpq import bench, pipeline
from spectralpq.corpus import high_motion_translation, make_corpus
from spectralpq.frames import PLANE_ORDER, Frame
from spectralpq.metrics import sequence_psnr
from spectralpq.pipeline import MODES, EncoderConfig

HEADER_BITS = 128   # SPQ1 container header, docs/bitstream.md
WARM_UP_FRAMES = 2  # an I frame and, with GOP > 1, a P frame


@dataclass
class OpOutcome:
    """What one op did and whether each of its parts passed the checks."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    pixels: int = 0
    encodes: list = field(default_factory=list)   # (source pixels, seconds)
    decodes: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)   # stream key -> SHA-256
    stream_bits: int = 0
    psnr_db: list = field(default_factory=list)   # per stream, mean over G/B/R
    attempted: int = 1
    failures: dict = field(default_factory=dict)  # stream key -> reasons


def crop(frames, size: int, count: int) -> list:
    return [
        Frame(size, size, f.bit_depth, tuple(p[:size, :size].copy() for p in f.planes))
        for f in frames[:count]
    ]


def frame_pixels(frames) -> int:
    return sum(f.width * f.height for f in frames)


def stream_faults(result) -> list[str]:
    """Checks on one encode result that need no decode."""
    expected = math.ceil((HEADER_BITS + result.stats.total_bits) / 8)
    if len(result.bitstream) != expected:
        return [f"stream has {len(result.bitstream)} bytes, stats imply {expected}"]
    return []


def decode_faults(decoded, reconstruction) -> list[str]:
    """The master invariant: the decoder's output equals the encoder's
    reconstruction, bit for bit."""
    if len(decoded) != len(reconstruction):
        return [f"decoded {len(decoded)} frames, encoder made {len(reconstruction)}"]
    return [
        f"decode differs from reconstruction at frame {i} channel {ch}"
        for i, (dec, rec) in enumerate(zip(decoded, reconstruction))
        for ch in PLANE_ORDER
        if dec.plane(ch).shape != rec.plane(ch).shape
        or not np.array_equal(dec.plane(ch), rec.plane(ch))
    ]


def mean_psnr(refs, recs) -> float:
    return sum(sequence_psnr(refs, recs, ch) for ch in PLANE_ORDER) / len(PLANE_ORDER)


def _failed(exc: BaseException) -> list[str]:
    return [f"raised {exc!r}: " + traceback.format_exc(limit=-3)]


class CodecWorkload:
    """One clip, one config: each op encodes it and decodes the stream."""

    def __init__(self, name: str, frames: list, config: EncoderConfig):
        self.name = name
        self.frames = frames
        self.config = config
        self.workers = 1

    def warm_up(self) -> None:
        clip = self.frames[:WARM_UP_FRAMES]
        pipeline.decode_sequence(pipeline.encode_sequence(clip, self.config).bitstream)

    def run_op(self, span=nullcontext) -> OpOutcome:
        out = OpOutcome(pixels=frame_pixels(self.frames))
        try:
            with span():
                t0 = perf_counter()
                result = pipeline.encode_sequence(self.frames, self.config)
                t1 = perf_counter()
                decoded = pipeline.decode_sequence(result.bitstream)
                t2 = perf_counter()
        except Exception as exc:   # a failing op is counted; the run goes on
            out.failures[self.name] = _failed(exc)
            return out
        out.wall_s = t2 - t0
        out.encodes.append((out.pixels, t1 - t0))
        out.decodes.append((out.pixels, t2 - t1))
        out.digests[self.name] = hashlib.sha256(result.bitstream).hexdigest()
        out.stream_bits = 8 * len(result.bitstream)
        out.psnr_db.append(mean_psnr(self.frames, result.reconstruction))
        faults = stream_faults(result) + decode_faults(decoded, result.reconstruction)
        if faults:
            out.failures[self.name] = faults
        return out


class SweepWorkload:
    """The experiment harness: each op is one ``run_experiment`` call.

    Its ``encode_sequence`` and ``decode_sequence`` calls are timed by
    thin hooks in the ``spectralpq.bench`` namespace, which also keep each
    cell's encode result for the stream checks after the call returns.
    The worker threads share the GIL, so a call's wall time includes the
    other thread's turns; the hooks time each call by the calling thread's
    CPU clock instead.
    """

    def __init__(self, corpus: list, qps: list, workers: int, qp_map_dir):
        self.corpus = corpus
        self.qps = qps
        self.workers = workers
        self.qp_map_dir = qp_map_dir
        self._names = {id(seq.frames): seq.name for seq in corpus}

    def warm_up(self) -> None:
        clip = self.corpus[0].frames[:WARM_UP_FRAMES]
        config = EncoderConfig(base_qp=self.qps[0])
        pipeline.decode_sequence(pipeline.encode_sequence(clip, config).bitstream)

    @contextmanager
    def _hooks(self, out: OpOutcome):
        encode, decode = bench.encode_sequence, bench.decode_sequence
        results = {}
        lock = threading.Lock()

        def timed_encode(frames, config):
            t0 = thread_time()
            result = encode(frames, config)
            seconds = thread_time() - t0
            key = f"{self._names[id(frames)]}/{config.mode}/qp{config.base_qp}"
            with lock:
                out.encodes.append((frame_pixels(frames), seconds))
                results[key] = result
            return result

        def timed_decode(data):
            t0 = thread_time()
            frames = decode(data)
            seconds = thread_time() - t0
            with lock:
                out.decodes.append((frame_pixels(frames), seconds))
            return frames

        bench.encode_sequence, bench.decode_sequence = timed_encode, timed_decode
        try:
            yield results
        finally:
            bench.encode_sequence, bench.decode_sequence = encode, decode

    def run_op(self, span=nullcontext) -> OpOutcome:
        keys = [f"{s.name}/{m}/qp{q}" for s in self.corpus for q in self.qps for m in MODES]
        out = OpOutcome(
            pixels=sum(frame_pixels(s.frames) for s in self.corpus) * len(self.qps) * len(MODES),
            attempted=len(keys),
        )
        try:
            with self._hooks(out) as results, span():
                t0 = perf_counter()
                rows = bench.run_experiment(
                    self.corpus, qps=self.qps, modes=list(MODES),
                    workers=self.workers, qp_map_dir=self.qp_map_dir,
                )
                out.wall_s = perf_counter() - t0
        except Exception as exc:   # a failing op is counted; the run goes on
            out.failures = {key: _failed(exc) for key in keys}
            return out
        finally:
            shutil.rmtree(self.qp_map_dir, ignore_errors=True)
        for key, row in zip(keys, rows):
            faults = [] if row.status == "ok" else [f"row status {row.status!r}"]
            result = results.get(key)
            if result is None:
                faults.append("no encode result")
            else:
                out.digests[key] = hashlib.sha256(result.bitstream).hexdigest()
                out.stream_bits += 8 * len(result.bitstream)
                faults += stream_faults(result)
            if row.psnr:
                out.psnr_db.append(sum(row.psnr.values()) / len(row.psnr))
            if faults:
                out.failures[key] = faults
        return out


def build(name: str, seed: int, qp_map_dir, tiny: bool = False):
    """The named workload with inputs made from ``seed``.

    ``tiny`` shrinks every input to a few small frames, for the self-test.
    """
    if name == "inter_motion":
        frames = high_motion_translation(seed=seed + 4).frames
        if tiny:
            frames = crop(frames, 64, 3)
        config = EncoderConfig(
            base_qp=27, mode="spectral-pq", cu_size=32, gop_length=8, search_range=16
        )
        return CodecWorkload(name, frames, config)
    if name == "corpus_sweep":
        corpus = make_corpus(seed=seed, include_high_motion=False)
        if tiny:
            for seq in corpus:
                seq.frames = seq.frames[:2]
        return SweepWorkload(corpus, [37], workers=2, qp_map_dir=qp_map_dir)
    raise ValueError(f"unknown workload {name!r}")
