"""Span tracer that times the codec's layers from outside the program.

A Tracer replaces the layer functions that ``spectralpq.pipeline`` and
``spectralpq.bench`` call with wrappers.  Each call records one span (name,
start, end, parent, op id) on a per-thread stack, so the two worker threads
of a sweep stay apart, plus work counts taken from the call's arguments and
result.  A span's self time is its duration minus its same-thread children
and minus the tracer's own bookkeeping inside it.  Spans stay in memory and
are written out with ``write_spans`` when the run ends.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from spectralpq import bench, pipeline
from spectralpq.entropy import scan_block

# Span name -> per-layer metric that reports its self time.
SELF_METRICS = {
    "motion": "motion.self_s",
    "entropy.encode": "entropy.encode_self_s",
    "entropy.decode": "entropy.decode_self_s",
    "quantizer": "quantizer.self_s",
    "transform.forward": "transform.forward_self_s",
    "transform.inverse": "transform.inverse_self_s",
    "perceptual": "perceptual.self_s",
    "pipeline.predict": "pipeline.predict_self_s",
    "pipeline": "pipeline.self_s",
    "frames": "frames.self_s",
    "metrics": "metrics.self_s",
    "bench.verify": "bench.verify_self_s",
    "bench.qp_maps": "bench.qp_maps_self_s",
}

COUNT_METRICS = (
    "motion.cus",
    "motion.candidates",
    "entropy.blocks",
    "entropy.levels",
    "entropy.bits",
    "quantizer.rdoq_calls",
    "quantizer.dequant_calls",
    "transform.calls",
    "perceptual.calls",
    "frames.calls",
    "metrics.ssim_calls",
    "bench.cells",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_motion(counts, args, kwargs, result):
    """CUs and SAD candidates of the clamped windows of motion.estimate_mv."""
    reference = _arg(args, kwargs, 1, "reference_g")
    tree = _arg(args, kwargs, 2, "tree")
    search_range = _arg(args, kwargs, 3, "search_range")
    h, w = reference.shape
    for cu in tree:
        y_lo = max(-search_range, -cu.y)
        y_hi = min(search_range, h - cu.size - cu.y)
        x_lo = max(-search_range, -cu.x)
        x_hi = min(search_range, w - cu.size - cu.x)
        counts["motion.cus"] += 1
        counts["motion.candidates"] += (y_hi - y_lo + 1) * (x_hi - x_lo + 1)
    counts["motion.zero_mvs"] += sum(v.vx == 0 and v.vy == 0 for v in result.vectors)


def _count_encode_block(counts, args, kwargs, result):
    last = scan_block(_arg(args, kwargs, 0, "levels")).last_significant
    counts["entropy.blocks"] += 1
    counts["entropy.levels"] += last + 1
    counts["entropy.zero_blocks"] += last < 0
    counts["entropy.bits"] += result


def _count_encode_sequence(counts, args, kwargs, result):
    # Cross-check for entropy.bits: the encoder's own per-channel accounting.
    counts["pipeline.channel_bits"] += sum(
        sum(f.bits_channel.values()) for f in result.stats.frames
    )


_SEQUENCES = (
    ("encode_sequence", "pipeline", _count_encode_sequence),
    ("decode_sequence", "pipeline", None),
)

# (module, function, span name, counter) for every wrapped call.  A string
# counter is a call count, bumped at once; a function counter reads the
# call's arguments and result, and runs when the op has ended, outside its
# wall time.
WRAPPED = [
    (pipeline, fn, span, count)
    for fn, span, count in (
        ("estimate_motion_field", "motion", _count_motion),
        ("encode_block", "entropy.encode", _count_encode_block),
        ("decode_block", "entropy.decode", None),
        ("rdoq_quantize", "quantizer", "quantizer.rdoq_calls"),
        ("rdoq_config", "quantizer", None),
        ("urq_quantize", "quantizer", None),
        ("urq_dequantize", "quantizer", "quantizer.dequant_calls"),
        ("forward", "transform.forward", "transform.calls"),
        ("inverse", "transform.inverse", "transform.calls"),
        ("cb_activity", "perceptual", "perceptual.calls"),
        ("normalized_activity", "perceptual", "perceptual.calls"),
        ("perceptual_qp", "perceptual", "perceptual.calls"),
        ("temporal_offset", "perceptual", "perceptual.calls"),
        ("adaptiveqp_offset", "perceptual", "perceptual.calls"),
        ("intra_predict_dc", "pipeline.predict", None),
        ("pad_plane", "frames", "frames.calls"),
        ("partition", "frames", "frames.calls"),
    ) + _SEQUENCES
] + [
    (bench, fn, span, count)
    for fn, span, count in _SEQUENCES + (
        ("verify_cell", "bench.verify", None),
        ("write_qp_maps", "bench.qp_maps", None),
        ("ssim", "metrics", "metrics.ssim_calls"),
        ("sequence_psnr", "metrics", None),
        ("run_cell", "bench.cell", "bench.cells"),
    )
]


class _Frame:
    """An open span on a thread's stack."""

    __slots__ = ("sid", "name", "parent", "op", "start", "child_s", "excluded_s")

    def __init__(self, sid, name, parent, op):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.child_s = 0.0
        self.excluded_s = 0.0


class _ThreadState:
    def __init__(self, index: int):
        self.index = index
        self.next_sid = 0
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []                         # closed spans
        self.self_s = defaultdict(float)                     # (op, span name) -> s
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> key -> count
        self.pending = defaultdict(list)                     # op -> deferred counts


class Tracer:
    """Wraps the layer functions and records spans and counts per op."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._originals: list[tuple] = []
        self.op = 0
        self.op_walls: dict[int, float] = {}
        self._root = -1   # sid of the open op span: parent of worker-thread spans

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def _open(self, state: _ThreadState, name: str) -> _Frame:
        parent = state.stack[-1].sid if state.stack else self._root
        frame = _Frame((state.index << 40) | state.next_sid, name, parent, self.op)
        state.next_sid += 1
        state.stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: _Frame, end: float) -> None:
        state.stack.pop()
        duration = end - frame.start
        state.spans.append(
            (frame.sid, frame.name, frame.start, end, frame.parent, frame.op, state.index)
        )
        state.self_s[frame.op, frame.name] += duration - frame.child_s - frame.excluded_s
        if state.stack:
            state.stack[-1].child_s += duration

    def wrap(self, fn, name: str, count=None):
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            state = tracer._state()
            frame = tracer._open(state, name)
            frame.start = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(state, frame, end)
            if count.__class__ is str:
                state.counts[frame.op][count] += 1
            elif count is not None:
                state.pending[frame.op].append((count, args, kwargs, result))
            if state.stack:
                state.stack[-1].excluded_s += (start - enter) + (perf_counter() - end)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, fn, span, count in WRAPPED:
            original = getattr(module, fn)
            self._originals.append((module, fn, original))
            setattr(module, fn, self.wrap(original, span, count))

    def uninstall(self) -> None:
        while self._originals:
            module, fn, original = self._originals.pop()
            setattr(module, fn, original)

    @contextmanager
    def op_span(self):
        """Root span of one op; spans that worker threads open inside it
        name it as their parent."""
        self.op += 1
        state = self._state()
        frame = self._open(state, "op")
        self._root = frame.sid
        frame.start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._close(state, frame, end)
            self._root = -1
            self.op_walls[self.op] = end - frame.start
            for thread in self._threads:
                for count, args, kwargs, result in thread.pending.pop(self.op, ()):
                    count(thread.counts[self.op], args, kwargs, result)

    def op_summary(self, op: int) -> dict:
        """Self seconds per span name and work counts of one finished op,
        summed over threads."""
        self_s = defaultdict(float)
        counts = defaultdict(int)
        for state in self._threads:
            for (span_op, name), seconds in state.self_s.items():
                if span_op == op:
                    self_s[name] += seconds
            for key, value in state.counts.get(op, {}).items():
                counts[key] += value
        return {"wall_s": self.op_walls[op], "self_s": dict(self_s), "counts": dict(counts)}

    def write_spans(self, path) -> None:
        """All spans as arrays: sid, name code, start, end, parent sid, op, thread."""
        spans = [s for state in self._threads for s in state.spans]
        names = sorted({s[1] for s in spans})
        code = {n: i for i, n in enumerate(names)}
        cols = list(zip(*spans)) if spans else [()] * 7
        np.savez(
            path,
            names=np.array(names),
            sid=np.array(cols[0], dtype=np.int64),
            name=np.array([code[n] for n in cols[1]], dtype=np.int16),
            start=np.array(cols[2], dtype=np.float64),
            end=np.array(cols[3], dtype=np.float64),
            parent=np.array(cols[4], dtype=np.int64),
            op=np.array(cols[5], dtype=np.int32),
            thread=np.array(cols[6], dtype=np.int16),
        )
