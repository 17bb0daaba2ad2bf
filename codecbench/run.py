"""Codec benchmark: encode/decode throughput, compression and quality on
two workloads, with every output checked against the master invariant.

Usage, from the root of a checkout:

    python3 codecbench/run.py --workload inter_motion --seed 0 --seconds 55 --trace 0

``--trace 0`` gives the end-to-end metrics.  A closed loop makes
back-to-back ops for ``--seconds``; each ``*_kpx_s`` is the source
kilopixels the run's calls completed per second of those calls (on the
sweep, encode and decode seconds are the calling thread's CPU seconds).
``setup_s`` is the median of three fresh processes that import the
program, make the inputs and warm up, run between the ops.  Nothing is
wrapped except two timing hooks the sweep needs.  ``--trace 1`` runs half
the time untraced, then starts a second process that wraps the codec's
layer functions (``tracer.py``) and reports per-layer self times and work
counts, plus the tracing overhead.

The program is imported from ``src/`` of the same checkout.  The last line
of standard output is the result ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is a report with the environment, the
stream SHA-256 digests and every call's time with their medians and
counts.  ``python3 codecbench/selftest.py`` checks the benchmark itself
on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".codecbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    package comes from there; exit with an error if it is not."""
    if not (SRC / "spectralpq" / "__init__.py").is_file():
        sys.exit(f"codecbench: no program at {SRC / 'spectralpq'}")
    sys.path.insert(0, str(SRC))
    import spectralpq

    if Path(spectralpq.__file__).resolve().parent != (SRC / "spectralpq").resolve():
        sys.exit(f"codecbench: spectralpq imported from {spectralpq.__file__}, not {SRC}")


def set_up(args):
    """Import the program, make the inputs and warm up: the set-up cost."""
    import_program()
    import workloads

    workload = workloads.build(
        args.workload, args.seed, SCRATCH / f"qp_maps-{os.getpid()}", args.tiny
    )
    workload.warm_up()
    return workload


def measure(workload, seconds: float, min_ops: int, span=nullcontext,
            probe=None, probes: int = 0) -> list:
    """Closed loop: back-to-back ops until the next one would pass
    ``seconds`` (judged by the median op so far), and at least ``min_ops``.

    ``probe`` runs ``probes`` times between ops, spread evenly over the run
    and left out of its time, so that it meets the same machine states as
    the ops do.
    """
    ops = []
    done = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        while done < probes and time.perf_counter() - start - paused >= done * seconds / probes:
            t0 = time.perf_counter()
            probe()
            done += 1
            paused += time.perf_counter() - t0
        cpu0 = time.process_time()
        op = workload.run_op(span)
        op.cpu_s = time.process_time() - cpu0
        ops.append(op)
        elapsed = time.perf_counter() - start - paused
        typical = statistics.median(o.wall_s for o in ops)
        if len(ops) >= min_ops and elapsed + typical > seconds:
            break
    for _ in range(done, probes):
        probe()
    return ops


def tally(ops: list, reference: dict | None = None) -> tuple[int, dict]:
    """Attempted ops and failure reasons, including streams that differ
    from the first stream made for the same key in this run."""
    reference = {} if reference is None else reference
    attempted = 0
    failures = {}
    for i, op in enumerate(ops):
        attempted += op.attempted
        for key, reasons in op.failures.items():
            failures[f"op{i}:{key}"] = reasons
        for key, digest in op.digests.items():
            if reference.setdefault(key, digest) != digest:
                failures.setdefault(f"op{i}:{key}", []).append("stream differs from first call")
    return attempted, failures


def _kpx_s(calls) -> float:
    """Work completed per second: source kilopixels over the calls' seconds."""
    calls = list(calls)
    return sum(px for px, _ in calls) / sum(s for _, s in calls) / 1000.0


def _completed(ops: list) -> list:
    """Ops whose calls returned: their timings count even if a check failed."""
    done = [o for o in ops if o.wall_s > 0]
    if not done:
        sys.exit(f"codecbench: every op raised, first: {ops[0].failures}")
    return done


def end_to_end(ops: list, setup_s: float, attempted: int, failed: int) -> dict:
    done = _completed(ops)
    first = done[0]
    return {
        "encode_kpx_s": (_kpx_s(c for o in done for c in o.encodes), "kpx/s"),
        "decode_kpx_s": (_kpx_s(c for o in done for c in o.decodes), "kpx/s"),
        "sweep_kpx_s": (_kpx_s((o.pixels, o.wall_s) for o in done), "kpx/s"),
        "bits_per_px": (first.stream_bits / first.pixels, "bit/px"),
        "psnr_db": (statistics.fmean(first.psnr_db), "dB"),
        "ok_share": (1.0 - failed / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def layer_metrics(tracer, ops: list, workers: int) -> tuple[dict, list]:
    """Per-layer metrics of a traced run: per-op medians of self times,
    per-op work counts (which must repeat exactly), and core use."""
    from tracer import COUNT_METRICS, SELF_METRICS

    summaries = [tracer.op_summary(op) for op in range(1, tracer.op + 1)]
    faults = []
    counts = [s["counts"] for s in summaries]
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            faults.append(f"op{i}: work counts differ from op0")
    for i, c in enumerate(counts):
        if c.get("entropy.bits", 0) != c.get("pipeline.channel_bits", 0):
            faults.append(f"op{i}: entropy.bits differs from the FrameStats channel bits")
    c = counts[0]
    metrics = {
        metric: (statistics.median(s["self_s"].get(span, 0.0) for s in summaries), "s")
        for span, metric in SELF_METRICS.items()
    }
    metrics.update({key: (c.get(key, 0), "count") for key in COUNT_METRICS})
    metrics["motion.zero_mv_share"] = (
        c.get("motion.zero_mvs", 0) / c["motion.cus"] if c.get("motion.cus") else 0.0, "share")
    metrics["entropy.zero_block_share"] = (
        c.get("entropy.zero_blocks", 0) / c["entropy.blocks"] if c.get("entropy.blocks") else 0.0,
        "share")
    metrics["bench.core_use"] = (
        statistics.median(o.cpu_s / (workers * o.wall_s) for o in ops) if workers > 1 else 0.0,
        "share")
    metrics["trace.wall_s"] = (statistics.median(s["wall_s"] for s in summaries), "s")
    return metrics, faults


def traced_child(args) -> dict:
    """Set up, wrap the layers, run the traced ops and report."""
    workload = set_up(args)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        ops = measure(workload, args.seconds, 1, tracer.op_span)
    finally:
        tracer.uninstall()
    metrics, faults = layer_metrics(tracer, ops, workload.workers)
    SCRATCH.mkdir(exist_ok=True)
    tracer.write_spans(SCRATCH / f"spans-{args.workload}.npz")
    return {
        "metrics": metrics,
        "faults": faults,
        "ops": [{"attempted": o.attempted, "failures": o.failures, "digests": o.digests,
                 "wall_s": o.wall_s} for o in ops],
    }


def _run_self(role: str, args, seconds: float, timeout: float) -> dict:
    """Run this script in another role and parse the JSON it prints last."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"codecbench: {role} process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(args) -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [
        line.split(":", 1)[1].strip()
        for line in (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
        if line.startswith("model name")
    ]
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor() or "unknown",
        "git_revision": revision,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def _samples(ops) -> dict:
    def stats(values):
        values = list(values)
        return {"n": len(values), "median": statistics.median(values) if values else None,
                "values": values}
    return {
        "encode_s": stats(s for o in ops for _, s in o.encodes),
        "decode_s": stats(s for o in ops for _, s in o.decodes),
        "op_wall_s": stats(o.wall_s for o in _completed(ops)),
    }


def main_run(args) -> tuple[dict, dict]:
    workload = set_up(args)
    reference = {}
    if args.trace == 0:
        setups = []
        ops = measure(
            workload, args.seconds, 2, probe=lambda: setups.append(
                _run_self("setup-probe", args, 0, PROBE_TIMEOUT_S)["setup_s"]),
            probes=SETUP_PROBES,
        )
        attempted, failures = tally(ops, reference)
        metrics = end_to_end(ops, statistics.median(setups), attempted, len(failures))
        report = {"samples": _samples(ops), "setup_s": setups}
    else:
        ops = measure(workload, args.seconds / 2, 1)
        attempted, failures = tally(ops, reference)
        child = _run_self("traced", args, args.seconds / 2, CHILD_TIMEOUT_S)
        child_ops = [SimpleNamespace(**o) for o in child["ops"]]
        child_attempted, child_failures = tally(child_ops, reference)
        attempted += child_attempted
        failures.update({f"traced:{k}": v for k, v in child_failures.items()})
        for fault in child["faults"]:
            failures[f"traced:{fault}"] = [fault]
        metrics = child["metrics"]
        untraced = statistics.median(o.wall_s for o in _completed(ops))
        traced = statistics.median(o.wall_s for o in _completed(child_ops))
        metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
        report = {"samples": _samples(ops), "traced_op_wall_s": [o.wall_s for o in child_ops]}
    digests = {}
    for op in ops:
        for key, digest in op.digests.items():
            digests.setdefault(key, digest)
    report.update(environment(args), digests=digests, failures=failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("inter_motion", "corpus_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small frames per input, for the self-test")
    parser.add_argument("--role", choices=("main", "setup-probe", "traced"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup-probe":
        t0 = time.perf_counter()
        set_up(args)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.role == "traced":
        print(json.dumps(traced_child(args)))
        return 0
    report, result = main_run(args)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
