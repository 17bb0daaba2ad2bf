"""Self-test of the benchmark on tiny inputs, from the root of a checkout:

    python3 codecbench/selftest.py

It checks that
  * every run reports exactly the metrics BENCHMARK.json names, with their units;
  * the traced work counts repeat exactly between two traced runs;
  * on a codec op, the layer self times (pipeline.self_s included) add up
    to the traced wall time within 10%;
  * a corrupted stream makes the run report failed ops (ok_share < 1).
Exits 1 and names the check on the first failure.
"""

from __future__ import annotations

import contextlib
import functools
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
COVERAGE_TOLERANCE = 0.10


@functools.cache
def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0 ({proc.stderr[-500:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_report(workload: str, trace: int, result: dict) -> None:
    expected = spec()["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    check(units == {m["name"]: m["unit"] for m in expected},
          f"{workload} --trace {trace} reports every metric with its unit")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} --trace {trace} is correct with no failed op")


def check_traced_counts() -> None:
    counts = {m["name"] for m in spec()["per_layer"] if m["unit"] == "count"}
    for workload in (w["name"] for w in spec()["workloads"]):
        first, second = bench(workload, 1), bench(workload, 1)
        check_report(workload, 1, first)
        values = {k: first["metrics"][k]["value"] for k in counts}
        check(values == {k: second["metrics"][k]["value"] for k in counts},
              f"{workload}: work counts repeat exactly between two traced runs")
        sweep = workload == "corpus_sweep"
        for key, metric in first["metrics"].items():
            if key.startswith(("metrics.", "bench.")):
                check((metric["value"] != 0) == sweep,
                      f"{workload}: {key} is non-zero only on the sweep")
        check(values["motion.cus"] > 0, f"{workload}: motion.cus is non-zero")


def check_coverage() -> None:
    from tracer import SELF_METRICS, Tracer
    import workloads

    workload = workloads.build("inter_motion", 3, None, tiny=True)
    workload.warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        run.measure(workload, 0, 2, tracer.op_span)
    finally:
        tracer.uninstall()
    for op in range(1, tracer.op + 1):
        summary = tracer.op_summary(op)
        layers = sum(summary["self_s"].get(span, 0.0) for span in SELF_METRICS)
        share = layers / summary["wall_s"]
        check(abs(1.0 - share) <= COVERAGE_TOLERANCE,
              f"inter_motion op {op}: layer self times are {share:.3f} of the traced wall")


@contextlib.contextmanager
def corrupt_second_stream(module, mangle):
    """Make every second encode_sequence call in ``module`` return a broken stream."""
    encode = module.encode_sequence
    calls = []

    def corrupting(frames, config):
        result = encode(frames, config)
        calls.append(1)
        if len(calls) % 2 == 0:
            result.bitstream = mangle(result.bitstream)
        return result

    module.encode_sequence = corrupting
    try:
        yield
    finally:
        module.encode_sequence = encode


def flip_middle_byte(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x5A]) + data[middle + 1:]


def check_corruption() -> None:
    from spectralpq import bench as harness, pipeline
    import workloads

    cases = (
        ("inter_motion", pipeline, flip_middle_byte, "flipped byte"),
        ("inter_motion", pipeline, lambda data: data[:-1], "truncated stream"),
        ("corpus_sweep", harness, flip_middle_byte, "flipped byte"),
    )
    for name, module, mangle, what in cases:
        workload = workloads.build(name, 3, run.SCRATCH / "selftest_qp_maps", tiny=True)
        with corrupt_second_stream(module, mangle):
            ops = run.measure(workload, 0, 2)
        attempted, failures = run.tally(ops)
        ok_share = run.end_to_end(ops, 0.0, attempted, len(failures))["ok_share"][0]
        check(failures and ok_share < 1.0,
              f"{name}: a {what} counts as failed (ok_share {ok_share:.3f})")


def main() -> int:
    for workload in (w["name"] for w in spec()["workloads"]):
        check_report(workload, 0, bench(workload, 0))
    check_traced_counts()
    run.import_program()
    check_coverage()
    check_corruption()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
