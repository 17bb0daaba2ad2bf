"""Large-frame measurement: a synthetic 1920x1080 8-bit I+P pair, encoded
at QP 27 and decoded, at CU 32 and at CU 8.

    python tools/large_frame.py

Each plane is a smooth sinusoidal texture plus Gaussian noise (sigma 6,
seed 0); the two frames are crops of it, the second moved by 3 rows and 5
columns.  Each CU size runs in a fresh process, so its peak RSS is that
encode and decode alone.  Each prints one line:

    cu_size=8 encode_s_per_frame=... decode_s_per_frame=...
        motion_us_per_cu=... frame_cbs_ms_per_frame=... peak_rss_mib=...
        encode_faults=... decode_faults=...

Motion search is the wall time of `estimate_motion_field` over the CUs it
searched, and `frame_cbs_ms_per_frame` that of the encoder's block
statistics and QPs (`pipeline._frame_cbs`) over the frames.  The faults
are the process's minor page faults during the encode and during the
decode (the `ru_minflt` difference around each call).  Exits 1 if the
decoded frames differ from the encoder's reconstruction.  It is not a test
file, so pytest does not collect it; a run takes about half a minute.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIDTH, HEIGHT = 1920, 1080
SOURCE = (1088, 1928)     # rows, columns of the planes the frames are cropped from
CROPS = ((0, 0), (3, 5))  # top-left corner of each frame's crop
CU_SIZES = (32, 8)


def _frames():
    import numpy as np
    from spectralpq.frames import Frame

    rng = np.random.default_rng(0)
    y, x = np.arange(SOURCE[0]), np.arange(SOURCE[1])
    planes = [
        np.clip(np.rint(128 + 60 * np.outer(np.cos(y / (23 + 5 * k)), np.sin(x / (37 + 9 * k)))
                        + rng.normal(0, 6, SOURCE)), 0, 255).astype(np.uint8)
        for k in range(3)
    ]
    return [Frame(WIDTH, HEIGHT, 8, tuple(p[a : a + HEIGHT, b : b + WIDTH].copy() for p in planes))
            for a, b in CROPS]


def _measure(cu_size: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from spectralpq import pipeline

    search, motion_s, cus = pipeline.estimate_motion_field, [], []
    frame_cbs, frame_cbs_s = pipeline._frame_cbs, []

    def timed_search(*args):
        start = time.perf_counter()
        field = search(*args)
        motion_s.append(time.perf_counter() - start)
        cus.append(len(field.vectors))
        return field

    def timed_frame_cbs(*args):
        start = time.perf_counter()
        cbs = frame_cbs(*args)
        frame_cbs_s.append(time.perf_counter() - start)
        return cbs

    pipeline.estimate_motion_field = timed_search
    pipeline._frame_cbs = timed_frame_cbs
    def timed(call, *args):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        out = call(*args)
        return (out, time.perf_counter() - start,
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)

    frames = _frames()
    result, encode_s, encode_faults = timed(
        pipeline.encode_sequence, frames, pipeline.EncoderConfig(base_qp=27, cu_size=cu_size))
    decoded, decode_s, decode_faults = timed(pipeline.decode_sequence, result.bitstream)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"cu_size={cu_size} encode_s_per_frame={encode_s / len(frames):.3f} "
          f"decode_s_per_frame={decode_s / len(frames):.3f} "
          f"motion_us_per_cu={1e6 * sum(motion_s) / sum(cus):.1f} "
          f"frame_cbs_ms_per_frame={1e3 * sum(frame_cbs_s) / len(frame_cbs_s):.1f} "
          f"peak_rss_mib={peak_mib:.1f} "
          f"encode_faults={encode_faults} decode_faults={decode_faults}", flush=True)
    same = all(np.array_equal(d.planes, r.planes) for d, r in zip(decoded, result.reconstruction))
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return _measure(args.child)
    status = 0
    for cu_size in CU_SIZES:
        status |= subprocess.call([sys.executable, __file__, "--child", str(cu_size)])
    return status


if __name__ == "__main__":
    sys.exit(main())
