"""Block activity, motion magnitudes, and the per-channel QP decision.

Run:  python demos/03_activity_and_motion.py
"""

import numpy as np

from spectralpq.corpus import high_motion_translation
from spectralpq.frames import pad_plane, partition
from spectralpq.motion import estimate_motion_field
from spectralpq.perceptual import frame_activity, perceptual_qp, temporal_offset

seq = high_motion_translation(frame_count=2)
cur, prev = seq.frames[1], seq.frames[0]
tree = partition(cur, 32)

def plane(frame, ch):
    return pad_plane(frame.plane(ch), 64).astype(np.float64)

print("== spatial activity of the G plane (one row per CU row) ==")
acts = frame_activity(plane(cur, "G"), tree, "G")
rows, cols = tree.grid_shape
for r in range(rows):
    row = acts[r * cols : (r + 1) * cols]
    print("  " + "  ".join(f"g={a.g:8.1f} a={a.a:.2f}" for a in row))
print(f"  frame mean activity H = {acts[0].frame_mean:.1f}")

print("\n== motion field: the object translates, the border does not ==")
field = estimate_motion_field(
    plane(cur, "G").astype(np.int64), plane(prev, "G").astype(np.int64), tree, 16
)
for r in range(rows):
    vec = field.vectors[r * cols : (r + 1) * cols]
    print("  " + "  ".join(f"({v.vx:+d},{v.vy:+d})" for v in vec))
print(f"  mean magnitude F = {field.mean_magnitude:.2f}")

print("\n== per-channel QPs for two contrasting CUs at frame QP 27 ==")
center = (rows // 2) * cols + cols // 2
corner = 0
for label, idx in (("moving textured center", center), ("static corner", corner)):
    d = field.magnitudes[idx]
    print(f"  {label} (|v| = {d:.1f}):")
    for ch in ("G", "B", "R"):
        a = frame_activity(plane(cur, ch), tree, ch)[idx].a
        z = temporal_offset(d, field.mean_magnitude, ch)
        decision = perceptual_qp(27, a, z, ch)
        print(f"    {ch}: a={a:.2f} z={z} offset={decision.total_offset:+d} -> qp {decision.qp}")
print("\nG offsets stay in [3, 6] while B and R range over [6, 12]: color masking")
print("spends the extra quantization where the eye is least sensitive.")
