import numpy as np
import pytest

from spectralpq.bench import (
    bitrate_reduction,
    kbps,
    rows_to_csv,
    run_experiment,
    write_cb_csv,
    write_motion_csv,
    write_qp_maps,
)
from spectralpq.corpus import CorpusSequence, moving_object
from spectralpq.errors import ConfigurationError
from spectralpq.pipeline import EncoderConfig, encode_sequence

from golden_reductions import GOLDEN_ROWS, INCONSISTENT_ROWS


def test_kbps_arithmetic():
    assert kbps(1_000_000, 30, 50) == pytest.approx(1666.6667, abs=0.01)
    assert kbps(0, 10, 30) == 0.0
    assert kbps(1000, 10, 60) == pytest.approx(2 * kbps(1000, 10, 30))
    with pytest.raises(ValueError):
        kbps(1000, 0, 30)
    with pytest.raises(ValueError):
        kbps(1000, 10, 0)


def test_bitrate_reduction_examples():
    assert bitrate_reduction(15490.65, 77841.94) == pytest.approx(-80.1, abs=0.05)
    assert bitrate_reduction(2732.45, 14396.51) == pytest.approx(-81.0, abs=0.05)
    assert bitrate_reduction(5.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        bitrate_reduction(1.0, 0.0)


def test_reduction_matches_consistent_golden_rows():
    checked = 0
    for qp, name, pct, test_kbps, ref_kbps in GOLDEN_ROWS:
        if (qp, name) in INCONSISTENT_ROWS:
            continue
        assert bitrate_reduction(test_kbps, ref_kbps) == pytest.approx(pct, abs=0.05), (qp, name)
        checked += 1
    assert checked == 60


def test_known_inconsistent_rows_really_disagree():
    for qp, name, pct, test_kbps, ref_kbps in GOLDEN_ROWS:
        if (qp, name) in INCONSISTENT_ROWS:
            assert abs(bitrate_reduction(test_kbps, ref_kbps) - pct) > 0.05


@pytest.fixture(scope="module")
def tiny_sequence():
    seq = moving_object(frame_count=4, seed=3)
    return CorpusSequence("tiny", seq.frames[:4], fps=30)


def test_run_experiment_rows_and_determinism(tiny_sequence):
    args = ([tiny_sequence], [37], ["anchor-flat", "spectral-pq"])
    rows1 = run_experiment(*args)
    rows2 = run_experiment(*args)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert len(rows1) == 2
    flat, spq = rows1
    assert flat.mode == "anchor-flat" and flat.reduction_pct == 0.0
    assert spq.status == "ok"
    assert spq.reduction_pct < 0
    assert spq.kbps < flat.kbps
    assert 0 < spq.ssim_mean <= 1


def test_run_experiment_empty_modes(tiny_sequence):
    rows = run_experiment([tiny_sequence], [27], [])
    assert rows == []
    assert rows_to_csv(rows).splitlines()[0].startswith("sequence,")


def test_run_experiment_records_error_cells(tiny_sequence):
    rows = run_experiment([tiny_sequence], [99], ["anchor-flat"])
    assert len(rows) == 1
    assert rows[0].status.startswith("error:")
    assert rows[0].reduction_pct is None


def test_run_experiment_worker_pool_same_output(tiny_sequence):
    args = ([tiny_sequence], [37], ["anchor-flat", "spectral-pq"])
    assert rows_to_csv(run_experiment(*args)) == rows_to_csv(run_experiment(*args, workers=4))


def test_run_experiment_passes_settings_through(tiny_sequence):
    options = dict(rdoq=False, gop_length=2, cu_size=16, search_range=4)
    modes = ["anchor-flat", "spectral-pq"]
    rows = run_experiment([tiny_sequence], [37], modes, **options)
    assert [row.status for row in rows] == ["ok", "ok"]
    for row, mode in zip(rows, modes):
        config = EncoderConfig(base_qp=37, mode=mode, fps=tiny_sequence.fps, **options)
        result = encode_sequence(tiny_sequence.frames, config)
        bits = len(result.bitstream) * 8
        assert row.kbps == kbps(bits, len(tiny_sequence.frames), tiny_sequence.fps)


def test_run_experiment_reports_unknown_option_per_row(tiny_sequence):
    rows = run_experiment([tiny_sequence], [37], ["anchor-flat"], cu_sise=16)
    assert rows[0].status.startswith("error:") and "cu_sise" in rows[0].status


def test_run_experiment_rejects_duplicate_sequence_names(tiny_sequence):
    other = CorpusSequence("tiny", moving_object(frame_count=2, seed=5).frames, fps=30)
    with pytest.raises(ConfigurationError, match="'tiny'"):
        run_experiment([tiny_sequence, other], [37], ["anchor-flat", "spectral-pq"])


def test_stat_csv_writers(tmp_path, tiny_sequence):
    result = encode_sequence(tiny_sequence.frames, EncoderConfig(base_qp=32))
    cb_path = tmp_path / "cb.csv"
    mv_path = tmp_path / "mv.csv"
    write_cb_csv(result.stats, cb_path)
    write_motion_csv(result.stats, mv_path)

    cb_lines = cb_path.read_text().splitlines()
    assert cb_lines[0] == "frame,cu,channel,g,H,a,D,F,z,offset,qp"
    assert len(cb_lines) == 1 + sum(len(f.cb) for f in result.stats.frames)

    mv_lines = mv_path.read_text().splitlines()
    assert mv_lines[0] == "frame,cu,vx,vy,magnitude,frame_mean"
    motion_rows = sum(len(f.motion.vectors) for f in result.stats.frames if f.motion)
    assert len(mv_lines) == 1 + motion_rows


def test_qp_map_dump(tmp_path, tiny_sequence):
    result = encode_sequence(tiny_sequence.frames, EncoderConfig(base_qp=27))
    write_qp_maps(result, tmp_path, "tiny", "spectral-pq", 27)
    maps = sorted(tmp_path.glob("*.pgm"))
    assert len(maps) == 3 * len(tiny_sequence.frames)
    header = maps[0].read_bytes()
    assert header.startswith(b"P5 2 2 51\n")
    grid = np.frombuffer(header[-4:], dtype=np.uint8)
    assert np.all(grid >= 27) and np.all(grid <= 51)


def test_run_experiment_writes_each_ok_cells_qp_maps(tmp_path, tiny_sequence):
    modes = ["anchor-flat", "spectral-pq"]
    sweep_dir = tmp_path / "sweep"
    rows = run_experiment([tiny_sequence], [37, 60], modes, qp_map_dir=sweep_dir)
    assert [row.status for row in rows[:2]] == ["ok", "ok"]
    assert all(row.status.startswith("error:") for row in rows[2:])
    expected_dir = tmp_path / "expected"
    for mode in modes:
        config = EncoderConfig(base_qp=37, mode=mode, fps=tiny_sequence.fps)
        result = encode_sequence(tiny_sequence.frames, config)
        write_qp_maps(result, expected_dir, tiny_sequence.name, mode, 37)
    written = {p.name: p.read_bytes() for p in sweep_dir.iterdir()}
    expected = {p.name: p.read_bytes() for p in expected_dir.iterdir()}
    assert len(expected) == 2 * 3 * len(tiny_sequence.frames)
    assert written == expected
