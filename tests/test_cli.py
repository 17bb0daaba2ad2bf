import csv
from dataclasses import replace

import pytest

from spectralpq import cli
from spectralpq.cli import main
from spectralpq.corpus import make_corpus, noise_patches
from spectralpq.frames import load_sequence, save_sequence
from spectralpq.pipeline import stream_header


@pytest.fixture()
def raw_clip(tmp_path):
    seq = noise_patches(size=64, frame_count=3, seed=2)
    path = tmp_path / "clip.gbr"
    save_sequence(path, seq.frames)
    return path, seq


def test_encode_decode_metrics_cycle(tmp_path, raw_clip, capsys):
    raw, seq = raw_clip
    stream = tmp_path / "clip.spq"
    out = tmp_path / "recon.gbr"

    rc = main([
        "encode", "--input", str(raw), "--width", "64", "--height", "64",
        "--qp", "30", "--mode", "spectral-pq", "--out", str(stream),
        "--csv", str(tmp_path / "cb.csv"), "--motion-csv", str(tmp_path / "mv.csv"),
        "--dump-qp-maps", str(tmp_path / "maps"),
    ])
    assert rc == 0
    header = stream_header(stream.read_bytes())
    assert header["base_qp"] == 30 and header["frame_count"] == 3
    assert (tmp_path / "cb.csv").exists()
    assert list((tmp_path / "maps").glob("*.pgm"))

    assert main(["decode", "--input", str(stream), "--out", str(out)]) == 0
    decoded = load_sequence(out, 64, 64, 8)
    assert len(decoded) == 3

    rc = main([
        "metrics", "--input", str(raw), "--recon", str(out),
        "--width", "64", "--height", "64", "--csv", str(tmp_path / "m.csv"),
    ])
    assert rc == 0
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0].startswith("frame,psnr_g")
    assert len(lines) == 4


def test_metrics_identical_reports_inf(tmp_path, raw_clip, capsys):
    raw, _ = raw_clip
    rc = main(["metrics", "--input", str(raw), "--recon", str(raw),
               "--width", "64", "--height", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inf" in out and ",1.0000,1" in out


def test_bench_on_raw_file(tmp_path, raw_clip, capsys):
    raw, _ = raw_clip
    csv_path = tmp_path / "bench.csv"
    rc = main([
        "bench", "--input", str(raw), "--width", "64", "--height", "64",
        "--qp", "37", "--mode", "anchor-flat", "spectral-pq",
        "--csv", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("sequence,mode,qp,kbps")
    assert all(line.endswith(",ok") for line in lines[1:])


def test_bench_fps_sets_the_rate_of_the_built_in_corpus(tmp_path, monkeypatch):
    # Two short clips of the built-in corpus, at its default 30 fps: the kbps
    # column must follow --fps.
    monkeypatch.setattr(cli, "make_corpus", lambda seed: [
        replace(seq, frames=seq.frames[:2]) for seq in make_corpus(seed)[:2]
    ])
    kbps = {}
    for fps in (30, 60):
        csv_path = tmp_path / f"bench-{fps}.csv"
        assert main(["bench", "--qp", "37", "--mode", "anchor-flat", "--fps", str(fps),
                     "--csv", str(csv_path)]) == 0
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert len(rows) == 2 and all(row["status"] == "ok" for row in rows)
        kbps[fps] = [float(row["kbps"]) for row in rows]
    assert all(k > 0 for k in kbps[30])
    assert kbps[60] == pytest.approx([2 * k for k in kbps[30]], rel=1e-3)


def test_dump_flags(tmp_path):
    qp_table = tmp_path / "qp.csv"
    matrices = tmp_path / "bases.txt"
    assert main(["--dump-qp-table", str(qp_table), "--dump-matrices", str(matrices)]) == 0
    lines = qp_table.read_text().splitlines()
    assert lines[0] == "qp,qstep,m,s"
    assert len(lines) == 53
    assert lines[1] == "0,0.629961,26214,40"
    text = matrices.read_text()
    assert "# DCT 4x4" in text and "# DCT 32x32" in text and "# DST 4x4" in text


def test_decode_error_exit_code(tmp_path):
    bad = tmp_path / "bad.spq"
    bad.write_bytes(b"not a stream")
    assert main(["decode", "--input", str(bad), "--out", str(tmp_path / "x.gbr")]) == 1


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_encode_rejects_bad_dimensions(tmp_path, raw_clip):
    raw, _ = raw_clip
    rc = main([
        "encode", "--input", str(raw), "--width", "128", "--height", "128",
        "--out", str(tmp_path / "x.spq"),
    ])
    assert rc == 1
    rc = main([
        "encode", "--input", str(raw), "--width", "0", "--height", "0",
        "--out", str(tmp_path / "x.spq"),
    ])
    assert rc == 1
