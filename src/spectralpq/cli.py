"""Command-line interface: encode / decode / metrics / bench subcommands.

Inputs are raw planar GBR files (see frames.load_sequence); streams use the
"SPQ1" container.  `bench` with no --input runs the built-in synthetic
corpus.  Exit status is 0 only when every requested cell succeeds.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .corpus import CorpusSequence, make_corpus
from .errors import CodecError
from .frames import BIT_DEPTHS, CU_SIZES, PLANE_ORDER, load_sequence, save_sequence
from .metrics import quality_report
from .pipeline import MODES, EncoderConfig, decode_sequence, encode_sequence, stream_header
from .quantizer import BLOCK_SIZES, quant_params
from .transform import DST_4X4, dct_matrix


def _add_raw_input_args(p, required=True, input_help="raw planar GBR file"):
    p.add_argument("--input", required=required, help=input_help)
    p.add_argument("--width", type=int, required=required)
    p.add_argument("--height", type=int, required=required)
    p.add_argument("--bitdepth", type=int, default=8, choices=BIT_DEPTHS)
    p.add_argument("--frames", type=int, default=None,
                   help="frame count (default: all complete frames)")


def _add_coding_args(p):
    p.add_argument("--gop", type=int, default=8)
    p.add_argument("--cu-size", type=int, default=32, choices=CU_SIZES)
    p.add_argument("--search-range", type=int, default=16)
    p.add_argument("--fps", type=int, default=30)
    p.add_argument("--rdoq", default="on", choices=("on", "off"))


def _coding_options(args) -> dict:
    """EncoderConfig fields of _add_coding_args' flags; bench gives --fps to its sequences."""
    return {"rdoq": args.rdoq == "on", "gop_length": args.gop, "cu_size": args.cu_size,
            "search_range": args.search_range}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spectralpq")
    parser.add_argument("--dump-qp-table", metavar="PATH",
                        help="write the qp -> (qstep, m, s) table as CSV and exit")
    parser.add_argument("--dump-matrices", metavar="PATH",
                        help="write the integer transform bases and exit")
    sub = parser.add_subparsers(dest="command")

    enc = sub.add_parser("encode", help="encode a raw sequence to an SPQ1 stream")
    _add_raw_input_args(enc)
    enc.add_argument("--qp", type=int, default=27)
    enc.add_argument("--mode", default="spectral-pq", choices=MODES)
    _add_coding_args(enc)
    enc.add_argument("--out", required=True)
    enc.add_argument("--csv", help="write per-block perceptual stats CSV")
    enc.add_argument("--motion-csv", help="write per-CU motion CSV")
    enc.add_argument("--dump-qp-maps", metavar="DIR", help="write per-frame QP maps (PGM)")

    dec = sub.add_parser("decode", help="decode an SPQ1 stream to a raw sequence")
    dec.add_argument("--input", required=True)
    dec.add_argument("--out", required=True)

    met = sub.add_parser("metrics", help="PSNR/SSIM between two raw sequences")
    _add_raw_input_args(met, input_help="reference raw file")
    met.add_argument("--recon", required=True, help="reconstruction raw file")
    met.add_argument("--csv", help="write per-frame metric rows")

    ben = sub.add_parser("bench", help="sweep modes and QPs, report reductions")
    _add_raw_input_args(ben, required=False,
                        input_help="raw file (default: built-in synthetic corpus)")
    ben.add_argument("--qp", type=int, nargs="+", default=[22, 27, 32, 37])
    ben.add_argument("--mode", nargs="+", default=["anchor-flat", "spectral-pq"],
                     choices=MODES)
    _add_coding_args(ben)
    ben.add_argument("--csv", help="write the experiment table to this path")
    ben.add_argument("--dump-qp-maps", metavar="DIR")
    ben.add_argument("--workers", type=int, default=1)
    ben.add_argument("--seed", type=int, default=0, help="corpus generation seed")
    return parser


def dump_qp_table(path) -> None:
    with open(path, "w") as fh:
        fh.write("qp,qstep,m,s\n")
        for qp in range(52):
            p = quant_params(qp, 4)
            fh.write(f"{qp},{p.qstep:.6f},{p.m},{p.s}\n")


def dump_matrices(path) -> None:
    with open(path, "w") as fh:
        for n in BLOCK_SIZES:
            fh.write(f"# DCT {n}x{n}\n")
            for row in dct_matrix(n):
                fh.write(" ".join(str(int(v)) for v in row) + "\n")
        fh.write("# DST 4x4\n")
        for row in DST_4X4:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def cmd_encode(args) -> int:
    frames = load_sequence(args.input, args.width, args.height, args.bitdepth, args.frames)
    config = EncoderConfig(base_qp=args.qp, mode=args.mode, fps=args.fps, **_coding_options(args))
    result = encode_sequence(frames, config)
    Path(args.out).write_bytes(result.bitstream)
    if args.csv:
        bench_mod.write_cb_csv(result.stats, args.csv)
    if args.motion_csv:
        bench_mod.write_motion_csv(result.stats, args.motion_csv)
    if args.dump_qp_maps:
        bench_mod.write_qp_maps(result, args.dump_qp_maps, Path(args.input).stem,
                                args.mode, args.qp)
    total = result.stats.total_bits
    print(f"encoded {len(frames)} frame(s), {len(result.bitstream)} bytes "
          f"({total} payload bits), mode {args.mode}, qp {args.qp}")
    return 0


def cmd_decode(args) -> int:
    data = Path(args.input).read_bytes()
    header = stream_header(data)
    frames = decode_sequence(data)
    save_sequence(args.out, frames)
    print(f"decoded {len(frames)} frame(s) "
          f"{header['width']}x{header['height']}@{header['bit_depth']}bit -> {args.out}")
    return 0


def cmd_metrics(args) -> int:
    refs = load_sequence(args.input, args.width, args.height, args.bitdepth, args.frames)
    recs = load_sequence(args.recon, args.width, args.height, args.bitdepth, len(refs))
    lines = ["frame,psnr_g,psnr_b,psnr_r,ssim_g,ssim_b,ssim_r,ssim_mean,visually_lossless"]
    for i, (ref, rec) in enumerate(zip(refs, recs)):
        rep = quality_report(ref, rec)
        psnrs = ",".join(
            "inf" if math.isinf(rep.psnr[ch]) else f"{rep.psnr[ch]:.2f}" for ch in PLANE_ORDER
        )
        ssims = ",".join(f"{rep.ssim[ch]:.4f}" for ch in PLANE_ORDER)
        lines.append(f"{i},{psnrs},{ssims},{rep.ssim_mean:.4f},{int(rep.visually_lossless)}")
    text = "\n".join(lines) + "\n"
    if args.csv:
        Path(args.csv).write_text(text)
    print(text, end="")
    return 0


def cmd_bench(args) -> int:
    if args.input:
        if not (args.width and args.height):
            print("bench with --input needs --width and --height", file=sys.stderr)
            return 2
        frames = load_sequence(args.input, args.width, args.height, args.bitdepth, args.frames)
        sequences = [CorpusSequence(Path(args.input).stem, frames, args.fps)]
    else:
        sequences = [replace(seq, fps=args.fps) for seq in make_corpus(seed=args.seed)]
    rows = bench_mod.run_experiment(
        sequences, args.qp, list(args.mode), workers=args.workers,
        qp_map_dir=Path(args.dump_qp_maps) if args.dump_qp_maps else None,
        **_coding_options(args),
    )
    text = bench_mod.rows_to_csv(rows)
    if args.csv:
        Path(args.csv).write_text(text)
    print(text, end="")
    failures = [r for r in rows if r.status != "ok"]
    if failures:
        print(f"{len(failures)} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.dump_qp_table:
            dump_qp_table(args.dump_qp_table)
        if args.dump_matrices:
            dump_matrices(args.dump_matrices)
        if args.dump_qp_table or args.dump_matrices:
            return 0
        handlers = {
            "encode": cmd_encode,
            "decode": cmd_decode,
            "metrics": cmd_metrics,
            "bench": cmd_bench,
        }
        if args.command is None:
            parser.print_help()
            return 2
        return handlers[args.command](args)
    except (CodecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
