"""Mutation check of the decoder's error paths.

Copies the checkout to a temporary directory, then turns each
`raise DecodeError(...)` statement in src/spectralpq/entropy.py and
src/spectralpq/pipeline.py into `pass`, one at a time, and runs the entropy,
pipeline and round-trip test files against that mutant.  A mutant survives
when those tests still pass: nothing checks that its error is raised.
Each run passes `--hypothesis-seed=0`, so every mutant meets the same
Hypothesis draws and a run takes the same time: unseeded draws once kept
one mutant's run going past 3 min 51 s, against 14-17 s alone.

    python tools/mutate_decode_errors.py

Exits 1 if any mutant survives, 0 if the tests kill every one.  It is not a
test file, so pytest does not collect it; a run takes several minutes.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTATED = ("src/spectralpq/entropy.py", "src/spectralpq/pipeline.py")
TESTS = ("tests/test_entropy.py", "tests/test_pipeline.py", "tests/test_round_trip_properties.py")
TIMEOUT_S = 900    # a mutant whose tests hang counts as killed


def _is_decode_error_raise(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "DecodeError"


class _RaiseToPass(ast.NodeTransformer):
    """Replaces the `raise DecodeError` statement on one line with `pass`."""

    def __init__(self, line: int):
        self.line = line

    def visit_Raise(self, node):
        if _is_decode_error_raise(node) and node.lineno == self.line:
            return ast.copy_location(ast.Pass(), node)
        return node


def _mutants(source: str):
    """(line, mutated source) for each `raise DecodeError` statement, in line order."""
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source))
                   if _is_decode_error_raise(node))
    for line in lines:
        yield line, ast.unparse(_RaiseToPass(line).visit(ast.parse(source)))


def _tests_pass(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *TESTS]
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".codecbench"))
        if not _tests_pass(copy):
            print("the tests fail on the unmutated checkout", file=sys.stderr)
            return 2
        survivors = total = 0
        for rel in MUTATED:
            path = copy / rel
            original = path.read_text()
            for line, mutant in _mutants(original):
                path.write_text(mutant)
                killed = not _tests_pass(copy)
                total += 1
                survivors += not killed
                print(f"{rel}:{line}: {'killed' if killed else 'SURVIVED'}", flush=True)
            path.write_text(original)
    print(f"{total - survivors} of {total} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
