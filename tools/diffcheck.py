#!/usr/bin/env python3
"""Compare what the ortho7 CLI prints in this checkout and at a git ref.

    python3 tools/diffcheck.py REF

Puts `git archive REF src` into a temporary directory and runs every argv
of `ARGVS` in both trees, each in a fresh interpreter with the tree's
`src` first on sys.path.  It prints one line per argv, `same` or `DIFF`,
and under a DIFF the first line that differs on each side.  An output is
the exit code, stdout and stderr, less the timings: the `timings` and
`elapsed_s` keys of JSON output and the seconds figures of text and csv
output.  An argv that names `{emit}` writes its `--emit` file to a
temporary path, and the file's SHA-256 joins the output.  Exits 1 if any
output differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EMIT = "{emit}"

# The README examples, in each output format.
_EXAMPLES = [
    ["test", "--q", "13", "x^7+2x"],
    ["test", "--q", "13", "x^7+2x", "--property", "op"],
    ["test", "--q", "13", "3x^7+7x", "--property", "op"],
    ["classify", "--q", "13", "x^7+6x"],
    ["classify", "--q", "49", "x^7+tx"],
    ["classify", "--q", "49", "x^7+3x"],
    ["pairs", "--q", "13", "--family", "1", "--method", "both"],
    ["pairs", "--q", "25"],
    ["pairs", "--q", "25", "--method", "both"],
    ["pairs", "--q", "41"],
    ["enumerate", "--q", "13"],
    ["census", "--q", "11", "--degree", "7", "--canonical", "--property", "op"],
    ["verify", "--field", "23"],
]
ARGVS = (
    [[*argv, "--format", fmt] for argv in _EXAMPLES for fmt in ("text", "json", "csv")]
    + [["census", "--q", str(q), "--degree", "7", "--canonical", "--property", prop,
        "--format", "json"] for q in (8, 11, 13, 16, 17, 19) for prop in ("pp", "op", "cpp")]
    # both pair routes at every table order (25 is a README example), and
    # a batch of one: entry 10 at q = 49, the reconstructed one
    + [["pairs", "--q", str(q), "--method", "both", "--format", "json"]
       for q in (11, 13, 17, 19, 23, 27, 31, 49)]
    + [["pairs", "--q", "49", "--family", "10", "--method", "both", "--format", "json"]]
    + [["verify", *deep, "--workers", w, "--format", "json"]
       for deep in ([], ["--deep"]) for w in ("1", "2")]
    # classify at more orders: an image a*e(bx+c)+d of entry 2, and x^7+x,
    # which lies in no class
    + [["classify", "--q", q, f, "--format", "json"] for q, member in (
        ("11", "7x^7+9x^6+9x^5+5x^4+9x^3+5x^2+6x"),
        ("25", "4x^7+x^6+x^5+3x^2+(3+4t)x+(3+3t)"),
        ("31", "3x^7+7x^6+28x^5+27x^4+12x^3+9x^2+9x+14")) for f in (member, "x^7+x")]
    # the characteristic-7 shift expansion: (x+c)^7 = x^7 + c^7
    + [["enumerate", "--q", q, "--emit", EMIT] for q in ("25", "49")]
)

_RUN = "import sys; sys.path.insert(0, sys.argv[1]); from ortho7.cli import main; " \
       "sys.exit(main(sys.argv[2:]))"
_SECONDS = re.compile(r"\d+\.\d+ ?s\b")


def _untimed(value):
    """A JSON value less its `timings` and `elapsed_s` keys, at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k not in ("timings", "elapsed_s")}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def normalise(argv: list[str], stdout: str) -> list[str]:
    """The lines of one command's stdout that are compared."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "json":
        try:
            return json.dumps(_untimed(json.loads(stdout)), indent=2).splitlines()
        except json.JSONDecodeError:
            pass
    return _SECONDS.sub("<s>", stdout).splitlines()


def run(tree: Path, argv: list[str], scratch: Path) -> list[str]:
    """The compared output of one argv in one tree: exit code, stdout,
    stderr and, for an `{emit}` argv, the emitted file's SHA-256."""
    emit = scratch / "emit.txt"
    real = [str(emit) if a == EMIT else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", _RUN, str(tree / "src"), *real],
                          capture_output=True, text=True, cwd=scratch)
    lines = [f"exit {proc.returncode}",
             *normalise(argv, proc.stdout.replace(str(emit), EMIT)),
             *(f"stderr: {line}" for line in proc.stderr.splitlines())]
    if EMIT in argv:
        digest = hashlib.sha256(emit.read_bytes()).hexdigest() if emit.exists() else None
        lines.append(f"emitted sha256 {digest}")
        emit.unlink(missing_ok=True)
    return lines


def first_difference(ref: list[str], here: list[str]):
    """(line number, ref line, this line) of the first difference, or None;
    a missing line reads as '<end>'."""
    for i in range(max(len(ref), len(here))):
        a = ref[i] if i < len(ref) else "<end>"
        b = here[i] if i < len(here) else "<end>"
        if a != b:
            return i + 1, a, b
    return None


def compare(ref: str, argvs=ARGVS, tree: Path = ROOT, out=None) -> int:
    """Run `argvs` at `ref` and in `tree` and report each to `out` (stdout
    by default); the number of argvs whose outputs differ."""
    out = out or sys.stdout
    with tempfile.TemporaryDirectory() as tmp:
        base, scratch = Path(tmp) / "ref", Path(tmp) / "run"
        base.mkdir()
        scratch.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        differ = 0
        for argv in argvs:
            diff = first_difference(run(base, argv, scratch), run(tree, argv, scratch))
            differ += diff is not None
            print(f"{'DIFF' if diff else 'same'}  ortho7 {' '.join(argv)}", file=out)
            if diff:
                print(f"    line {diff[0]} at {ref}: {diff[1]}\n"
                      f"    line {diff[0]} here: {diff[2]}", file=out)
            out.flush()
    print(f"{len(argvs) - differ} same, {differ} differ", file=out)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git ref to compare this checkout with")
    return int(compare(parser.parse_args(argv).ref) > 0)


if __name__ == "__main__":
    sys.exit(main())
