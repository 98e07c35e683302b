"""Digest of what the command line prints for the benchmark pairs.

    python3 tests/compat/hash_outputs.py [--log FILE]

Runs a fixed list of commands through ``regdist.cli.main``, in this one
process, over the 126 pairs of ``bench/workloads.py``: ``dist`` (plain, with
``--json``, ``--trace``, ``--json --trace`` and ``--verify``), ``prove
--tight`` to stdout and with ``-o``, ``check`` and ``check --json`` of that
document, ``prove`` at bound 1 and at half the distance, and ``nf`` of both
sides; then ``batch`` over rows that include bad ones, and a list of
malformed-input commands.  Each command's arguments, exit code, stdout,
stderr and written file go into one log, with times and the temporary
directory masked.  The script prints the SHA-256 of that log; ``--log``
also writes the log out, for a diff.

A refactor that claims byte-identical output runs this script in a checkout
of the parent commit and in one of the change (copy the script into the
parent's tree if it is not there) and compares the two digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from regdist import cli  # noqa: E402

TIMES = [
    (re.compile(r"^time: [0-9.]+ ms$", re.M), "time: <masked> ms"),
    (re.compile(r'"elapsed_ms": [0-9.e+-]+'), '"elapsed_ms": <masked>'),
]

MALFORMED = [
    ["dist", "a(", "b"],
    ["dist", "a", "b", "--cap", "0"],
    ["dist", "a", "b", "--lambda", "x"],
    ["dist", "a", "b", "--lambda", "2"],
    ["dist", "a", "b", "--alphabet", "A"],
    ["prove", "a", "b"],
    ["prove", "a", "b", "1", "--tight"],
    ["prove", "a", "b", "-1"],
    ["prove", "a", "b", "1/0"],
    ["nf", "a;;b"],
]


def run(log: list[str], tmp: str, argv: list[str], output: Path | None = None) -> None:
    """Run one command and append what it did to ``log``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses its arguments
            code = exc.code
    written = output.read_text() if output is not None and output.exists() else None
    text = "\n".join(
        [f"$ {' '.join(argv)}", f"exit {code}", out.getvalue(), err.getvalue(), f"file {written}"]
    )
    for pattern, mask in TIMES:
        text = pattern.sub(mask, text)
    log.append(text.replace(tmp, "<tmp>"))


def pair_commands(log: list[str], tmp: str, left: str, right: str, distance: Fraction) -> None:
    for flags in ([], ["--json"], ["--trace"], ["--json", "--trace"], ["--verify"]):
        run(log, tmp, ["dist", left, right, *flags])
    cert = Path(tmp) / "cert.json"
    run(log, tmp, ["prove", left, right, "--tight"])
    run(log, tmp, ["prove", left, right, "--tight", "-o", str(cert)], cert)
    run(log, tmp, ["check", str(cert)])
    run(log, tmp, ["check", str(cert), "--json"])
    cert.unlink()
    run(log, tmp, ["prove", left, right, "1"])
    run(log, tmp, ["prove", left, right, str(distance / 2)])
    for side in (left, right):
        run(log, tmp, ["nf", side])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", default=None, metavar="FILE", help="also write the masked log here")
    args = parser.parse_args()
    pairs = [p for make in workloads.WORKLOADS.values() for p in make()]
    log: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for p in pairs:
            pair_commands(log, tmp, p.left, p.right, p.distance)
        rows = Path(tmp) / "rows.tsv"
        rows.write_text("".join(f"{p.left}\t{p.right}\n" for p in pairs[:20]) + "a(\tb\nno tab\n\na\t(\n")
        run(log, tmp, ["batch", str(rows)])
        run(log, tmp, ["batch", str(rows), "-o", str(Path(tmp) / "out.tsv")], Path(tmp) / "out.tsv")
        for argv in MALFORMED:
            run(log, tmp, argv)
    text = "\n".join(log)
    if args.log is not None:
        Path(args.log).write_text(text)
    print(f"{len(pairs)} pairs, {text.count(chr(10)) + 1} log lines")
    print(hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
