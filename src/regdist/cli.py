"""Command line interface.

Subcommands: ``dist`` (distance, witness, automaton facts), ``prove``
(synthesize a certificate), ``check`` (validate a certificate document),
``batch`` (tab-separated pairs in bulk), and ``nf`` (fundamental
decomposition with its correctness certificate).

Exit codes: 0 success; 1 semantic refusal or failed check; 2 malformed
input; 3 a requested verification did not match.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .automaton import DEFAULT_STATE_CAP, StateLimitExceeded, build, to_dot
from .metric import (
    Config,
    ExponentValue,
    check_witness,
    kleene_descent,
    literal_separation,
    pair_count,
    separating_word,
    witness,
)
from .proof import (
    Certificate,
    SynthesisFailure,
    diagnose_certificate,
    from_json,
    normal_form_proof,
    read_rational,
    synthesize,
    to_json,
)
from .syntax import Alphabet, Regex, RegexError, infer_alphabet, make_alphabet, parse, pretty

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_BAD_INPUT = 2
EXIT_MISMATCH = 3


def _decimal(x: Fraction) -> str:
    return f"{float(x):#.6g}"


def _render_witness(w: str | None) -> str:
    if w is None:
        return "-"
    if w == "":
        return '""'
    return w


def _too_deep(exc: RecursionError) -> str:
    return f"input too deep to process ({exc})"


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lambda",
        dest="discount",
        default="1/2",
        metavar="Q",
        help="discount factor, a rational in (0,1) such as 1/2 or 0.25 (default 1/2)",
    )
    p.add_argument(
        "--alphabet",
        default=None,
        metavar="LETTERS",
        help="explicit alphabet, e.g. 'ab'; default: the letters in the input",
    )
    p.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_STATE_CAP,
        metavar="N",
        help=f"state cap for the derivative closure, at least 1 (default {DEFAULT_STATE_CAP})",
    )


def _setup(args: argparse.Namespace) -> tuple[Config, Alphabet | None]:
    if args.cap < 1:
        raise ValueError(f"state cap must be at least 1, got {args.cap}")
    cfg = Config(discount=read_rational(args.discount))
    alphabet = make_alphabet(args.alphabet) if args.alphabet is not None else None
    return cfg, alphabet


def _parse_pair(args: argparse.Namespace, alphabet: Alphabet | None) -> tuple[Regex, Regex]:
    return parse(args.left, alphabet), parse(args.right, alphabet)


def _read_input(path: str) -> str:
    """The text of the file at ``path``, or of stdin for ``-``; an unreadable
    file is malformed input."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    """Write ``text``, ending in a newline, to the file at ``path``, or to
    stdout for None or ``-``; an unwritable path is malformed input."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc


def cmd_dist(args: argparse.Namespace) -> int:
    cfg, alphabet = _setup(args)
    e, f = _parse_pair(args, alphabet)
    if alphabet is None:
        alphabet = infer_alphabet(e, f)
    t0 = time.perf_counter()
    aut = build([e, f], alphabet, args.cap)
    w = separating_word(aut, *aut.roots)
    dist = ExponentValue.of_word(w).value(cfg.discount)
    descent = kleene_descent(aut) if args.trace else None
    elapsed = (time.perf_counter() - t0) * 1000
    counts = {"states": aut.n_states, "pairs": pair_count(aut.n_states)}
    if descent is not None:
        counts["iterations"] = descent.iterations
    if args.dot is not None:
        _write_text(args.dot, to_dot(aut))
    if args.json:
        report = {
            "left": args.left,
            "right": args.right,
            "lambda": str(cfg.discount),
            "distance": {"exact": str(dist), "decimal": _decimal(dist)},
            "witness": w,
            **counts,
            "elapsed_ms": round(elapsed, 3),
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"distance: {dist} ({_decimal(dist)})")
        print(f"witness: {_render_witness(w)}")
        print("  ".join(f"{k}: {v}" for k, v in counts.items()))
        print(f"time: {elapsed:.2f} ms")
        if descent is not None:
            # tables() makes each table in pair order when it is printed, so
            # none is sorted here and one table is held at a time
            for i, table in enumerate(descent.tables()):
                cells = ", ".join(
                    f"({a},{b})={'inf' if ev.exponent is None else ev.exponent}"
                    for (a, b), ev in table.items()
                )
                print(f"step {i}: {cells or '(no pairs)'}")
    if args.verify:
        # One walk with literal derivatives, not the automaton's transitions,
        # finds the length of a shortest separating word.  Equal: it must find
        # none.  Apart: it must find the witness's length, and the witness
        # must separate the languages by membership.
        if w is None:
            n = literal_separation(e, f, alphabet, args.cap)
            ok = n is None
            found = f"but a literal walk separates them at length {n}"
        else:
            ok = check_witness(e, f, w, alphabet, args.cap)
            found = f"but {_render_witness(w)} is not a shortest separating word"
        if not ok:
            print(f"verification mismatch: the product walk gives {dist}, {found}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def cmd_prove(args: argparse.Namespace) -> int:
    cfg, alphabet = _setup(args)
    e, f = _parse_pair(args, alphabet)
    if args.epsilon is None and not args.tight:
        raise RegexError("prove needs a bound: give EPS or pass --tight")
    if args.epsilon is not None and args.tight:
        raise RegexError("give either EPS or --tight, not both")
    epsilon = None if args.tight else read_rational(args.epsilon)
    try:
        cert = synthesize(e, f, epsilon, cfg, alphabet, args.cap)
    except SynthesisFailure as exc:
        print(f"refused: {exc}", file=sys.stderr)
        print(f"distance: {exc.distance}", file=sys.stderr)
        print(f"witness: {_render_witness(exc.witness)}", file=sys.stderr)
        return EXIT_REFUSED
    err = diagnose_certificate(cert) if args.verify else None
    if err is not None:
        print(f"verification mismatch: synthesized certificate fails: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    _write_text(args.output, to_json(cert))
    if args.output not in (None, "-"):
        j = cert.root.conclusion
        print(f"wrote certificate: {pretty(j.left)} = {pretty(j.right)} within {j.eps}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    cert = from_json(_read_input(args.certificate))
    counts: dict[str, int] = {}
    err = diagnose_certificate(cert, counts)
    j = cert.root.conclusion
    if args.json:
        out = {
            "valid": err is None,
            "conclusion": {"left": pretty(j.left), "right": pretty(j.right), "eps": str(j.eps)},
            "error": None if err is None else str(err),
            **counts,
        }
        print(json.dumps(out, indent=2))
    elif err is None:
        print(f"valid: {pretty(j.left)} = {pretty(j.right)} within {j.eps}")
    else:
        print(f"invalid: {err}")
    return EXIT_OK if err is None else EXIT_REFUSED


def cmd_batch(args: argparse.Namespace) -> int:
    cfg, alphabet = _setup(args)
    rows: list[str] = []
    failed = False
    for line in _read_input(args.file).splitlines():
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            rows.append("\t".join([line, "", "-", "-", "row needs two tab-separated expressions"]))
            failed = True
            continue
        left_text, right_text = cols[0], cols[1]
        try:
            e = parse(left_text, alphabet)
            f = parse(right_text, alphabet)
            w = witness(e, f, alphabet, args.cap)
            dist = ExponentValue.of_word(w).value(cfg.discount)
            rows.append(
                "\t".join([left_text, right_text, str(dist), _render_witness(w), ""])
            )
        except (RegexError, StateLimitExceeded) as exc:
            rows.append("\t".join([left_text, right_text, "-", "-", str(exc)]))
            failed = True
        except RecursionError as exc:
            rows.append("\t".join([left_text, right_text, "-", "-", _too_deep(exc)]))
            failed = True
    out = "\n".join(rows)
    if args.output is not None:
        _write_text(args.output, out)
    elif rows:
        print(out)
    return EXIT_REFUSED if failed else EXIT_OK


def cmd_nf(args: argparse.Namespace) -> int:
    cfg, alphabet = _setup(args)
    e = parse(args.expr, alphabet)
    if alphabet is None:
        alphabet = infer_alphabet(e)
    proof = normal_form_proof(e, alphabet)
    print(pretty(proof.right))
    _write_text(args.output, to_json(Certificate(cfg, proof)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regdist",
        description="Exact behavioural distances between regular expressions, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two expressions")
    p.add_argument("left")
    p.add_argument("right")
    _common_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--trace", action="store_true", help="print the fixed point trace and iterations")
    p.add_argument("--dot", default=None, metavar="FILE", help="write the automaton as Graphviz")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check with one walk over literal derivatives: it must find the witness's length, or no separating word when equal (exit 3 on mismatch)",
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("prove", help="synthesize a distance certificate")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("epsilon", nargs="?", default=None, metavar="EPS")
    _common_flags(p)
    p.add_argument("--tight", action="store_true", help="prove the exact distance")
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-check the certificate before writing (exit 3 on failure)",
    )
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="validate a certificate document")
    p.add_argument("certificate", help="path to a JSON certificate, or - for stdin")
    p.add_argument("--json", action="store_true", help="machine-readable result")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("batch", help="distances for tab-separated pairs")
    p.add_argument("file", help="input file with LEFT<TAB>RIGHT per line, or - for stdin")
    _common_flags(p)
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("nf", help="fundamental decomposition plus certificate")
    p.add_argument("expr")
    _common_flags(p)
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.set_defaults(func=cmd_nf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader hung up mid-write (regdist ... | head).  Point stdout at
        # devnull so the interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # RegexError and CertificateError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except StateLimitExceeded as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except RecursionError as exc:
        print(f"error: {_too_deep(exc)}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
