"""Write a compatibility corpus: certificate documents and their verdicts.

    PYTHONPATH=src python3 tests/compat/write_corpus.py OUT_DIR

Writes ``OUT_DIR/documents.tsv.gz``, one ``ID<TAB>DOCUMENT`` line per
document, and ``OUT_DIR/manifest.json`` with each document's verdict.  The
documents are what ``regdist prove --tight`` writes for the 126 pairs of
``bench/workloads.py``, with the code this script runs on, and a set of
``star_unroll`` documents written out by hand.  For each proved corpus pair
the manifest also records one ``workloads.mutate`` mutant per attack kind:
its seed, the SHA-256 of its text, and its verdict with the failing rule and
path.  ``tests/test_compat.py`` reads the committed corpus back; a corpus
once committed is never rewritten, only joined by corpora of newer shapes.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from regdist import cli  # noqa: E402
from regdist.metric import Config  # noqa: E402
from regdist.proof import Certificate, Judgement, diagnose_certificate, from_json, star_unroll_proof, to_json  # noqa: E402
from regdist.syntax import Seq, Star, Sum, parse, pretty  # noqa: E402

ATTACK_KINDS = 8


def verdict(text: str) -> dict:
    """What ``regdist check`` decides: malformed, invalid (with the failing
    node's rule and path) or valid."""
    try:
        err = diagnose_certificate(from_json(text))
    except ValueError:
        return {"verdict": "malformed"}
    if err is None:
        return {"verdict": "valid"}
    return {"verdict": "invalid", "rule": err.rule, "path": list(err.path)}


def mutant_seed(index: int, kind: int) -> int:
    return ATTACK_KINDS * index + kind


def prove_tight(left: str, right: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["prove", "--tight", left, right])
    assert code == 0, (left, right)
    return out.getvalue().rstrip("\n")


def _template(hyps: list, concl: tuple[str, str], params: dict, spots: list) -> str:
    doc = {
        "version": 1,
        "lambda": "1/2",
        "hypotheses": [{"left": l, "right": r, "eps": "0"} for l, r in hyps],
        "root": {
            "rule": "ContTemplate",
            "conclusion": {"left": concl[0], "right": concl[1], "eps": "0"},
            "premises": [],
            "meta": {"schema": "star_unroll", "params": params, "spot_indices": spots},
        },
    }
    return json.dumps(doc, separators=(",", ":"))


def star_unroll_documents() -> dict[str, str]:
    """Templates at spot depths 3, 2,000 and 4,097, with and without their
    hypothesis, over letter, star, sum and word guards, with a wrong
    conclusion and a missing parameter; and unrolled derivations at depth 3."""
    docs = {}
    a_loop = ("a", "a;a + 0")
    for spot in (3, 2000, 4097):
        docs[f"star_unroll/a/depth{spot}"] = _template([a_loop], ("a", "a*;0"), {"g": "a", "e": "a", "f": "0"}, [spot])
    docs["star_unroll/a/no-hypothesis"] = _template([], ("a", "a*;0"), {"g": "a", "e": "a", "f": "0"}, [3])
    docs["star_unroll/a/wrong-conclusion"] = _template([a_loop], ("a", "a*;1"), {"g": "a", "e": "a", "f": "0"}, [3])
    docs["star_unroll/a/missing-parameter"] = _template([a_loop], ("a", "a*;0"), {"g": "a", "e": "a"}, [3])
    guards = {"star": "a*", "sum": "a + b;c", "empty": "1", "sum-with-one": "a + 1"}
    guards.update({f"word{n}": ";".join("a" * n) for n in (50, 200, 800)})
    for name, guard in guards.items():
        e, g, f = parse(guard), parse("c"), parse("b")
        hyp = (pretty(g), pretty(Sum(Seq(e, g), f)))
        concl = (pretty(g), pretty(Seq(Star(e), f)))
        params = {"g": pretty(g), "e": pretty(e), "f": pretty(f)}
        docs[f"star_unroll/{name}/hypothesis"] = _template([hyp], concl, params, list(range(9)))
        docs[f"star_unroll/{name}/no-hypothesis"] = _template([], concl, params, list(range(9)))
    cfg = Config()
    for name, (g, rhs) in {"a": ("a*", "a;a* + 1"), "ab": ("(a + b;c)*", "(a + b;c);(a + b;c)* + 1")}.items():
        j = Judgement(parse(g), parse(rhs), 0)
        proof = star_unroll_proof(j, 3, cfg)
        docs[f"star_unroll/derived-{name}/depth3"] = to_json(Certificate(cfg, proof, (j,)))
        docs[f"star_unroll/derived-{name}/no-hypothesis"] = to_json(Certificate(cfg, proof))
    return docs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    pairs = [p for make in workloads.WORKLOADS.values() for p in make()]
    texts: dict[str, str] = {}
    entries = []
    for p in pairs:
        text = texts[p.id] = prove_tight(p.left, p.right)
        entry = {"id": p.id, "left": p.left, "right": p.right, **verdict(text)}
        if p.id.startswith("corpus#") and p.proved:
            index = len([e for e in entries if "mutants" in e])
            entry["mutants"] = []
            for kind in range(ATTACK_KINDS):
                seed = mutant_seed(index, kind)
                mutant = workloads.mutate(text, random.Random(seed), kind)
                digest = hashlib.sha256(mutant.encode()).hexdigest()
                entry["mutants"].append({"kind": kind, "seed": seed, "sha256": digest, **verdict(mutant)})
        entries.append(entry)
    for doc_id, text in star_unroll_documents().items():
        texts[doc_id] = text
        entries.append({"id": doc_id, **verdict(text)})
    lines = "".join(f"{doc_id}\t{text}\n" for doc_id, text in texts.items())
    (out / "documents.tsv.gz").write_bytes(gzip.compress(lines.encode(), compresslevel=9, mtime=0))
    rows = ",\n".join(json.dumps(entry) for entry in entries)
    (out / "manifest.json").write_text(f'{{"documents": [\n{rows}\n]}}\n', encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
