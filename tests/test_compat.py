"""The committed compatibility corpus keeps its verdicts.

``tests/compat/`` holds certificate documents written by earlier versions of
the prover, each directory with the manifest of what ``check`` decided on
them (see ``tests/compat/write_corpus.py``).  A later reader must reach the
same verdicts: a change of certificate shape or format may add documents,
never drop or re-pin the old ones.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from regdist.proof import SynthesisFailure, diagnose_certificate, expand, from_json, synthesize, to_json
from regdist.syntax import parse

COMPAT = Path(__file__).resolve().parent / "compat"

# bench/workloads.py, for its mutate(), under a private name: sys.path stays as it is
_spec = importlib.util.spec_from_file_location("_bench_workloads", COMPAT.parents[1] / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

CORPORA = sorted(p.name for p in COMPAT.iterdir() if (p / "manifest.json").exists())
RULE_BY_RULE = "v1-894c855"  # the last corpus written before lemma nodes


def load(name: str) -> tuple[dict[str, str], list[dict]]:
    """The documents of one corpus by id, and its manifest entries."""
    with gzip.open(COMPAT / name / "documents.tsv.gz", "rt", encoding="utf-8") as fh:
        texts = dict(line.rstrip("\n").split("\t", 1) for line in fh)
    entries = json.loads((COMPAT / name / "manifest.json").read_text(encoding="utf-8"))["documents"]
    assert [e["id"] for e in entries] == list(texts)
    return texts, entries


def verdict(text: str) -> dict:
    """What ``regdist check`` decides: malformed, invalid (with the failing
    node's rule and path) or valid; ``write_corpus.verdict`` recorded it."""
    try:
        err = diagnose_certificate(from_json(text))
    except ValueError:
        return {"verdict": "malformed"}
    if err is None:
        return {"verdict": "valid"}
    return {"verdict": "invalid", "rule": err.rule, "path": list(err.path)}


def recorded(entry: dict) -> dict:
    return {k: entry[k] for k in ("verdict", "rule", "path") if k in entry}


@pytest.mark.parametrize("name", CORPORA)
def test_every_stored_document_keeps_its_verdict(name):
    texts, entries = load(name)
    got = {e["id"]: verdict(texts[e["id"]]) for e in entries}
    assert got == {e["id"]: recorded(e) for e in entries}


@pytest.mark.parametrize("name", CORPORA)
def test_every_recorded_mutant_keeps_its_verdict(name):
    texts, entries = load(name)
    for entry in entries:
        for m in entry.get("mutants", []):
            mutant = workloads.mutate(texts[entry["id"]], random.Random(m["seed"]), m["kind"])
            assert hashlib.sha256(mutant.encode()).hexdigest() == m["sha256"], "workloads.mutate changed"
            assert verdict(mutant) == recorded(m), (entry["id"], m["kind"])


def prove_tight(left: str, right: str):
    """The certificate ``regdist prove --tight`` writes."""
    return synthesize(parse(left), parse(right))


def test_expanded_lemma_certificates_are_the_rule_by_rule_documents():
    # replacing each Norm and Unfold node by its twin's derivation gives,
    # byte for byte, what the prover wrote before it wrote lemma nodes
    texts, entries = load(RULE_BY_RULE)
    pairs = [e for e in entries if "left" in e]
    assert len(pairs) == 126
    for entry in pairs:
        cert = prove_tight(entry["left"], entry["right"])
        assert to_json(expand(cert)) == texts[entry["id"]], entry["id"]
