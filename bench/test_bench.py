"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import run
import workloads

# The pairs the per-layer figures were first quoted for; the workloads use
# smaller rungs, so that about ten rounds fit in a run.
STAR16 = workloads.Pair("eq16", "(aaaaaaaaaaaaaaaa)*", "(aaaaaaaaaaaaaaaa)*;(aaaaaaaaaaaaaaaa)*", Fraction(0), None, True)
STAR12 = workloads.Pair("star12", "(aaaaaaaaaaaa)*", "(aaaaaaaaaaaaa)*", Fraction(1, 4096), "a" * 12, True)


def _counts(tmp_path: Path, section: str, items: list[dict]) -> list[dict]:
    bench = run.Run(tmp_path, time.monotonic() + 120)
    result = bench.worker(section, items, trace=True)
    assert not bench.failures
    return [op["counts"] for op in result["ops"]]


def test_traced_counts_repeat_and_match_the_quoted_figures(tmp_path):
    items = run._prepare(run.Run(tmp_path, 0), [STAR16, STAR12])
    dist = [i for i in items["dist"] if i["id"] == STAR16.id]
    prove = items["prove"]
    first = (_counts(tmp_path, "dist", dist), _counts(tmp_path, "prove", prove), _counts(tmp_path, "check", items["check"]))
    second = (_counts(tmp_path, "dist", dist), _counts(tmp_path, "prove", prove), _counts(tmp_path, "check", items["check"]))
    assert first == second
    (eq16,), (proof16, proof12), (check16, check12) = first
    assert (eq16["automaton.states"], eq16["metric.descent_iterations"], eq16["automaton.product_pairs"]) == (33, 528, 17)
    assert (proof12["proof.cert_nodes"], proof12["proof.cert_distinct_nodes"]) == (11888, 1043)
    assert check16["proof.template_instances"] == 9
    assert check12["proof.template_instances"] == 0


def _traced_counts(seed: int) -> dict:
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", "corpus", "--seed", str(seed), "--seconds", "60", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def test_two_traced_runs_with_one_seed_give_the_same_counts():
    first = _traced_counts(5)
    assert first == _traced_counts(5)
    assert set(first) == set(run.LAYER_COUNTS)


def test_every_mutant_differs_from_its_document():
    doc = json.dumps({"root": {"rule": "Refl", "conclusion": {"left": "a", "right": "a", "eps": "0"}, "premises": [], "meta": {}}})
    rng = random.Random(0)
    for kind in range(8):
        assert workloads.mutate(doc, rng, kind) != json.dumps(json.loads(doc), indent=2)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
