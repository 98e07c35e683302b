"""regdist benchmark: dist, prove, check, reject and batch on one workload.

    python3 bench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; nothing needs installing.  The run
repeats rounds while ``--seconds`` last, at least MIN_ROUNDS of them.  A
round runs the four op sections (dist, prove, check, reject) one after
another, each in a fresh single-threaded worker process that sees every
input once, then times a few fresh interpreters importing ``regdist.cli``
(set-up) and one ``regdist batch`` process over the workload's pairs, and
then runs prove and batch once more.  The load is a closed loop with one
client.

Every answer is checked outside the timed sections against an independent
reference (see ``workloads.py``).  Human-readable lines go first; the last
line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  A traced run times
one untraced round and one traced round, and writes its spans to
``.bench/trace-WORKLOAD-SEED.json``; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

SECTIONS = ("dist", "prove", "check", "reject")
# Each op's time is its least over the rounds, each round a cold repetition in
# fresh workers.  On a shared 2-vCPU VM the speed only ever drops below the
# machine's own: neighbours slow a fixed pure-Python loop by up to 2x, for
# seconds or for minutes.  Over 40 s windows of such a loop, in 7 ms chunks,
# the mean chunk time spread (interquartile range over median) by 0.19 in a
# calm 5-minute stretch and 0.40 in a noisy 8-minute one, the least by 0.02
# and 0.03.  On three sets of five corpus runs the per-op least spread
# dist_per_s by 0.22, 0.10 and 0.07, the per-op mean by 0.13, 0.13 and 0.13;
# on every other time metric of the last two sets the least spread less.  The
# least needs many rounds, so that some of them land in a fast stretch: a
# simulation over those traces halved its spread from five rounds to ten.
MIN_ROUNDS = 3
# Sections that run twice per round, as batch does.  Their heaviest ops last
# 0.3-0.6 s (a 3.2 MB certificate on corpus, a whole batch process), and the
# least of such an op needs a fast stretch at least that long.  On corpus, 60 s
# runs, the second pass cut the spread of prove_per_s from 0.28 (ten runs) to
# 0.17 (five runs) and that of batch_per_s from 0.20 to 0.03.
SECOND_PASSES = ("prove",)
SETUP_LAUNCHES_PER_ROUND = 2
RUN_DEADLINE_S = 170  # every run must end within 180 s
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import regdist.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "dist_per_s": "1/s",
    "dist_ms_p50": "ms",
    "dist_ms_p90": "ms",
    "prove_per_s": "1/s",
    "prove_ms_p50": "ms",
    "check_per_s": "1/s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
    "reject_per_s": "1/s",
    "batch_per_s": "1/s",
    "cert_bytes": "bytes",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: sums over the traced pass, named after the modules.
LAYER_TIMES = (
    "syntax.parse",
    "automaton.build",
    "metric.descent",
    "metric.witness",
    "proof.synthesize",
    "proof.to_json",
    "proof.from_json",
    "proof.check",
    "proof.reject",
)
LAYER_COUNTS = (
    "syntax.parse_calls",
    "derivatives.steps",
    "automaton.states",
    "automaton.product_pairs",
    "automaton.all_pairs",
    "metric.descent_iterations",
    "metric.descent_cells",
    "metric.witness_len",
    "proof.cert_nodes",
    "proof.cert_distinct_nodes",
    "proof.cert_exprs",
    "proof.cert_distinct_exprs",
    "proof.template_instances",
)


class Run:
    """One benchmark run: its working directory, deadline and failures."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.failures: list[str] = []
        self.attempted = 0
        self.jobs = 0
        self.setup_walls: list[float] = []
        self.imports: list[float] = []
        self.batch_walls: list[float] = []

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def worker(self, section: str, items: list[dict], trace: bool) -> dict:
        """One fresh worker over ``items``; ops it never reported count as failed."""
        self.jobs += 1
        job = self.workdir / f"job{self.jobs}.json"
        out = self.workdir / f"result{self.jobs}.json"
        job.write_text(json.dumps({"section": section, "items": items, "trace": trace}))
        cmd = [sys.executable, str(BENCH / "worker.py"), str(job), str(out)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self.timeout())
            problem = None if proc.returncode == 0 else f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            problem = "worker hung and was killed"
        result = json.loads(out.read_text()) if problem is None else {"ops": [], "spans": [], "peak_rss_mb": 0.0}
        reported = {op["id"] for op in result["ops"]}
        self.attempted += len(items)
        for item in items:
            if item["id"] not in reported:
                self.fail(f"{section} {item['id']}: {problem}")
        return result

    def rounds(self, items: dict, seconds: float | None, trace: bool, mutants) -> dict[str, list[dict]]:
        """Rounds while ``seconds`` last, at least MIN_ROUNDS; with
        ``seconds`` None, one round.

        A round is one fresh worker per section over all its items; an
        untraced round then times set-up launches and one ``batch`` process,
        and runs SECOND_PASSES and ``batch`` once more.
        The order of the items is fixed: after a large op the heap holds more
        objects for the collector to walk, so a seeded order would move later
        ops by up to a third.
        """
        results: dict[str, list[dict]] = {name: [] for name in SECTIONS}
        start = time.monotonic()
        done = 0
        while True:
            for name in SECTIONS:
                if name == "reject" and not results["reject"]:
                    mutants()
                results[name].append(self.worker(name, items[name], trace))
            if not trace:
                self.launch(SETUP_LAUNCHES_PER_ROUND)
                self.batch(items["batch"])
                for name in SECOND_PASSES:
                    results[name].append(self.worker(name, items[name], trace))
                self.batch(items["batch"])
            done += 1
            elapsed = time.monotonic() - start
            if seconds is None or (done >= MIN_ROUNDS and elapsed + elapsed / done > seconds):
                return results

    def batch(self, order: list) -> None:
        """One ``regdist batch`` process over all pairs; wall time, start-up included."""
        src = self.workdir / "pairs.tsv"
        out = self.workdir / "rows.tsv"
        src.write_text("".join(f"{p.left}\t{p.right}\n" for p in order))
        cmd = [sys.executable, "-m", "regdist.cli", "batch", str(src), "-o", str(out)]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self.timeout())
        except subprocess.TimeoutExpired:
            proc = None
        self.batch_walls.append(time.perf_counter() - start)
        self.attempted += len(order)
        if proc is None or proc.returncode != 0:
            detail = "hung" if proc is None else f"exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            for p in order:
                self.fail(f"batch {p.id}: {detail}")
            return
        rows = out.read_text().splitlines()
        for i, p in enumerate(order):
            want = "\t".join([p.left, p.right, str(p.distance), _render_witness(p.witness), ""])
            if i >= len(rows) or rows[i] != want:
                got = rows[i] if i < len(rows) else "no row"
                self.fail(f"batch {p.id} ({p.left} | {p.right}): row {got!r}, reference {want!r}")

    def launch(self, count: int) -> None:
        """Fresh interpreters importing regdist.cli: wall and import times."""
        for _ in range(count):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=self.timeout()
            )
            self.setup_walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"cannot import regdist.cli: {proc.stderr.strip()[-300:]}")
            self.imports.append(float(proc.stdout))


def _render_witness(w: str | None) -> str:
    if w is None:
        return "-"
    return '""' if w == "" else w


def _ops(results: list[dict]) -> list[dict]:
    return [op for r in results for op in r["ops"]]


def _check_answers(run: Run, section: str, results: list[dict], pairs: dict, sound) -> None:
    for op in _ops(results):
        pair = pairs[op["id"]]
        where = f"{section} {pair.id} ({pair.left} | {pair.right})"
        if "error" in op:
            run.fail(f"{where}: raised {op['error']}")
        elif section == "dist" and (op["distance"], op["witness"]) != (str(pair.distance), pair.witness):
            run.fail(f"{where}: got {op['distance']} {op['witness']!r}, reference {pair.distance} {pair.witness!r}")
        elif section == "check" and op["verdict"] != "valid":
            run.fail(f"{where}: valid document judged {op['verdict']}: {op['reason']}")
        elif section == "reject" and op["verdict"] == "valid" and not sound(*op["root"]):
            run.fail(f"{where}: mutated document accepted with an unsound root {op['root']}")


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _prepare(run: Run, pairs: list) -> dict[str, list[dict]]:
    """Items for each section; certificates and their mutants are files."""
    certs = run.workdir / "certs"
    mutants = run.workdir / "mutants"
    certs.mkdir()
    mutants.mkdir()
    proved = [p for p in pairs if p.proved]
    return {
        "dist": [{"id": p.id, "left": p.left, "right": p.right} for p in pairs],
        "prove": [
            {"id": p.id, "left": p.left, "right": p.right, "eps": str(p.distance), "path": str(certs / f"{p.id}.json")}
            for p in proved
        ],
        "check": [{"id": p.id, "path": str(certs / f"{p.id}.json")} for p in proved],
        "reject": [{"id": p.id, "path": str(mutants / f"{p.id}.json")} for p in proved],
        "batch": pairs,
    }


def _write_mutants(items: dict[str, list[dict]], mutate) -> None:
    """One mutant per proved document, the same for every seed.  Whether a
    mutant fails in ``from_json`` or in the checker, and how far in, depends
    on the attacked node: drawing it from the seed moved ``reject_per_s`` on
    deep-certs by a third between seeds."""
    for index, (cert, mutant) in enumerate(zip(items["check"], items["reject"])):
        text = Path(cert["path"]).read_text()
        Path(mutant["path"]).write_text(mutate(text, random.Random(cert["id"]), index % 8))


def _op_times(results: list[dict]) -> dict[str, float]:
    """Each op's least time over the rounds, for ops that did not raise."""
    times: dict[str, list[float]] = {}
    for op in _ops(results):
        if "error" not in op:
            times.setdefault(op["id"], []).append(op["elapsed"])
    return {key: min(values) for key, values in times.items()}


def _end_to_end(sections: dict, batch_walls: list[float], rows: int, walls: list[float]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    out: dict[str, tuple[float, int]] = {"setup_s": (statistics.median(walls), len(walls))}
    for name in SECTIONS:
        per_op = _op_times(sections[name])
        t = list(per_op.values())
        done = len(t)
        if name == "check":
            valid = {op["id"] for op in _ops(sections[name]) if op.get("verdict") == "valid"}
            done = len(valid & per_op.keys())
        out[f"{name}_per_s"] = (done / sum(t) if done else 0.0, len(t))
        ms = [x * 1000 for x in t] or [0.0]  # every op failed
        if name != "reject":
            out[f"{name}_ms_p50"] = (statistics.median(ms), len(ms))
        if name in ("dist", "check"):
            out[f"{name}_ms_p90"] = (_quantile(ms, 90), len(ms))
    out["batch_per_s"] = (rows / min(batch_walls), len(batch_walls))
    first_pass = sections["prove"][0]["ops"]
    out["cert_bytes"] = (float(sum(op.get("bytes", 0) for op in first_pass)), len(first_pass))
    rss = [r["peak_rss_mb"] for name in SECTIONS for r in sections[name]]
    out["peak_rss_mb"] = (max(rss), len(rss))
    return out


def _per_layer(traced: dict, untraced: dict, batch_walls: list[float], imports: list[float]) -> dict[str, float]:
    """Sums over the traced round; layer times are self times."""
    out: dict[str, float] = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    out.update({name: 0 for name in LAYER_COUNTS})
    harness = 0.0
    for name in SECTIONS:
        for result in traced[name]:
            children: dict[tuple, float] = {}
            for label, start, end, op, pair in result["spans"]:
                if op is not None:
                    out[f"{label}_s"] += end - start
                    children[(op, pair)] = children.get((op, pair), 0.0) + end - start
            for label, start, end, op, pair in result["spans"]:
                if op is None:
                    harness += end - start - children.get((label, pair), 0.0)
            for record in result["ops"]:
                for key, value in record.get("counts", {}).items():
                    out[key] += value
    out["metric.descent_useful_share"] = out["automaton.product_pairs"] / max(1, out["automaton.all_pairs"])
    out["cli.import_s"] = statistics.median(imports)
    out["cli.batch_s"] = min(batch_walls)
    # The first pass of each section, since an untraced round runs some twice.
    traced_s = sum(op["elapsed"] for name in SECTIONS for op in traced[name][0]["ops"])
    untraced_s = sum(op["elapsed"] for name in SECTIONS for op in untraced[name][0]["ops"])
    out["trace.harness_self_s"] = harness
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return out


def _units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "share" if name.endswith("_share") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regdist" / "cli.py").is_file():
        print(f"error: no regdist sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    state_dir = ROOT / ".bench"
    state_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=state_dir))
    try:
        run = Run(workdir, deadline)
        pairs = workloads.renamed(workloads.WORKLOADS[args.workload](), args.seed)
        by_id = {p.id: p for p in pairs}
        items = _prepare(run, pairs)
        mutants = lambda: _write_mutants(items, workloads.mutate)
        # A traced run times one untraced round against one traced round.
        untraced = run.rounds(items, None if args.trace else args.seconds, False, mutants)
        traced = run.rounds(items, None, True, mutants) if args.trace else {}
        for results in (untraced, traced):
            for name, passes in results.items():
                _check_answers(run, name, passes, by_id, workloads.sound)
        e2e = _end_to_end(untraced, run.batch_walls, len(pairs), run.setup_walls)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        for name, (value, n) in e2e.items():
            print(f"  {name:<14} {value:>14.6g} {END_TO_END[name]:<6} n={n}")
        print(f"  {'failed_ops':<14} {len(run.failures) / run.attempted:>14.6g} {'share':<6} n={run.attempted}")
        for line in run.failures[:50]:
            print(f"FAILED {line}", file=sys.stderr)
        if args.trace:
            layers = _per_layer(traced, untraced, run.batch_walls, run.imports)
            for name, value in layers.items():
                print(f"  {name:<30} {value:>14.6g} {_units(name)}")
            trace_file = state_dir / f"trace-{args.workload}-{args.seed}.json"
            spans = [s for name in SECTIONS for r in traced[name] for s in r["spans"]]
            ops = [dict(op, section=name) for name in SECTIONS for op in _ops(traced[name])]
            trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "metrics": layers, "ops": ops, "spans": spans}))
            print(f"  trace written to {trace_file.relative_to(ROOT)}")
            metrics = {name: {"value": value, "unit": _units(name)} for name, value in layers.items()}
        else:
            metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in e2e.items()}
        print(
            json.dumps(
                {"correct": not run.failures, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
