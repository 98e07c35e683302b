"""One timed section of the benchmark, in a fresh single-threaded interpreter.

    python3 bench/worker.py JOB.json RESULT.json

The job names a section (``dist``, ``prove``, ``check`` or ``reject``), a
list of items and whether to trace.  Each item is one op: the public library
calls that the matching CLI command makes, timed back to back with one
client.  A fresh process per section keeps the caches in ``regdist.proof``
cold for every input, as they are for a CLI user; hits between inputs of one
section stay, as ``batch`` users get them too.

With tracing on, every public call is wrapped in a span ``[name, start, end,
op, pair]`` kept in memory, and the per-layer counts are taken after each op,
outside its timing.  The result file holds per-op times, answers, counts,
spans and the peak RSS of this process.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from fractions import Fraction

from regdist.automaton import build, product_pairs
from regdist.metric import kleene_descent, pair_count, witness
from regdist.proof import DEFAULT_SPOT_CHECKS, Rule, diagnose_certificate, from_json, synthesize, to_json
from regdist.syntax import infer_alphabet, parse, pretty

DISCOUNT = Fraction(1, 2)


def _untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans around public calls, recorded in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = ""
        self.pair = ""

    def __call__(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, time.perf_counter(), self.op, self.pair])


def op_dist(call, item):
    """What ``regdist dist`` computes: distance, witness and automaton facts."""
    e = call("syntax.parse", parse, item["left"])
    f = call("syntax.parse", parse, item["right"])
    alphabet = infer_alphabet(e, f)
    aut = call("automaton.build", build, [e, f], alphabet)
    descent = call("metric.descent", kleene_descent, aut)
    s, t = aut.roots
    value = Fraction(0) if s == t else descent.table[(min(s, t), max(s, t))].value(DISCOUNT)
    w = call("metric.witness", witness, e, f, alphabet)
    return {"distance": str(value), "witness": w}, (aut, descent, w)


def counts_dist(state) -> dict:
    aut, descent, w = state
    all_pairs = pair_count(aut.n_states)
    return {
        "automaton.states": aut.n_states,
        "derivatives.steps": aut.n_states * len(aut.alphabet),
        "automaton.product_pairs": len(product_pairs(aut, *aut.roots)),
        "automaton.all_pairs": all_pairs,
        "metric.descent_iterations": descent.iterations,
        "metric.descent_cells": descent.iterations * all_pairs,
        "metric.witness_len": len(w or ""),
        "syntax.parse_calls": 2,
    }


def op_prove(call, item):
    """What ``regdist prove LEFT RIGHT EPS`` computes, at the exact distance."""
    e = call("syntax.parse", parse, item["left"])
    f = call("syntax.parse", parse, item["right"])
    cert = call("proof.synthesize", synthesize, e, f, Fraction(item["eps"]))
    text = call("proof.to_json", to_json, cert)
    return {}, text


def counts_prove(text: str) -> dict:
    """Tree nodes against distinct subtrees, expression strings against
    distinct ones, in the serialized certificate."""
    ids: dict[tuple, int] = {}
    exprs: list[str] = []
    nodes = 0
    stack = [(json.loads(text)["root"], False)]
    done: list[int] = []
    while stack:
        node, expanded = stack.pop()
        premises = node.get("premises", [])
        if not expanded:
            stack.append((node, True))
            stack.extend((p, False) for p in premises)
            continue
        nodes += 1
        c = node["conclusion"]
        exprs += [c["left"], c["right"]]
        meta = node.get("meta", {})
        if "midpoint" in meta:
            exprs.append(meta["midpoint"])
        kids = tuple(done[len(done) - len(premises):]) if premises else ()
        del done[len(done) - len(premises):]
        key = (node["rule"], c["left"], c["right"], c["eps"], json.dumps(meta, sort_keys=True), kids)
        done.append(ids.setdefault(key, len(ids)))
    return {
        "proof.cert_nodes": nodes,
        "proof.cert_distinct_nodes": len(ids),
        "proof.cert_exprs": len(exprs),
        "proof.cert_distinct_exprs": len(set(exprs)),
        "syntax.parse_calls": 2,
    }


def _verdict(call, text: str, name: str):
    # The CLI maps ValueError (CertificateError, RegexError) to exit code 2.
    try:
        cert = call("proof.from_json", from_json, text)
        err = call(name, diagnose_certificate, cert)
    except ValueError as exc:
        return {"verdict": "malformed", "reason": str(exc)}, None
    if err is not None:
        return {"verdict": "invalid", "reason": str(err)}, cert
    j = cert.root.conclusion
    return {"verdict": "valid", "root": [pretty(j.left), pretty(j.right), str(j.eps)]}, cert


def op_check(call, item):
    """What ``regdist check FILE`` computes on a document from ``prove``."""
    return _verdict(call, item["text"], "proof.check")


def op_reject(call, item):
    """``regdist check FILE`` on a mutated document."""
    return _verdict(call, item["text"], "proof.reject")


def counts_check(cert) -> dict:
    """Template instances the checker expands: spot indices plus 0..K."""
    if cert is None:
        return {}
    instances = 0
    seen: set[int] = set()
    stack = [cert.root]
    while stack:
        d = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        if d.rule is Rule.CONT_TEMPLATE:
            instances += len(set(d.meta.spot_indices) | set(range(DEFAULT_SPOT_CHECKS + 1)))
        stack.extend(d.premises)
    return {"proof.template_instances": instances}


SECTIONS = {
    "dist": (op_dist, counts_dist),
    "prove": (op_prove, counts_prove),
    "check": (op_check, counts_check),
    "reject": (op_reject, lambda state: {}),
}


def run(job: dict) -> dict:
    section = job["section"]
    op, counter = SECTIONS[section]
    tracer = Tracer() if job["trace"] else None
    call = tracer or _untraced
    ops = []
    gc.collect()
    for item in job["items"]:
        if section in ("check", "reject"):
            with open(item["path"], encoding="utf-8") as fh:
                item["text"] = fh.read()
        if tracer is not None:
            tracer.op, tracer.pair = section, item["id"]
        record: dict = {"id": item["id"]}
        start = time.perf_counter()
        try:
            answer, state = op(call, item)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            record["elapsed"] = time.perf_counter() - start
            record["error"] = f"{type(exc).__name__}: {exc}"
            ops.append(record)
            continue
        end = time.perf_counter()
        record["elapsed"] = end - start
        record.update(answer)
        if tracer is not None:
            tracer.spans.append([section, start, end, None, item["id"]])
        if section == "prove":
            with open(item["path"], "w", encoding="utf-8") as fh:
                fh.write(state + "\n")
            record["bytes"] = len(state.encode()) + 1
        if tracer is not None:
            record["counts"] = counter(state)
        ops.append(record)
        item.pop("text", None)
        answer = state = None  # let the op's objects go before the next op starts
    return {
        "ops": ops,
        "spans": tracer.spans if tracer is not None else [],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: worker.py JOB.json RESULT.json", file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
