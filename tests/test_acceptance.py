"""End-to-end acceptance checks.

Each test covers one acceptance criterion and carries its own time budget.
All numeric comparisons are exact; no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction
from types import SimpleNamespace

from regdist.automaton import StateLimitExceeded, build
from regdist.cli import main
from regdist.metric import (
    Config,
    distance,
    kleene_descent,
    literal_separation,
    pair_count,
    witness,
)
from regdist.check import diagnose, serialize
from regdist.oracle import brute_distance, denote
from regdist.proof import (
    Judgement,
    check_certificate,
    diagnose_certificate,
    from_json,
    normal_form_proof,
    salomaa_rule,
    star_unroll_proof,
    synthesize,
)
from regdist.syntax import Seq, Star, Sum, infer_alphabet, parse

from conftest import rand_expr
from descent_reference import kleene_descent as reference_descent
from rational_tables import phi_rational, sup_distance, table_values

HALF = Fraction(1, 2)


def test_criterion_01_frozen_distances_and_witness_under_ten_ms():
    distance(parse("a*"), parse("a+1"))  # warm the parser path
    t0 = time.perf_counter()
    d1 = distance(parse("a*"), parse("a+1"))
    t1 = time.perf_counter()
    d2 = distance(parse("a*"), parse("0"))
    t2 = time.perf_counter()
    w = witness(parse("a*"), parse("a+1"))
    t3 = time.perf_counter()
    assert d1 == Fraction(1, 4)
    assert d2 == Fraction(1)
    assert w == "aa"
    assert t1 - t0 < 0.010
    assert t2 - t1 < 0.010
    assert t3 - t2 < 0.010


def test_criterion_02_cli_prove_then_check_round_trip_under_100ms(capsys, tmp_path):
    target = tmp_path / "cert.json"
    t0 = time.perf_counter()
    assert main(["prove", "a*", "a+1", "1/4", "-o", str(target)]) == 0
    assert main(["check", str(target)]) == 0
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    cert = from_json(target.read_text())
    assert cert.root.conclusion == Judgement(parse("a*"), parse("a+1"), Fraction(1, 4))
    assert elapsed < 0.100


def test_criterion_03_distance_matches_enumeration_on_500_pairs(corpus):
    t0 = time.monotonic()
    discounts = [HALF, Fraction(1, 3), Fraction(3, 4)]
    assert len(corpus) >= 500
    for i, pair in enumerate(corpus):
        lam = discounts[i % 3]
        got = distance(pair.left, pair.right, Config(lam), pair.alphabet)
        want = brute_distance(pair.left, pair.right, pair.alphabet, pair.bound, lam)
        assert isinstance(got, Fraction)
        assert got == want, (pair, lam)
    assert time.monotonic() - t0 < 60


def test_criterion_04_certificates_check_and_survive_mutation_attacks(corpus):
    t0 = time.monotonic()
    docs = []
    for pair in corpus[:120]:
        d = distance(pair.left, pair.right, None, pair.alphabet)
        cert = synthesize(pair.left, pair.right, d, None, pair.alphabet)
        assert check_certificate(cert)
        assert cert.root.eps >= d
        docs.append(serialize(cert))

    def nodes_of(doc):
        out = []
        stack = [doc["root"]]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.get("premises", []))
        return out

    def attack(rng, node):
        kind = rng.randrange(8)
        if kind == 0:
            node["conclusion"]["eps"] = str(Fraction(node["conclusion"]["eps"]) / 2)
        elif kind == 1:
            node["conclusion"]["eps"] = "0"
        elif kind == 2:
            left = node["conclusion"]["left"]
            node["conclusion"]["left"] = node["conclusion"]["right"]
            node["conclusion"]["right"] = left
        elif kind == 3:
            node["rule"] = rng.choice(["Refl", "SL1", "Top", "Max", "NExp", "Triang"])
        elif kind == 4 and node.get("premises"):
            node["premises"] = node["premises"][:-1]
        elif kind == 5 and node.get("premises"):
            node["premises"] = node["premises"] + [node["premises"][0]]
        elif kind == 6:
            node.pop("meta", None)
        else:
            node["conclusion"]["left"] = node["conclusion"]["right"]

    rng = random.Random(404)
    rejected = survived = 0
    for _ in range(200):
        doc = json.loads(json.dumps(rng.choice(docs)))
        attack(rng, rng.choice(nodes_of(doc)))
        try:
            cert = from_json(json.dumps(doc))
        except Exception:
            rejected += 1
            continue
        if diagnose_certificate(cert) is not None:
            rejected += 1
            continue
        # the mutation slipped through, so it must not have broken soundness
        j = cert.root.conclusion
        survived += 1
        assert j.eps >= distance(j.left, j.right, cert.config)
    assert rejected + survived == 200
    assert rejected > 0
    assert time.monotonic() - t0 < 60


def test_criterion_05_tight_and_padded_proofs_across_the_corpus(corpus):
    t0 = time.monotonic()
    positive = zero = 0
    for pair in corpus:
        d = distance(pair.left, pair.right, None, pair.alphabet)
        if d > 0:
            tight_cert = synthesize(pair.left, pair.right, d, None, pair.alphabet)
            padded = synthesize(pair.left, pair.right, d + Fraction(1, 7), None, pair.alphabet)
            assert check_certificate(tight_cert)
            assert check_certificate(padded)
            positive += 1
        else:
            assert literal_separation(pair.left, pair.right, pair.alphabet) is None
            if pair.left != pair.right:
                cert = synthesize(pair.left, pair.right, Fraction(0), None, pair.alphabet)
                assert diagnose_certificate(cert) is None
                zero += 1
    assert positive + zero >= 450
    assert time.monotonic() - t0 < 60


def _random_automaton(rng):
    n = rng.randint(2, 12)
    k = rng.randint(1, 3)
    alphabet = ("a", "b", "c")[:k]
    outputs = tuple(rng.randint(0, 1) for _ in range(n))
    transitions = tuple(
        tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)
    )
    # a stand-in with the fields that kleene_descent and the references read
    return SimpleNamespace(alphabet=alphabet, n_states=n, outputs=outputs, transitions=transitions)


def _random_table(rng, n):
    return {
        (i, j): Fraction(rng.randint(0, 16), 16)
        for i in range(n)
        for j in range(i + 1, n)
    }


def test_criterion_06_fixed_point_properties_on_random_automata():
    t0 = time.monotonic()
    rng = random.Random(606)
    cfg = Config()
    for _ in range(200):
        aut = _random_automaton(rng)
        n = aut.n_states
        ta = _random_table(rng, n)
        tb = _random_table(rng, n)

        # monotone on pointwise-ordered inputs
        lo = {p: min(ta[p], tb[p]) for p in ta}
        phi_lo = phi_rational(aut, lo, cfg)
        phi_a = phi_rational(aut, ta, cfg)
        assert all(phi_lo[p] <= phi_a[p] for p in phi_a)

        # nonexpansive in the sup norm
        phi_b = phi_rational(aut, tb, cfg)
        assert sup_distance(phi_a, phi_b) <= sup_distance(ta, tb)

        # the ascending iteration from zero meets the descending one, whose
        # tables are the literal iteration's
        res = kleene_descent(aut)
        trace = tuple(res.tables())
        ref = reference_descent(aut)
        assert (res.table, trace, res.iterations) == (ref.table, ref.trace, ref.iterations)
        fixed = table_values(res.table, cfg)
        assert phi_rational(aut, fixed, cfg) == fixed
        rising = {p: Fraction(0) for p in ta}
        for _ in range(pair_count(n) + 3):
            nxt = phi_rational(aut, rising, cfg)
            if nxt == rising:
                break
            assert all(rising[p] <= nxt[p] for p in rising)
            rising = nxt
        assert rising == fixed

        # the descending trace never increases, and stays rational
        for earlier, later in zip(trace, trace[1:]):
            assert all(later[p] <= earlier[p] for p in earlier)
        assert all(isinstance(v, Fraction) for v in fixed.values())
    assert time.monotonic() - t0 < 30


def test_criterion_07_decomposition_proofs_on_200_random_expressions():
    t0 = time.monotonic()
    rng = random.Random(707)
    cfg = Config()
    for _ in range(200):
        e = rand_expr(rng, rng.randint(1, 10))
        alphabet = infer_alphabet(e) or ("a",)
        d = normal_form_proof(e, alphabet)
        assert d.left == e and d.eps == 0
        assert diagnose(d, cfg) is None
        assert denote(e, alphabet, 6) == denote(d.right, alphabet, 6)
    assert time.monotonic() - t0 < 30


def test_criterion_08_star_unrollings_and_the_closed_solution():
    t0 = time.monotonic()
    cfg = Config()
    hyp = Judgement(parse("a*"), parse("a;a* + 1"), 0)
    for n in range(11):
        d = star_unroll_proof(hyp, n, cfg)
        assert d.eps == HALF**n
        assert diagnose(d, cfg, (hyp,)) is None
    node = salomaa_rule(hyp)
    assert node.conclusion == Judgement(parse("a*"), parse("a*;1"), 0)
    assert diagnose(node, cfg, (hyp,)) is None
    assert distance(parse("a*"), parse("a*;1")) == 0
    assert time.monotonic() - t0 < 10


def test_criterion_09_distances_are_stable_under_extra_roots():
    t0 = time.monotonic()
    rng = random.Random(909)
    cfg = Config()
    done = 0
    while done < 200:
        e = rand_expr(rng, rng.randint(1, 10))
        f = rand_expr(rng, rng.randint(1, 10))
        g = rand_expr(rng, rng.randint(1, 10))
        alphabet = infer_alphabet(e, f, g) or ("a",)
        try:
            aut = build([e, f, g], alphabet, 600)
        except StateLimitExceeded:
            continue
        s, t = aut.roots[0], aut.roots[1]
        if s == t:
            embedded = Fraction(0)
        else:
            table = kleene_descent(aut).table
            embedded = table[(min(s, t), max(s, t))].value(cfg.discount)
        assert embedded == distance(e, f, cfg, alphabet)
        done += 1
    assert time.monotonic() - t0 < 30


def test_criterion_10_operations_are_nonexpansive(corpus):
    t0 = time.monotonic()
    done = 0
    for p, q in zip(corpus, corpus[1:]):
        if done >= 150:
            break
        e, f = p.left, p.right
        g, h = q.left, q.right
        alphabet = infer_alphabet(e, f, g, h) or ("a",)
        try:
            deg = distance(e, g, None, alphabet, cap=2000)
            dfh = distance(f, h, None, alphabet, cap=2000)
            dsum = distance(Sum(e, f), Sum(g, h), None, alphabet, cap=2000)
            dseq = distance(Seq(e, f), Seq(g, h), None, alphabet, cap=2000)
            dstar = distance(Star(e), Star(g), None, alphabet, cap=2000)
        except StateLimitExceeded:
            continue
        assert dsum <= max(deg, dfh)
        assert dseq <= max(deg, dfh)
        assert dstar <= deg
        done += 1
    assert done >= 100
    assert time.monotonic() - t0 < 30
