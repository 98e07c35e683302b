"""Workload inputs, certificate mutations and the reference answers.

Every workload is a fixed list of expression pairs given as text, the way a
user hands them to ``regdist``.  The seed renames the letters ``a`` and ``b``
to two other letters in the same order, which gives new inputs (new strings,
new cache keys) with the same amount of work.  Seeded choices that change
the work spread the metrics too far: a corpus freshly drawn per seed spreads
``prove_per_s`` and ``check_per_s`` by 30-60% between seeds (interquartile
range over median, from a bootstrap over 400 measured pairs), because a few
heavy certificates carry most of the time.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, replace
from fractions import Fraction

from regdist.automaton import StateLimitExceeded, build, product_pairs
from regdist.metric import distance
from regdist.oracle import brute_witness
from regdist.syntax import Letter, One, Regex, Seq, Star, Sum, Zero, infer_alphabet, make_alphabet, parse, pretty

DISCOUNT = Fraction(1, 2)

# The first pairs of the test suite's corpus: same generator, admission rule
# and seed, copied from tests/conftest.py so that the inputs stay put when
# the tests change.  prove, check and reject cover the first CORPUS_PROVED of
# them; dist and batch cover more, since a dist op costs about a tenth of a
# prove plus a check, and dist keeps at least 100 ops for its p90.  The sizes
# keep a corpus round near 4 s, so that a 60 s run makes about ten rounds
# (see MIN_ROUNDS in run.py for why the number of rounds matters most).
CORPUS_SEED = 20260822
CORPUS_SIZE = 120
CORPUS_PROVED = 30

# Ladders sized so that about ten rounds of every section fit in a run.
EQUAL_CLOSURE_N = (4, 8, 12)
DEEP_STAR_N = (4, 6)
DEEP_AB_N = (2,)


@dataclass(frozen=True)
class Pair:
    """One input pair with its reference answer (distance, witness)."""

    id: str
    left: str
    right: str
    distance: Fraction
    witness: str | None
    proved: bool  # whether prove, check and reject cover this pair


def rand_expr(rng: random.Random, budget: int, letters: tuple[str, ...]) -> Regex:
    """A random expression with at most ``budget`` constructors."""
    if budget <= 1 or rng.random() < 0.18:
        leaves = [Zero(), One()] + [Letter(c) for c in letters] * 2
        return rng.choice(leaves)
    op = rng.choice(("sum", "seq", "seq", "star"))
    if op == "star":
        return Star(rand_expr(rng, budget - 1, letters))
    cut = rng.randint(1, budget - 1)
    left = rand_expr(rng, cut, letters)
    right = rand_expr(rng, budget - 1 - cut, letters)
    return (Sum if op == "sum" else Seq)(left, right)


def _admitted(e: Regex, f: Regex, alphabet: tuple[str, ...]) -> bool:
    try:
        aut = build([e, f], alphabet, 400)
    except StateLimitExceeded:
        return False
    bound = len(product_pairs(aut, *aut.roots))
    return len(alphabet) ** bound <= (1 << 14) and bound <= 64


def _brute_reference(left: str, right: str) -> tuple[Fraction, str | None]:
    """Distance and witness by enumeration, up to the reachable-pair bound.

    A shortest separating word never revisits a product pair, so words up
    to that many letters are exhaustive.  The alphabet is the one the CLI
    infers from the two expressions.
    """
    e, f = parse(left), parse(right)
    alphabet = infer_alphabet(e, f)
    aut = build([e, f], alphabet)
    bound = len(product_pairs(aut, *aut.roots))
    w = brute_witness(e, f, alphabet, bound)
    return (Fraction(0) if w is None else DISCOUNT ** len(w)), w


def corpus() -> list[Pair]:
    rng = random.Random(CORPUS_SEED)
    out: list[Pair] = []
    while len(out) < CORPUS_SIZE:
        letters = ("a",) if rng.random() < 0.25 else ("a", "b")
        alphabet = make_alphabet(letters)
        e = rand_expr(rng, rng.randint(3, 15), letters)
        f = rand_expr(rng, rng.randint(3, 15), letters)
        if _admitted(e, f, alphabet):
            left, right = pretty(e), pretty(f)
            d, w = _brute_reference(left, right)
            out.append(Pair(f"corpus#{len(out)}", left, right, d, w, len(out) < CORPUS_PROVED))
    return out


def equal_closure() -> list[Pair]:
    out = []
    for n in EQUAL_CLOSURE_N:
        star = f"({'a' * n})*"
        out.append(Pair(f"eq{n}", star, f"{star};{star}", Fraction(0), None, True))
    return out


def deep_certs() -> list[Pair]:
    out = []
    for n in DEEP_STAR_N:
        left, right = f"({'a' * n})*", f"({'a' * (n + 1)})*"
        out.append(Pair(f"star{n}", left, right, DISCOUNT**n, "a" * n, True))
    for n in DEEP_AB_N:
        word = "ab" * n
        out.append(Pair(f"ab{n}", word, f"{word} + {word}a", DISCOUNT ** (2 * n + 1), word + "a", True))
    return out


WORKLOADS = {"corpus": corpus, "equal-closure": equal_closure, "deep-certs": deep_certs}


def renamed(pairs: list[Pair], seed: int) -> list[Pair]:
    """The pairs with ``a`` and ``b`` renamed to two letters drawn from the
    seed, kept in order, so that distances stay and witnesses map over."""
    first, second = sorted(random.Random(seed).sample(string.ascii_lowercase, 2))
    table = str.maketrans("ab", first + second)

    def rename(text: str | None) -> str | None:
        return None if text is None else text.translate(table)

    return [replace(p, left=rename(p.left), right=rename(p.right), witness=rename(p.witness)) for p in pairs]


def sound(left: str, right: str, eps: str) -> bool:
    """Whether ``left = right within eps`` holds, by the distance itself."""
    return Fraction(eps) >= distance(parse(left), parse(right))


# ---------------------------------------------------------------------------
# Certificate mutations: the attack kinds of acceptance criterion 04


def _nodes(doc: dict) -> list[dict]:
    out = []
    stack = [doc["root"]]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.get("premises", []))
    return out


def _attack(rng: random.Random, node: dict, kind: int) -> None:
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


def _shape(node: dict) -> tuple:
    """What an attack can change: the node's own fields, premises by identity."""
    meta = json.dumps(node["meta"], sort_keys=True) if "meta" in node else None
    premises = [id(p) for p in node.get("premises", [])]
    return node.get("rule"), json.dumps(node["conclusion"], sort_keys=True), premises, meta


def mutate(text: str, rng: random.Random, first_kind: int) -> str:
    """A copy of the certificate with one node attacked.

    The node is drawn by ``rng``.  Kinds are tried from ``first_kind`` on,
    and a kind that leaves the node unchanged gives way to the next, so that
    every mutant differs from the valid document.  Removing ``meta`` always
    changes a serialized node, so some kind always applies.
    """
    doc = json.loads(text)
    nodes = _nodes(doc)
    node = nodes[rng.randrange(len(nodes))]
    for step in range(8):
        trial = dict(node, conclusion=dict(node["conclusion"]))
        _attack(rng, trial, (first_kind + step) % 8)
        if _shape(trial) != _shape(node):
            node.clear()
            node.update(trial)
            return json.dumps(doc, indent=2)
    raise ValueError("no attack kind changes the chosen node")
