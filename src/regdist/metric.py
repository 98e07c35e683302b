"""Shortest-distinguishing-word distances over quotient automata.

Distances take the form ``discount ** n`` where ``n`` is the length of a
shortest word telling two languages apart (0 when no such word exists).
Distance and witness both come from one breadth-first walk over the product
pairs reachable from the root pair (:func:`separating_word`), so they work on
exponents and stay exact and independent of the particular discount;
rationals only enter when a value is extracted.

:func:`kleene_descent` is the paper's fixed point reference: it iterates the
one-step operator over all pairs and backs ``dist --trace`` and the
``iterations`` count.  It builds the pair graph once and, after the first
step, re-evaluates only the pairs whose successors moved.  It works on
exponents too; rational values come out of a table through
:meth:`ExponentValue.value`.

:func:`literal_separation` finds the separation a second way, with literal
derivatives and no automaton, so that answers and certificates can be checked
without trusting :func:`~regdist.automaton.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .automaton import (
    DEFAULT_STATE_CAP,
    QuotientAutomaton,
    StateLimitExceeded,
    build,
    product_walk,
)
from .derivatives import member, output, step
from .syntax import Alphabet, Regex, infer_alphabet, sort_key, state_normal


@dataclass(frozen=True)
class Config:
    """Global parameters; the discount is a rational strictly between 0 and 1."""

    discount: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if not isinstance(self.discount, Fraction):
            raise TypeError(f"discount must be a Fraction, got {type(self.discount).__name__}")
        if not Fraction(0) < self.discount < Fraction(1):
            raise ValueError(f"discount must lie strictly between 0 and 1, got {self.discount}")


@total_ordering
@dataclass(frozen=True)
class ExponentValue:
    """The value ``discount ** exponent``, with ``None`` standing for 0.

    Ordered by value, so a *larger* exponent compares *smaller*, and the
    infinite exponent (None) is the least element.
    """

    exponent: int | None

    def __lt__(self, other: ExponentValue) -> bool:
        if self.exponent is None:
            return other.exponent is not None
        if other.exponent is None:
            return False
        return self.exponent > other.exponent

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def scaled(self) -> ExponentValue:
        """Multiplication by one factor of the discount."""
        return self if self.exponent is None else ExponentValue(self.exponent + 1)

    @classmethod
    def of_word(cls, word: str | None) -> ExponentValue:
        """The separation carried by a shortest separating word (None: equal)."""
        return cls(None if word is None else len(word))

    def value(self, discount: Fraction) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return discount**self.exponent


DIST_ZERO = ExponentValue(None)
DIST_TOP = ExponentValue(0)

#: Pseudometric table: every off-diagonal unordered state pair gets a value.
Table = dict[tuple[int, int], ExponentValue]


def pair_count(n: int) -> int:
    """Number of off-diagonal unordered pairs among ``n`` states."""
    return n * (n - 1) // 2


@dataclass(frozen=True)
class DescentResult:
    """Outcome of the descending fixed point iteration.

    ``trace[0]`` is the top table and ``trace[i+1]`` one step on from
    ``trace[i]``; when the iteration goes stationary the repeated table is
    kept in the trace.  The final ``table`` maps pairs that never separate to
    the exact value 0.
    """

    table: Table
    trace: tuple[Table, ...]
    iterations: int


def kleene_descent(aut: QuotientAutomaton) -> DescentResult:
    """Iterate the one-step operator from the top table until stationary.

    One step maps a pair with disagreeing outputs to exponent 0, and any
    other to one more than the least exponent among its same-letter successor
    pairs (None when every successor is diagonal or None).  The pair graph,
    built once, evaluates the first step; a later step re-evaluates only the
    pairs with a successor that moved in the step before, as every other
    pair's value repeats.

    A shortest separating word never revisits an unordered state pair, so
    separable pairs settle within ``pair_count(n)`` steps and the iteration
    is cut off there.  Pairs still carrying the cut-off exponent at that
    point can never separate and are mapped to 0.
    """
    n = aut.n_states
    cap = pair_count(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = [u * (2 * n - u - 3) // 2 - 1 for u in range(n)]  # (u, v) is pairs[base[u] + v]
    none = cap + 1  # the exponent None, above every exponent the iteration reaches
    outputs, rows = aut.outputs, aut.transitions
    succs: list[list[int]] = []
    preds: list[list[int]] = [[] for _ in pairs]
    exps: list[int] = []  # the first step, evaluated on the top table
    for p, (i, j) in enumerate(pairs):
        out: list[int] = []
        if outputs[i] == outputs[j]:
            for u, v in zip(rows[i], rows[j]):
                if u != v:
                    q = base[u] + v if u < v else base[v] + u
                    if q not in out:
                        out.append(q)
                        preds[q].append(p)
        succs.append(out)
        exps.append(0 if outputs[i] != outputs[j] else 1 if out else none)
    evs = {0: DIST_TOP, none: DIST_ZERO}  # one shared value per exponent
    trace = [dict.fromkeys(pairs, DIST_TOP)]
    changed = [p for p, e in enumerate(exps) if e]
    iterations = 0
    while iterations < cap:
        iterations += 1
        evs[iterations] = ExponentValue(iterations)
        if iterations > 1:
            dirty = {p for q in changed for p in preds[q]}
            new = {p: min(min([exps[q] for q in succs[p]]) + 1, none) for p in dirty}
            changed = [p for p in dirty if new[p] != exps[p]]
            for p in changed:
                exps[p] = new[p]
        table = dict(trace[-1])
        for p in changed:
            table[pairs[p]] = evs[exps[p]]
        trace.append(table)
        if not changed:
            break
    table = dict(trace[-1])
    if changed:
        # Cut off before going stationary.  An inseparable pair holds None or
        # exactly the iteration count, reached in the last step; a separable
        # pair has settled at its true exponent, at most cap - 1, because its
        # shortest separating word visits distinct off-diagonal pairs.
        table.update((pairs[p], DIST_ZERO) for p in changed if exps[p] == iterations)
    return DescentResult(table=table, trace=tuple(trace), iterations=iterations)


def separating_word(aut: QuotientAutomaton, s: int, t: int) -> str | None:
    """A shortest word on which states ``s`` and ``t`` disagree, or None.

    Among shortest candidates the least in alphabet order is returned; the
    empty word is reported as ``""``.
    """
    for (u, v), word in product_walk(aut, s, t):
        if aut.outputs[u] != aut.outputs[v]:
            return word
    return None


def separation(e: Regex, f: Regex, alphabet: Alphabet | None = None, cap: int = DEFAULT_STATE_CAP) -> ExponentValue:
    """Exponent form of the distance between two expressions."""
    return ExponentValue.of_word(witness(e, f, alphabet, cap))


def distance(
    e: Regex,
    f: Regex,
    cfg: Config | None = None,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> Fraction:
    """The distance between the languages of ``e`` and ``f``, exactly."""
    cfg = cfg or Config()
    return separation(e, f, alphabet, cap).value(cfg.discount)


def witness(
    e: Regex,
    f: Regex,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> str | None:
    """A shortest word in exactly one of the two languages, or None.

    Among shortest candidates the lexicographically least (in alphabet
    order) is returned; the empty word is reported as ``""``.
    """
    aut = build([e, f], alphabet, cap)
    return separating_word(aut, *aut.roots)


# ---------------------------------------------------------------------------
# Literal separation: the product walk again, with literal derivatives and no
# automaton, for ``dist --verify``, witness checks and the ``descent`` template


def _unordered(u: Regex, v: Regex) -> tuple[Regex, Regex]:
    un = state_normal(u)
    vn = state_normal(v)
    return (un, vn) if sort_key(un) <= sort_key(vn) else (vn, un)


def literal_separation(
    e: Regex,
    f: Regex,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """The length of a shortest word in exactly one of the languages of e and
    f, or None when no word separates them.

    Breadth-first over pairs of :func:`~regdist.syntax.state_normal` forms of
    literal :func:`~regdist.derivatives.step` pairs, from (e, f); a pair of
    identical forms never separates and is not stepped.  Each distinct pair is
    stepped once, and the walk stops at the first level with a pair whose
    outputs differ.  Raises :class:`StateLimitExceeded` once more than ``cap``
    distinct normal forms have been met.
    """
    if alphabet is None:
        alphabet = infer_alphabet(e, f)
    met: set[Regex] = set()
    level = {_unordered(e, f)}
    seen = set(level)
    depth = 0
    while level:
        for u, v in level:
            met.add(u)
            met.add(v)
        if len(met) > cap:
            raise StateLimitExceeded(cap)
        if any(output(u) != output(v) for u, v in level):
            return depth
        level = {_unordered(step(u, a), step(v, a)) for u, v in level if u != v for a in alphabet} - seen
        seen |= level
        depth += 1
    return None


def check_witness(
    e: Regex,
    f: Regex,
    word: str,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> bool:
    """Is ``word`` a shortest word in exactly one of the languages of e and f?

    ``word`` must separate them by :func:`~regdist.derivatives.member`, and
    :func:`literal_separation` must find no shorter one.
    """
    return member(e, word) != member(f, word) and literal_separation(e, f, alphabet, cap) == len(word)
