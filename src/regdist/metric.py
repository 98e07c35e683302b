"""Shortest-distinguishing-word distances over derivative closures.

Distances take the form ``discount ** n`` where ``n`` is the length of a
shortest word telling two languages apart (0 when no such word exists).
Distance and witness both come from one breadth-first walk over the product
pairs reachable from the root pair (:func:`separating_word`), so they work on
exponents and stay exact and independent of the particular discount;
rationals only enter when a value is extracted.

:func:`kleene_descent` is the paper's fixed point reference: the iteration of
the one-step operator over all pairs, which backs ``dist --trace`` and the
``iterations`` count.  It computes the iteration in closed form, from two
numbers per pair found in one pass over the pair graph, and makes each step
table only when it is asked for.  It works on exponents too; rational values
come out of a table through :meth:`ExponentValue.value`.

:func:`literal_separation` finds the separation a second way, over a closure
whose rows come from literal derivatives, not ``step_nf``, so that answers and
certificates can be checked without trusting :func:`~regdist.automaton.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterator

from .automaton import DEFAULT_STATE_CAP, Closure, product_walk
from .derivatives import member, step
from .syntax import Alphabet, Regex, state_normal


@dataclass(frozen=True)
class Config:
    """Global parameters; the discount is a rational strictly between 0 and 1."""

    discount: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if not isinstance(self.discount, Fraction):
            raise TypeError(f"discount must be a Fraction, got {type(self.discount).__name__}")
        if not Fraction(0) < self.discount < Fraction(1):
            raise ValueError(f"discount must lie strictly between 0 and 1, got {self.discount}")


def read_rational(text: str | int) -> Fraction:
    """``Fraction(text)``, refusing exponent notation: ``1e10000000`` would take
    seconds to expand, into more digits than ``str`` prints."""
    if not (isinstance(text, str) and ("e" in text or "E" in text)):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot read {text!r} as a rational")


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

    @classmethod
    def of_word(cls, word: str | None) -> ExponentValue:
        """The separation carried by a shortest separating word (None: equal)."""
        return cls(None if word is None else len(word))

    def value(self, discount: Fraction) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return discount**self.exponent


DIST_ZERO = ExponentValue(None)

#: Pseudometric table: every off-diagonal unordered state pair gets a value.
Table = dict[tuple[int, int], ExponentValue]


def pair_count(n: int) -> int:
    """Number of off-diagonal unordered pairs among ``n`` states."""
    return n * (n - 1) // 2


@dataclass(frozen=True)
class DescentResult:
    """Outcome of the descending fixed point iteration, in closed form.

    ``table`` is the fixed point, with the exact value 0 for a pair that
    never separates.  ``pace[i]`` is the last step at which the i-th pair of
    ``table`` holds the step count as its exponent.
    """

    table: Table
    iterations: int
    pace: tuple[int, ...]

    def tables(self) -> Iterator[Table]:
        """The tables of steps 0 (the top table) to ``iterations``, each made
        when it is asked for: a pair holds exponent k up to its pace, and its
        value in ``table`` after."""
        for k in range(self.iterations + 1):
            at_k = ExponentValue(k)
            yield {p: at_k if k <= pace else ev for (p, ev), pace in zip(self.table.items(), self.pace)}


def kleene_descent(aut: Closure) -> DescentResult:
    """The one-step iteration from the top table, on a closure from ``build``, in one pass.

    One step maps a pair with disagreeing outputs to exponent 0, and any
    other to one more than the least exponent among its same-letter successor
    pairs (None when every successor is diagonal or None).  So step k holds
    the least of k and ``sep``, the length of a shortest separating word, for
    a pair with a walk of k steps over pairs of equal outputs, else None.
    ``sep`` comes breadth first, backwards from the pairs whose outputs
    differ; the longest walk from a pair that never separates comes from a
    reverse topological pass, and is unbounded when a cycle is reachable.
    The iteration stops when stationary, or at the cut-off ``pair_count(n)``,
    which no shortest separating word reaches as it never revisits a pair.
    """
    n = aut.n_states
    cap = pair_count(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = [u * (2 * n - u - 3) // 2 - 1 for u in range(n)]  # (u, v) is pairs[base[u] + v]
    outputs, rows = aut.outputs, aut.transitions
    succs: list[list[int]] = []
    preds: list[list[int]] = [[] for _ in pairs]
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
    sep: list[int | None] = [0 if outputs[i] != outputs[j] else None for i, j in pairs]
    queue = [p for p, s in enumerate(sep) if s == 0]
    for q in queue:  # grows while it is read, so breadth first
        for p in preds[q]:
            if sep[p] is None:
                sep[p] = sep[q] + 1
                queue.append(p)
    # An inseparable pair keeps pace along its longest walk, or past the
    # cut-off when a cycle is reachable; a separable pair's count stays -1.
    pace = [cap if s is None else s for s in sep]
    left = [len(out) if s is None else -1 for out, s in zip(succs, sep)]
    queue = [p for p, k in enumerate(left) if k == 0]
    for q in queue:
        pace[q] = max([pace[r] + 1 for r in succs[q]], default=0)
        for p in preds[q]:
            left[p] -= 1
            if left[p] == 0:
                queue.append(p)
    # A separable pair moves last at step sep, an inseparable one at pace + 1.
    last = max([k if s is not None else k + 1 for s, k in zip(sep, pace)], default=-1)
    table = {pq: DIST_ZERO if s is None else ExponentValue(s) for pq, s in zip(pairs, sep)}
    return DescentResult(table=table, iterations=min(cap, last + 1), pace=tuple(pace))


def separating_word(aut: Closure, s: int, t: int) -> str | None:
    """A shortest word on which states ``s`` and ``t`` disagree, or None.

    Among shortest candidates the least in alphabet order is returned; the
    empty word is reported as ``""``.
    """
    for (u, v), word in product_walk(aut, s, t):
        if aut.outputs[u] != aut.outputs[v]:
            return word
    return None


def distance(
    e: Regex,
    f: Regex,
    cfg: Config | None = None,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> Fraction:
    """The distance between the languages of ``e`` and ``f``, exactly."""
    cfg = cfg or Config()
    return ExponentValue.of_word(witness(e, f, alphabet, cap)).value(cfg.discount)


def witness(
    e: Regex,
    f: Regex,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> str | None:
    """A shortest word in exactly one of the two languages, or None.

    Among shortest candidates the lexicographically least (in alphabet
    order) is returned; the empty word is reported as ``""``.  Only the
    states the walk meets count against ``cap``: all reachable ones when equal.
    """
    aut = Closure([e, f], alphabet, cap)
    return separating_word(aut, *aut.roots)


# ---------------------------------------------------------------------------
# Literal separation: the product walk again, with literal derivatives and no
# step_nf, for ``dist --verify``, witness checks and the ``descent`` template


def _literal_step(state: Regex, letter: str) -> Regex:
    return state_normal(step(state, letter))


def literal_separation(
    e: Regex,
    f: Regex,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> int | None:
    """The length of a shortest word in exactly one of the languages of e and
    f, or None when no word separates them.

    Breadth-first, level by level, over pairs of a closure of (e, f) whose
    rows are ``state_normal(step(u, a))``, with the literal step, so each
    distinct form is stepped once per letter; a pair of identical forms
    never separates and is not stepped.  Stops at the first level with a
    pair whose outputs differ; more than ``cap`` forms raise
    :class:`~regdist.automaton.StateLimitExceeded`.
    """
    aut = Closure([e, f], alphabet, cap, _literal_step)
    s, t = aut.roots
    level = {(min(s, t), max(s, t))}
    seen = set(level)
    depth = 0
    while level:
        if any(aut.outputs[u] != aut.outputs[v] for u, v in level):
            return depth
        rows = (zip(aut.row(u), aut.row(v)) for u, v in level if u != v)
        level = {(min(x, y), max(x, y)) for row in rows for x, y in row} - seen
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
