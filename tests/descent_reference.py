"""The descending fixed point iteration as it was first written: a reference.

``kleene_descent`` here applies the one-step operator ``phi`` to every state
pair at every step, starting from ``top_table``, and keeps every table.  It
is quadratic in the number of pairs and kept only so that the tests can
compare ``regdist.metric.kleene_descent``, which computes the same tables in
closed form from one pass over the pair graph, against it: the final table,
every step table and the step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from regdist.automaton import Closure
from regdist.metric import DIST_ZERO, ExponentValue, Table, pair_count

DIST_TOP = ExponentValue(0)  # the value 1 of a pair in the top table


@dataclass(frozen=True)
class ReferenceDescent:
    """The final table, the trace of every step table, and the step count."""

    table: Table
    trace: tuple[Table, ...]
    iterations: int


def _all_pairs(n: int) -> Iterator[tuple[int, int]]:
    for i in range(n):
        for j in range(i + 1, n):
            yield (i, j)


def top_table(aut: Closure) -> Table:
    """The everywhere-1 table, the greatest pseudometric under consideration."""
    return {p: DIST_TOP for p in _all_pairs(aut.n_states)}


def phi(aut: Closure, table: Table) -> Table:
    """One step of the behavioural-distance operator, on exponents.

    A pair with disagreeing outputs maps to 1; otherwise to the discount
    times the largest current distance among same-letter successor pairs
    (diagonal successors contribute 0).
    """
    out: Table = {}
    for (i, j), _ in table.items():
        if aut.outputs[i] != aut.outputs[j]:
            out[(i, j)] = DIST_TOP
            continue
        best: int | None = None
        for k in range(len(aut.alphabet)):
            di = aut.transitions[i][k]
            dj = aut.transitions[j][k]
            if di == dj:
                continue
            succ = table[(min(di, dj), max(di, dj))]
            if succ.exponent is not None and (best is None or succ.exponent < best):
                best = succ.exponent
        out[(i, j)] = DIST_ZERO if best is None else ExponentValue(best + 1)
    return out


def kleene_descent(aut: Closure) -> ReferenceDescent:
    """Iterate ``phi`` from the top table until stationary.

    A shortest separating word never revisits an unordered state pair, so
    separable pairs settle within ``pair_count(n)`` steps and the iteration
    is cut off there.  Pairs still carrying the cut-off exponent at that
    point can never separate and are mapped to 0.
    """
    cap = pair_count(aut.n_states)
    cur = top_table(aut)
    trace = [cur]
    iterations = 0
    stationary = False
    while iterations < cap:
        nxt = phi(aut, cur)
        trace.append(nxt)
        iterations += 1
        if nxt == cur:
            stationary = True
            break
        cur = nxt
    table = dict(trace[-1])
    if not stationary:
        for p, ev in table.items():
            if ev.exponent == iterations:
                table[p] = DIST_ZERO
    return ReferenceDescent(table=table, trace=tuple(trace), iterations=iterations)
