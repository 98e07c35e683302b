"""The one-step distance operator on rational-valued tables.

The library computes the operator's iteration on exponents in closed form
(``metric.kleene_descent``, with ``descent_reference.phi`` iterated as its
literal reference); these helpers state the operator over arbitrary rational
tables, so that the tests can check the paper's contraction argument:
monotone, nonexpansive in the sup norm, and with the exponent fixed point as
its rational fixed point.
"""

from __future__ import annotations

from fractions import Fraction

from regdist.automaton import QuotientAutomaton
from regdist.metric import Config, Table

RationalTable = dict[tuple[int, int], Fraction]


def table_values(table: Table, cfg: Config) -> RationalTable:
    """Extract rational values from an exponent table."""
    return {p: ev.value(cfg.discount) for p, ev in table.items()}


def phi_rational(aut: QuotientAutomaton, table: RationalTable, cfg: Config) -> RationalTable:
    """The one-step operator on arbitrary rational tables."""
    out: RationalTable = {}
    for (i, j), _ in table.items():
        if aut.outputs[i] != aut.outputs[j]:
            out[(i, j)] = Fraction(1)
            continue
        worst = Fraction(0)
        for k in range(len(aut.alphabet)):
            di = aut.transitions[i][k]
            dj = aut.transitions[j][k]
            if di == dj:
                continue
            succ = table[(min(di, dj), max(di, dj))]
            if succ > worst:
                worst = succ
        out[(i, j)] = cfg.discount * worst
    return out


def sup_distance(a: RationalTable, b: RationalTable) -> Fraction:
    """Supremum norm distance between two tables over the same pairs."""
    if a.keys() != b.keys():
        raise ValueError("tables cover different pair sets")
    gap = Fraction(0)
    for p, av in a.items():
        diff = abs(av - b[p])
        if diff > gap:
            gap = diff
    return gap
