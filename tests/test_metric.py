import random
import tracemalloc
from fractions import Fraction

import pytest

from regdist import metric
from regdist.automaton import build
from regdist.metric import (
    DIST_ZERO,
    Config,
    ExponentValue,
    check_witness,
    distance,
    kleene_descent,
    literal_separation,
    pair_count,
    witness,
)
from regdist.oracle import brute_distance, brute_witness
from regdist.syntax import Letter, One, parse

from conftest import rand_expr
from descent_reference import DIST_TOP, kleene_descent as reference_descent
from rational_tables import phi_rational, sup_distance, table_values

HALF = Fraction(1, 2)


def separation(e, f, alphabet=None):
    """Exponent form of the distance: the length of a shortest separating word."""
    return ExponentValue.of_word(witness(e, f, alphabet))


def test_config_validation():
    assert Config().discount == HALF
    assert Config(Fraction(1, 3)).discount == Fraction(1, 3)
    with pytest.raises(TypeError):
        Config(0.5)
    with pytest.raises(ValueError):
        Config(Fraction(0))
    with pytest.raises(ValueError):
        Config(Fraction(1))
    with pytest.raises(ValueError):
        Config(Fraction(3, 2))


def test_exponent_values_order_by_value():
    assert DIST_ZERO < ExponentValue(7) < ExponentValue(2) < DIST_TOP
    assert DIST_TOP == ExponentValue(0)
    assert max(DIST_ZERO, ExponentValue(3)) == ExponentValue(3)
    assert DIST_ZERO.is_zero and not DIST_TOP.is_zero


def test_exponent_value_extraction():
    assert DIST_TOP.value(HALF) == 1
    assert ExponentValue(3).value(HALF) == Fraction(1, 8)
    assert ExponentValue(2).value(Fraction(1, 3)) == Fraction(1, 9)
    assert DIST_ZERO.value(HALF) == 0


def test_pair_count():
    assert pair_count(1) == 0
    assert pair_count(4) == 6
    assert pair_count(12) == 66


def test_descent_trace_on_the_running_pair():
    aut = build([parse("a*"), parse("a+1")], ("a",))
    res = kleene_descent(aut)
    assert res.iterations == 3
    root_pair = (0, 1)
    trace = tuple(res.tables())
    assert [t[root_pair].exponent for t in trace] == [0, 1, 2, 2]
    assert res.table[root_pair] == ExponentValue(2)
    # tables descend pointwise
    for earlier, later in zip(trace, trace[1:]):
        assert all(later[p] <= earlier[p] for p in earlier)


def test_descent_rewrites_inseparable_pairs_to_zero():
    aut = build([parse("(a+b)*"), parse("(a*;b*)*")], ("a", "b"))
    res = kleene_descent(aut)
    assert all(ev == DIST_ZERO for ev in res.table.values())
    assert res.iterations == pair_count(aut.n_states)


def _star_pair(n):
    x = "(" + "a" * n + ")*"
    return [parse(x), parse(x + ";" + x)], ("a",)


DESCENT_CASES = {
    **{f"equal-closure-{n}": _star_pair(n) for n in (4, 8, 12, 16)},
    "cut-off": ([parse("(a+b)*"), parse("(a*;b*)*")], ("a", "b")),
    "one-state": ([parse("a*"), parse("a*;1")], ("a",)),
    "running": ([parse("a*"), parse("a+1")], ("a",)),
}


def _assert_steps_are_phi(aut, trace):
    cfg = Config()
    vals = [table_values(t, cfg) for t in trace]
    for earlier, later in zip(vals, vals[1:]):
        assert later == phi_rational(aut, earlier, cfg)


def test_descent_matches_the_reference_on_the_corpus(corpus):
    for pair in corpus:
        aut = build([pair.left, pair.right], pair.alphabet)
        res = kleene_descent(aut)
        ref = reference_descent(aut)
        trace = tuple(res.tables())
        assert (res.table, trace, res.iterations) == (ref.table, ref.trace, ref.iterations)
        _assert_steps_are_phi(aut, trace)


@pytest.mark.parametrize("case", sorted(DESCENT_CASES))
def test_descent_matches_the_reference(case):
    aut = build(*DESCENT_CASES[case])
    res = kleene_descent(aut)
    want = reference_descent(aut)
    trace = tuple(res.tables())
    assert (res.table, trace, res.iterations) == (want.table, want.trace, want.iterations)
    assert len(trace) == res.iterations + 1
    # tables are distinct objects, also the repeated last one
    assert len({id(t) for t in trace}) == len(trace)
    if aut.n_states <= 25:  # the rational check is slow at equal-closure 16
        _assert_steps_are_phi(aut, trace)


def test_descent_cases_cover_one_state_the_cut_off_and_a_stationary_end():
    aut = build(*DESCENT_CASES["one-state"])
    assert aut.n_states == 1
    res = kleene_descent(aut)
    assert (res.table, tuple(res.tables()), res.iterations) == ({}, ({},), 0)
    aut = build(*DESCENT_CASES["cut-off"])
    assert kleene_descent(aut).iterations == pair_count(aut.n_states)
    aut = build(*DESCENT_CASES["running"])
    res = kleene_descent(aut)
    trace = tuple(res.tables())
    assert res.iterations < pair_count(aut.n_states) and trace[-1] == trace[-2]


def test_descent_figures_for_equal_closure_16():
    aut = build(*DESCENT_CASES["equal-closure-16"])
    res = kleene_descent(aut)
    assert (aut.n_states, res.iterations) == (33, 528)


def test_descent_tables_one_at_a_time_stay_small():
    # (a^24)* against its square: 1,176 pairs and 1,176 steps, which the
    # iteration held as 1,177 tables at once, 42 MB under tracemalloc
    aut = build(*_star_pair(24))
    tracemalloc.start()
    try:
        res = kleene_descent(aut)
        steps = sum(1 for _ in res.tables())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == res.iterations + 1 == pair_count(aut.n_states) + 1 == 1177
    assert peak < 5_000_000


def test_separation_exponents():
    assert separation(parse("a*"), parse("a+1")) == ExponentValue(2)
    assert separation(parse("a*"), parse("0")) == ExponentValue(0)
    assert separation(parse("a"), parse("b")) == ExponentValue(1)
    assert separation(parse("a*"), parse("a*;1")) == DIST_ZERO
    assert separation(parse("(a+b)*"), parse("(a*;b*)*")) == DIST_ZERO


def test_distance_values():
    assert distance(parse("a*"), parse("a+1")) == Fraction(1, 4)
    assert distance(parse("a*"), parse("0")) == 1
    assert distance(parse("a"), parse("b")) == HALF
    assert distance(parse("(a+b)*"), parse("(a*;b*)*")) == 0


def test_distance_tracks_the_discount():
    third = Config(Fraction(1, 3))
    assert distance(parse("a*"), parse("a+1"), third) == Fraction(1, 9)
    assert distance(parse("a*"), parse("0"), third) == 1


def test_witness_values():
    assert witness(parse("a*"), parse("a+1")) == "aa"
    assert witness(parse("a*"), parse("0")) == ""
    assert witness(parse("a"), parse("b")) == "a"
    assert witness(parse("a*"), parse("a*")) is None
    assert witness(parse("(a+b)*"), parse("(a*;b*)*")) is None


def test_witness_agrees_with_enumeration(corpus):
    for pair in corpus[:150]:
        w = witness(pair.left, pair.right, pair.alphabet)
        assert w == brute_witness(pair.left, pair.right, pair.alphabet, pair.bound)


def test_check_witness_accepts_exactly_the_shortest_separating_words(corpus):
    checked = 0
    for pair in corpus[:150]:
        e, f, alphabet = pair.left, pair.right, pair.alphabet
        w = brute_witness(e, f, alphabet, pair.bound)
        if w is None:
            assert not check_witness(e, f, "", alphabet)
            continue
        assert check_witness(e, f, w, alphabet)
        assert not check_witness(e, f, w + alphabet[0], alphabet)
        if w:
            assert not check_witness(e, f, w[:-1], alphabet)
            checked += 1
    assert checked > 50


def test_distance_is_the_discount_power_of_the_witness_length(corpus):
    for pair in corpus[:150]:
        d = distance(pair.left, pair.right, None, pair.alphabet)
        w = witness(pair.left, pair.right, pair.alphabet)
        if w is None:
            assert d == 0
        else:
            assert d == HALF ** len(w)


def test_distance_is_a_pseudometric_on_samples(corpus):
    for x, y, z in zip(corpus[:40], corpus[40:80], corpus[80:120]):
        if x.alphabet != y.alphabet or y.alphabet != z.alphabet:
            continue
        e, f, g = x.left, y.left, z.left
        ab = distance(e, f, None, x.alphabet)
        bc = distance(f, g, None, x.alphabet)
        ac = distance(e, g, None, x.alphabet)
        assert ac <= max(ab, bc)  # ultrametric, stronger than the triangle bound
        assert ab == distance(f, e, None, x.alphabet)
        assert distance(e, e, None, x.alphabet) == 0


def test_phi_rational_fixpoint():
    cfg = Config()
    aut = build([parse("a*"), parse("a+1")], ("a",))
    vals = table_values(kleene_descent(aut).table, cfg)
    assert phi_rational(aut, vals, cfg) == vals
    assert vals[(0, 1)] == Fraction(1, 4)


def test_sup_distance():
    a = {(0, 1): Fraction(1, 2), (0, 2): Fraction(0)}
    b = {(0, 1): Fraction(1, 4), (0, 2): Fraction(1, 8)}
    assert sup_distance(a, b) == Fraction(1, 4)
    assert sup_distance(a, a) == 0
    with pytest.raises(ValueError):
        sup_distance(a, {(0, 1): Fraction(1, 4)})


def test_literal_separation_of_an_equal_pair_is_none():
    assert literal_separation(parse("(a+b)*"), parse("(a*;b*)*"), ("a", "b")) is None


def test_literal_separation_of_a_trivial_pair_is_none_and_steps_nothing(monkeypatch):
    # a* and a*;1 have one normal form, so the walk has no pair to step
    monkeypatch.setattr(metric, "step", None)
    assert literal_separation(parse("a*"), parse("a*;1"), ("a",)) is None


def test_literal_separation_of_a_and_one_is_zero():
    assert literal_separation(Letter("a"), One()) == 0


def test_literal_separation_of_a_separated_pair_is_its_separation():
    e, f = parse("a*"), parse("a+1")
    assert literal_separation(e, f, ("a",)) == separation(e, f, ("a",)).exponent == 2


def test_literal_separation_matches_separation_on_the_corpus(corpus):
    for pair in corpus:
        got = literal_separation(pair.left, pair.right, pair.alphabet)
        assert got == separation(pair.left, pair.right, pair.alphabet).exponent


def test_metric_against_oracle_sample(corpus):
    for pair in corpus[:100]:
        got = distance(pair.left, pair.right, None, pair.alphabet)
        want = brute_distance(pair.left, pair.right, pair.alphabet, pair.bound, HALF)
        assert got == want
        # the all-pairs fixed point agrees with the walk at the root pair
        aut = build([pair.left, pair.right], pair.alphabet)
        s, t = aut.roots
        reference = DIST_ZERO if s == t else kleene_descent(aut).table[(min(s, t), max(s, t))]
        assert reference == separation(pair.left, pair.right, pair.alphabet)
