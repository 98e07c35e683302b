import itertools
import random

import pytest

from regdist.automaton import (
    StateLimitExceeded,
    build,
    product_pairs,
    product_walk,
    to_dot,
)
from regdist.derivatives import output, step
from regdist.syntax import (
    Letter,
    One,
    Seq,
    Star,
    Sum,
    Zero,
    embed,
    parse,
    pretty,
    sort_key,
    state_normal,
)

from conftest import rand_expr

A, B = Letter("a"), Letter("b")


def unit_normalize(e):
    """Reference: one bottom-up pass of the unit rewrites 0;x, x;0, 1;x, x;1, x+0."""
    match e:
        case Sum(l, r):
            ln, rn = unit_normalize(l), unit_normalize(r)
            if ln == Zero():
                return rn
            if rn == Zero():
                return ln
            return Sum(ln, rn)
        case Seq(l, r):
            ln, rn = unit_normalize(l), unit_normalize(r)
            if ln == Zero() or rn == Zero():
                return Zero()
            if ln == One():
                return rn
            if rn == One():
                return ln
            return Seq(ln, rn)
        case Star(b):
            return Star(unit_normalize(b))
        case _:
            return e


def test_unit_normalize_rewrites():
    assert unit_normalize(parse("(a+0);(b;1)")) == Seq(A, B)
    assert unit_normalize(parse("0;a + 0")) == Zero()
    assert unit_normalize(Sum(Zero(), Zero())) == Zero()
    assert unit_normalize(parse("1;(1;a*)")) == Star(A)
    assert unit_normalize(parse("a;0")) == Zero()
    assert unit_normalize(parse("a + 0")) == A
    assert unit_normalize(Star(Seq(One(), A))) == Star(A)


def test_state_normal_reaches_a_fixpoint():
    rng = random.Random(23)
    for _ in range(150):
        e = rand_expr(rng, rng.randint(1, 12))
        n = state_normal(e)
        assert state_normal(n) == n
        assert unit_normalize(n) == n
        assert _reference_normal(n) == n


def test_state_normal_needs_alternating_passes():
    # dropping units exposes a new sum collapse and vice versa
    assert state_normal(parse("0;a* + 1;(1;a*)")) == Star(A)
    assert state_normal(parse("(1;a);(a;0)")) == Zero()


def _reference_canonicalize(e):
    """ACI canonical form the direct way: flatten the whole sum spine,
    normalize every summand's subterms recursively, sort and deduplicate."""
    parts, stack = [], [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Sum):
            stack += (x.right, x.left)
        elif isinstance(x, Seq):
            parts.append(Seq(_reference_normal(x.left), _reference_normal(x.right)))
        elif isinstance(x, Star):
            parts.append(Star(_reference_normal(x.body)))
        else:
            parts.append(x)
    out = []
    for p in sorted(parts, key=sort_key):
        if not out or out[-1] != p:
            out.append(p)
    return () if out == [Zero()] else tuple(out)


def _reference_normal(e):
    return embed(_reference_canonicalize(e))


def _reorder_sums(e, rng):
    """``e`` with every sum's summands shuffled and re-associated at random."""
    match e:
        case Sum():
            parts, stack = [], [e]
            while stack:
                x = stack.pop()
                if isinstance(x, Sum):
                    stack += (x.left, x.right)
                else:
                    parts.append(_reorder_sums(x, rng))
            rng.shuffle(parts)
            while len(parts) > 1:
                k = rng.randrange(len(parts) - 1)
                parts[k : k + 2] = [Sum(parts[k], parts[k + 1])]
            return parts[0]
        case Seq(l, r):
            return Seq(_reorder_sums(l, rng), _reorder_sums(r, rng))
        case Star(b):
            return Star(_reorder_sums(b, rng))
        case _:
            return e


def test_aci_equal_terms_have_equal_state_normal_forms():
    rng = random.Random(43)
    for _ in range(300):
        e = rand_expr(rng, rng.randint(1, 14))
        n = state_normal(e)
        assert state_normal(_reference_normal(e)) == n
        for _ in range(3):
            f = _reorder_sums(e, rng)
            assert state_normal(f) == n
            assert state_normal(_reference_normal(f)) == n


def _reference_state_normal(e):
    """Alternate ACI normalization and one unit pass until nothing changes."""
    x = _reference_normal(e)
    while True:
        nxt = _reference_normal(unit_normalize(x))
        if nxt == x:
            return x
        x = nxt


def _reference_build(e, alphabet):
    index, reps, transitions = {}, [], []

    def intern(x):
        key = _reference_canonicalize(_reference_state_normal(x))
        if key not in index:
            index[key] = len(reps)
            reps.append(_reference_state_normal(x))
        return index[key]

    intern(e)
    while len(transitions) < len(reps):
        transitions.append(tuple(intern(step(reps[len(transitions)], a)) for a in alphabet))
    return tuple(reps), tuple(transitions)


def test_normal_forms_match_the_fixed_point_reference():
    rng = random.Random(41)
    words = ["".join(w) for n in range(4) for w in itertools.product("ab", repeat=n)]
    for _ in range(150):
        e = rand_expr(rng, rng.randint(1, 12))
        for word in words:
            x = e
            for letter in word:
                x = step(x, letter)
            assert state_normal(x) == _reference_state_normal(x)
        aut = build([e], ("a", "b"))
        assert (tuple(aut.states), tuple(aut.transitions)) == _reference_build(e, ("a", "b"))


def _literal_closure(roots, alphabet):
    """The closure as ``build`` made it before step_nf: the literal step,
    then state_normal, interned in discovery order."""
    index, reps, transitions = {}, [], []

    def intern(x):
        rep = state_normal(x)
        if rep not in index:
            index[rep] = len(reps)
            reps.append(rep)
        return index[rep]

    roots = tuple(intern(e) for e in roots)
    while len(transitions) < len(reps):
        transitions.append(tuple(intern(step(reps[len(transitions)], a)) for a in alphabet))
    return tuple(reps), tuple(output(s) for s in reps), tuple(transitions), roots


def test_build_matches_the_literal_closure_on_the_corpus(corpus):
    for pair in corpus:
        aut = build([pair.left, pair.right], pair.alphabet)
        want = _literal_closure([pair.left, pair.right], pair.alphabet)
        assert (tuple(aut.states), tuple(aut.outputs), tuple(aut.transitions), aut.roots) == want
        assert [pretty(s) for s in aut.states] == [pretty(s) for s in want[0]]


def test_state_normal_of_a_long_word_does_not_recurse_per_letter():
    for _ in range(2):
        assert state_normal(step(parse("a" * 240), "a")) == parse("a" * 239)


def test_state_normal_ignores_sum_order():
    assert state_normal(Sum(A, B)) == state_normal(Sum(B, A))
    assert state_normal(parse("a + (b + a)")) == state_normal(parse("b + a"))
    assert state_normal(A) != state_normal(B)


def test_closure_of_a_star_is_a_single_state():
    aut = build([Star(A)], ("a",))
    assert aut.n_states == 1
    assert aut.states == [Star(A)]
    assert aut.outputs == [1]
    assert aut.transitions == [(0,)]
    assert aut.roots == (0,)


def test_closure_of_the_running_pair():
    aut = build([Star(A), Sum(A, One())], ("a",))
    assert [pretty(s) for s in aut.states] == ["a*", "1 + a", "1", "0"]
    assert aut.outputs == [1, 1, 1, 0]
    assert aut.transitions == [(0,), (2,), (3,), (3,)]
    assert aut.roots == (0, 1)


def test_roots_are_interned_first_in_input_order():
    aut = build([Sum(A, One()), Star(A)], ("a",))
    assert aut.roots == (0, 1)
    assert pretty(aut.states[0]) == "1 + a"
    assert pretty(aut.states[1]) == "a*"


def test_build_infers_the_alphabet():
    aut = build([parse("a;b")])
    assert aut.alphabet == ("a", "b")


def test_build_is_stable_under_sum_reordering():
    rng = random.Random(31)
    for _ in range(60):
        e = rand_expr(rng, rng.randint(1, 10))
        base = build([e], ("a", "b"))
        again = build([_reference_normal(e)], ("a", "b"))
        assert again.n_states == base.n_states
        assert again.outputs == base.outputs
        assert again.transitions == base.transitions


def test_states_and_transitions_by_index():
    aut = build([Star(A), Sum(A, One())], ("a",))
    assert aut.states.index(state_normal(Star(A))) == 0
    assert aut.states.index(state_normal(parse("1;(1;a*)"))) == 0  # same class after unit collapse
    assert aut.transitions[1][0] == 2
    assert state_normal(B) not in aut.states


def test_state_cap_is_enforced():
    with pytest.raises(StateLimitExceeded) as info:
        build([Star(A), Sum(A, One())], ("a",), cap=2)
    assert info.value.cap == 2
    assert "2" in str(info.value)


def test_product_pairs_walk_in_discovery_order():
    aut = build([Star(A), Sum(A, One())], ("a",))
    assert product_pairs(aut, 0, 1) == ((0, 1), (0, 2), (0, 3))
    # the diagonal start collapses immediately
    assert product_pairs(aut, 2, 2) == ((2, 2), (3, 3))


def test_product_pairs_are_unordered():
    aut = build([Star(A), Sum(A, One())], ("a",))
    assert product_pairs(aut, 1, 0) == ((0, 1), (0, 2), (0, 3))


def _follow(aut, s, t, word):
    for letter in word:
        k = aut.alphabet.index(letter)
        s, t = aut.transitions[s][k], aut.transitions[t][k]
    return (min(s, t), max(s, t))


def _check_walk(aut, s, t):
    walked = list(product_walk(aut, s, t))
    assert tuple(pair for pair, _ in walked) == product_pairs(aut, s, t)
    for pair, word in walked:
        assert _follow(aut, s, t, word) == pair
    keys = [(len(word), [aut.alphabet.index(c) for c in word]) for _, word in walked]
    assert keys == sorted(keys)
    # each word is the least one reaching its pair: enumerate in the same order
    least: dict[tuple[int, int], str] = {}
    for n in range(max(len(word) for _, word in walked) + 1):
        for letters in itertools.product(aut.alphabet, repeat=n):
            least.setdefault(_follow(aut, s, t, letters), "".join(letters))
    assert dict(walked) == least


def test_product_walk_yields_each_pair_with_its_least_word():
    aut = build([Star(A), Sum(A, One())], ("a",))
    assert list(product_walk(aut, 0, 1)) == [((0, 1), ""), ((0, 2), "a"), ((0, 3), "aa")]
    _check_walk(aut, 1, 0)
    _check_walk(aut, 2, 2)
    aut = build([parse("(a+b)*"), parse("(a*;b*)*"), parse("a;b + b;a")], ("a", "b"))
    for s, t in itertools.combinations_with_replacement(range(aut.n_states), 2):
        _check_walk(aut, s, t)


def test_product_walk_on_corpus_pairs(corpus):
    for pair in corpus[:25]:
        aut = build([pair.left, pair.right], pair.alphabet)
        _check_walk(aut, *aut.roots)


def test_dot_export():
    aut = build([Star(A), Sum(A, One())], ("a",))
    dot = to_dot(aut)
    assert dot.startswith("digraph")
    assert "rankdir=LR;" in dot
    assert 'q0 [shape=doublecircle, label="a*"]' in dot
    assert 'q3 [shape=circle, label="0"]' in dot
    assert "start0 -> q0;" in dot
    assert 'q0 -> q0 [label="a"];' in dot


def test_dot_merges_parallel_edges():
    aut = build([parse("(a+b)*")], ("a", "b"))
    assert 'label="a,b"' in to_dot(aut)
