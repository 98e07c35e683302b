"""The literal-derivative kernels against their ``match``-based references."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from regdist.derivatives import step
from regdist.syntax import Letter, One, Seq, Star, Sum, Zero, parse, pretty, state_normal

from test_syntax import exprs


def assert_kernels_agree(e, letters):
    assert repr(state_normal(e)) == repr(ref.state_normal(e))
    for a in letters:
        assert repr(step(e, a)) == repr(ref.step(e, a)), (pretty(e), a)


def test_kernels_agree_on_corpus_derivatives(corpus):
    words = ["".join(w) for n in range(1, 4) for w in itertools.product("ab", repeat=n)]
    for pair in corpus:
        for e in (pair.left, pair.right):
            assert_kernels_agree(e, "ab")
            derivative = {"": e}
            for word in words:  # each word extends a shorter one by its last letter
                before, a = derivative[word[:-1]], word[-1]
                literal = derivative[word] = ref.step(before, a)
                assert step(before, a) == literal, (pretty(e), word)  # equal keys: equal structure
                x = ref.state_normal(literal)
                assert repr(state_normal(literal)) == repr(x)
                assert_kernels_agree(x, "ab")


@given(exprs, st.sampled_from("abc"))
@settings(max_examples=400)
def test_kernels_agree_on_random_terms(e, a):
    assert_kernels_agree(e, a)
    n = ref.state_normal(e)
    assert_kernels_agree(n, a)
    assert_kernels_agree(ref.step(n, a), a)


def test_kernels_agree_along_a_long_word():
    rng = random.Random(5)
    word = "".join(rng.choice("ab") for _ in range(5000))
    x = parse("(a;b + a)*;(b + 1) + (b;a*;b)*")
    for a in word:  # as member walks it
        literal = ref.step(x, a)
        assert repr(step(x, a)) == repr(literal)
        x = ref.state_normal(literal)
        assert repr(state_normal(literal)) == repr(x)
    # the word as a term, deeper than repr recurses: equal keys are equal structure
    assert state_normal(parse(word)) == ref.state_normal(parse(word))


@given(exprs, st.sampled_from("abc"))
@settings(max_examples=200)
def test_step_agrees_with_the_reference(e, a):
    assert repr(step(e, a)) == repr(ref.step(e, a))


def test_step_of_a_term_deeper_than_recursion_goes():
    want = One()  # the derivative of the first letter
    for _ in range(4999):
        want = Sum(Seq(want, Letter("a")), Seq(Zero(), One()))
    assert step(parse("a" * 5000), "a") == want


def test_step_refuses_a_non_regex():
    with pytest.raises(TypeError, match="not a regex: 'x'"):
        step("x", "a")


def test_state_normal_never_visits_the_right_factor_of_zero(monkeypatch):
    y = Letter("a")
    for i in range(50_000):  # 200,001 distinct nodes, every Sum and Seq its own
        y = Sum(y, Seq(Letter("ab"[i % 2]), Star(Letter("b"))))
    built = []
    for cls in (Seq, Sum):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, l, r, init=init: built.append(1) or init(self, l, r))
    assert state_normal(Seq(Sum(Letter("a"), Letter("b")), One())) == Sum(Letter("a"), Letter("b"))
    assert built, "the count sees what state_normal builds"
    terms = [Seq(Zero(), y), Seq(Sum(Zero(), Seq(Zero(), One())), y), Star(Seq(Seq(Zero(), y), y))]
    built.clear()
    assert [state_normal(e) for e in terms] == [Zero(), Zero(), Star(Zero())]
    assert built == []
