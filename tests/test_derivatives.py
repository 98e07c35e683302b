import itertools
import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from regdist.derivatives import (
    fundamental_decomposition,
    member,
    output,
    output_bit,
    step,
    step_nf,
)
from regdist.oracle import denote
from regdist.syntax import Letter, One, Seq, Star, Sum, Zero, infer_alphabet, parse, pretty, state_normal

from conftest import rand_expr
from test_syntax import exprs

A, B = Letter("a"), Letter("b")


def test_output_values():
    assert output(Zero()) == 0
    assert output(One()) == 1
    assert output(A) == 0
    assert output(Star(A)) == 1
    assert output(Sum(A, One())) == 1
    assert output(Seq(A, B)) == 0
    assert output(Seq(Sum(A, One()), Sum(B, One()))) == 1
    assert output(Seq(Sum(A, One()), B)) == 0


def test_output_bit_embeds_the_bit():
    assert output_bit(Star(A)) == One()
    assert output_bit(A) == Zero()


def test_step_keeps_the_raw_shape():
    # the sequence rule always produces both summands, bits included
    assert step(Seq(A, B), "a") == Sum(Seq(One(), B), Seq(Zero(), Zero()))
    assert step(Seq(A, B), "b") == Sum(Seq(Zero(), B), Seq(Zero(), One()))
    assert step(Star(A), "a") == Seq(One(), Star(A))
    assert step(Sum(A, B), "a") == Sum(One(), Zero())
    assert step(Zero(), "a") == Zero()
    assert step(One(), "a") == Zero()


def test_word_derivative_of_a_star():
    d = reduce(step, "aa", Star(A))
    assert d == Sum(Seq(Zero(), Star(A)), Seq(One(), Seq(One(), Star(A))))
    assert pretty(d) == "0;a* + 1;(1;a*)"


def test_member_basics():
    e = parse("(ab)*")
    assert member(e, "")
    assert member(e, "abab")
    assert not member(e, "aba")
    assert not member(e, "ba")
    assert member(parse("a*"), "aaaa")
    assert not member(parse("0"), "")


def test_member_agrees_with_enumeration():
    rng = random.Random(7)
    for _ in range(120):
        e = rand_expr(rng, rng.randint(1, 9))
        alphabet = ("a", "b")
        lang = denote(e, alphabet, 5)
        for w in ["", "a", "b", "ab", "ba", "aab", "abba", "babab"]:
            assert member(e, w) == lang.member(w), (pretty(e), w)


def test_fundamental_decomposition_shape():
    fd = fundamental_decomposition(Star(A), ("a", "b"))
    assert fd == Sum(
        Sum(Seq(A, Seq(One(), Star(A))), Seq(B, Seq(Zero(), Star(A)))),
        One(),
    )
    assert pretty(fd) == "a;(1;a*) + b;(0;a*) + 1"


def test_fundamental_decomposition_preserves_the_language():
    rng = random.Random(11)
    for _ in range(60):
        e = rand_expr(rng, rng.randint(1, 9))
        alphabet = infer_alphabet(e) or ("a",)
        fd = fundamental_decomposition(e, alphabet)
        assert denote(e, alphabet, 5) == denote(fd, alphabet, 5), pretty(e)


def test_fundamental_decomposition_empty_alphabet():
    assert fundamental_decomposition(Star(A), ()) == One()
    assert fundamental_decomposition(Seq(A, B), ()) == Zero()


@given(exprs, st.sampled_from("abc"))
@settings(max_examples=300)
def test_step_nf_is_the_state_normal_form_of_the_literal_step(e, a):
    n = state_normal(e)
    assert step_nf(n, a, {}) == state_normal(step(n, a)) == state_normal(step(e, a))


def test_step_nf_on_corpus_derivatives(corpus):
    for pair in corpus:
        words = ["".join(w) for n in range(4) for w in itertools.product(pair.alphabet, repeat=n)]
        for e in (pair.left, pair.right):
            memo = {}  # shared by all derivatives of the term, as in build
            for word in words:
                x = state_normal(reduce(step, word, e))
                for a in pair.alphabet:
                    assert step_nf(x, a, memo) == state_normal(step(x, a)), (pretty(x), a)


def test_step_nf_spot_checks():
    # no unit or 0 is left behind, as the literal step would leave it
    memo = {}
    assert step_nf(parse("a" * 300), "a", memo) == parse("a" * 299)
    assert step_nf(parse("a" * 300), "b", memo) == Zero()
    assert step_nf(parse("(ab)*"), "a", memo) == parse("b;(ab)*")
