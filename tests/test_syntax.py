import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regdist.syntax import (
    _Parser,
    _printer,
    _spine,
    Letter,
    One,
    RegexError,
    Seq,
    Star,
    Sum,
    Zero,
    embed,
    infer_alphabet,
    letters,
    make_alphabet,
    parse,
    pretty,
    sort_key,
    state_normal,
)
from regdist.derivatives import output, step

A, B, C = Letter("a"), Letter("b"), Letter("c")

leaf = st.one_of(
    st.just(Zero()),
    st.just(One()),
    st.sampled_from([Letter(c) for c in "abc"]),
)
exprs = st.recursive(
    leaf,
    lambda kids: st.one_of(
        st.builds(Sum, kids, kids),
        st.builds(Seq, kids, kids),
        st.builds(Star, kids),
    ),
    max_leaves=25,
)


@given(exprs)
@settings(max_examples=300)
def test_pretty_parse_round_trip(e):
    assert parse(pretty(e)) == e


# The recursive printer that ``_printer`` replaced, kept as a reference for
# the exact text.
def _fmt(e, min_level):
    match e:
        case Zero():
            s, level = "0", 3
        case One():
            s, level = "1", 3
        case Letter(c):
            s, level = c, 3
        case Sum(l, r):
            s, level = f"{_fmt(l, 0)} + {_fmt(r, 1)}", 0
        case Seq(l, r):
            s, level = f"{_fmt(l, 1)};{_fmt(r, 2)}", 1
        case Star(b):
            s, level = f"{_fmt(b, 2)}*", 2
    return f"({s})" if level < min_level else s


@given(exprs)
@settings(max_examples=300)
def test_pretty_matches_the_recursive_printer(e):
    assert pretty(e) == _fmt(e, 0)


@given(st.lists(exprs, max_size=8))
def test_a_shared_printer_prints_as_separate_calls_do(terms):
    show = _printer()
    # the terms share leaf objects, and each is printed again after the rest
    assert [show(e) for e in terms + terms] == [pretty(e) for e in terms + terms]


def test_pretty_of_a_very_long_word_does_not_recurse():
    assert pretty(parse("a" * 5000)) == ";".join("a" * 5000)


def test_parse_reads_groups_nested_deeper_than_the_stack():
    assert parse("(" * 5000 + "a" + ")" * 5000) == Letter("a")
    deep = step(parse("a" * 3000), "a")  # its printed form opens a group per letter
    assert pretty(deep).startswith("(" * 2998 + "1;a") and parse(pretty(deep)) == deep
    groups = {}
    assert _Parser(pretty(deep), None, groups).parse() == deep and len(groups) == 2998


@given(exprs)
def test_normal_is_idempotent(e):
    n = state_normal(e)
    assert state_normal(n) == n


@given(exprs)
def test_canonical_embed_fixpoint(e):
    n = state_normal(e)
    assert embed(tuple(_spine(n))) == n


@given(exprs)
def test_canonical_form_is_sorted_and_deduplicated(e):
    keys = [sort_key(x) for x in _spine(state_normal(e))]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_canonical_zero_is_the_empty_form():
    assert state_normal(Zero()) == Zero()
    assert state_normal(Sum(Zero(), Zero())) == Zero()
    assert embed(()) == Zero()


def test_aci_laws():
    assert state_normal(Sum(A, B)) == state_normal(Sum(B, A))
    assert state_normal(Sum(Sum(A, B), C)) == state_normal(Sum(A, Sum(B, C)))
    assert state_normal(Sum(A, A)) == state_normal(A)
    assert state_normal(Sum(A, B)) != state_normal(Sum(A, C))
    assert state_normal(Seq(A, B)) != state_normal(Seq(B, A))


def test_normal_collapses_duplicates_and_orders():
    assert state_normal(Sum(B, Sum(A, A))) == Sum(A, B)
    assert state_normal(Star(A)) == Star(A)


def test_sort_key_constructor_order():
    keys = [sort_key(e) for e in (Zero(), One(), A, B, Seq(A, B), Star(A), Sum(A, B))]
    assert keys == sorted(keys)


def test_letters():
    assert letters(Seq(A, Star(Sum(B, C)))) == frozenset("abc")
    assert letters(One()) == frozenset()


def test_make_alphabet():
    assert make_alphabet("ba") == ("a", "b")
    assert make_alphabet(("a",)) == ("a",)
    with pytest.raises(RegexError):
        make_alphabet("aA")
    with pytest.raises(RegexError):
        make_alphabet(["ab"])


def test_infer_alphabet():
    assert infer_alphabet(Seq(B, A), Star(C)) == ("a", "b", "c")
    assert infer_alphabet(One()) == ()


def test_parse_precedence_and_associativity():
    assert parse("a+b;c*") == Sum(A, Seq(B, Star(C)))
    assert parse("a + b + c") == Sum(Sum(A, B), C)
    assert parse("a;b;c") == Seq(Seq(A, B), C)
    assert parse("a**") == Star(Star(A))
    assert parse("(a+b);c") == Seq(Sum(A, B), C)


def test_parse_juxtaposition_and_whitespace():
    assert parse("ab") == Seq(A, B)
    assert parse("a b") == Seq(A, B)
    assert parse(" a ; ( b + 1 ) * ") == Seq(A, Star(Sum(B, One())))
    assert parse("ab*c") == Seq(Seq(A, Star(B)), C)


def test_parse_constants():
    assert parse("0") == Zero()
    assert parse("1") == One()
    assert parse("10") == Seq(One(), Zero())


@pytest.mark.parametrize(
    "text",
    ["", "   ", "(a", "a)", "a +", "+a", "a;;b", "a*b)", "(", "a$", "A"],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(RegexError):
        parse(text)


def test_parse_respects_explicit_alphabet():
    assert parse("a", ("a", "b")) == A
    with pytest.raises(RegexError):
        parse("c", ("a", "b"))


def _outcome(read):
    try:
        return repr(read())
    except RegexError as exc:
        return f"RegexError: {exc}"


junk = st.text(alphabet="ab01()+;* $", max_size=20)
group_texts = st.one_of(
    junk,
    exprs.map(pretty),
    st.builds(lambda e, j: f"({pretty(e)}){j}", exprs, junk),
    st.builds(lambda j, e: f"{j}({pretty(e)})", junk, exprs),
)


@given(st.lists(group_texts, min_size=1, max_size=8))
@settings(max_examples=300)
def test_parsing_with_a_group_memo_matches_parsing_without(texts):
    groups = {}  # shared by the texts, as by the strings of one document
    for text in texts:
        assert _outcome(lambda: _Parser(text, None, groups).parse()) == _outcome(lambda: parse(text))
    assert all(value == parse(key) for key, value in groups.items())


def test_a_memo_shares_each_parenthesized_group():
    groups = {}
    e = _Parser("(a + b)*;(a+b) + c(a + b)", None, groups).parse()
    f = _Parser("((a+b))c", None, groups).parse()
    assert e == parse("(a + b)*;(a+b) + c(a + b)") and f == parse("(a+b);c")
    assert e.left.left.body is e.left.right is e.right.right is f.left is groups["a+b"]
    with pytest.raises(RegexError, match="not in alphabet"):  # no memo under an alphabet
        _Parser("(a+b)c", ("a", "b"), groups).parse()


def test_pretty_spot_checks():
    assert pretty(Sum(Sum(A, B), C)) == "a + b + c"
    assert pretty(Sum(A, Sum(B, C))) == "a + (b + c)"
    assert pretty(Seq(Seq(A, B), C)) == "a;b;c"
    assert pretty(Seq(A, Seq(B, C))) == "a;(b;c)"
    assert pretty(Star(Star(A))) == "a**"
    assert pretty(Star(Sum(A, B))) == "(a + b)*"
    assert pretty(Seq(Sum(A, B), C)) == "(a + b);c"
    assert pretty(Sum(Seq(A, B), C)) == "a;b + c"
    assert pretty(Seq(Zero(), Star(One()))) == "0;1*"


# Recursive definitions of the fields each node computes at construction,
# kept as references for the cached values.
def _key(e):
    match e:
        case Zero():
            return (0,)
        case One():
            return (1,)
        case Letter(c):
            return (2, c)
        case Seq(l, r):
            return (3, _key(l), _key(r))
        case Star(b):
            return (4, _key(b))
        case Sum(l, r):
            return (5, _key(l), _key(r))


def _output(e):
    match e:
        case Zero() | Letter(_):
            return 0
        case One() | Star(_):
            return 1
        case Sum(l, r):
            return _output(l) | _output(r)
        case Seq(l, r):
            return _output(l) & _output(r)


@given(exprs)
def test_cached_fields_match_the_recursive_definitions(e):
    assert sort_key(e) == _key(e)
    assert output(e) == _output(e)


@given(exprs, exprs)
def test_nodes_are_equal_exactly_when_their_keys_are(e, f):
    twin = parse(pretty(e))  # equal to e, built from fresh objects
    assert twin is not e
    assert twin == e and hash(twin) == hash(e)
    assert (e == f) == (sort_key(e) == sort_key(f))
    assert (e != f) == (sort_key(e) != sort_key(f))
    if e == f:
        assert hash(e) == hash(f)


def test_equal_hashes_alone_do_not_make_nodes_equal():
    forged = Letter("b")
    object.__setattr__(forged, "_hash", hash(A))  # a collision, by hand
    assert hash(forged) == hash(A) and forged != A


def test_terms_deeper_than_the_stack_compare_by_their_keys():
    def tower(bottom):
        acc = bottom
        for i in range(5000):
            acc = Sum(A, acc) if i % 2 else Seq(Star(B), acc)
        return acc

    forged = Letter("b")
    object.__setattr__(forged, "_hash", hash(A))  # equal hashes all the way up
    assert tower(A) == tower(A) and not tower(A) != tower(A)
    assert hash(tower(forged)) == hash(tower(A)) and tower(forged) != tower(A)


@given(exprs)
def test_nodes_refuse_attribute_assignment(e):
    for name in (*e.__match_args__, "_key", "_hash", "anything"):
        with pytest.raises(AttributeError):
            setattr(e, name, Zero())
        with pytest.raises(AttributeError):
            delattr(e, name)
    assert sort_key(e) == _key(e)


@given(exprs)
def test_copies_and_pickles_are_equal_nodes(e):
    for again in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert type(again) is type(e)
        assert again == e and hash(again) == hash(e) and repr(again) == repr(e)


@given(exprs)
def test_a_node_is_unequal_to_anything_else(e):
    for other in (None, 0, "a", pretty(e), sort_key(e), (e,)):
        assert (e == other) is False and (other == e) is False
        assert e != other


def test_nodes_keep_the_dataclass_repr_and_match_args():
    assert repr(Sum(A, Star(Zero()))) == "Sum(left=Letter(char='a'), right=Star(body=Zero()))"
    assert repr(Seq(One(), B)) == "Seq(left=One(), right=Letter(char='b'))"
    assert Sum.__match_args__ == Seq.__match_args__ == ("left", "right")
    assert (Letter.__match_args__, Star.__match_args__) == (("char",), ("body",))
    assert Sum(left=A, right=B) == Sum(A, B)
