"""Syntactic output and transition structure of regular expressions.

``step`` is the one-letter transition.  It is deliberately literal: the
sequencing case builds ``(e)_a ; f + o(e) ; (f)_a`` with the output of ``e``
embedded as the expression 0 or 1, and nothing is simplified away.  All
simplification in this package happens in later, clearly marked places.
"""

from __future__ import annotations

from .syntax import Alphabet, Letter, One, Regex, Seq, Star, Sum, Zero, seq_nf, state_normal, sum_nf


def output(e: Regex) -> int:
    """1 if the language of ``e`` contains the empty word, else 0."""
    return e._out


def output_bit(e: Regex) -> Regex:
    """The output of ``e`` as the expression 0 or 1."""
    return One() if output(e) else Zero()


def step(e: Regex, a: str) -> Regex:
    """The derivative of ``e`` by the letter ``a``, built literally, without
    recursion: each subterm's derivative is built after its subterms'."""
    order = []
    todo = [e]
    while todo:  # pre-order, the right subterm first
        x = todo.pop()
        order.append(x)
        t = type(x)
        if t is Seq or t is Sum:
            todo += (x.left, x.right)
        elif t is Star:
            todo.append(x.body)
    out: list[Regex] = []  # derivatives of the subterms built and not yet used
    for x in reversed(order):
        t = type(x)
        if t is Seq:
            r = out.pop()
            out[-1] = Sum(Seq(out[-1], x.right), Seq(output_bit(x.left), r))
        elif t is Sum:
            r = out.pop()
            out[-1] = Sum(out[-1], r)
        elif t is Star:
            out[-1] = Seq(out[-1], x)
        elif t is Letter:
            out.append(One() if x.char == a else Zero())
        elif t is Zero or t is One:
            out.append(Zero())
        else:
            raise TypeError(f"not a regex: {x!r}")
    return out[0]


def step_nf(e: Regex, a: str, memo: dict[tuple[Regex, str], Regex]) -> Regex:
    """``state_normal(step(e, a))`` for a state-normal ``e``, built with
    :func:`sum_nf` and :func:`seq_nf` from results that ``memo`` keeps."""
    got = memo.get((e, a))
    if got is None:
        match e:
            case Sum(l, r):
                got = sum_nf(step_nf(l, a, memo), step_nf(r, a, memo))
            case Seq(l, r):
                got = seq_nf(step_nf(l, a, memo), r)
                if output(l):
                    got = sum_nf(got, step_nf(r, a, memo))
            case Star(b):
                got = seq_nf(step_nf(b, a, memo), e)
            case Letter(c):
                got = One() if c == a else Zero()
            case Zero() | One():
                got = Zero()
            case _:
                raise TypeError(f"not a regex: {e!r}")
        memo[e, a] = got
    return got


def member(e: Regex, w: str) -> bool:
    """Whether ``w`` belongs to the language of ``e``: each letter's literal
    step is normalized, as the literal word derivative can double per letter."""
    for ch in w:
        e = state_normal(step(e, ch))
    return output(e) == 1


def fundamental_decomposition(e: Regex, alphabet: Alphabet) -> Regex:
    """Rebuild ``e`` from its letter derivatives and output.

    Returns ``a1;(e)_a1 + ... + ak;(e)_ak + o(e)`` with the letter terms
    folded left to right in alphabet order and the output bit last.  The
    result denotes the same language as ``e``.
    """
    acc: Regex | None = None
    for a in alphabet:
        term = Seq(Letter(a), step(e, a))
        acc = term if acc is None else Sum(acc, term)
    bit = output_bit(e)
    return bit if acc is None else Sum(acc, bit)
