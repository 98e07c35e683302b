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
    :func:`sum_nf` and :func:`seq_nf` from results that ``memo`` keeps.

    Without recursion: a work list settles each subterm once the results it
    needs are in ``memo``, and pushes the first one missing."""
    get = memo.get
    todo = [] if (e, a) in memo else [e]
    while todo:
        x = todo[-1]
        t = type(x)
        if t is Sum or t is Seq:
            l = get((x.left, a))
            if l is None:
                todo.append(x.left)
                continue
            if t is Sum or output(x.left):
                r = get((x.right, a))
                if r is None:
                    todo.append(x.right)
                    continue
                got = sum_nf(l, r) if t is Sum else sum_nf(seq_nf(l, x.right), r)
            else:
                got = seq_nf(l, x.right)
        elif t is Star:
            b = get((x.body, a))
            if b is None:
                todo.append(x.body)
                continue
            got = seq_nf(b, x)
        elif t is Letter:
            got = One() if x.char == a else Zero()
        elif t is Zero or t is One:
            got = Zero()
        else:
            raise TypeError(f"not a regex: {x!r}")
        memo[x, a] = got
        todo.pop()
    return memo[e, a]


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
