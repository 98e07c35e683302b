"""The literal-derivative kernels as they were first written: a reference.

``step`` and ``state_normal`` here branch with ``match`` class patterns, one
case per constructor and guard.  ``regdist.derivatives.step`` and
``regdist.syntax.state_normal`` branch once on the node's type instead; they
are kept only so that the tests can compare those kernels against these,
``repr`` for ``repr``.
"""

from __future__ import annotations

from regdist.derivatives import output_bit
from regdist.syntax import Letter, One, Regex, Seq, Star, Sum, Zero, seq_nf, sum_nf


def step(e: Regex, a: str) -> Regex:
    """The derivative of ``e`` by the letter ``a``, built literally."""
    match e:
        case Zero() | One():
            return Zero()
        case Letter(c):
            return One() if c == a else Zero()
        case Sum(l, r):
            return Sum(step(l, a), step(r, a))
        case Seq(l, r):
            return Sum(Seq(step(l, a), r), Seq(output_bit(l), step(r, a)))
        case Star(b):
            return Seq(step(b, a), e)
    raise TypeError(f"not a regex: {e!r}")


def state_normal(e: Regex) -> Regex:
    """The representative of ``e`` modulo ACI of + and the unit laws, bottom-up
    once per distinct subterm object, never visiting the right factor of a
    sequence whose left factor normalizes to 0."""
    done: dict[int, Regex] = {}
    todo = [e]
    while todo:
        x = todo.pop()
        if id(x) in done:
            continue
        match x:
            case Seq(l, r) if id(l) not in done:
                todo += (x, l)
            case Seq(l, r) if isinstance(done[id(l)], Zero):
                done[id(x)] = done[id(l)]  # 0;y = 0, without visiting y
            case Sum(l, r) | Seq(l, r) if id(l) not in done or id(r) not in done:
                todo += (x, r, l)
            case Star(b) if id(b) not in done:
                todo += (x, b)
            case Sum(l, r):
                done[id(x)] = sum_nf(done[id(l)], done[id(r)])
            case Seq(l, r):
                done[id(x)] = seq_nf(done[id(l)], done[id(r)])
            case Star(b):
                done[id(x)] = Star(done[id(b)])
            case _:
                done[id(x)] = x
    return done[id(e)]
