"""Regular expression syntax: abstract syntax, parsing, printing, normal forms.

Expressions are built from the constants 0 and 1, single lowercase letters,
binary sum ``e + f``, binary sequencing ``e;f`` (juxtaposition also accepted
on input), and iteration ``e*``.  :func:`normal` quotients by associativity,
commutativity and idempotence of ``+`` at every level, so ``a + 0`` and ``a``
stay distinct; :func:`state_normal` adds the unit laws of 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable


class RegexError(ValueError):
    """Raised for malformed expression text or bad alphabet input."""


@dataclass(frozen=True)
class Zero:
    """The empty language."""


@dataclass(frozen=True)
class One:
    """The language containing only the empty word."""


@dataclass(frozen=True)
class Letter:
    char: str


@dataclass(frozen=True)
class Sum:
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Seq:
    left: Regex
    right: Regex


@dataclass(frozen=True)
class Star:
    body: Regex


Regex = Zero | One | Letter | Sum | Seq | Star

#: A canonical form is the sorted, deduplicated tuple of normalized summands.
#: The empty tuple represents the expression 0.
CanonicalForm = tuple[Regex, ...]

Alphabet = tuple[str, ...]


def size(e: Regex) -> int:
    """Number of nodes in the syntax tree."""
    match e:
        case Zero() | One() | Letter(_):
            return 1
        case Sum(l, r) | Seq(l, r):
            return 1 + size(l) + size(r)
        case Star(b):
            return 1 + size(b)
    raise TypeError(f"not a regex: {e!r}")


def letters(e: Regex) -> frozenset[str]:
    """The set of letters occurring in ``e``."""
    match e:
        case Letter(c):
            return frozenset((c,))
        case Sum(l, r) | Seq(l, r):
            return letters(l) | letters(r)
        case Star(b):
            return letters(b)
        case _:
            return frozenset()


def make_alphabet(chars: Iterable[str]) -> Alphabet:
    """Build a sorted, duplicate-free alphabet from single lowercase letters."""
    seen = sorted(set(chars))
    for c in seen:
        if len(c) != 1 or not ("a" <= c <= "z"):
            raise RegexError(f"alphabet symbols must be single lowercase letters, got {c!r}")
    return tuple(seen)


def infer_alphabet(*exprs: Regex) -> Alphabet:
    """The sorted union of letters occurring in the given expressions."""
    acc: frozenset[str] = frozenset()
    for e in exprs:
        acc |= letters(e)
    return tuple(sorted(acc))


# ---------------------------------------------------------------------------
# Structural order and canonical forms


SortKey = tuple


def sort_key(e: Regex) -> SortKey:
    """Total order key: constructor tag first, then children lexicographically.

    Zero < One < Letter < Seq < Star < Sum, letters by character.
    """
    match e:
        case Zero():
            return (0,)
        case One():
            return (1,)
        case Letter(c):
            return (2, c)
        case Seq(l, r):
            return (3, sort_key(l), sort_key(r))
        case Star(b):
            return (4, sort_key(b))
        case Sum(l, r):
            return (5, sort_key(l), sort_key(r))
    raise TypeError(f"not a regex: {e!r}")


def _spine(n: Regex) -> list[Regex]:
    """The summands of a normal form, left to right."""
    out = []
    while isinstance(n, Sum):
        out.append(n.left)
        n = n.right
    return out + [n]


def _normal(e: Regex, units: bool) -> Regex:
    """:func:`normal` of ``e``, or with ``units`` :func:`state_normal` of ``e``.

    Bottom-up, once per distinct subterm object, left child first; with
    ``units``, the right factor of a sequence whose left factor normalizes
    to 0 is never visited.  ``e`` keeps every subterm alive, so no id in
    ``done`` is reused during the call.
    """
    done: dict[int, Regex] = {}
    todo = [e]
    while todo:
        x = todo.pop()
        if id(x) in done:
            continue
        match x:
            case Seq(l, r) if units and id(l) not in done:
                todo += (x, l)
            case Seq(l, r) if units and isinstance(done[id(l)], Zero):
                done[id(x)] = done[id(l)]  # 0;y = 0, without visiting y
            case Sum(l, r) | Seq(l, r) if id(l) not in done or id(r) not in done:
                todo += (x, r, l)
            case Star(b) if id(b) not in done:
                todo += (x, b)
            case Sum(l, r):
                by_key = {sort_key(p): p for p in _spine(done[id(l)]) + _spine(done[id(r)])}
                if units:
                    by_key.pop(sort_key(Zero()), None)
                done[id(x)] = embed(tuple(by_key[k] for k in sorted(by_key)))
            case Seq(l, r):
                nl, nr = done[id(l)], done[id(r)]
                if units and isinstance(nr, One):
                    done[id(x)] = nl  # y;1 = y
                elif units and (isinstance(nr, Zero) or isinstance(nl, One)):
                    done[id(x)] = nr  # y;0 = 0 and 1;y = y
                else:
                    done[id(x)] = Seq(nl, nr)
            case Star(b):
                done[id(x)] = Star(done[id(b)])
            case _:
                done[id(x)] = x
    return done[id(e)]


def canonicalize(e: Regex) -> CanonicalForm:
    """Canonical form of ``e`` modulo associativity/commutativity/idempotence of +.

    The summands of :func:`normal`: flattened, with nested subterms normalized
    the same way, sorted by :func:`sort_key` and deduplicated.  ``(0,)`` is
    identified with the empty form; a 0 beside other summands is kept.
    """
    n = normal(e)
    return () if isinstance(n, Zero) else tuple(_spine(n))


def embed(form: CanonicalForm) -> Regex:
    """Rebuild an expression from a canonical form (right-associated sums)."""
    if not form:
        return Zero()
    acc = form[-1]
    for s in reversed(form[:-1]):
        acc = Sum(s, acc)
    return acc


def normal(e: Regex) -> Regex:
    """The canonical representative of ``e`` modulo ACI of + (at every level)."""
    return _normal(e, False)


def state_normal(e: Regex) -> Regex:
    """The representative of ``e`` modulo ACI of + and the unit laws
    ``0;x = x;0 = 0``, ``1;x = x;1 = x`` and ``x + 0 = x``."""
    return _normal(e, True)


# ---------------------------------------------------------------------------
# Parsing

_ATOM_START = set("01(") | {chr(c) for c in range(ord("a"), ord("z") + 1)}


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet | None):
        self.text = text
        self.pos = 0
        self.alphabet = alphabet

    def error(self, message: str) -> RegexError:
        return RegexError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def expr(self) -> Regex:
        acc = self.term()
        while self.peek() == "+":
            self.pos += 1
            acc = Sum(acc, self.term())
        return acc

    def term(self) -> Regex:
        acc = self.factor()
        while True:
            c = self.peek()
            if c == ";":
                self.pos += 1
                acc = Seq(acc, self.factor())
            elif c is not None and c in _ATOM_START:
                acc = Seq(acc, self.factor())
            else:
                return acc

    def factor(self) -> Regex:
        acc = self.atom()
        while self.peek() == "*":
            self.pos += 1
            acc = Star(acc)
        return acc

    def atom(self) -> Regex:
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of input")
        if c == "0":
            self.pos += 1
            return Zero()
        if c == "1":
            self.pos += 1
            return One()
        if c == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if "a" <= c <= "z":
            if self.alphabet is not None and c not in self.alphabet:
                raise self.error(f"letter {c!r} not in alphabet {''.join(self.alphabet)!r}")
            self.pos += 1
            return Letter(c)
        raise self.error(f"unexpected character {c!r}")


def parse(text: str, alphabet: Alphabet | None = None) -> Regex:
    """Parse expression text.

    Grammar (lowest to highest precedence): sums ``e + f``, sequences ``e;f``
    with ``;`` optional, iteration ``e*``.  Whitespace is ignored.  When an
    alphabet is given, letters outside it are rejected.
    """
    p = _Parser(text, alphabet)
    result = p.expr()
    if p.peek() is not None:
        raise p.error("trailing input")
    return result


# ---------------------------------------------------------------------------
# Printing

# Precedence levels: Sum 0, Seq 1, Star 2, atoms 3.  A child is parenthesized
# when its level is below what its position requires; right operands require
# one level more than left ones so that printing round-trips exactly through
# the left-associating parser.


def _printer() -> Callable[[Regex], str]:
    """A printing function that renders each distinct subterm object once.

    Its memo keeps each subterm with its precedence level and text (and the
    term itself, so that its id is not reused); a parent reuses its children's text."""
    done: dict[int, tuple[Regex, int, str]] = {}

    def operand(x: Regex, need: int) -> str:
        _, level, text = done[id(x)]
        return text if level >= need else f"({text})"

    def show(e: Regex) -> str:
        if id(e) in done:
            return done[id(e)][2]
        todo = [e]
        while todo:
            x = todo.pop()
            if id(x) in done:
                continue
            match x:
                case Sum(l, r) | Seq(l, r) if id(l) not in done or id(r) not in done:
                    todo += (x, r, l)
                    continue
                case Star(b) if id(b) not in done:
                    todo += (x, b)
                    continue
                case Sum(l, r):
                    level, text = 0, f"{operand(l, 0)} + {operand(r, 1)}"
                case Seq(l, r):
                    level, text = 1, f"{operand(l, 1)};{operand(r, 2)}"
                case Star(b):
                    level, text = 2, f"{operand(b, 2)}*"
                case Letter(c):
                    level, text = 3, c
                case Zero() | One():
                    level, text = 3, "0" if isinstance(x, Zero) else "1"
                case _:
                    raise TypeError(f"not a regex: {x!r}")
            done[id(x)] = (x, level, text)
        return done[id(e)][2]

    return show


def pretty(e: Regex) -> str:
    """Render ``e`` with minimal parentheses; ``parse(pretty(e)) == e``."""
    return _printer()(e)
