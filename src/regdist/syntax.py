"""Regular expression syntax: abstract syntax, parsing, printing, normal forms.

Expressions are built from the constants 0 and 1, single lowercase letters,
binary sum ``e + f``, binary sequencing ``e;f`` (juxtaposition also accepted
on input), and iteration ``e*``.  :func:`state_normal` quotients by
associativity, commutativity and idempotence of ``+`` at every level together
with the unit laws of 0 and 1.
Each node carries its sort key, output and hash from construction.
"""

from __future__ import annotations

from typing import Callable, Iterable


class RegexError(ValueError):
    """Raised for malformed expression text or bad alphabet input."""


class _Node:
    """An immutable node: ``__init__`` writes its slots through ``_setters``.  It
    computes once its sort key ``_key`` (a tuple of its children's keys), output
    ``_out`` and a hash ``_hash`` of its children's hashes.
    Equal: the same object, or equal hashes and keys."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same_hash = isinstance(other, _Node) and self._hash == other._hash
        try:
            return self is other or (same_hash and self._key == other._key)
        except RecursionError:  # keys nested deeper than C compares them: a loop
            todo = [(self._key, other._key)]
            while todo:
                a, b = todo.pop()
                if type(a) is tuple and type(b) is tuple and len(a) == len(b):
                    todo += zip(a, b) if a is not b else ()
                elif a != b:
                    return False
            return True

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Zero(_Node):
    """The empty language."""
    __slots__ = ()
    _key, _out, _hash = (0,), 0, hash((0,))


class One(_Node):
    """The language containing only the empty word."""
    __slots__ = ()
    _key, _out, _hash = (1,), 1, hash((1,))


class Letter(_Node):
    __slots__ = ("char", "_key", "_hash")
    __match_args__ = ("char",)
    _out = 0

    def __init__(self, char: str):
        put_char, put_key, put_hash = self._setters
        put_char(self, char)
        put_key(self, (2, char))
        put_hash(self, hash((2, char)))


class Sum(_Node):
    __slots__ = ("left", "right", "_key", "_out", "_hash")
    __match_args__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex):
        put_left, put_right, put_key, put_out, put_hash = self._setters
        put_left(self, left)
        put_right(self, right)
        put_key(self, (5, left._key, right._key))
        put_out(self, left._out | right._out)
        put_hash(self, hash((5, left._hash, right._hash)))


class Seq(_Node):
    __slots__ = ("left", "right", "_key", "_out", "_hash")
    __match_args__ = ("left", "right")

    def __init__(self, left: Regex, right: Regex):
        put_left, put_right, put_key, put_out, put_hash = self._setters
        put_left(self, left)
        put_right(self, right)
        put_key(self, (3, left._key, right._key))
        put_out(self, left._out & right._out)
        put_hash(self, hash((3, left._hash, right._hash)))


class Star(_Node):
    __slots__ = ("body", "_key", "_hash")
    __match_args__ = ("body",)
    _out = 1

    def __init__(self, body: Regex):
        put_body, put_key, put_hash = self._setters
        put_body(self, body)
        put_key(self, (4, body._key))
        put_hash(self, hash((4, body._hash)))


Regex = Zero | One | Letter | Sum | Seq | Star

Alphabet = tuple[str, ...]


def letters(e: Regex) -> frozenset[str]:
    """The set of letters occurring in ``e``."""
    found, todo = set(), [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Letter):
            found.add(x.char)
        else:
            todo += (getattr(x, f) for f in x.__match_args__)
    return frozenset(found)


def make_alphabet(chars: Iterable[str]) -> Alphabet:
    """Build a sorted, duplicate-free alphabet from single lowercase letters."""
    seen = sorted(set(chars))
    for c in seen:
        if len(c) != 1 or not ("a" <= c <= "z"):
            raise RegexError(f"alphabet symbols must be single lowercase letters, got {c!r}")
    return tuple(seen)


def infer_alphabet(*exprs: Regex) -> Alphabet:
    """The sorted union of letters occurring in the given expressions."""
    return tuple(sorted(frozenset().union(*map(letters, exprs))))


# ---------------------------------------------------------------------------
# Structural order and normal forms


def sort_key(e: Regex) -> tuple:
    """Total order key: constructor tag first, then children lexicographically.

    Zero < One < Letter < Seq < Star < Sum, letters by character.
    """
    return e._key


def _spine(n: Regex) -> list[Regex]:
    """The summands of a normal form, left to right."""
    out = []
    while isinstance(n, Sum):
        out.append(n.left)
        n = n.right
    return out + [n]


def sum_nf(x: Regex, y: Regex) -> Regex:
    """The state normal form of ``x + y`` for state-normal ``x`` and ``y``:
    their summands sorted, without duplicates and without 0."""
    parts = sorted(dict.fromkeys(_spine(x) + _spine(y)), key=sort_key)
    return embed(tuple(parts[1:] if isinstance(parts[0], Zero) else parts))


def seq_nf(x: Regex, y: Regex) -> Regex:
    """The state normal form of ``x;y`` for state-normal ``x`` and ``y``, by
    ``0;y = 0``, ``y;1 = y``, ``y;0 = 0`` and ``1;y = y`` in that order."""
    if isinstance(x, Zero) or isinstance(y, One):
        return x
    if isinstance(y, Zero) or isinstance(x, One):
        return y
    return Seq(x, y)


def state_normal(e: Regex) -> Regex:
    """The representative of ``e`` modulo ACI of + and the unit laws
    ``0;x = x;0 = 0``, ``1;x = x;1 = x`` and ``x + 0 = x``.

    Bottom-up, once per distinct subterm object, left child first; the right
    factor of a sequence whose left factor normalizes to 0 is never visited.
    ``e`` keeps every subterm alive, so no id in ``done`` is reused during
    the call.
    """
    done: dict[int, Regex] = {}
    get = done.get
    todo = [e]
    while todo:
        x = todo[-1]  # settled once its children are; a missing child is pushed
        t = type(x)
        if t is Seq:
            l = get(id(x.left))
            if type(l) is Zero:
                done[id(x)] = l  # 0;y = 0, without visiting y
            elif l is not None and (r := get(id(x.right))) is not None:
                done[id(x)] = seq_nf(l, r)
            else:
                todo.append(x.left if l is None else x.right)
                continue
        elif t is Sum:
            l, r = get(id(x.left)), get(id(x.right))
            if l is None or r is None:
                todo.append(x.left if l is None else x.right)
                continue
            done[id(x)] = sum_nf(l, r)
        elif t is Star:
            b = get(id(x.body))
            if b is None:
                todo.append(x.body)
                continue
            done[id(x)] = Star(b)
        else:
            done[id(x)] = x
        todo.pop()
    return done[id(e)]


def embed(form: tuple[Regex, ...]) -> Regex:
    """Rebuild an expression from its summands (right-associated; () is 0)."""
    acc = form[-1] if form else Zero()
    for s in reversed(form[:-1]):
        acc = Sum(s, acc)
    return acc


# ---------------------------------------------------------------------------
# Parsing

_ATOM_START = set("01(") | {chr(c) for c in range(ord("a"), ord("z") + 1)}


class _Parser:
    """Left to right, without recursion.  ``groups``, used only without an
    alphabet, is a memo of each parenthesized group's term by its
    whitespace-free inner text."""

    def __init__(self, text: str, alphabet: Alphabet | None, groups: dict[str, Regex] | None = None):
        self.text = text
        self.chars = "".join(text.split())  # the text without its whitespace
        self.pos = 0  # in self.chars
        self.alphabet = alphabet
        memo = groups is not None and alphabet is None
        self.groups = groups if memo else {}
        self.close: dict[int, int] = {}  # with a memo, each '(' to its matching ')'
        opened = []
        for i, c in enumerate(self.chars if memo else ""):
            if c == "(":
                opened.append(i)
            elif c == ")" and opened:
                self.close[opened.pop()] = i

    def parse(self) -> Regex:
        result = self.expr()
        if self.peek() is not None:
            raise self.error("trailing input")
        return result

    def error(self, message: str) -> RegexError:
        # the position in the text as written: of the next character, or its end
        where = [i for i, c in enumerate(self.text) if not c.isspace()] + [len(self.text)]
        return RegexError(f"{message} at position {where[self.pos]} in {self.text!r}")

    def peek(self) -> str | None:
        return self.chars[self.pos] if self.pos < len(self.chars) else None

    def expr(self) -> Regex:
        """The expression from ``pos``: sums of sequences of starred atoms,
        each operator folded left.  ``outer`` keeps, per open group, the
        sum and sequence read before it and its memo key."""
        outer: list[tuple[Regex | None, Regex | None, str | None]] = []
        total = run = key = None  # the current group's sum, sequence and memo key
        while True:
            c = self.peek()  # an atom starts here
            if c is None:
                raise self.error("unexpected end of input")
            if c == "(":
                end = self.close.get(self.pos)
                inner_key = self.chars[self.pos + 1 : end] if end else None
                if (x := self.groups.get(inner_key)) is None:
                    outer.append((total, run, key))
                    total = run = None
                    key = inner_key
                    self.pos += 1
                    continue
                self.pos = end + 1  # it parsed alone, so here up to `end`
            elif c in "01":
                self.pos += 1
                x = Zero() if c == "0" else One()
            elif "a" <= c <= "z":
                if self.alphabet is not None and c not in self.alphabet:
                    raise self.error(f"letter {c!r} not in alphabet {''.join(self.alphabet)!r}")
                self.pos += 1
                x = Letter(c)
            else:
                raise self.error(f"unexpected character {c!r}")
            while True:  # x is an atom; read on to where the next one starts
                while self.peek() == "*":
                    self.pos += 1
                    x = Star(x)
                run = x if run is None else Seq(run, x)
                c = self.peek()
                if c is not None and (c == ";" or c in _ATOM_START):
                    if c == ";":
                        self.pos += 1
                    break
                total = run if total is None else Sum(total, run)
                run = None
                if c == "+":
                    self.pos += 1
                    break
                if not outer:
                    return total
                if c != ")":
                    raise self.error("expected ')'")
                if key is not None:  # a group ends at its matching ')'
                    self.groups[key] = total
                self.pos += 1
                x = total
                total, run, key = outer.pop()


def parse(text: str, alphabet: Alphabet | None = None) -> Regex:
    """Parse expression text.

    Grammar (lowest to highest precedence): sums ``e + f``, sequences ``e;f``
    with ``;`` optional, iteration ``e*``.  Whitespace is ignored.  When an
    alphabet is given, letters outside it are rejected.
    """
    return _Parser(text, alphabet).parse()


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
