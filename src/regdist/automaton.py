"""Finite state spaces from iterated derivatives.

States are interned by their :func:`~regdist.syntax.state_normal` form: ACI
of + together with the unit laws ``0;x = x;0 = 0``, ``1;x = x;1 = x`` and
``x + 0 = x``.  The unit laws matter: the literal transition function
threads output bits into sequences, and without collapsing them the set of
derivatives modulo ACI alone grows forever (already for ``a*``).  Both laws
preserve the language, so the quotient is a plain deterministic automaton.

Every walk over derivatives interns its states in a :class:`Closure`, which
derives a state's row when a walk first asks for it: :func:`build` asks for
all, :func:`~regdist.metric.witness` for those its walk reaches.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Iterator, Sequence

from .derivatives import output, step_nf
from .syntax import Alphabet, Regex, infer_alphabet, pretty, state_normal

DEFAULT_STATE_CAP = 100_000


class StateLimitExceeded(RuntimeError):
    """The derivative closure grew past the configured state cap."""

    def __init__(self, cap: int):
        super().__init__(f"state cap of {cap} exceeded while closing under derivatives")
        self.cap = cap


class Closure:
    """The states met from ``roots`` under ``derive``, which maps a state and
    a letter to a state-normal form (default: ``step_nf`` with this closure's
    memo).  ``states[i]`` is state i's form, ``outputs[i]`` its output and
    ``transitions[i]`` its successors in alphabet order, None until
    :meth:`row` derives them (readers of ``transitions`` need :func:`build`,
    which derives all); ``roots`` are the given expressions' ids, in order.
    More than ``cap`` states raise :class:`StateLimitExceeded`."""

    def __init__(
        self,
        roots: Sequence[Regex],
        alphabet: Alphabet | None,
        cap: int,
        derive: Callable[[Regex, str], Regex] | None = None,
    ):
        self.alphabet = infer_alphabet(*roots) if alphabet is None else alphabet
        self.derive = derive or partial(step_nf, memo={})
        self.cap = cap
        self.states: list[Regex] = []
        self.outputs: list[int] = []
        self.transitions: list[tuple[int, ...] | None] = []
        self._index: dict[Regex, int] = {}
        self.roots = tuple(self._intern(state_normal(e)) for e in roots)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def _intern(self, state: Regex) -> int:
        """The id of a state-normal form, a new one the first time it is met."""
        got = self._index.setdefault(state, len(self.states))
        if got == len(self.states):
            if got >= self.cap:
                raise StateLimitExceeded(self.cap)
            self.states.append(state)
            self.outputs.append(output(state))
            self.transitions.append(None)
        return got

    def row(self, i: int) -> tuple[int, ...]:
        """The successors of state ``i`` in alphabet order, derived once."""
        got = self.transitions[i]
        if got is None:
            state, intern, derive = self.states[i], self._intern, self.derive
            got = self.transitions[i] = tuple(intern(derive(state, a)) for a in self.alphabet)
        return got


def build(roots: Sequence[Regex], alphabet: Alphabet | None = None, cap: int = DEFAULT_STATE_CAP) -> Closure:
    """Close the given expressions under letter derivatives.

    Breadth-first in discovery order, so state ids are stable for a given
    input; every row is derived.  Raises :class:`StateLimitExceeded` once
    more than ``cap`` states appear.
    """
    aut = Closure(roots, alphabet, cap)
    for i, _ in enumerate(aut.states):  # states grows as the rows find them
        aut.row(i)
    return aut


def product_walk(aut: Closure, s: int, t: int) -> Iterator[tuple[tuple[int, int], str]]:
    """Breadth-first walk over the unordered state pairs reachable from {s, t}.

    Yields each pair once, in discovery order, together with the least word
    (shortest, then least in alphabet order) whose synchronized steps lead
    from {s, t} to it; the starting pair comes first with the empty word.
    Diagonal pairs are included.  Callers may stop the walk early; a pair's
    rows are derived only when the walk resumes after yielding it.
    """
    start = (min(s, t), max(s, t))
    seen = {start}
    queue: deque[tuple[tuple[int, int], str]] = deque([(start, "")])
    while queue:
        (u, v), word = queue.popleft()
        yield (u, v), word
        for letter, du, dv in zip(aut.alphabet, aut.row(u), aut.row(v)):
            pair = (min(du, dv), max(du, dv))
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + letter))


def product_pairs(aut: Closure, s: int, t: int) -> tuple[tuple[int, int], ...]:
    """The unordered state pairs reachable from {s, t}, the starting pair
    included, in discovery order."""
    return tuple(pair for pair, _ in product_walk(aut, s, t))


def to_dot(aut: Closure) -> str:
    """Graphviz rendering of a closure from :func:`build`: accepting states doubly circled."""

    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph quotient {", "  rankdir=LR;"]
    for rank, root in enumerate(aut.roots):
        lines.append(f'  start{rank} [shape=point, label=""];')
    for i, s in enumerate(aut.states):
        shape = "doublecircle" if aut.outputs[i] else "circle"
        lines.append(f'  q{i} [shape={shape}, label="{esc(pretty(s))}"];')
    for rank, root in enumerate(aut.roots):
        lines.append(f"  start{rank} -> q{root};")
    for i, row in enumerate(aut.transitions):
        by_target: dict[int, list[str]] = {}
        for k, j in enumerate(row):
            by_target.setdefault(j, []).append(aut.alphabet[k])
        for j in sorted(by_target):
            label = ",".join(by_target[j])
            lines.append(f'  q{i} -> q{j} [label="{esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
