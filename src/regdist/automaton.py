"""Finite state spaces from iterated derivatives.

States are interned by their :func:`~regdist.syntax.state_normal` form: ACI
of + together with the unit laws ``0;x = x;0 = 0``, ``1;x = x;1 = x`` and
``x + 0 = x``.  The unit laws matter: the literal transition function
threads output bits into sequences, and without collapsing them the set of
derivatives modulo ACI alone grows forever (already for ``a*``).  Both laws
preserve the language, so the quotient is a plain deterministic automaton.
States come from :func:`~regdist.derivatives.step_nf`, not from literal terms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .derivatives import output, step_nf
from .syntax import Alphabet, Regex, infer_alphabet, pretty, state_normal

DEFAULT_STATE_CAP = 100_000


class StateLimitExceeded(RuntimeError):
    """The derivative closure grew past the configured state cap."""

    def __init__(self, cap: int):
        super().__init__(f"state cap of {cap} exceeded while closing under derivatives")
        self.cap = cap


@dataclass(frozen=True, eq=False)
class QuotientAutomaton:
    """Deterministic automaton over derivative classes.

    ``states[i]`` is the canonical representative of state ``i``;
    ``transitions[i][k]`` is the successor of state ``i`` under letter
    ``alphabet[k]``; ``outputs[i]`` is its acceptance bit; ``roots`` are the
    state ids of the expressions the closure was built from, in input order.
    """

    alphabet: Alphabet
    states: tuple[Regex, ...]
    outputs: tuple[int, ...]
    transitions: tuple[tuple[int, ...], ...]
    roots: tuple[int, ...]

    @property
    def n_states(self) -> int:
        return len(self.states)


def build(
    roots: list[Regex] | tuple[Regex, ...],
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> QuotientAutomaton:
    """Close the given expressions under letter derivatives.

    Breadth-first in discovery order, so state ids are stable for a given
    input; rows come from :func:`~regdist.derivatives.step_nf` with a memo
    for this call.  Raises :class:`StateLimitExceeded` once more than ``cap``
    states appear.
    """
    if alphabet is None:
        alphabet = infer_alphabet(*roots)
    index: dict[Regex, int] = {}
    reps: list[Regex] = []
    memo: dict[tuple[Regex, str], Regex] = {}

    def intern(rep: Regex) -> int:
        got = index.setdefault(rep, len(reps))
        if got == len(reps):
            if got >= cap:
                raise StateLimitExceeded(cap)
            reps.append(rep)
        return got

    root_ids = tuple(intern(state_normal(e)) for e in roots)
    transitions: list[tuple[int, ...]] = []
    for src in reps:  # reps grows as the walk finds states
        transitions.append(tuple(intern(step_nf(src, a, memo)) for a in alphabet))
    return QuotientAutomaton(
        alphabet=alphabet,
        states=tuple(reps),
        outputs=tuple(output(s) for s in reps),
        transitions=tuple(transitions),
        roots=root_ids,
    )


def product_walk(aut: QuotientAutomaton, s: int, t: int) -> Iterator[tuple[tuple[int, int], str]]:
    """Breadth-first walk over the unordered state pairs reachable from {s, t}.

    Yields each pair once, in discovery order, together with the least word
    (shortest, then least in alphabet order) whose synchronized steps lead
    from {s, t} to it; the starting pair comes first with the empty word.
    Diagonal pairs are included.  Callers may stop the walk early.
    """
    start = (min(s, t), max(s, t))
    seen = {start}
    queue: deque[tuple[tuple[int, int], str]] = deque([(start, "")])
    while queue:
        (u, v), word = queue.popleft()
        yield (u, v), word
        for k, letter in enumerate(aut.alphabet):
            du = aut.transitions[u][k]
            dv = aut.transitions[v][k]
            pair = (min(du, dv), max(du, dv))
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + letter))


def product_pairs(aut: QuotientAutomaton, s: int, t: int) -> tuple[tuple[int, int], ...]:
    """Unordered state pairs reachable from {s, t} under synchronized steps.

    The starting pair is included; pairs are returned in discovery order.
    """
    return tuple(pair for pair, _ in product_walk(aut, s, t))


def to_dot(aut: QuotientAutomaton) -> str:
    """Graphviz rendering: accepting states doubly circled, edges by letter."""

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
