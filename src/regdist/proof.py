"""The prover, built on the rule book of :mod:`regdist.check`, which checks its
certificates: :func:`synthesize`, and the twins that derive the ``Norm`` and
``Unfold`` lemmas rule by rule, which :func:`expand` puts in their place."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

from .automaton import DEFAULT_STATE_CAP, build
from .check import (
    Certificate,
    Derivation,
    Judgement,
    ProofError,
    Rule,
    cont_template,
    d1,
    d2,
    hypothesis,
    norm,
    npref,
    one_s,
    refl,
    s_assoc,
    s_one,
    s_zero,
    seq_cong,
    sl1,
    sl2,
    sl3,
    sl4,
    sl5,
    star_cong,
    sum_cong,
    symm,
    tight,
    top_rule,
    triang,
    unfold,
    unroll,
    weaken,
    zero_s,
    _split_loop_hypothesis,
    _ZERO,
)
from .check import check_certificate, diagnose_certificate, from_json, to_json  # noqa: F401  re-exported: the bench and README import them from here
from .derivatives import fundamental_decomposition, output, output_bit, step
from .metric import Config, ExponentValue, separating_word
from .syntax import Alphabet, Letter, One, Regex, Seq, Star, Sum, Zero, infer_alphabet, letters, pretty, state_normal, sum_nf

DEFAULT_SPOT_CHECKS = 8  # salomaa_rule records the spot indices 0 to this


def weaken_to(d: Derivation, eps: Fraction) -> Derivation:
    """``d`` itself when the bound already matches, otherwise a Max node."""
    eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    if eps == d.eps:
        return d
    return weaken(d, eps)


def refl_at(e: Regex, eps: Fraction) -> Derivation:
    return weaken_to(refl(e), eps)


def _chain(*parts: Derivation) -> Derivation:
    """Compose by transitivity, skipping every link that just restates one side."""
    kept = [p for p in parts if not (p.left == p.right and p.eps == 0)] or parts[:1]
    acc = kept[-1]
    for p in reversed(kept[:-1]):
        acc = triang(p, acc)
    return acc


# ---------------------------------------------------------------------------
# Zero-bound normalization, derived in the pass that computes the normal form


def normalization_proof(e: Regex) -> Derivation:
    """Derivation of ``e = state_normal(e)`` at bound 0.

    The twin of :func:`regdist.syntax.state_normal`: the same work list, and
    each step justified by the rule behind it.  A sum is congruence, then SL2
    and SL4 dropping a 0 child or else a merge (SL1-SL3) that follows the
    summand order of :func:`regdist.syntax.sum_nf`'s result; a sequence is
    congruence, then ZeroS, S1, S0 or OneS in ``state_normal``'s order; a
    star is congruence.  An unchanged subterm is Refl.
    """
    done: dict[int, Derivation] = {}
    todo = [e]
    while todo:
        x = todo.pop()
        if id(x) in done:
            continue
        match x:
            case Seq(l, r) if id(l) not in done:
                todo += (x, l)
            case Seq(l, r) if isinstance(done[id(l)].right, Zero):
                # 0;y = 0, without visiting y
                done[id(x)] = _chain(_congruence(x, seq_cong, done[id(l)], refl(r)), zero_s(r))
            case Sum(l, r) | Seq(l, r) if id(l) not in done or id(r) not in done:
                todo += (x, r, l)
            case Star(b) if id(b) not in done:
                todo += (x, b)
            case Sum(l, r):
                dl, dr = done[id(l)], done[id(r)]
                nl, nr = dl.right, dr.right
                if isinstance(nr, Zero):
                    merge = sl4(nl)  # x + 0 = x
                elif isinstance(nl, Zero):
                    merge = triang(sl2(nl, nr), sl4(nr))  # 0 + y = y + 0 = y
                else:
                    merge = _merge_sorted(nl, nr)
                done[id(x)] = _chain(_congruence(x, sum_cong, dl, dr), merge)
            case Seq(l, r):
                dl, dr = done[id(l)], done[id(r)]
                nl, nr = dl.right, dr.right
                d = _congruence(x, seq_cong, dl, dr)
                if isinstance(nr, One):
                    d = _chain(d, s_one(nl))  # y;1 = y
                elif isinstance(nr, Zero):
                    d = _chain(d, s_zero(nl))  # y;0 = 0
                elif isinstance(nl, One):
                    d = _chain(d, one_s(nr))  # 1;y = y
                done[id(x)] = d
            case Star(b):
                done[id(x)] = _congruence(x, star_cong, done[id(b)])
            case _:
                done[id(x)] = refl(x)
    return done[id(e)]


def _congruence(x: Regex, cong: Callable[..., Derivation], *parts: Derivation) -> Derivation:
    """``cong`` over the children's derivations, or ``refl(x)`` when none
    of them changes anything (a normalization step is Refl just then)."""
    return refl(x) if all(p.rule is Rule.REFL for p in parts) else cong(*parts)


def _merge_sorted(x: Regex, y: Regex) -> Derivation:
    """``x + y = sum_nf(x, y)`` for state-normal ``x`` and ``y``, neither 0.

    One level per summand ``h`` of the result and side it heads, moving ``h``
    to the front: one SL3 from ``x``, SL3, SL2 and SL3 from ``y``.  ``h`` is
    the first summand of ``sum_nf`` of the two sides' first summands, so
    ``sum_nf`` alone decides the order, at O(1) a level.  The levels are
    joined by congruence from the innermost outward, and a second copy of
    ``h`` is dropped by SL3 and SL1."""
    levels = []
    while x is not None and y is not None:
        heads = sum_nf(*(s.left if isinstance(s, Sum) else s for s in (x, y)))
        h = heads.left if isinstance(heads, Sum) else heads  # the lesser first summand
        if (tx := _drop_head(x, h)) is not x:  # (h + t) + y = h + (t + y)
            levels.append((h, refl(Sum(h, y)) if tx is None else sl3(h, tx, y)))
            x = tx
        if x is not None and (ty := _drop_head(y, h)) is not y:
            d = sl2(x, h)  # x + h = h + x
            if ty is not None:  # x + (h + t) = (x + h) + t = (h + x) + t = h + (x + t)
                d = _chain(symm(sl3(x, h, ty)), sum_cong(d, refl(ty)), sl3(h, x, ty))
            levels.append((h, d))
            y = ty
    acc = refl(x or y)  # the unmerged tail of one side
    for h, d in reversed(levels):
        acc = _chain(d, _congruence(d.right, sum_cong, refl(h), acc))
        r = _drop_head(acc.right.right, h)
        if r is None:  # h + h = h
            acc = _chain(acc, sl1(h))
        elif r is not acc.right.right:  # h + (h + r) = (h + h) + r = h + r
            acc = _chain(acc, symm(sl3(h, h, r)), sum_cong(sl1(h), refl(r)))
    return acc


def _drop_head(s: Regex, h: Regex) -> Regex | None:
    """``s`` after its first summand if that is ``h`` (None if none is left), else ``s``."""
    if isinstance(s, Sum):
        return s.right if s.left == h else s
    return None if s == h else s


def aci_bridge(x: Regex, y: Regex, normalize: Callable[[Regex], Derivation] = normalization_proof) -> Derivation:
    """``x = y`` at bound 0, for expressions equal up to ACI of + and the
    unit laws: both sides normalized by ``normalize`` (the twin, or the
    :func:`norm` lemma), meeting at their common normal form."""
    if x == y:
        return refl(x)
    dx, dy = normalize(x), normalize(y)
    if dx.right != dy.right:
        raise ProofError(f"{pretty(x)} and {pretty(y)} have different normal forms")
    return _chain(dx, symm(dy))


# ---------------------------------------------------------------------------
# The fundamental decomposition, derived


def _dist_right(e: Regex, g: Regex) -> Derivation:
    """``e;g`` distributed over the sum structure of ``e``, at bound 0."""
    if not isinstance(e, Sum):
        return refl(Seq(e, g))
    return _chain(
        d2(e.left, e.right, g),
        sum_cong(_dist_right(e.left, g), _dist_right(e.right, g)),
    )


def normal_form_proof(e: Regex, alphabet: Alphabet) -> Derivation:
    """Derivation of ``e = fundamental_decomposition(e, alphabet)`` at bound 0."""
    stray = letters(e) - set(alphabet)
    if stray:
        raise ProofError(f"letters {sorted(stray)} of {pretty(e)} missing from the alphabet")
    target = fundamental_decomposition(e, alphabet)
    match e:
        case Zero() | One() | Letter(_):
            # every slot is a;1 or a;0 and the bit is 0 or 1: the unit laws
            # collapse the decomposition back to e
            return symm(normalization_proof(target))
        case Sum(f, g):
            base = sum_cong(normal_form_proof(f, alphabet), normal_form_proof(g, alphabet))
            slot_proofs = [symm(d1(Letter(a), step(f, a), step(g, a))) for a in alphabet]
            bit_proof = normalization_proof(Sum(output_bit(f), output_bit(g)))
            slots = reduce(sum_cong, [*slot_proofs, bit_proof])
            return _chain(base, aci_bridge(base.right, slots.left), slots)
        case Seq(f, g):
            return _seq_normal_form(f, g, alphabet, target)
        case Star(f):
            return _star_normal_form(f, alphabet)
    raise TypeError(f"not a regex: {e!r}")


def _seq_normal_form(f: Regex, g: Regex, alphabet: Alphabet, target: Regex) -> Derivation:
    base = seq_cong(normal_form_proof(f, alphabet), refl(g))
    dist = _dist_right(base.right.left, g)
    reassoc = [symm(s_assoc(Letter(a), step(f, a), g)) for a in alphabet]
    if output(f) == 0:
        tail = zero_s(g)
        shaped = reduce(sum_cong, [*reassoc, tail])
        slot_bridges = []
        for a in alphabet:
            fa_g = Seq(step(f, a), g)
            widen = _chain(
                symm(sl4(fa_g)),
                sum_cong(refl(fa_g), symm(zero_s(step(g, a)))),
            )
            slot_bridges.append(seq_cong(refl(Letter(a)), widen))
        final = reduce(sum_cong, [*slot_bridges, refl(output_bit(Seq(f, g)))])
        out = _chain(base, dist, shaped, final)
    else:
        tail = _chain(one_s(g), normal_form_proof(g, alphabet))
        shaped = reduce(sum_cong, [*reassoc, tail])
        slot_merges = []
        for a in alphabet:
            fa_g = Seq(step(f, a), g)
            ga = step(g, a)
            lift = sum_cong(
                refl(Seq(Letter(a), fa_g)),
                seq_cong(refl(Letter(a)), symm(one_s(ga))),
            )
            merge = symm(d1(Letter(a), fa_g, Seq(One(), ga)))
            slot_merges.append(_chain(lift, merge))
        final = reduce(sum_cong, [*slot_merges, refl(output_bit(g))])
        out = _chain(
            base, dist, shaped, aci_bridge(shaped.right, final.left), final
        )
    assert out.right == target
    return out


def _star_normal_form(f: Regex, alphabet: Alphabet) -> Derivation:
    e = Star(f)
    nf_f = normal_form_proof(f, alphabet)
    if not alphabet:
        # No letters: every language is contained in {empty word}, so the
        # decomposition is just the output bit 1.
        if output(f) == 0:
            return _chain(
                unroll(f),
                sum_cong(seq_cong(nf_f, refl(e)), refl(One())),
                sum_cong(zero_s(e), refl(One())),
                sl2(Zero(), One()),
                sl4(One()),
            )
        to_sum = _chain(nf_f, symm(_chain(sl2(Zero(), One()), sl4(One()))))
        return _chain(
            star_cong(to_sum),
            tight(Zero()),
            _star_normal_form(Zero(), alphabet),
        )
    F = fundamental_decomposition(f, alphabet)
    assert isinstance(F, Sum)
    W = F.left
    if output(f) == 1:
        drop_bit = tight(W)
    else:
        drop_bit = star_cong(sl4(W))
    c1 = _chain(star_cong(nf_f), drop_bit)
    c2 = unroll(W)
    c3 = sum_cong(seq_cong(refl(W), symm(c1)), refl(One()))
    c4 = sum_cong(_dist_right(W, e), refl(One()))
    reassoc = [symm(s_assoc(Letter(a), step(f, a), e)) for a in alphabet]
    c5 = reduce(sum_cong, [*reassoc, refl(One())])
    out = _chain(c1, c2, c3, c4, c5)
    assert out.right == fundamental_decomposition(e, alphabet)
    return out


def expand(cert: Certificate) -> Certificate:
    """``cert`` with each lemma node replaced by its twin's derivation: a
    ``Norm`` node by :func:`normalization_proof`, an ``Unfold`` node by
    :func:`normal_form_proof`.  The result is the rule-by-rule certificate of
    the same proof; a lemma its twin does not derive raises ProofError."""
    done: dict[int, Derivation] = {}
    todo = [cert.root]
    while todo:
        d = todo[-1]
        missing = [p for p in d.premises if id(p) not in done]
        if missing:
            todo += missing
            continue
        todo.pop()
        if id(d) in done:
            continue
        if d.rule is Rule.NORM:
            new = normalization_proof(d.left)
        elif d.rule is Rule.UNFOLD:
            new = normal_form_proof(d.left, tuple(d.meta.alphabet or ""))
        else:
            new = Derivation(d.rule, d.conclusion, tuple(done[id(p)] for p in d.premises), d.meta)
        if new.conclusion != d.conclusion:
            raise ProofError(f"the {d.rule.value} node's twin concludes otherwise")
        done[id(d)] = new
    return Certificate(cert.config, done[id(cert.root)], cert.hypotheses)


# ---------------------------------------------------------------------------
# Prefixing by empty-word-free expressions, and star unrollings


def generalized_prefix(
    premise: Derivation, e: Regex, eps_out: Fraction, cfg: Config
) -> Derivation:
    """From ``f = g`` within eps, derive ``e;f = e;g`` within ``eps_out``.

    Requires ``o(e) = 0`` and ``eps_out >= discount * eps``; the contraction
    of a guarding letter is what pays for the looser bound.  A work list
    takes the guard apart in the order recursion would, so that a long
    sequence guard does not recurse: a task prefixes a premise by a guard,
    or joins the results on top of ``done``.
    """
    done: list[Derivation] = []
    todo: list[tuple[str, Derivation | None, Regex]] = [("prefix", premise, e)]
    while todo:
        task, premise, e = todo.pop()
        if task == "outer":  # prefix the inner result by the left guard
            todo.append(("prefix", done.pop(), e))
            continue
        f, g = premise.left, premise.right
        if task == "sum":
            inner = sl5(*done[-2:])
            done[-2:] = [_chain(d2(e.left, e.right, f), inner, symm(d2(e.left, e.right, g)))]
            continue
        if task == "seq":
            e1, e2 = e.left, e.right
            core = done.pop()
            if output(e1):
                core = seq_cong(refl_at(e1, eps_out), core)
            done.append(_chain(symm(s_assoc(e1, e2, f)), core, s_assoc(e1, e2, g)))
            continue
        if output(e) != 0:
            raise ProofError(f"prefix {pretty(e)} accepts the empty word")
        if eps_out < cfg.discount * premise.eps:
            raise ProofError(
                f"target bound {eps_out} below {cfg.discount} * {premise.eps}"
            )
        match e:
            case Zero():
                done.append(weaken_to(_chain(zero_s(f), symm(zero_s(g))), eps_out))
            case Letter(c):
                done.append(npref(premise, c, cfg, eps_out))
            case Sum(e1, e2):
                todo += [("sum", premise, e), ("prefix", premise, e2), ("prefix", premise, e1)]
            case Seq(e1, e2) if output(e1) == 0 and output(e2) == 0:
                todo += [("seq", premise, e), ("outer", None, e1), ("prefix", premise, e2)]
            case Seq(e1, e2) if output(e1) == 0:
                lifted = seq_cong(refl_at(e2, premise.eps), premise)
                todo += [("seq", premise, e), ("prefix", lifted, e1)]
            case Seq(e1, e2):
                todo += [("seq", premise, e), ("prefix", premise, e2)]
            case _:
                raise ProofError(f"cannot prefix with {pretty(e)}")
    return done[0]


def star_unroll_proof(hyp: Judgement, n: int, cfg: Config) -> Derivation:
    """From the loop hypothesis ``g = e;g + f``, conclude ``g = e*;f``
    within ``discount ** n``, unrolling from depth 0 upward."""
    g, e, f = _split_loop_hypothesis(hyp)
    closed = Seq(Star(e), f)
    if n < 0:
        raise ProofError("unrolling depth must be nonnegative")
    proof = top_rule(g, closed)
    for k in range(1, n + 1):
        gstep = generalized_prefix(proof, e, cfg.discount**k, cfg)
        s5 = sl5(gstep, refl(f))
        c1 = sum_cong(s_assoc(e, Star(e), f), refl(f))
        c2 = sum_cong(refl(Seq(Seq(e, Star(e)), f)), symm(one_s(f)))
        c3 = symm(d2(Seq(e, Star(e)), One(), f))
        c4 = seq_cong(symm(unroll(e)), refl(f))
        proof = _chain(hypothesis(hyp), s5, c1, c2, c3, c4)
    return proof


def salomaa_rule(hyp: Judgement) -> Derivation:
    """The closed solution ``g = e*;f`` at bound 0, as a template node.

    The unrollings of :func:`star_unroll_proof` reach every bound
    ``discount ** n``, and those bounds vanish.  Each unrolling stands on the
    hypothesis alone, so the checker asks for it among the document's
    hypotheses and builds none of them.  The node records the spot indices
    0 to :data:`DEFAULT_SPOT_CHECKS`.
    """
    g, e, f = _split_loop_hypothesis(hyp)
    params = {"g": pretty(g), "e": pretty(e), "f": pretty(f)}
    concl = Judgement(g, Seq(Star(e), f), Fraction(0))
    return cont_template("star_unroll", params, concl, range(DEFAULT_SPOT_CHECKS + 1))


# ---------------------------------------------------------------------------
# Synthesis


@dataclass(frozen=True)
class SynthesisFailure(Exception):
    """The requested bound is below the actual distance."""

    distance: Fraction
    witness: str | None

    def __str__(self) -> str:
        w = "the empty word" if self.witness == "" else repr(self.witness)
        return (
            f"the languages are {self.distance} apart"
            f" (separated by {w}), which exceeds the requested bound"
        )


class _ProofContext:
    """The automaton, root separation and memo tables of one ``synthesize`` call."""

    def __init__(self, e: Regex, f: Regex, cfg: Config, alphabet: Alphabet, cap: int):
        self.left, self.right = e, f
        self.cfg = cfg
        self.alphabet = alphabet
        self.aut = build([e, f], alphabet, cap)
        self.witness = separating_word(self.aut, *self.aut.roots)
        self.root_separation = ExponentValue.of_word(self.witness)
        self._pair_memo: dict[tuple[int, int, int], Derivation] = {}
        self._lemma_memo: dict[tuple[int, int | None], Derivation] = {}

    def _lemma(self, i: int, k: int | None) -> Derivation:
        """State i's decomposition (``k`` None), or its bridge by letter ``k``:
        ``step(states[i], a_k) = successor representative``, both at bound 0."""
        got = self._lemma_memo.get((i, k))
        if got is None:
            e = self.aut.states[i]
            got = unfold(e, self.alphabet) if k is None else norm(step(e, self.alphabet[k]))
            self._lemma_memo[(i, k)] = got
        return got

    def _pair_proof(self, i: int, j: int, n: int) -> Derivation:
        """Relate the representatives of states i and j within
        ``discount ** min(n, separation exponent)``; a work list builds the
        successor pairs' proofs first, so a deep instance does not recurse."""
        if i == j:
            return refl(self.aut.states[i])
        top = (min(i, j), max(i, j), n)
        todo = [top]
        while todo:
            key = todo[-1]
            if key in self._pair_memo:
                todo.pop()
                continue
            missing = [s for s in self._successor_keys(*key) if s not in self._pair_memo]
            if missing:
                todo += missing
            else:
                self._pair_memo[todo.pop()] = self._build_pair_proof(*key)
        got = self._pair_memo[top]
        return symm(got) if i > j else got

    def _successor_keys(self, i: int, j: int, n: int) -> list[tuple[int, int, int]]:
        """Memo keys of the distinct successor pairs one level down (none under Top)."""
        aut = self.aut
        if n == 0 or aut.outputs[i] != aut.outputs[j]:
            return []
        succ = zip(aut.transitions[i], aut.transitions[j])
        return [(min(s, t), max(s, t), n - 1) for s, t in succ if s != t]

    def _build_pair_proof(self, i: int, j: int, n: int) -> Derivation:
        """The proof of one pair, once its successor keys are in the memo."""
        aut = self.aut
        g, h = aut.states[i], aut.states[j]
        if n == 0 or aut.outputs[i] != aut.outputs[j]:
            return top_rule(g, h)
        slots = []
        for k, a in enumerate(self.alphabet):
            bg = self._lemma(i, k)
            bh = self._lemma(j, k)
            sub = self._pair_proof(aut.transitions[i][k], aut.transitions[j][k], n - 1)
            premise = _chain(bg, sub, symm(bh))
            slots.append(npref(premise, a, self.cfg))
        folded = reduce(sl5, [*slots, refl(output_bit(g))])
        return _chain(self._lemma(i, None), folded, symm(self._lemma(j, None)))

    def root_proof(self, n: int) -> Derivation:
        """Relate the two roots within ``discount ** min(n, separation exponent)``."""
        core = self._pair_proof(*self.aut.roots, n)
        return _chain(norm(self.left), core, symm(norm(self.right)))


def synthesize(
    e: Regex,
    f: Regex,
    epsilon: Fraction | None = None,
    cfg: Config | None = None,
    alphabet: Alphabet | None = None,
    cap: int = DEFAULT_STATE_CAP,
) -> Certificate:
    """Produce a checkable certificate of ``e = f`` within ``epsilon``, or
    within the exact distance when ``epsilon`` is None.

    Raises :class:`SynthesisFailure` when ``epsilon`` undercuts the actual
    distance; in all other cases the certificate's bound is ``epsilon``
    itself (a chain of bound-0 rules when ``state_normal`` equates the two,
    else a ``descent`` template, with no spot indices, for distance zero at
    bound zero).  The automaton and memo tables live for this call only.
    """
    cfg = cfg or Config()
    if epsilon is not None:
        epsilon = epsilon if isinstance(epsilon, Fraction) else Fraction(epsilon)
        if epsilon < 0:
            raise ValueError(f"bound must be nonnegative, got {epsilon}")
    if state_normal(e) == state_normal(f):
        return Certificate(cfg, weaken_to(aci_bridge(e, f, norm), epsilon or _ZERO))
    if alphabet is None:
        alphabet = infer_alphabet(e, f)
    ctx = _ProofContext(e, f, cfg, alphabet, cap)
    sep = ctx.root_separation
    if sep.is_zero:
        if not epsilon:
            params = {"left": pretty(e), "right": pretty(f)}
            return Certificate(cfg, cont_template("descent", params, Judgement(e, f, Fraction(0))))
        n = 0
        while cfg.discount**n > epsilon:
            n += 1
        return Certificate(cfg, weaken_to(ctx.root_proof(n), epsilon))
    assert sep.exponent is not None
    dist = sep.value(cfg.discount)
    if epsilon is not None and epsilon < dist:
        raise SynthesisFailure(dist, ctx.witness)
    return Certificate(cfg, weaken_to(ctx.root_proof(sep.exponent), epsilon or dist))
