"""Quantitative derivations: the rule book, its checker and the certificate format.

A derivation concludes a judgement ``left = right within eps``: the distance
between the two languages is at most ``eps``.  Leaves are axiom instances,
inner nodes apply deduction rules, and a certificate stands on its own.  The
node constructors are the kernel: each states its rule's shape and side
condition once, and the checker validates a node by rebuilding it from its
premises with that same constructor and comparing the results.
Infinitary arguments are packaged as named templates: the document names a
schema and parameters, never a proof.  The checker settles each template by
the one finite side condition its argument rests on.  A ``star_unroll``
template (Salomaa's rule) needs its loop hypothesis ``g = e;g + f``, with
``o(e) = 0``, among the document's hypotheses: every unrolling past depth 0
stands on that hypothesis and on nothing else the document says.  A
``descent`` template needs no word to separate its two sides, by a walk with
literal derivatives (:func:`regdist.metric.literal_separation`).  Two lemma
rules conclude at bound 0 with no premises: ``Norm``, ``e = state_normal(e)``,
and ``Unfold``, ``e = fundamental_decomposition(e, alphabet)``.  The checker
settles each by recomputing its right side.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .automaton import DEFAULT_STATE_CAP, StateLimitExceeded
from .derivatives import fundamental_decomposition, output
from .metric import Config, literal_separation, read_rational
from .syntax import (
    Letter,
    One,
    Regex,
    RegexError,
    Seq,
    Star,
    Sum,
    Zero,
    letters,
    parse,
    pretty,
    state_normal,
    _Parser,
    _printer,
)

MAX_SPOT_INDEX = 4096  # the largest spot index a document may record
_ZERO = Fraction(0)


class Rule(Enum):
    REFL = "Refl"
    SYMM = "Symm"
    TRIANG = "Triang"
    MAX = "Max"
    NEXP = "NExp"
    TOP = "Top"
    NPREF = "NPref"
    SL1 = "SL1"
    SL2 = "SL2"
    SL3 = "SL3"
    SL4 = "SL4"
    SL5 = "SL5"
    ONE_S = "OneS"
    S = "S"
    S1 = "S1"
    ZERO_S = "ZeroS"
    S0 = "S0"
    D1 = "D1"
    D2 = "D2"
    UNROLL = "Unroll"
    TIGHT = "Tight"
    HYPOTHESIS = "Hypothesis"
    CONT_TEMPLATE = "ContTemplate"
    NORM = "Norm"
    UNFOLD = "Unfold"


class ProofError(ValueError):
    """A derivation breaks its rule, or a template schema refuses its parameters."""


class CertificateError(ValueError):
    """A certificate document is malformed."""


@dataclass(frozen=True)
class CheckError(Exception):
    """Why and where a derivation failed to check."""

    rule: str
    path: tuple[int, ...]
    reason: str

    def __str__(self) -> str:
        where = "/".join(str(i) for i in self.path) or "root"
        return f"{self.rule} node at {where}: {self.reason}"


@dataclass(frozen=True)
class Judgement:
    left: Regex
    right: Regex
    eps: Fraction

    def __post_init__(self) -> None:
        if type(self.eps) is not Fraction:  # isinstance goes through ABCMeta
            object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps.numerator < 0:
            raise ProofError(f"negative bound {self.eps}")

    def flipped(self) -> Judgement:
        return Judgement(self.right, self.left, self.eps)


@dataclass(frozen=True)
class Meta:
    """Rule-specific payload; unused fields stay None."""

    midpoint: Regex | None = None
    letter: str | None = None
    schema: str | None = None
    params: tuple[tuple[str, str], ...] = ()
    spot_indices: tuple[int, ...] = ()
    alphabet: str | None = None


_EMPTY_META = Meta()


@dataclass(frozen=True)
class Derivation:
    rule: Rule
    conclusion: Judgement
    premises: tuple[Derivation, ...] = ()
    meta: Meta = _EMPTY_META

    @property
    def left(self) -> Regex:
        return self.conclusion.left

    @property
    def right(self) -> Regex:
        return self.conclusion.right

    @property
    def eps(self) -> Fraction:
        return self.conclusion.eps


# ---------------------------------------------------------------------------
# Node constructors.  Each builds a valid instance or raises ProofError.


def refl(e: Regex) -> Derivation:
    return Derivation(Rule.REFL, Judgement(e, e, _ZERO))


def symm(d: Derivation) -> Derivation:
    return Derivation(Rule.SYMM, d.conclusion.flipped(), (d,))


def triang(d1: Derivation, d2: Derivation) -> Derivation:
    if d1.right != d2.left:
        raise ProofError(f"midpoint mismatch: {pretty(d1.right)} vs {pretty(d2.left)}")
    concl = Judgement(d1.left, d2.right, d1.eps + d2.eps)
    return Derivation(Rule.TRIANG, concl, (d1, d2), Meta(midpoint=d1.right))


def weaken(d: Derivation, eps: Fraction) -> Derivation:
    if not eps > d.eps:
        raise ProofError(f"weakening needs a strictly larger bound: {eps} vs {d.eps}")
    return Derivation(Rule.MAX, Judgement(d.left, d.right, eps), (d,))


def sum_cong(dl: Derivation, dr: Derivation) -> Derivation:
    if dl.eps != dr.eps:
        raise ProofError("congruence premises must share one bound")
    concl = Judgement(Sum(dl.left, dr.left), Sum(dl.right, dr.right), dl.eps)
    return Derivation(Rule.NEXP, concl, (dl, dr))


def seq_cong(dl: Derivation, dr: Derivation) -> Derivation:
    if dl.eps != dr.eps:
        raise ProofError("congruence premises must share one bound")
    concl = Judgement(Seq(dl.left, dr.left), Seq(dl.right, dr.right), dl.eps)
    return Derivation(Rule.NEXP, concl, (dl, dr))


def star_cong(db: Derivation) -> Derivation:
    concl = Judgement(Star(db.left), Star(db.right), db.eps)
    return Derivation(Rule.NEXP, concl, (db,))


def top_rule(e: Regex, f: Regex) -> Derivation:
    return Derivation(Rule.TOP, Judgement(e, f, Fraction(1)))


def npref(d: Derivation, a: str, cfg: Config, eps: Fraction | None = None) -> Derivation:
    if eps is None:
        eps = cfg.discount * d.eps
    if eps < cfg.discount * d.eps:
        raise ProofError(f"prefix bound {eps} below {cfg.discount} * {d.eps}")
    concl = Judgement(Seq(Letter(a), d.left), Seq(Letter(a), d.right), eps)
    return Derivation(Rule.NPREF, concl, (d,), Meta(letter=a))


def sl1(e: Regex) -> Derivation:
    return Derivation(Rule.SL1, Judgement(Sum(e, e), e, _ZERO))


def sl2(e: Regex, f: Regex) -> Derivation:
    return Derivation(Rule.SL2, Judgement(Sum(e, f), Sum(f, e), _ZERO))


def sl3(e: Regex, f: Regex, g: Regex) -> Derivation:
    concl = Judgement(Sum(Sum(e, f), g), Sum(e, Sum(f, g)), _ZERO)
    return Derivation(Rule.SL3, concl)


def sl4(e: Regex) -> Derivation:
    return Derivation(Rule.SL4, Judgement(Sum(e, Zero()), e, _ZERO))


def sl5(d1: Derivation, d2: Derivation) -> Derivation:
    concl = Judgement(
        Sum(d1.left, d2.left), Sum(d1.right, d2.right), max(d1.eps, d2.eps)
    )
    return Derivation(Rule.SL5, concl, (d1, d2))


def one_s(e: Regex) -> Derivation:
    return Derivation(Rule.ONE_S, Judgement(Seq(One(), e), e, _ZERO))


def s_assoc(e: Regex, f: Regex, g: Regex) -> Derivation:
    concl = Judgement(Seq(e, Seq(f, g)), Seq(Seq(e, f), g), _ZERO)
    return Derivation(Rule.S, concl)


def s_one(e: Regex) -> Derivation:
    return Derivation(Rule.S1, Judgement(Seq(e, One()), e, _ZERO))


def zero_s(e: Regex) -> Derivation:
    return Derivation(Rule.ZERO_S, Judgement(Seq(Zero(), e), Zero(), _ZERO))


def s_zero(e: Regex) -> Derivation:
    return Derivation(Rule.S0, Judgement(Seq(e, Zero()), Zero(), _ZERO))


def d1(e: Regex, f: Regex, g: Regex) -> Derivation:
    concl = Judgement(Seq(e, Sum(f, g)), Sum(Seq(e, f), Seq(e, g)), _ZERO)
    return Derivation(Rule.D1, concl)


def d2(e: Regex, f: Regex, g: Regex) -> Derivation:
    concl = Judgement(Seq(Sum(e, f), g), Sum(Seq(e, g), Seq(f, g)), _ZERO)
    return Derivation(Rule.D2, concl)


def unroll(e: Regex) -> Derivation:
    concl = Judgement(Star(e), Sum(Seq(e, Star(e)), One()), _ZERO)
    return Derivation(Rule.UNROLL, concl)


def tight(e: Regex) -> Derivation:
    concl = Judgement(Star(Sum(e, One())), Star(e), _ZERO)
    return Derivation(Rule.TIGHT, concl)


def hypothesis(j: Judgement) -> Derivation:
    return Derivation(Rule.HYPOTHESIS, j)


def cont_template(
    schema: str,
    params: dict[str, str],
    conclusion: Judgement,
    spot_indices: Iterable[int] = (),
) -> Derivation:
    if conclusion.eps != 0:
        raise ProofError("templates conclude zero-bound judgements only")
    meta = Meta(
        schema=schema,
        params=tuple(sorted(params.items())),
        spot_indices=tuple(spot_indices),
    )
    return Derivation(Rule.CONT_TEMPLATE, conclusion, (), meta)


def norm(e: Regex) -> Derivation:
    """The lemma ``e = state_normal(e)`` at bound 0, which the checker settles
    by recomputing the normal form."""
    return Derivation(Rule.NORM, Judgement(e, state_normal(e), _ZERO))


def unfold(e: Regex, alphabet: Iterable[str] | None) -> Derivation:
    """The lemma ``e = fundamental_decomposition(e, alphabet)`` at bound 0,
    which the checker settles by recomputing the decomposition.  The alphabet
    is recorded, and must hold distinct letters in order, every letter of ``e``
    among them."""
    sigma = None if alphabet is None else "".join(alphabet)
    if sigma is None or list(sigma) != sorted(set(sigma)) or not all("a" <= c <= "z" for c in sigma):
        raise ProofError(f"needs its alphabet as distinct lowercase letters in order, got {sigma!r}")
    stray = letters(e) - set(sigma)
    if stray:
        raise ProofError(f"letters {sorted(stray)} of {pretty(e)} missing from the alphabet")
    concl = Judgement(e, fundamental_decomposition(e, tuple(sigma)), _ZERO)
    return Derivation(Rule.UNFOLD, concl, (), Meta(alphabet=sigma))


# ---------------------------------------------------------------------------
# Certificates and their JSON form.  A version-1 document nests each node's
# premises inside it.  The writer makes one dict per distinct node, which the C
# encoder expands under each parent, and the reader folds back into one node.


@dataclass(frozen=True)
class Certificate:
    config: Config
    root: Derivation
    hypotheses: tuple[Judgement, ...] = ()


def serialize(cert: Certificate) -> dict:
    """The version-1 document of ``cert``; a node that recurs in the proof
    DAG is one dict, held by each of its parents."""
    show = _printer()

    def judgement(j: Judgement) -> dict:
        return {"left": show(j.left), "right": show(j.right), "eps": str(j.eps)}

    nodes: dict[int, tuple[Derivation, dict]] = {}
    todo = [cert.root]
    while todo:
        d = todo.pop()
        if id(d) in nodes:
            continue
        m, meta = d.meta, {}
        if m.midpoint is not None:
            meta["midpoint"] = show(m.midpoint)
        if m.letter is not None:
            meta["letter"] = m.letter
        if m.schema is not None:
            meta.update(schema=m.schema, params=dict(m.params), spot_indices=list(m.spot_indices))
        if m.alphabet is not None:
            meta["alphabet"] = m.alphabet
        out = {"rule": d.rule.value, "conclusion": judgement(d.conclusion), "premises": [], "meta": meta}
        nodes[id(d)] = (d, out)
        todo += d.premises
    for d, out in nodes.values():
        out["premises"] = [nodes[id(p)][1] for p in d.premises]
    return {
        "version": 1,
        "lambda": str(cert.config.discount),
        "hypotheses": [judgement(j) for j in cert.hypotheses],
        "root": nodes[id(cert.root)][1],
    }


def to_json(cert: Certificate) -> str:
    """The document as compact JSON."""
    return json.dumps(serialize(cert), separators=(",", ":"))


# A node's path from the root: ``(index, parent's path)`` links ending in ``()``.
_Path = tuple


def _steps(path: _Path) -> tuple[int, ...]:
    steps = []
    while path:
        i, path = path
        steps.append(i)
    return tuple(reversed(steps))


def _where(path: _Path) -> str:
    return "/".join(["root", *map(str, _steps(path))])


def _parse_expr(text: object, what: Callable[[], str], parsed: dict[str, Regex]) -> Regex:
    """Parse ``text``, sharing one object among equal strings in ``parsed``."""
    if not isinstance(text, str):
        raise CertificateError(f"{what()} must be a string, got {type(text).__name__}")
    got = parsed.get(text)
    if got is None:
        try:
            got = parsed[text] = _Parser(text, None, parsed).parse()
        except RegexError as exc:
            raise CertificateError(f"bad {what()}: {exc}") from exc
    return got


_fraction = lru_cache(maxsize=1024)(read_rational)  # a few bound strings recur in every document


def _parse_eps(text: object, what: Callable[[], str]) -> Fraction:
    if not isinstance(text, (str, int)) or isinstance(text, bool):
        raise CertificateError(f"{what()} must be a string, got {type(text).__name__}")
    try:
        value = _fraction(text)
    except ValueError as exc:
        raise CertificateError(f"bad {what()}: {text!r}") from exc
    if value < 0:
        raise CertificateError(f"negative {what()}: {text!r}")
    return value


def _judgement_from_dict(d: object, what: Callable[[], str], parsed: dict[str, Regex]) -> Judgement:
    if not isinstance(d, dict):
        raise CertificateError(f"{what()} must be an object")
    missing = {"left", "right", "eps"} - d.keys()
    if missing:
        raise CertificateError(f"{what()} lacks {sorted(missing)}")
    return Judgement(
        _parse_expr(d["left"], lambda: f"{what()} left side", parsed),
        _parse_expr(d["right"], lambda: f"{what()} right side", parsed),
        _parse_eps(d["eps"], lambda: f"{what()} bound"),
    )


_RULE_TAGS = {r.value: r for r in Rule}


def _read_nodes(root: object, parsed: dict[str, Regex]) -> Derivation:
    """The proof DAG of a version-1 root node, by one work list that validates
    an occurrence before its premises and its meta after, as recursion would.
    An occurrence repeating an earlier one's fields and premises is that node."""
    memo: dict[tuple | None, Derivation] = {}
    done: list[Derivation] = []  # read nodes that their parent has not taken yet
    todo: list[tuple] = [(root, ())]
    while todo:
        d, path, *rest = todo.pop()
        if not rest:  # entering an occurrence
            if not isinstance(d, dict):
                raise CertificateError(f"node {_where(path)} must be an object")
            tag, c, ps = d.get("rule"), d.get("conclusion"), d.get("premises", [])
            rule = _RULE_TAGS.get(tag) if isinstance(tag, str) else None
            if rule is None:
                raise CertificateError(f"node {_where(path)}: unknown rule tag {tag!r}")
            concl = _judgement_from_dict(c, lambda: f"node {_where(path)} conclusion", parsed)
            if not isinstance(ps, list):
                raise CertificateError(f"node {_where(path)}: premises must be a list")
            todo += [(d, path, rule, (tag, c["left"], c["right"], c["eps"]), concl, len(ps))]
            todo += [(ps[i], (i, path)) for i in range(len(ps) - 1, -1, -1)]
            continue
        rule, key, concl, n = rest
        premises = tuple(done[len(done) - n :])
        del done[len(done) - n :]
        meta = d.get("meta", {})
        if not isinstance(meta, dict):
            raise CertificateError(f"node {_where(path)}: meta must be an object")
        try:
            key = (*key, *meta.items(), *map(id, premises))
            node = memo.get(key)
        except TypeError:  # a list or an object in meta: read without sharing
            key = node = None
        if node is None:
            node = Derivation(rule, concl, premises, _meta(rule, meta, lambda: f"node {_where(path)}", parsed))
            memo[key] = node  # under None when not shared, where no lookup goes
        done.append(node)
    return done[0]


def _meta(rule: Rule, raw: dict, at: Callable[[], str], parsed: dict[str, Regex]) -> Meta:
    midpoint, letter = None, raw.get("letter")
    if "midpoint" in raw:
        midpoint = _parse_expr(raw["midpoint"], lambda: f"{at()} midpoint", parsed)
    if "letter" in raw and not (isinstance(letter, str) and len(letter) == 1):
        raise CertificateError(f"{at()}: letter must be a single character")
    if rule is Rule.TRIANG and midpoint is None:
        raise CertificateError(f"{at()}: transitivity needs its midpoint recorded")
    if rule is Rule.UNFOLD:  # the checker refuses a missing or malformed alphabet
        sigma = raw.get("alphabet")
        return Meta(midpoint, letter, alphabet=sigma if isinstance(sigma, str) else None)
    if rule is not Rule.CONT_TEMPLATE:
        return Meta(midpoint, letter) if midpoint or letter else _EMPTY_META
    schema, params, spots = raw.get("schema"), raw.get("params", {}), raw.get("spot_indices", [])
    if not isinstance(schema, str):
        raise CertificateError(f"{at()}: template needs a schema name")
    if not isinstance(params, dict) or not all(isinstance(x, str) for x in (*params, *params.values())):
        raise CertificateError(f"{at()}: template params must map strings to strings")
    if not isinstance(spots, list) or not all(type(i) is int and i >= 0 for i in spots):
        raise CertificateError(f"{at()}: spot_indices must be nonnegative integers")
    return Meta(midpoint, letter, schema, tuple(sorted(params.items())), tuple(spots))


def deserialize(doc: object) -> Certificate:
    """A version-1 document's certificate; a repeated subtree is one node."""
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != 1:  # not True, not 1.0
        raise CertificateError(f"unsupported certificate version {doc.get('version')!r}")
    lam = _parse_eps(doc.get("lambda"), lambda: "lambda")
    try:
        cfg = Config(discount=lam)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
    raw_hyps = doc.get("hypotheses", [])
    if not isinstance(raw_hyps, list):
        raise CertificateError("hypotheses must be a list")
    parsed: dict[str, Regex] = {}
    hyps = tuple(
        _judgement_from_dict(h, lambda: f"hypothesis {i}", parsed) for i, h in enumerate(raw_hyps)
    )
    if "root" not in doc:
        raise CertificateError("certificate lacks a root derivation")
    return Certificate(config=cfg, root=_read_nodes(doc["root"], parsed), hypotheses=hyps)


def from_json(text: str) -> Certificate:
    """:func:`deserialize` of a JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise CertificateError(f"not valid JSON: a number of more than {sys.get_int_max_str_digits()} digits") from exc
    return deserialize(doc)


# ---------------------------------------------------------------------------
# Checking


def _fail(rule: Rule, path: _Path, reason: str) -> CheckError:
    return CheckError(rule.value, _steps(path), reason)


# Each axiom rebuilt from the pattern variables read off its left side.
_AXIOMS: dict[Rule, Callable[[Regex], Derivation]] = {
    Rule.SL1: lambda l: sl1(l.left),
    Rule.SL2: lambda l: sl2(l.left, l.right),
    Rule.SL3: lambda l: sl3(l.left.left, l.left.right, l.right),
    Rule.SL4: lambda l: sl4(l.left),
    Rule.ONE_S: lambda l: one_s(l.right),
    Rule.S: lambda l: s_assoc(l.left, l.right.left, l.right.right),
    Rule.S1: lambda l: s_one(l.left),
    Rule.ZERO_S: lambda l: zero_s(l.right),
    Rule.S0: lambda l: s_zero(l.left),
    Rule.D1: lambda l: d1(l.left, l.right.left, l.right.right),
    Rule.D2: lambda l: d2(l.left.left, l.left.right, l.right),
    Rule.UNROLL: lambda l: unroll(l.body),
    Rule.TIGHT: lambda l: tight(l.body.left),
}


def _replay(d: Derivation, cfg: Config) -> Derivation:
    """``d`` rebuilt from its premises by its rule's own constructor.

    Raises ProofError when the rule does not apply to the premises.
    """
    ps = d.premises
    match d.rule, d.left, len(ps):
        case Rule.REFL, _, 0:
            return refl(d.left)
        case Rule.SYMM, _, 1:
            return symm(*ps)
        case Rule.TRIANG, _, 2:
            return triang(*ps)
        case Rule.MAX, _, 1:
            return weaken(*ps, d.eps)
        case Rule.SL5, _, 2:
            return sl5(*ps)
        case Rule.TOP, _, 0:
            return top_rule(d.left, d.right)
        case Rule.NPREF, _, 1:
            return npref(*ps, d.meta.letter, cfg, d.eps)
        case Rule.NEXP, Sum(), 2:
            return sum_cong(*ps)
        case Rule.NEXP, Seq(), 2:
            return seq_cong(*ps)
        case Rule.NEXP, Star(), 1:
            return star_cong(*ps)
        case Rule.NORM, _, 0:
            return norm(d.left)
        case Rule.UNFOLD, _, 0:
            return unfold(d.left, d.meta.alphabet)
        case rule, left, 0 if rule in _AXIOMS:
            try:
                return _AXIOMS[rule](left)
            except AttributeError:  # a pattern variable is missing
                raise ProofError(f"left side {pretty(left)} does not fit the axiom") from None
    raise ProofError(f"wrong number of premises ({len(ps)})")


def _check_node(
    d: Derivation,
    path: _Path,
    cfg: Config,
    hyps: frozenset[Judgement],
) -> CheckError | None:
    """Local validity of one node, given its premises' conclusions: the node
    must be what its rule's constructor rebuilds from those premises."""
    j = d.conclusion
    match d.rule:
        case Rule.HYPOTHESIS:
            if d.premises:
                return _fail(d.rule, path, "takes no premises")
            if j not in hyps:
                return _fail(d.rule, path, "judgement is not among the hypotheses")
            return None
        case Rule.CONT_TEMPLATE:
            if d.premises:
                return _fail(d.rule, path, "takes no premises")
            if j.eps != 0:
                return _fail(d.rule, path, "templates conclude at bound 0")
            schema = TEMPLATE_SCHEMAS.get(d.meta.schema)
            if schema is None:
                return _fail(d.rule, path, f"unknown schema {d.meta.schema!r}")
            deepest = max(d.meta.spot_indices, default=0)
            if deepest > MAX_SPOT_INDEX:
                return _fail(d.rule, path, f"spot index {deepest} is over the budget of {MAX_SPOT_INDEX}")
            try:
                schema(dict(d.meta.params), j, hyps)
            except (ProofError, RegexError, StateLimitExceeded) as exc:
                return _fail(d.rule, path, f"schema {d.meta.schema!r} refused: {exc}")
            return None
        case Rule.NEXP if not d.premises and isinstance(j.left, (Zero, One, Letter)):
            return None if j.left == j.right else _fail(d.rule, path, "constant sides differ")
    try:
        want = _replay(d, cfg)
    except ProofError as exc:
        return _fail(d.rule, path, str(exc))
    if (want.left, want.right) != (j.left, j.right):
        return _fail(d.rule, path, f"sides do not fit: {pretty(j.left)} vs {pretty(j.right)}")
    if want.eps != j.eps:
        return _fail(d.rule, path, f"bound {j.eps} is not {want.eps}")
    if d.rule is Rule.TRIANG and want.meta.midpoint != d.meta.midpoint:
        return _fail(d.rule, path, "recorded midpoint is not the premises' meeting point")
    return None


def diagnose(
    root: Derivation,
    cfg: Config,
    hypotheses: Iterable[Judgement] = (),
    counts: dict[str, int] | None = None,
) -> CheckError | None:
    """Check every node; None when the derivation is valid, else the first
    failure found with its location.

    Each distinct node is checked once.  A template node is settled by its
    schema's side condition (see the module docstring) and builds no instance,
    a lemma node by recomputing its right side.  ``counts``, when given,
    receives ``nodes``, the distinct nodes checked, and ``lemmas``, how many
    of them are ``Norm`` or ``Unfold``.
    """
    hyps = frozenset(hypotheses)
    seen: set[int] = set()
    lemmas = 0
    err = None
    stack: list[tuple[Derivation, _Path]] = [(root, ())]
    while stack and err is None:
        d, path = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        lemmas += d.rule is Rule.NORM or d.rule is Rule.UNFOLD
        err = _check_node(d, path, cfg, hyps)
        for i, p in enumerate(d.premises):
            stack.append((p, (i, path)))
    if counts is not None:
        counts.update(nodes=len(seen), lemmas=lemmas)
    return err


def check_certificate(cert: Certificate) -> bool:
    return diagnose(cert.root, cert.config, cert.hypotheses) is None


def diagnose_certificate(cert: Certificate, counts: dict[str, int] | None = None) -> CheckError | None:
    return diagnose(cert.root, cert.config, cert.hypotheses, counts)


def _split_loop_hypothesis(hyp: Judgement) -> tuple[Regex, Regex, Regex]:
    """Destructure ``g = e;g + f`` (bound 0, o(e) = 0) into (g, e, f)."""
    if hyp.eps != 0:
        raise ProofError("loop hypotheses carry bound 0")
    rhs = hyp.right
    if not (isinstance(rhs, Sum) and isinstance(rhs.left, Seq)):
        raise ProofError(f"hypothesis right side {pretty(rhs)} is not e;g + f")
    e = rhs.left.left
    if rhs.left.right != hyp.left:
        raise ProofError("loop body does not recur on the left side")
    if output(e) != 0:
        raise ProofError(f"loop head {pretty(e)} accepts the empty word")
    return hyp.left, e, rhs.right


def _template_params(params: dict[str, str], *names: str) -> list[Regex]:
    try:
        return [parse(params[name]) for name in names]
    except KeyError as exc:
        raise ProofError(f"missing parameter {exc}") from exc


def _star_unroll_template(params: dict[str, str], conclusion: Judgement, hyps: frozenset[Judgement]) -> None:
    """Settle ``g = e*;f`` at bound 0 by Salomaa's rule: the loop hypothesis
    ``g = e;g + f``, with ``o(e) = 0``, must be among the hypotheses."""
    g, e, f = _template_params(params, "g", "e", "f")
    hyp = Judgement(g, Sum(Seq(e, g), f), Fraction(0))
    _split_loop_hypothesis(hyp)
    if conclusion != Judgement(g, Seq(Star(e), f), Fraction(0)):
        raise ProofError("conclusion does not match the parameters")
    if hyp not in hyps:
        raise ProofError(f"the loop hypothesis {pretty(g)} = {pretty(hyp.right)} is not among the hypotheses")


def _descent_template(params: dict[str, str], conclusion: Judgement, hyps: frozenset[Judgement]) -> None:
    """Settle ``left = right within 0`` by the continuity rule.  Its premises,
    ``left = right within discount ** n`` for every n, all hold just when no
    word separates the two sides, found with literal derivatives."""
    left, right = _template_params(params, "left", "right")
    if conclusion != Judgement(left, right, Fraction(0)):
        raise ProofError("conclusion does not match the parameters")
    if literal_separation(left, right, cap=DEFAULT_STATE_CAP) is not None:
        raise ProofError("the languages are apart; no descent to 0 exists")


# Each schema refuses its parameters, conclusion and hypotheses by raising, or
# settles its conclusion and returns.
TEMPLATE_SCHEMAS: dict[str, Callable[[dict[str, str], Judgement, frozenset[Judgement]], None]] = {
    "star_unroll": _star_unroll_template,
    "descent": _descent_template,
}
