"""Quantitative derivations: building, checking, and serializing certificates.

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
settles each by recomputing its right side, and :func:`expand` replaces each
by its rule-by-rule derivation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable

from .automaton import DEFAULT_STATE_CAP, StateLimitExceeded, build
from .derivatives import fundamental_decomposition, output, output_bit, step
from .metric import Config, ExponentValue, literal_separation, separating_word
from .syntax import (
    Alphabet,
    Letter,
    One,
    Regex,
    RegexError,
    Seq,
    Star,
    Sum,
    Zero,
    infer_alphabet,
    letters,
    parse,
    pretty,
    state_normal,
    sum_nf,
    _Parser,
    _printer,
)

DEFAULT_SPOT_CHECKS = 8  # salomaa_rule records the spot indices 0 to this
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


def weaken_to(d: Derivation, eps: Fraction) -> Derivation:
    """``d`` itself when the bound already matches, otherwise a Max node."""
    eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    if eps == d.eps:
        return d
    return weaken(d, eps)


def refl_at(e: Regex, eps: Fraction) -> Derivation:
    return weaken_to(refl(e), eps)


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
    by recomputing the normal form; :func:`normalization_proof` derives it."""
    return Derivation(Rule.NORM, Judgement(e, state_normal(e), _ZERO))


def unfold(e: Regex, alphabet: Iterable[str] | None) -> Derivation:
    """The lemma ``e = fundamental_decomposition(e, alphabet)`` at bound 0,
    which the checker settles by recomputing the decomposition;
    :func:`normal_form_proof` derives it.  The alphabet is recorded, and must
    hold distinct letters in order, every letter of ``e`` among them."""
    sigma = None if alphabet is None else "".join(alphabet)
    if sigma is None or list(sigma) != sorted(set(sigma)) or not all("a" <= c <= "z" for c in sigma):
        raise ProofError(f"needs its alphabet as distinct lowercase letters in order, got {sigma!r}")
    stray = letters(e) - set(sigma)
    if stray:
        raise ProofError(f"letters {sorted(stray)} of {pretty(e)} missing from the alphabet")
    concl = Judgement(e, fundamental_decomposition(e, tuple(sigma)), _ZERO)
    return Derivation(Rule.UNFOLD, concl, (), Meta(alphabet=sigma))


def _chain(*parts: Derivation) -> Derivation:
    """Compose by transitivity, skipping every link that just restates one side."""
    kept = [p for p in parts if not (p.left == p.right and p.eps == 0)] or parts[:1]
    acc = kept[-1]
    for p in reversed(kept[:-1]):
        acc = triang(p, acc)
    return acc


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


def to_json(cert: Certificate, indent: int | None = None) -> str:
    """The document as compact JSON, or indented by ``indent`` spaces."""
    separators = (",", ":") if indent is None else None
    return json.dumps(serialize(cert), indent=indent, separators=separators)


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


def read_rational(text: str | int) -> Fraction:
    """``Fraction(text)``, refusing exponent notation: ``1e10000000`` would take
    seconds to expand, into more digits than ``str`` prints."""
    if not (isinstance(text, str) and ("e" in text or "E" in text)):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot read {text!r} as a rational")


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
    if doc.get("version") != 1:
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
# Prefixing by empty-word-free expressions


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


# ---------------------------------------------------------------------------
# Loop hypotheses and star unrollings


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
