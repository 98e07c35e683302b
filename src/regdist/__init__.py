"""Exact behavioural distances between regular expressions, with certificates."""

from .automaton import QuotientAutomaton, StateLimitExceeded, build, product_pairs, to_dot
from .metric import Config, DescentResult, ExponentValue, bisim_closure, check_bisim, distance, kleene_descent, witness
from .syntax import (
    Letter,
    One,
    Regex,
    RegexError,
    Seq,
    Star,
    Sum,
    Zero,
    embed,
    parse,
    pretty,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "DescentResult",
    "ExponentValue",
    "Letter",
    "One",
    "QuotientAutomaton",
    "Regex",
    "RegexError",
    "Seq",
    "Star",
    "StateLimitExceeded",
    "Sum",
    "Zero",
    "bisim_closure",
    "build",
    "check_bisim",
    "distance",
    "embed",
    "kleene_descent",
    "parse",
    "pretty",
    "product_pairs",
    "to_dot",
    "witness",
    "__version__",
]
