"""Exact behavioural distances between regular expressions, with certificates."""

from .automaton import StateLimitExceeded, build, product_pairs, to_dot
from .metric import Config, DescentResult, ExponentValue, distance, kleene_descent, literal_separation, witness
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
    "Regex",
    "RegexError",
    "Seq",
    "Star",
    "StateLimitExceeded",
    "Sum",
    "Zero",
    "build",
    "distance",
    "embed",
    "kleene_descent",
    "literal_separation",
    "parse",
    "pretty",
    "product_pairs",
    "to_dot",
    "witness",
    "__version__",
]
