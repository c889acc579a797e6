"""Stylometric feature vectors from CoNLL-U annotated text.

Parse dependency-annotated documents, run a per-language registry of
interpretable metrics over them, and get back fixed-length vectors in
which every value is a count normalized by document length.
"""

from __future__ import annotations

from .conllu import ParseError, parse_conllu, read_document, to_conllu
from .engine import (
    DocContext,
    Metric,
    MetricDescriptor,
    MetricResult,
    Registry,
    StyloVector,
    evaluate_all,
    evaluate_metric,
    schema_hash,
)
from .lexicons import AffectiveNorms, Lexicon, LexiconError, load_lexicon, load_norms
from .model import Document, ModelError, MultiwordRange, Sentence, Token
from .packs import PackError, PackResources, load_pack, registry_for

__version__ = "0.1.0"

__all__ = [
    "AffectiveNorms",
    "DocContext",
    "Document",
    "LexiconError",
    "Lexicon",
    "Metric",
    "MetricDescriptor",
    "MetricResult",
    "ModelError",
    "MultiwordRange",
    "PackError",
    "PackResources",
    "ParseError",
    "Registry",
    "Sentence",
    "StyloVector",
    "Token",
    "evaluate_all",
    "evaluate_metric",
    "load_lexicon",
    "load_norms",
    "load_pack",
    "parse_conllu",
    "read_document",
    "registry_for",
    "schema_hash",
    "to_conllu",
    "__version__",
]
