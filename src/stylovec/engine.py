"""Metric evaluation engine.

A metric is a named rule evaluated against one document. Rules receive
a :class:`DocContext` (document plus shared indexes) and return the
token references they captured, optionally with an explicit raw count.
The engine normalizes every raw count by the document token count, so
each value lands in [0, 1] and vectors are comparable across documents
of different lengths.
"""

from __future__ import annotations

import hashlib
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .model import Document, Token

log = logging.getLogger("stylovec")

TokenRef = tuple[int, int]

METRIC_ID_RE = re.compile(r"^[A-Z0-9_]+$")


class DocContext:
    """Per-document evaluation context with shared indexes.

    Built once per document and handed to every rule, so repeated
    scans (by UPOS, by lemma) and pack-level analyses (verb groups)
    are computed at most once. Every evaluation reads ``upos_index``
    and ``ref_of``, so they are built up front in one pass over
    ``refs``; the other indexes are built from ``refs`` on first use.
    """

    def __init__(self, doc: Document) -> None:
        self.doc = doc
        self._memo: dict[str, object] = {}
        refs: list[tuple[int, int, Token]] = doc.refs()
        upos_index: dict[str, list[TokenRef]] = {}
        # every (sentence, token) ref of the document, keyed by itself
        ref_of: dict[TokenRef, TokenRef] = {}
        for si, ti, tok in refs:
            ref = (si, ti)
            ref_of[ref] = ref
            upos_index.setdefault(tok.upos, []).append(ref)
        self.refs, self.upos_index, self.ref_of = refs, upos_index, ref_of

    @cached_property
    def lemma_index(self) -> dict[str, list[TokenRef]]:
        index: dict[str, list[TokenRef]] = {}
        for si, ti, tok in self.refs:
            index.setdefault(tok.lemma.casefold(), []).append((si, ti))
        return index

    @cached_property
    def form_index(self) -> dict[str, list[TokenRef]]:
        index: dict[str, list[TokenRef]] = {}
        for si, ti, tok in self.refs:
            index.setdefault(tok.form.casefold(), []).append((si, ti))
        return index

    @cached_property
    def surface_index(self) -> dict[str, list[TokenRef]]:
        """Refs by form as written, case preserved."""
        index: dict[str, list[TokenRef]] = {}
        for si, ti, tok in self.refs:
            index.setdefault(tok.form, []).append((si, ti))
        return index

    @cached_property
    def word_index(self) -> dict[str, list[TokenRef]]:
        """Refs of non-punctuation tokens by form as written."""
        index: dict[str, list[TokenRef]] = {}
        for si, ti, tok in self.non_punct_refs:
            index.setdefault(tok.form, []).append((si, ti))
        return index

    @cached_property
    def non_punct_refs(self) -> list[tuple[int, int, Token]]:
        return [(si, ti, tok) for si, ti, tok in self.refs if not tok.is_punct]

    def memo(self, key: str, factory: Callable[[], object]) -> object:
        """Compute-once store for pack-level analyses shared between metrics."""
        if key not in self._memo:
            self._memo[key] = factory()
        return self._memo[key]


Rule = Callable[[DocContext], "RuleOutput"]
RuleOutput = tuple[Iterable[TokenRef], float | None]


@dataclass(frozen=True, slots=True)
class MetricDescriptor:
    """Identity and metadata of one metric.

    ``local`` marks metrics whose raw count is exactly the number of
    captured tokens; ``scale_invariant`` marks metrics unaffected by
    whole-document duplication (corpus-relative statistics such as
    type counts are not).
    """

    id: str
    category: str
    language: str
    description: str
    name_en: str = ""
    local: bool = True
    scale_invariant: bool = True

    def __post_init__(self) -> None:
        if not METRIC_ID_RE.match(self.id):
            raise ValueError(f"metric id {self.id!r} must match [A-Z0-9_]+")


@dataclass(frozen=True, slots=True)
class Metric:
    descriptor: MetricDescriptor
    rule: Rule

    @property
    def id(self) -> str:
        return self.descriptor.id


@dataclass(frozen=True, slots=True)
class MetricResult:
    metric_id: str
    value: float
    raw_count: float
    captured: tuple[TokenRef, ...]
    error: str | None = None
    degenerate: bool = False


def _evaluate(metric: Metric, ctx: DocContext, captures: bool) -> tuple:
    """Run one rule: (value, raw_count, captured, error, degenerate). The value is the
    raw count over the token count, clamped to 1; no other code normalizes. Refs always
    become a set and are checked, so a failing ref generator or a ref that is not
    the ``(sentence, token)`` pair of a token of the document is an error whether
    or not ``captures`` asks to keep the refs; kept refs are the document's own."""
    try:
        refs, raw = metric.rule(ctx)
        unique = set(refs)
        known = ctx.ref_of
        bad = unique.difference(known)
        if bad:
            raise ValueError(f"ref {min(map(repr, bad))} is not a (sentence, token) pair of the document")
        captured = tuple(sorted(map(known.__getitem__, unique))) if captures else ()
        if raw is None:
            raw = float(len(unique))
        if raw < 0:
            raise ValueError(f"negative raw count {raw}")
        if not math.isfinite(raw):
            raise ValueError(f"raw count {raw} is not finite")
    except Exception as exc:
        log.warning("metric %s failed: %s", metric.id, exc)
        return 0.0, 0.0, (), str(exc) or type(exc).__name__, False
    total = ctx.doc.token_count
    if total == 0:
        return 0.0, float(raw), captured, None, True
    value = raw / total
    if value > 1.0:
        log.warning("ratio %s/%s exceeds 1, clamping", raw, total)
        value = 1.0
    return value, float(raw), captured, None, False


def evaluate_metric(metric: Metric, ctx: DocContext) -> MetricResult:
    """Run one rule with captures; failures become an error result with value 0."""
    return MetricResult(metric.id, *_evaluate(metric, ctx, True))


class Registry:
    """Ordered, unique-id collection of metrics."""

    def __init__(self, metrics: Iterable[Metric] = ()):
        self._metrics: dict[str, Metric] = {}
        for metric in metrics:
            self.register(metric)

    def register(self, metric: Metric) -> None:
        if metric.id in self._metrics:
            raise ValueError(f"duplicate metric id {metric.id!r}")
        self._metrics[metric.id] = metric

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def __contains__(self, metric_id: str) -> bool:
        return metric_id in self._metrics

    def get(self, metric_id: str) -> Metric:
        return self._metrics[metric_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(self._metrics)

    def categories(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for metric in self:
            seen.setdefault(metric.descriptor.category)
        return tuple(seen)

    def subset(self, categories: Sequence[str] | None = None,
               ids: Sequence[str] | None = None) -> "Registry":
        """Filtered copy preserving registration order.

        Unknown category or metric names raise KeyError; a metric is kept
        if it matches either filter, or both filters are unset.
        """
        if categories:
            known = set(self.categories())
            bad = [c for c in categories if c not in known]
            if bad:
                raise KeyError(f"unknown categories: {', '.join(sorted(bad))}")
        if ids:
            bad = [i for i in ids if i not in self._metrics]
            if bad:
                raise KeyError(f"unknown metric ids: {', '.join(sorted(bad))}")
        if not categories and not ids:
            return Registry(self)
        cats = set(categories or ())
        wanted = set(ids or ())
        picked = [m for m in self
                  if m.descriptor.category in cats or m.id in wanted]
        return Registry(picked)

    @property
    def schema_hash(self) -> str:
        return schema_hash(self.ids())


def schema_hash(metric_ids: Sequence[str]) -> str:
    digest = hashlib.sha256("\n".join(metric_ids).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class StyloVector:
    """Feature vector of one document as columns in registry order. ``flags`` holds
    ``(index, error, degenerate)`` for each metric that raised or met an empty document;
    ``captured`` holds the refs of each metric, or ``None`` without captures."""

    doc_id: str
    metric_ids: tuple[str, ...]
    values: tuple[float, ...]
    raw_counts: tuple[float, ...]
    flags: tuple[tuple[int, str | None, bool], ...] = ()
    captured: tuple[tuple[TokenRef, ...], ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.metric_ids)
        for name in ("values", "raw_counts", "captured"):
            column = getattr(self, name)
            if column is not None and len(column) != n:
                raise ValueError(f"metric_ids and {name} length mismatch")
        for i, _, _ in self.flags:
            if not 0 <= i < n:
                raise ValueError(f"flag index {i} outside the vector")

    @property
    def results(self) -> tuple[MetricResult, ...]:
        """One result per metric, built on demand; no captures gives ``()`` each."""
        captured = self.captured or ((),) * len(self)
        flags = {i: rest for i, *rest in self.flags}
        return tuple(MetricResult(*cells, *flags.get(i, ())) for i, cells in
                     enumerate(zip(self.metric_ids, self.values, self.raw_counts, captured)))

    @property
    def schema_hash(self) -> str:
        return schema_hash(self.metric_ids)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.metric_ids, self.values))

    def __len__(self) -> int:
        return len(self.metric_ids)


def evaluate_all(registry: Registry, doc: Document, captures: bool = True) -> StyloVector:
    """Evaluate every registered metric against one document, sharing a
    single context so indexes are built once; ``captures=False`` skips
    sorting and keeping the refs."""
    if len(registry) == 0:
        raise ValueError("empty registry")
    ctx = DocContext(doc)
    values, raw_counts, captured, errors, degenerate = zip(
        *[_evaluate(metric, ctx, captures) for metric in registry])
    flags = tuple((i, error, degen) for i, (error, degen) in enumerate(zip(errors, degenerate))
                  if error or degen)
    return StyloVector(doc.doc_id, registry.ids(), values, raw_counts, flags,
                       captured if captures else None)
