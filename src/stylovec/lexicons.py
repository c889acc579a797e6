"""Dictionary resources: word lists, signed sentiment lexicons, and
affective norms.

Lexicon files hold one case-folded entry per line with ``#`` comments
and an optional tab-separated signed weight. Matching modes: exact
lemma, exact form, form prefix with a full-form exception list, and
multi-word phrase (consecutive forms inside one sentence, longest
first, greedy left-to-right, non-overlapping).

Norms files are tab-separated: a ``lemma`` column plus one column per
scored dimension, the header cell carrying ``name:mean``; metrics count
lemmas scoring strictly above (or at most) the declared mean. As in a
lexicon file, a line that is blank or whose stripped text starts with
``#`` is skipped, and each cell is stripped (the line is not, so a
trailing tab is still an extra column).
Weights, means and scores must be finite numbers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .model import Sentence
from .universal import key_incidence, sentence_refs

log = logging.getLogger("stylovec")

MODES = ("lemma_exact", "form_exact", "prefix", "phrase")


class LexiconError(ValueError):
    """Unusable lexicon or norms file."""


@dataclass(frozen=True)
class Lexicon:
    name: str
    mode: str
    entries: frozenset[str]
    exceptions: frozenset[str] = frozenset()
    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise LexiconError(f"{self.name}: unknown mode {self.mode!r}")
        if not self.entries:
            raise LexiconError(f"{self.name}: empty lexicon")

    @cached_property
    def phrase_index(self) -> dict[str, list[tuple[str, ...]]]:
        """Entries split into words, keyed by first word, longest first."""
        index: dict[str, list[tuple[str, ...]]] = {}
        for phrase in sorted((tuple(e.split()) for e in self.entries), key=len, reverse=True):
            index.setdefault(phrase[0], []).append(phrase)
        return index


def read_text(path: Path) -> str:
    """The UTF-8 text of a pack data file; failing to read or decode it
    is a :class:`LexiconError` naming the path."""
    try:
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise LexiconError(f"{path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise LexiconError(f"{path}: not valid UTF-8: {exc}") from None
    except OSError as exc:
        raise LexiconError(f"{path}: cannot read: {exc}") from None


def read_lines(path: Path) -> list[str]:
    """The lines of a pack data file. As in a CoNLL-U file, ``\\r\\n`` folds
    to ``\\n`` and a line ends only at ``\\n``: ``str.splitlines`` would also
    break inside an entry at U+0085, U+2028, form feeds and the like."""
    return read_text(path).replace("\r\n", "\n").split("\n")


def _finite(text: str) -> float:
    """``float(text)``, with ``nan`` and the infinities a ValueError too:
    ``nan`` falls on neither side of zero or of a mean, and no rating
    scale reaches infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _read_entries(path: Path) -> list[tuple[int, str, float | None]]:
    """``(line number, entry, weight)`` for every entry line of a lexicon file."""
    out: list[tuple[int, str, float | None]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, rest = line.partition("\t")
        weight = None
        if rest:
            try:
                weight = _finite(rest.strip())
            except ValueError:
                raise LexiconError(f"{path}:{lineno}: bad weight {rest.strip()!r}") from None
        out.append((lineno, " ".join(entry.casefold().split()), weight))
    return out


def load_lexicon(path: str | Path, mode: str, name: str | None = None,
                 exceptions_path: str | Path | None = None) -> Lexicon:
    """Load a lexicon file; duplicates are dropped with a warning and
    an entry-free file is an error."""
    path = Path(path)
    entries: dict[str, float | None] = {}
    for lineno, entry, weight in _read_entries(path):
        if entry in entries:
            log.warning("%s:%d: duplicate entry %r ignored", path, lineno, entry)
            continue
        entries[entry] = weight
    exceptions: frozenset[str] = frozenset()
    if exceptions_path is not None:
        exceptions = frozenset(e for _, e, _ in _read_entries(Path(exceptions_path)))
    return Lexicon(
        name=name or path.stem,
        mode=mode,
        entries=frozenset(entries),
        exceptions=exceptions,
        weights={e: w for e, w in entries.items() if w is not None},
    )


def lexicon_incidence(lexicon: Lexicon):
    """Rule capturing the tokens the lexicon matches under its mode."""
    if lexicon.mode == "prefix":
        prefixes = tuple(lexicon.entries)
        return key_incidence("form_index", lambda form: form not in lexicon.exceptions
                             and form.startswith(prefixes))
    if lexicon.mode == "phrase":
        index = lexicon.phrase_index
        return sentence_refs(lambda sent: phrase_hits(sent, index))
    return key_incidence("lemma_index" if lexicon.mode == "lemma_exact" else "form_index",
                         lexicon.entries.__contains__)


def phrase_hits(sent: Sentence, index: dict[str, list[tuple[str, ...]]]) -> list[int]:
    """Token indices of the phrases of ``index`` (case-folded words keyed by
    first word, longest first) in ``sent``: left to right, the longest phrase
    starting at a token wins, and matches do not overlap."""
    forms = [t.form.casefold() for t in sent.tokens]
    hits: list[int] = []
    ti = 0
    n = len(forms)
    while ti < n:
        for phrase in index.get(forms[ti], ()):
            k = len(phrase)
            if tuple(forms[ti:ti + k]) == phrase:
                hits.extend(range(ti, ti + k))
                ti += k
                break
        else:
            ti += 1
    return hits


def sentiment_incidence(lexicon: Lexicon, sign: str):
    """Share of tokens hitting entries with weight > 0 (``positive``) or
    weight < 0 (``negative``); zero-weight entries count in neither."""
    if sign not in ("positive", "negative"):
        raise ValueError(f"unknown sign {sign!r}")
    if lexicon.mode not in ("lemma_exact", "form_exact"):
        raise LexiconError(f"{lexicon.name}: sentiment needs an exact-match mode")
    missing = lexicon.entries - set(lexicon.weights)
    if missing:
        raise LexiconError(f"{lexicon.name}: unweighted entries, e.g. {sorted(missing)[0]!r}")
    hits = frozenset(e for e, w in lexicon.weights.items()
                     if (w > 0 if sign == "positive" else w < 0))
    return key_incidence("lemma_index" if lexicon.mode == "lemma_exact" else "form_index",
                         hits.__contains__)


# ---------------------------------------------------------------------------
# affective norms


@dataclass(frozen=True)
class AffectiveNorms:
    dimensions: tuple[str, ...]
    means: dict[str, float]
    scores: dict[str, dict[str, float]]


def load_norms(path: str | Path) -> AffectiveNorms:
    """Parse a norms table; the header declares each dimension with its
    mean as ``name:mean``."""
    path = Path(path)
    rows = [(n, [cell.strip() for cell in ln.split("\t")])
            for n, ln in enumerate(read_lines(path), start=1)
            if ln.strip() and not ln.strip().startswith("#")]
    if not rows:
        raise LexiconError(f"{path}: empty norms file")
    header = rows[0][1]
    if len(header) < 2 or header[0] != "lemma":
        raise LexiconError(f"{path}: header must be 'lemma' plus dimension columns")
    dimensions: list[str] = []
    means: dict[str, float] = {}
    for cell in header[1:]:
        dim, sep, mean = cell.partition(":")
        if not sep or not dim:
            raise LexiconError(f"{path}: header cell {cell!r} must be 'name:mean'")
        try:
            means[dim] = _finite(mean)
        except ValueError:
            raise LexiconError(f"{path}: bad mean in header cell {cell!r}") from None
        if dim in dimensions:
            raise LexiconError(f"{path}: duplicate dimension {dim!r}")
        dimensions.append(dim)
    scores: dict[str, dict[str, float]] = {}
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise LexiconError(f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        lemma = cells[0].casefold()
        if lemma in scores:
            log.warning("%s:%d: duplicate lemma %r ignored", path, lineno, lemma)
            continue
        try:
            scores[lemma] = {d: _finite(c) for d, c in zip(dimensions, cells[1:])}
        except ValueError:
            raise LexiconError(f"{path}:{lineno}: non-numeric score") from None
    if not scores:
        raise LexiconError(f"{path}: no score rows")
    return AffectiveNorms(dimensions=tuple(dimensions), means=means, scores=scores)


def norms_incidence(norms: AffectiveNorms, dimension: str, side: str):
    """Tokens whose lemma is scored for ``dimension`` strictly above the
    mean (``above_mean``) or at most the mean (``below_mean``)."""
    if dimension not in norms.means:
        raise LexiconError(f"norms file lacks dimension {dimension!r}")
    if side not in ("above_mean", "below_mean"):
        raise ValueError(f"unknown side {side!r}")
    mean = norms.means[dimension]
    hits = frozenset(lemma for lemma, row in norms.scores.items()
                     if (row[dimension] > mean if side == "above_mean" else row[dimension] <= mean))
    return key_incidence("lemma_index", hits.__contains__)
