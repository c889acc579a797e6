"""Language packs: manifest-driven metric registries for en, pl, uk, ru.

A pack is an INI manifest under ``packs/data`` declaring lexicons and
metrics. Each metric instantiates either a universal family (POS and
feature incidences, patterns, lexical statistics, lexicon matchers) or
a named language detector. Token tests inside manifests use a compact
condition syntax over the keys ``upos``, ``deprel``, ``deprel_base``,
``form``, ``form_re``, ``form_not_re`` and ``feat.*``::

    upos=VERB,AUX; deprel=root,ccomp,cop; feat.Tense=Past

and sentence patterns add a leading quantifier (any/all/none/first/last)
per ``clause.N`` key.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..engine import Metric, MetricDescriptor, Registry
from ..lexicons import (
    AffectiveNorms,
    Lexicon,
    LexiconError,
    lexicon_incidence,
    load_lexicon,
    load_norms,
    norms_incidence,
    read_text,
    sentiment_incidence,
)
from .. import universal
from . import eastslavic, english, polish

DATA_DIR = Path(__file__).resolve().parent / "data"

PACK_FILES = {"en": "en.cfg", "pl": "pl.cfg", "ru": "ru.cfg", "uk": "uk.cfg"}


class PackError(ValueError):
    """Manifest cannot be loaded into a registry."""


@dataclass
class PackResources:
    """Everything a metric builder may need besides its own params."""

    language: str
    lexicons: dict[str, Lexicon] = field(default_factory=dict)
    norms: AffectiveNorms | None = None
    emoticons: frozenset[str] = frozenset()

    def lexicon(self, name: str) -> Lexicon:
        try:
            return self.lexicons[name]
        except KeyError:
            raise PackError(f"missing lexicon {name!r}") from None


# ---------------------------------------------------------------------------
# condition mini-language


def split_values(value: str) -> tuple[str, ...]:
    """The non-empty, stripped items of a comma-separated list."""
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _parse_test(spec: str) -> universal.TokenTest:
    kwargs: dict = {}
    feats: list[tuple[str, str]] = []
    seen: set[str] = set()
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise PackError(f"bad condition {part!r}")
        # a repeated feat.* key is a conjunction; any other repeat would
        # silently keep only its last value
        if key in seen and not key.startswith("feat."):
            raise PackError(f"repeated condition key {key!r}")
        seen.add(key)
        if key in ("upos", "deprel", "deprel_base"):
            kwargs[key] = frozenset(split_values(value))
        elif key == "form":
            kwargs["form_in"] = frozenset(v.casefold() for v in split_values(value))
        elif key in ("form_re", "form_not_re"):
            try:
                kwargs[key] = re.compile(value)
            except re.error as exc:
                raise PackError(f"bad regular expression {value!r}: {exc}") from None
        elif key.startswith("feat."):
            feats.append((key[5:], value))
        else:
            raise PackError(f"unknown condition key {key!r}")
    if feats:
        kwargs["feats"] = tuple(feats)
    if not kwargs:
        raise PackError(f"no conditions in {spec!r}")
    return universal.TokenTest(**kwargs)


def _parse_clause(spec: str):
    quantifier, sep, rest = spec.partition(";")
    quantifier = quantifier.strip()
    if not sep:
        raise PackError(f"clause {spec!r} lacks conditions")
    return universal.clause(quantifier, _parse_test(rest))


class _Params(dict):
    """A metric's manifest parameters; a missing one is a PackError.
    ``read`` holds the keys the builder asked for."""

    def __init__(self, items):
        super().__init__(items)
        self.read: set[str] = set()

    def __getitem__(self, key: str):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key: str, default=None):
        return self[key] if key in self else default

    def __missing__(self, key: str):
        raise PackError(f"missing parameter {key!r}")

    def number(self, key: str, convert=int, optional: bool = False):
        """The parameter passed through ``convert``; an optional one that
        is absent or empty is None."""
        value = self.get(key) if optional else self[key]
        if optional and not value:
            return None
        try:
            return convert(value)
        except ValueError:
            raise PackError(f"parameter {key!r}: not a number {value!r}") from None


# ---------------------------------------------------------------------------
# family builders


def _fam_pos(params, pack):
    return universal.pos_incidence(params["upos"])


def _fam_feat(params, pack):
    test = _parse_test(params["test"])
    if not test.feats:
        raise PackError("feat_incidence needs at least one feat.* condition")
    return universal.token_pattern(test)


def _fam_token_pattern(params, pack):
    return universal.token_pattern(_parse_test(params["test"]))


def _fam_sentence_pattern(params, pack):
    keys = sorted(k for k in params if k.startswith("clause."))
    return universal.sentence_pattern(tuple(_parse_clause(params[k]) for k in keys))


def _fam_ttr(params, pack):
    return universal.type_token_ratio(params.get("layer", "form"))


def _fam_top_frequency(params, pack):
    return universal.top_frequency_incidence(params.number("fraction", float),
                                             params.get("layer", "form"))


def _fam_word_length(params, pack):
    return universal.word_length_incidence(
        min_syllables=params.number("min_syllables", optional=True),
        min_chars=params.number("min_chars", optional=True),
        language=pack.language,
    )


def _fam_content_function(params, pack):
    return universal.function_content_split(params["kind"])


def _fam_graphical(params, pack):
    return universal.graphical_incidence(params["kind"], emoticons=pack.emoticons)


def _fam_lexicon(params, pack):
    return lexicon_incidence(pack.lexicon(params["lexicon"]))


def _fam_sentiment(params, pack):
    return sentiment_incidence(pack.lexicon(params["lexicon"]), params["sign"])


def _fam_norms(params, pack):
    if pack.norms is None:
        raise PackError("pack declares no norms file")
    return norms_incidence(pack.norms, params["dimension"], params["side"])


def _fam_phrase_distance(params, pack):
    return universal.phrase_distance(params["upos"])


def _fam_repetition(params, pack):
    return universal.repetition_incidence(params["kind"])


# family name -> (builder, default local, default scale_invariant)
FAMILIES = {
    "pos_incidence": (_fam_pos, True, True),
    "feat_incidence": (_fam_feat, True, True),
    "token_pattern": (_fam_token_pattern, True, True),
    "sentence_pattern": (_fam_sentence_pattern, True, True),
    "type_token_ratio": (_fam_ttr, True, False),
    "top_frequency": (_fam_top_frequency, True, False),
    "word_length": (_fam_word_length, True, True),
    "content_function": (_fam_content_function, True, True),
    "graphical": (_fam_graphical, True, True),
    "lexicon": (_fam_lexicon, True, True),
    "sentiment": (_fam_sentiment, True, True),
    "norms": (_fam_norms, True, True),
    "phrase_distance": (_fam_phrase_distance, False, False),
    "repetition": (_fam_repetition, True, False),
}

DETECTORS = {**english.DETECTORS, **polish.DETECTORS, **eastslavic.DETECTORS}

_META_KEYS = frozenset({"category", "family", "detector", "name_en", "description", "language"})


def _read_manifest(language: str) -> configparser.ConfigParser:
    path = DATA_DIR / PACK_FILES[language]
    cfg = configparser.ConfigParser(interpolation=None, strict=True,
                                    delimiters=("=",), comment_prefixes=("#",))
    cfg.optionxform = str
    try:
        cfg.read_string(read_text(path), source=str(path))
    except LexiconError as exc:
        raise PackError(str(exc)) from None
    except configparser.Error as exc:
        raise PackError(f"{path}: {exc}") from None
    return cfg


def load_pack(language: str) -> Registry:
    """Build the full registry for one language from its manifest."""
    if language not in PACK_FILES:
        supported = ", ".join(sorted(PACK_FILES))
        raise PackError(f"unsupported language {language!r}; supported: {supported}")
    cfg = _read_manifest(language)
    if "pack" not in cfg:
        raise PackError(f"{language}: manifest lacks [pack] section")
    head = cfg["pack"]
    if head.get("language") != language:
        raise PackError(f"{language}: manifest declares language {head.get('language')!r}")
    categories = split_values(head.get("categories", ""))
    if not categories:
        raise PackError(f"{language}: manifest declares no categories")

    pack = PackResources(language=language)
    try:
        if head.get("emoticons"):
            entries = (ln.strip() for ln in read_text(DATA_DIR / head["emoticons"]).splitlines())
            pack.emoticons = frozenset(e for e in entries if e and not e.startswith("#"))
        if head.get("norms"):
            pack.norms = load_norms(DATA_DIR / head["norms"])
    except LexiconError as exc:
        raise PackError(str(exc)) from None

    metric_sections: list[tuple[str, dict[str, str]]] = []
    for section in cfg.sections():
        if section == "pack":
            continue
        kind, _, name = section.partition(" ")
        name = name.strip()
        if kind == "lexicon" and name:
            opts = dict(cfg[section])
            mode = opts.get("mode")
            file = opts.get("file")
            if not mode or not file:
                raise PackError(f"lexicon {name}: needs file and mode")
            exceptions = opts.get("exceptions")
            try:
                pack.lexicons[name] = load_lexicon(
                    DATA_DIR / file, mode, name=name,
                    exceptions_path=DATA_DIR / exceptions if exceptions else None)
            except LexiconError as exc:
                raise PackError(f"lexicon {name}: {exc}") from None
        elif kind == "metric" and name:
            metric_sections.append((name, dict(cfg[section])))
        else:
            raise PackError(f"unrecognized section [{section}]")

    registry = Registry()
    for mid, opts in metric_sections:
        try:
            registry.register(_build_metric(mid, opts, pack, categories))
        except ValueError as exc:
            raise PackError(f"metric {mid}: {exc}") from None
    if len(registry) == 0:
        raise PackError(f"{language}: manifest defines no metrics")
    return registry


def _build_metric(mid: str, opts: dict[str, str], pack: PackResources,
                  categories: tuple[str, ...]) -> Metric:
    category = opts.get("category")
    if not category:
        raise PackError("missing category")
    if category not in categories:
        raise PackError(f"category {category!r} not declared by the pack")
    family = opts.get("family")
    detector = opts.get("detector")
    if bool(family) == bool(detector):
        raise PackError("exactly one of family/detector required")
    params = _Params((k, v) for k, v in opts.items() if k not in _META_KEYS)
    if family:
        if family not in FAMILIES:
            raise PackError(f"unknown family {family!r}")
        builder, local, scale_invariant = FAMILIES[family]
    else:
        if detector not in DETECTORS:
            raise PackError(f"unknown detector {detector!r}")
        builder, local, scale_invariant = DETECTORS[detector], True, True
    try:
        rule = builder(params, pack)
    except (ValueError, KeyError) as exc:
        raise PackError(str(exc)) from None
    unread = [key for key in params if key not in params.read]
    if unread:
        raise PackError(f"unused parameter {unread[0]!r}")
    descriptor = MetricDescriptor(
        id=mid,
        category=category,
        language=opts.get("language", pack.language),
        description=opts.get("description", ""),
        name_en=opts.get("name_en", ""),
        local=local,
        scale_invariant=scale_invariant,
    )
    return Metric(descriptor=descriptor, rule=rule)


# One cache for whole and filtered registries, keyed by
# (language, categories, metric ids); a whole pack has empty filters.
_CACHE: dict[tuple[str, tuple[str, ...], tuple[str, ...]], Registry] = {}


def registry_for(language: str, categories=None, metric_ids=None) -> Registry:
    """The registry for one language, optionally narrowed to categories
    and/or explicit metric ids. Equal arguments (lists or tuples) return
    the same cached object."""
    key = (language, tuple(categories or ()), tuple(metric_ids or ()))
    if key not in _CACHE:
        if key == (language, (), ()):
            _CACHE[key] = load_pack(language)
        else:
            try:
                _CACHE[key] = registry_for(language).subset(categories=categories, ids=metric_ids)
            except KeyError as exc:
                raise PackError(exc.args[0]) from None
    return _CACHE[key]
