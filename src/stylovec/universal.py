"""Language-independent metric families.

Each factory returns a rule suitable for :class:`stylovec.engine.Metric`:
it takes a :class:`DocContext` and returns ``(captured_refs, raw)`` where
``raw=None`` means "count the captured tokens". Families cover POS and
feature incidences, declarative token/sentence patterns, lexical
diversity, word length, graphical tokens, repetition, and phrase
distance. Language packs instantiate these with concrete parameters;
each factory checks its own parameters and raises ``ValueError`` for a
bad one, so manifests and library calls meet the same errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .engine import DocContext, TokenRef
from .model import CONTENT_UPOS, FUNCTION_UPOS, UPOS_TAGS, Sentence, Token

# ---------------------------------------------------------------------------
# syllables


# maximal runs of vowel letters, one pattern per language
_VOWEL_RUN = {
    "en": re.compile("[aeiouy]+"),
    "pl": re.compile("[aąeęioóuy]+"),
    "uk": re.compile("[аеєиіїоуюя]+"),
    "ru": re.compile("[аеёиоуыэюя]+"),
}


def syllable_count(word: str, language: str = "en") -> int:
    """Number of syllables, approximated as maximal vowel-letter runs.

    English drops a word-final silent ``e`` standing alone in its run,
    unless that would leave no syllable. Words without vowel letters
    (digits, punctuation) count 0.
    """
    w = word.casefold()
    runs = _VOWEL_RUN[language].findall(w)
    if language == "en" and len(runs) >= 2 and runs[-1] == "e" and w.endswith("e"):
        return len(runs) - 1
    return len(runs)


# ---------------------------------------------------------------------------
# token and sentence patterns


@dataclass(frozen=True)
class TokenTest:
    """Conjunctive predicate over one token; unset fields always pass.

    ``child``/``no_child``/``head`` climb the dependency tree, so
    matching needs the enclosing sentence.
    """

    upos: frozenset[str] | None = None
    xpos_prefix: str | None = None
    deprel: frozenset[str] | None = None
    deprel_base: frozenset[str] | None = None
    feats: tuple[tuple[str, str], ...] = ()
    feats_absent: tuple[str, ...] = ()
    lemma_in: frozenset[str] | None = None
    form_in: frozenset[str] | None = None
    form_re: re.Pattern | None = None
    form_not_re: re.Pattern | None = None
    entity: str | None = None
    is_punct: bool | None = None
    child: "TokenTest | None" = None
    no_child: "TokenTest | None" = None
    head: "TokenTest | None" = None

    def __post_init__(self) -> None:
        if self.upos is not None and self.upos - UPOS_TAGS:
            raise ValueError(f"unknown UPOS {sorted(self.upos - UPOS_TAGS)}")

    def matches(self, tok: Token, sent: Sentence) -> bool:
        if self.upos is not None and tok.upos not in self.upos:
            return False
        if self.xpos_prefix is not None:
            if tok.xpos is None or not tok.xpos.startswith(self.xpos_prefix):
                return False
        if self.deprel is not None and tok.deprel not in self.deprel:
            return False
        if self.deprel_base is not None and tok.deprel_base() not in self.deprel_base:
            return False
        for key, value in self.feats:
            if not tok.has_feat(key, value):
                return False
        for key in self.feats_absent:
            if key in tok.feats:
                return False
        if self.lemma_in is not None and tok.lemma.casefold() not in self.lemma_in:
            return False
        if self.form_in is not None and tok.form.casefold() not in self.form_in:
            return False
        if self.form_re is not None and not self.form_re.search(tok.form):
            return False
        if self.form_not_re is not None and self.form_not_re.search(tok.form):
            return False
        if self.entity is not None and tok.entity != self.entity:
            return False
        if self.is_punct is not None and tok.is_punct != self.is_punct:
            return False
        if self.child is not None:
            if not any(self.child.matches(c, sent) for c in sent.children(tok)):
                return False
        if self.no_child is not None:
            if any(self.no_child.matches(c, sent) for c in sent.children(tok)):
                return False
        if self.head is not None:
            if tok.head is None or not self.head.matches(sent.tokens[tok.head], sent):
                return False
        return True


# quantifier -> predicate over a sentence, given a token test's ``matches``
_QUANTIFIERS = {
    "any": lambda matches: lambda sent: any(matches(t, sent) for t in sent.tokens),
    "all": lambda matches: lambda sent: all(matches(t, sent) for t in sent.tokens),
    "none": lambda matches: lambda sent: not any(matches(t, sent) for t in sent.tokens),
    "first": lambda matches: lambda sent: matches(sent.tokens[0], sent),
    "last": lambda matches: lambda sent: matches(sent.tokens[-1], sent),
}


def clause(quantifier: str, test: TokenTest):
    """Predicate ``sentence -> bool``: ``test`` holds for any, all, none,
    the first or the last of the sentence's tokens."""
    bind = _QUANTIFIERS.get(quantifier)
    if bind is None:
        raise ValueError(f"unknown quantifier {quantifier!r}")
    return bind(test.matches)


def token_incidence(pred):
    """Capture every token for which ``pred(token, sentence)`` holds."""
    def rule(ctx: DocContext):
        sents = ctx.doc.sentences
        return [(si, ti) for si, ti, tok in ctx.refs if pred(tok, sents[si])], None
    return rule


def key_incidence(index: str, test):
    """Capture every token filed in the document index ``index`` (e.g.
    ``"lemma_index"``) under a key passing ``test``; each key is tested once."""
    def rule(ctx: DocContext):
        return [ref for key, refs in getattr(ctx, index).items() if test(key) for ref in refs], None
    return rule


def sentence_refs(find):
    """Capture ``(si, ti)`` for every index ``ti`` that ``find(sentence)``
    returns in sentence ``si``."""
    def rule(ctx: DocContext):
        return [(si, ti) for si, sent in enumerate(ctx.doc.sentences) for ti in find(sent)], None
    return rule


def sentence_incidence(pred):
    """Capture all tokens of every sentence for which ``pred(sentence)`` holds."""
    return sentence_refs(lambda sent: range(len(sent)) if pred(sent) else ())


def token_pattern(test: TokenTest):
    """Capture every token satisfying ``test``, tried on the tokens of each
    UPOS tag it allows (every tag when it sets no ``upos``)."""
    tags = sorted(UPOS_TAGS if test.upos is None else test.upos)
    matches = test.matches
    def rule(ctx: DocContext):
        sents = ctx.doc.sentences
        index = ctx.upos_index
        refs = []
        for tag in tags:
            for si, ti in index.get(tag, ()):
                sent = sents[si]
                if matches(sent.tokens[ti], sent):
                    refs.append((si, ti))
        return refs, None
    return rule


def sentence_pattern(clauses):
    """Capture all tokens of every sentence where every clause predicate
    (see :func:`clause`) holds."""
    if not clauses:
        raise ValueError("sentence_pattern needs clause.N keys")
    return sentence_incidence(lambda sent: all(holds(sent) for holds in clauses))


def pos_incidence(upos: str):
    if upos not in UPOS_TAGS:
        raise ValueError(f"unknown UPOS {upos!r}")
    def rule(ctx: DocContext):
        return list(ctx.upos_index.get(upos, ())), None
    return rule


# ---------------------------------------------------------------------------
# lexical diversity and frequency


def _check_layer(layer: str) -> None:
    if layer not in ("form", "lemma"):
        raise ValueError(f"unknown layer {layer!r}")


def _types(ctx: DocContext, layer: str) -> dict[str, list[TokenRef]]:
    """Non-punctuation tokens grouped by case-folded form or lemma, types
    in order of first occurrence; computed once per document and layer."""
    def build():
        table: dict[str, list[TokenRef]] = {}
        for si, ti, tok in ctx.non_punct_refs:
            unit = (tok.lemma if layer == "lemma" else tok.form).casefold()
            table.setdefault(unit, []).append((si, ti))
        return table
    return ctx.memo(f"types.{layer}", build)


def type_token_ratio(layer: str = "form"):
    """Distinct non-punctuation types, normalized like every other
    metric by total token count. Captures the first token of each type."""
    _check_layer(layer)
    def rule(ctx: DocContext):
        table = _types(ctx, layer)
        return [refs[0] for refs in table.values()], float(len(table))
    return rule


def top_frequency_incidence(fraction: float, layer: str = "form"):
    """Tokens belonging to the top ``ceil(fraction * type_count)`` most
    frequent types; ties break by frequency then alphabetically."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    _check_layer(layer)
    def rule(ctx: DocContext):
        table = _types(ctx, layer)
        if not table:
            return [], 0.0
        k = math.ceil(fraction * len(table))
        ranked = sorted(table, key=lambda u: (-len(table[u]), u))
        return [ref for unit in ranked[:k] for ref in table[unit]], None
    return rule


def word_length_incidence(min_syllables: int | None = None,
                          min_chars: int | None = None,
                          language: str = "en"):
    """Non-punctuation words of at least ``min_chars`` characters and
    ``min_syllables`` syllables (an unset bound always passes)."""
    if min_syllables is None and min_chars is None:
        raise ValueError("word_length needs min_syllables or min_chars")
    for name, bound in (("min_syllables", min_syllables), ("min_chars", min_chars)):
        if bound is not None and bound < 1:
            raise ValueError(f"{name} {bound} below 1")
    if language not in _VOWEL_RUN:
        raise ValueError(f"unknown language {language!r}")
    def long_enough(form: str) -> bool:
        return ((min_chars is None or len(form) >= min_chars)
                and (min_syllables is None or syllable_count(form, language) >= min_syllables))
    return key_incidence("word_index", long_enough)


# kind -> test on the UPOS tag
_SPLITS = {
    "content": CONTENT_UPOS.__contains__,
    "function": FUNCTION_UPOS.__contains__,
    "other": lambda upos: upos not in CONTENT_UPOS and upos not in FUNCTION_UPOS,
}


def function_content_split(kind: str):
    """Share of content words, function words, or everything else
    (PUNCT, NUM, INTJ, SYM, X); the three shares partition the document."""
    if kind not in _SPLITS:
        raise ValueError(f"unknown split kind {kind!r}")
    return key_incidence("upos_index", _SPLITS[kind])


# ---------------------------------------------------------------------------
# graphical tokens


_EMOJI_RE = re.compile(
    "[\U0001F1E6-\U0001F1FF\U0001F300-\U0001F5FF\U0001F600-\U0001F64F"
    "\U0001F680-\U0001F6FF\U0001F900-\U0001F9FF\U0001FA70-\U0001FAFF"
    "\u2600-\u26FF\u2700-\u27BF\u2B00-\u2BFF]")


def has_emoji(text: str) -> bool:
    return _EMOJI_RE.search(text) is not None


# kind -> test on the token form; "emoticon" depends on the pack's list
_FORM_TESTS = {
    "emoji": has_emoji,
    "url": lambda form: form.casefold().startswith(("http://", "https://", "www.")),
    "hashtag": re.compile(r"#\w+").fullmatch,
    "mention": re.compile(r"@\w+").fullmatch,
    "lenny": lambda form: "(" in form and ")" in form and any(ord(c) > 127 for c in form),
    "masked_word": lambda form: "**" in form and any(c.isalpha() for c in form),
    "capitalized": lambda form: len(form) >= 2 and form.isalpha() and form.isupper(),
}

GRAPHICAL_KINDS = ("emoji", "emoticon", "url", "hashtag", "mention",
                   "lenny", "masked_word", "capitalized")


def graphical_incidence(kind: str, emoticons: frozenset[str] = frozenset()):
    """Tokens of one surface kind: emoji, emoticon, url, hashtag,
    mention, lenny, masked_word, or capitalized (all-caps word)."""
    if kind not in GRAPHICAL_KINDS:
        raise ValueError(f"unknown graphical kind {kind!r}")
    test = emoticons.__contains__ if kind == "emoticon" else _FORM_TESTS[kind]
    return key_incidence("surface_index", test)


# ---------------------------------------------------------------------------
# repetition and rhythm


def repetition_incidence(kind: str = "lemma_bigram"):
    """Repeated material: tokens inside lemma bigrams seen more than
    once (``lemma_bigram``) or all tokens of sentences whose case-folded
    text occurs at least twice (``sentence``)."""
    if kind not in ("lemma_bigram", "sentence"):
        raise ValueError(f"unknown repetition kind {kind!r}")
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        if kind == "lemma_bigram":
            occurrences: dict[tuple[str, str], list[tuple[TokenRef, TokenRef]]] = {}
            for si, sent in enumerate(ctx.doc.sentences):
                prev: tuple[str, int] | None = None
                for ti, tok in enumerate(sent.tokens):
                    if tok.is_punct:
                        prev = None
                        continue
                    lemma = tok.lemma.casefold()
                    if prev is not None:
                        key = (prev[0], lemma)
                        occurrences.setdefault(key, []).append(((si, prev[1]), (si, ti)))
                    prev = (lemma, ti)
            for pairs in occurrences.values():
                if len(pairs) > 1:
                    for a, b in pairs:
                        refs.append(a)
                        refs.append(b)
        else:
            counts: dict[str, int] = {}
            for sent in ctx.doc.sentences:
                text = sent.text.casefold()
                counts[text] = counts.get(text, 0) + 1
            for si, sent in enumerate(ctx.doc.sentences):
                if counts[sent.text.casefold()] >= 2:
                    refs.extend((si, ti) for ti in range(len(sent)))
        return refs, None
    return rule


def phrase_distance(upos: str):
    """Mean token gap between consecutive phrase heads of one UPOS,
    where a phrase head is a token of that UPOS whose own head is not.
    Raw value is the mean gap (0 with fewer than two heads)."""
    if upos not in ("NOUN", "VERB", "ADP", "ADJ", "ADV"):
        raise ValueError(f"unsupported phrase head {upos!r}")
    def rule(ctx: DocContext):
        positions = []
        refs = []
        for pos, (si, ti, tok) in enumerate(ctx.refs):
            if tok.upos != upos:
                continue
            sent = ctx.doc.sentences[si]
            if tok.head is not None and sent.tokens[tok.head].upos == upos:
                continue
            positions.append(pos)
            refs.append((si, ti))
        if len(positions) < 2:
            return refs, 0.0
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        return refs, sum(gaps) / len(gaps)
    return rule
