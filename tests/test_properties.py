"""Property-based invariants over randomly generated documents.

Documents come from the package's own structural fuzzer, driven by a
drawn integer seed, so every failure reproduces from the seed alone.
The tests add XPOS values, NER labels and multiword ranges to those
documents. The invariants here are the contract every metric must keep
regardless of input shape: values stay inside [0, 1], the value is
exactly the raw count over the token count, captures are well-formed
references, and whole-document duplication leaves scale-invariant
metrics untouched.
The parser's contract is checked on edited fixture text: every mutant
is either rejected with a line number or round-trips exactly. The
writer's contract is checked on documents with edited field values:
each is either refused, naming the value's place, or round-trips.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from stylovec import conllu, lexicons, packs, universal
from stylovec.conllu import ParseError, parse_conllu, to_conllu
from stylovec.engine import DocContext, Metric, MetricDescriptor, Registry, evaluate_all
from stylovec.model import CONTENT_UPOS, FUNCTION_UPOS, ModelError, MultiwordRange, Sentence
from stylovec.packs import english, polish, registry_for
from stylovec.synth import duplicate, random_document
from stylovec.universal import token_pattern

from conftest import doc as build_doc, sent, tok, word_sentence

LANGUAGES = ("en", "pl", "uk", "ru")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
languages = st.sampled_from(LANGUAGES)


XPOS_TAGS = ("NN", "NNS", "NNP", "VB", "VBD", "JJ", "Ncmsn", "Vmip3s")
ENTITIES = ("PER", "LOC", "ORG")


def with_ranges_xpos_and_entities(rng: random.Random, sentence: Sentence) -> Sentence:
    """``sentence`` with random XPOS values and NER labels, and multiword ranges
    over two or three adjacent tokens, ``SpaceAfter=No`` inside each range."""
    tokens = [replace(t, xpos=rng.choice((None, *XPOS_TAGS)),
                      entity=rng.choice((None, None, None, *ENTITIES)))
              for t in sentence.tokens]
    ranges = []
    start = 0
    while start + 1 < len(tokens):
        if rng.random() < 0.2:
            end = min(start + rng.randint(1, 2), len(tokens) - 1)
            tokens[start:end] = [replace(t, space_after=False) for t in tokens[start:end]]
            form = "".join(t.form for t in tokens[start:end + 1])
            ranges.append(MultiwordRange(start, end, form, tokens[end].space_after))
            start = end + 1
        else:
            start += 1
    return Sentence(tuple(tokens), tuple(ranges))


def make_doc(seed: int, language: str, max_tokens: int = 150):
    rng = random.Random(seed)
    doc = random_document(rng, f"prop{seed}", language,
                          token_count=rng.randint(1, max_tokens))
    return replace(doc, sentences=tuple(with_ranges_xpos_and_entities(rng, s)
                                        for s in doc.sentences))


@given(seed=seeds, language=languages)
@settings(max_examples=40)
def test_values_are_exact_clamped_ratios(seed, language):
    doc = make_doc(seed, language)
    vector = evaluate_all(registry_for(language), doc)
    total = doc.token_count
    for res in vector.results:
        assert res.error is None
        assert not res.degenerate
        assert 0.0 <= res.value <= 1.0
        assert res.value == min(res.raw_count / total, 1.0)


@given(seed=seeds, language=languages)
@settings(max_examples=40)
def test_captures_are_sorted_unique_valid_refs(seed, language):
    doc = make_doc(seed, language)
    registry = registry_for(language)
    vector = evaluate_all(registry, doc)
    for metric, res in zip(registry, vector.results):
        refs = res.captured
        assert list(refs) == sorted(set(refs))
        for si, ti in refs:
            assert 0 <= si < len(doc.sentences)
            assert 0 <= ti < len(doc.sentences[si].tokens)
        if metric.descriptor.local:
            assert res.raw_count == float(len(refs))
            assert res.raw_count == int(res.raw_count)


@given(seed=seeds, language=languages, k=st.sampled_from((2, 3)))
@settings(max_examples=25)
def test_duplication_leaves_scale_invariant_metrics_fixed(seed, language, k):
    doc = make_doc(seed, language, max_tokens=100)
    registry = registry_for(language)
    base = evaluate_all(registry, doc)
    dup = evaluate_all(registry, duplicate(doc, k))
    for metric, res, res_k in zip(registry, base.results, dup.results):
        if not metric.descriptor.scale_invariant:
            continue
        assert res_k.value == res.value, metric.id
        assert res_k.raw_count == k * res.raw_count, metric.id


@given(seed=seeds, language=languages)
@settings(max_examples=40)
def test_pos_and_word_class_partitions_sum_to_one(seed, language):
    doc = make_doc(seed, language)
    vector = evaluate_all(registry_for(language), doc)
    values = dict(zip(vector.metric_ids, vector.values))
    pos_values = [v for mid, v in values.items() if mid.startswith("POS_")]
    assert len(pos_values) == 17
    assert abs(sum(pos_values) - 1.0) <= 1e-12
    cf_sum = values["CF_CONTENT"] + values["CF_FUNCTION"] + values["CF_OTHER"]
    assert abs(cf_sum - 1.0) <= 1e-12


@given(seed=seeds, language=languages)
@settings(max_examples=30)
def test_evaluation_is_deterministic(seed, language):
    doc = make_doc(seed, language)
    registry = registry_for(language)
    first = evaluate_all(registry, doc)
    second = evaluate_all(registry, doc)
    assert first.metric_ids == second.metric_ids
    assert first.schema_hash == second.schema_hash
    for a, b in zip(first.results, second.results):
        assert (a.value, a.raw_count, a.captured) == (b.value, b.raw_count, b.captured)


@given(seed=seeds, language=languages)
@settings(max_examples=40)
def test_serialization_round_trip_preserves_every_field(seed, language):
    doc = make_doc(seed, language)
    assert parse_conllu(to_conllu(doc), doc_id=doc.doc_id) == doc


def _raises_midway(ctx):
    def refs():
        yield from (ref[:2] for ref in ctx.refs[:1])
        raise RuntimeError("refs failed midway")
    return refs(), 1.0


CUSTOM_RULES = {
    "X_RAISES_MIDWAY": _raises_midway,
    "X_NEGATIVE": lambda ctx: ([], -1.0),
    "X_NEGATIVE_ZERO": lambda ctx: ([ref[:2] for ref in ctx.refs], -0.0),
}
_WITH_CUSTOM: dict[str, Registry] = {}


def with_custom(language: str) -> Registry:
    """The stock registry plus three rules that fail or count oddly."""
    if language not in _WITH_CUSTOM:
        _WITH_CUSTOM[language] = Registry([
            *registry_for(language),
            *(Metric(MetricDescriptor(mid, "custom", language, ""), rule)
              for mid, rule in CUSTOM_RULES.items())])
    return _WITH_CUSTOM[language]


def assert_captures_change_nothing(doc):
    """Without captures, every column but ``captured`` is the same; floats by repr."""
    registry = with_custom(doc.language)
    full = evaluate_all(registry, doc)
    bare = evaluate_all(registry, doc, captures=False)
    assert bare.captured is None and len(full.captured) == len(registry)
    assert bare.metric_ids == full.metric_ids == registry.ids()
    assert [repr(v) for v in bare.values] == [repr(v) for v in full.values]
    assert [repr(r) for r in bare.raw_counts] == [repr(r) for r in full.raw_counts]
    assert bare.flags == full.flags
    n = len(registry)
    assert full.flags == ((n - 3, "refs failed midway", False), (n - 2, "negative raw count -1.0", False))
    assert repr(bare.values[-1]) == "-0.0"


def test_fixture_vectors_without_captures_are_unchanged():
    paths = sorted((Path(__file__).parent / "fixtures").rglob("*.conllu"))
    assert len(paths) == 63
    for path in paths:
        assert_captures_change_nothing(parse_conllu(path.read_text(encoding="utf-8"), doc_id=path.stem))


@given(seed=seeds, language=languages)
@settings(max_examples=30)
def test_vectors_without_captures_are_unchanged(seed, language):
    assert_captures_change_nothing(make_doc(seed, language))


# Families that take their candidates from a document index capture
# exactly the tokens that a scan of every token with the per-token
# predicate captures.

INDEXED_FAMILIES = ("feat_incidence", "token_pattern", "content_function", "graphical",
                    "word_length", "lexicon", "sentiment", "norms")


VOWELS = {
    "en": frozenset("aeiouy"),
    "pl": frozenset("aąeęioóuy"),
    "uk": frozenset("аеєиіїоуюя"),
    "ru": frozenset("аеёиоуыэюя"),
}


def syllables_by_loop(word: str, language: str) -> int:
    """The character loop and vowel sets that ``universal.syllable_count`` replaced."""
    w = word.casefold()
    vowels = VOWELS[language]
    runs = 0
    prev = False
    last_run_len = 0
    for ch in w:
        if ch in vowels:
            if not prev:
                runs += 1
                last_run_len = 0
            last_run_len += 1
            prev = True
        else:
            prev = False
    if language == "en" and runs >= 2 and prev and last_run_len == 1 and w.endswith("e"):
        runs -= 1
    return runs


# every vowel letter of the four languages in both cases, other letters,
# digits, marks, and letters whose case folding changes their length
WORD_CHARS = "".join(sorted(frozenset().union(*VOWELS.values()))) + \
    "AEIOUYĄĘÓАЕЄИІЇОУЮЯЁЫЭ" + "bcdklmnrstxzжкмнпрсщ" + "0129-'ßİ"


@given(word=st.text(alphabet=WORD_CHARS, max_size=12), language=languages)
@settings(max_examples=500)
def test_syllable_count_matches_the_character_loop(word, language):
    assert universal.syllable_count(word, language) == syllables_by_loop(word, language)


def token_incidence(pred):
    """Capture every token for which ``pred(token, sentence)`` holds: the
    scan of every token that the indexed families replace."""
    def rule(ctx: DocContext):
        sents = ctx.doc.sentences
        return [(si, ti) for si, ti, tok in ctx.refs if pred(tok, sents[si])], None
    return rule


def _scan_test(params, pack):
    return token_incidence(packs._parse_test(params.pop("test")).matches)


def _scan_split(params, pack):
    kind = params.pop("kind")
    content, function = kind == "content", kind == "function"
    return token_incidence(lambda t, s: (t.upos in CONTENT_UPOS) == content
                           and (t.upos in FUNCTION_UPOS) == function)


def _scan_graphical(params, pack):
    kind = params.pop("kind")
    test = pack.emoticons.__contains__ if kind == "emoticon" else universal._FORM_TESTS[kind]
    return token_incidence(lambda t, s: test(t.form))


def scan_word_length(min_syllables, min_chars, language):
    """``word_length_incidence`` as its old scan of every token."""
    def long_enough(tok, sent):
        if tok.is_punct:
            return False
        if min_chars is not None and len(tok.form) < min_chars:
            return False
        return min_syllables is None or syllables_by_loop(tok.form, language) >= min_syllables
    return token_incidence(long_enough)


def _scan_word_length(params, pack):
    return scan_word_length(packs._number(params, "min_syllables", optional=True),
                            packs._number(params, "min_chars", optional=True), pack.language)


def _scan_lexicon(params, pack):
    lexicon = pack.lexicon(params.pop("lexicon"))
    if lexicon.mode == "phrase":
        return lambda ctx: (phrase_refs_by_loop(ctx, lexicon.phrase_index), None)
    if lexicon.mode == "prefix":
        prefixes = tuple(lexicon.entries)
        return token_incidence(lambda t, s: t.form.casefold() not in lexicon.exceptions
                               and t.form.casefold().startswith(prefixes))
    key = (lambda t: t.lemma) if lexicon.mode == "lemma_exact" else (lambda t: t.form)
    return token_incidence(lambda t, s: key(t).casefold() in lexicon.entries)


def _scan_sentiment(params, pack):
    lexicon = pack.lexicon(params.pop("lexicon"))
    positive = params.pop("sign") == "positive"
    hits = {e for e, w in lexicon.weights.items() if (w > 0 if positive else w < 0)}
    key = (lambda t: t.lemma) if lexicon.mode == "lemma_exact" else (lambda t: t.form)
    return token_incidence(lambda t, s: key(t).casefold() in hits)


def _scan_norms(params, pack):
    dim, above = params.pop("dimension"), params.pop("side") == "above_mean"
    mean = pack.norms.means[dim]
    hits = {lemma for lemma, row in pack.norms.scores.items()
            if (row[dim] > mean if above else row[dim] <= mean)}
    return token_incidence(lambda t, s: t.lemma.casefold() in hits)


# each indexed family as the scan of every token that it replaces
SCANS = {"feat_incidence": _scan_test, "token_pattern": _scan_test,
         "content_function": _scan_split, "graphical": _scan_graphical,
         "word_length": _scan_word_length, "lexicon": _scan_lexicon,
         "sentiment": _scan_sentiment, "norms": _scan_norms}
_SCANNED: dict[str, Registry] = {}


def scanned_pack(language: str) -> Registry:
    """The stock pack with every indexed family built as a scan of every token."""
    if language not in _SCANNED:
        with pytest.MonkeyPatch.context() as mp:
            for family, scan in SCANS.items():
                mp.setitem(packs.FAMILIES, family, (scan, *packs.FAMILIES[family][1:]))
            _SCANNED[language] = packs.load_pack(language)
    return _SCANNED[language]


def indexed_metric_ids(language: str) -> list[str]:
    """Metrics of the indexed families; of the lexicon family, phrase mode is not indexed."""
    cfg = packs._read_manifest(language)
    return [section.partition(" ")[2] for section in cfg.sections()
            if cfg[section].get("family") in INDEXED_FAMILIES
            and (cfg[section]["family"] != "lexicon"
                 or cfg[f"lexicon {cfg[section]['lexicon']}"]["mode"] != "phrase")]


# Nested, XPOS and entity tests (no stock metric has one, and manifests
# cannot declare one), with and without a top-level upos.
_Test = universal.TokenTest
LIBRARY_TESTS = [
    _Test(upos=frozenset({"VERB", "AUX"}), child=_Test(deprel=frozenset({"nsubj", "obj"}))),
    _Test(upos=frozenset({"NOUN", "PROPN", "PRON"}), no_child=_Test(upos=frozenset({"DET"}))),
    _Test(upos=frozenset({"ADJ", "ADV"}), head=_Test(upos=frozenset({"NOUN", "VERB"}))),
    _Test(child=_Test(upos=frozenset({"PUNCT"})), no_child=_Test(deprel=frozenset({"cc"}))),
    _Test(head=_Test(upos=frozenset({"VERB", "NOUN"}), feats=(("Number", "Sing"),))),
    _Test(upos=frozenset({"VERB"}),
          child=_Test(upos=frozenset({"NOUN", "PRON"}), no_child=_Test(upos=frozenset({"ADP"}))),
          head=_Test(upos=frozenset({"VERB"}))),
    _Test(upos=frozenset({"NOUN", "PROPN", "VERB"}), xpos_prefix="NN"),
    _Test(xpos_prefix="V"),
    _Test(upos=frozenset({"NOUN", "PROPN", "PRON"}), entity="PER"),
    _Test(entity="LOC", no_child=_Test(upos=frozenset({"DET"}))),
]


def assert_indexed_families_match_scans(doc):
    ctx = DocContext(doc)
    stock, scanned = registry_for(doc.language), scanned_pack(doc.language)
    ids = indexed_metric_ids(doc.language)
    assert len(ids) > 20
    for mid in ids:
        assert scanned.get(mid).rule.__qualname__ == "token_incidence.<locals>.rule", mid
        assert set(stock.get(mid).rule(ctx)[0]) == set(scanned.get(mid).rule(ctx)[0]), mid
    for test in LIBRARY_TESTS:
        assert set(token_pattern(test)(ctx)[0]) == set(token_incidence(test.matches)(ctx)[0]), test
    # bounds low enough that punctuation would pass them
    for bounds in ((None, 1), (1, None), (2, 3)):
        assert set(universal.word_length_incidence(*bounds, doc.language)(ctx)[0]) == \
            set(scan_word_length(*bounds, doc.language)(ctx)[0]), bounds


def nasa_doc():
    return build_doc(sent(
        tok(0, "NASA", upos="PROPN", head=1, deprel="nsubj"),
        tok(1, "and", upos="CCONJ", head=2, deprel="cc"),
        tok(2, "nasa", upos="PROPN", head=None),
        tok(3, "NASA", upos="PROPN", head=2, deprel="conj"),
    ))


def test_indexed_families_match_scans_on_fixture_documents():
    paths = sorted((Path(__file__).parent / "fixtures").rglob("*.conllu"))
    docs = [parse_conllu(p.read_text(encoding="utf-8"), doc_id=p.stem) for p in paths]
    assert {d.language for d in docs} == set(LANGUAGES)
    for doc in docs + [nasa_doc()]:
        assert_indexed_families_match_scans(doc)


def test_every_indexed_family_has_stock_metrics():
    families = {packs._read_manifest(lang)[f"metric {mid}"]["family"]
                for lang in LANGUAGES for mid in indexed_metric_ids(lang)}
    assert families == set(INDEXED_FAMILIES)


def test_capitalized_reads_the_case_preserving_surface_index():
    ctx = DocContext(nasa_doc())
    rule = registry_for("en").get("GR_CAPS").rule
    assert sorted(rule(ctx)[0]) == [(0, 0), (0, 3)]


@given(seed=seeds, language=languages)
@settings(max_examples=30)
def test_indexed_families_match_scans(seed, language):
    assert_indexed_families_match_scans(make_doc(seed, language))


LAZY_TABLES = ("lemma_index", "form_index", "surface_index", "word_index", "non_punct_refs")


@given(seed=seeds, language=languages)
@settings(max_examples=30)
def test_context_tables_match_a_scan_and_build_nothing_unread(seed, language):
    doc = make_doc(seed, language)
    ctx = DocContext(doc)
    assert ctx.refs == doc.refs()
    scan: dict[str, list[tuple[int, int]]] = {}
    for si, sentence in enumerate(doc.sentences):
        for ti, token in enumerate(sentence.tokens):
            scan.setdefault(token.upos, []).append((si, ti))
    assert ctx.upos_index == scan
    filed = [ref for refs in ctx.upos_index.values() for ref in refs]
    assert len(ctx.ref_of) == len(filed) == doc.token_count
    assert all(ctx.ref_of[ref] is ref for ref in filed)

    contexts = []

    def nouns(ctx):
        contexts.append(ctx)
        return ctx.upos_index.get("NOUN", []), None

    registry = Registry([
        Metric(MetricDescriptor("X_NOUN", "X", language, ""), nouns),
        Metric(MetricDescriptor("X_VERB", "X", language, ""), universal.pos_incidence("VERB")),
        Metric(MetricDescriptor("X_ADJ", "X", language, ""),
               token_pattern(universal.TokenTest(upos=frozenset({"ADJ", "ADV"})))),
    ])
    for captures in (True, False):
        evaluate_all(registry, doc, captures=captures)
    assert len(contexts) == 2
    for ctx in contexts:
        assert not set(LAZY_TABLES) & ctx.__dict__.keys()


def verb_group_params() -> dict[str, dict[str, str]]:
    """Each stock ``verb_group`` metric with its manifest parameters."""
    cfg = packs._read_manifest("en")
    return {section.split()[1]: {k: v for k, v in cfg[section].items() if k in english._VALUES}
            for section in cfg.sections() if cfg[section].get("detector") == "verb_group"}


def verb_group_firing(doc) -> set[str]:
    """Check every verb-group metric and SYN_DO_SUPPORT against the groups of
    ``extract_verb_groups``: a metric captures the classified groups (tense
    set) matching its parameters, do-support any group with emphatic do.
    Returns the ids of the metrics that captured something."""
    results = {r.metric_id: r for r in evaluate_all(registry_for("en"), doc).results}
    groups = [(si, sentence, g) for si, sentence in enumerate(doc.sentences)
              for g in english.extract_verb_groups(sentence)]
    expected = {
        mid: {(si, t.index) for si, _, g in groups
              if g.tense is not None and all(getattr(g, k) == v for k, v in params.items())
              for t in g.tokens}
        for mid, params in verb_group_params().items()}
    expected["SYN_DO_SUPPORT"] = {(si, t.index) for si, sentence, g in groups
                                  if english.do_support(g, sentence) for t in g.tokens}
    for mid, refs in expected.items():
        assert set(results[mid].captured) == refs, mid
        assert results[mid].raw_count == len(refs), mid
    return {mid for mid, refs in expected.items() if refs}


def test_verb_group_metrics_read_the_groups_on_fixture_documents():
    assert len(verb_group_params()) == 37
    paths = sorted((Path(__file__).parent / "fixtures").rglob("*.conllu"))
    docs = [parse_conllu(p.read_text(encoding="utf-8"), doc_id=p.stem) for p in paths]
    english_docs = [d for d in docs if d.language == "en"]
    assert len(english_docs) == 42
    fired = set().union(*map(verb_group_firing, english_docs))
    assert fired == {*verb_group_params(), "SYN_DO_SUPPORT"}


@given(seed=seeds)
@settings(max_examples=30)
def test_verb_group_metrics_read_the_groups(seed):
    verb_group_firing(make_doc(seed, "en"))


def phrase_refs_by_loop(ctx, index):
    """The phrase mode of ``lexicon_incidence`` as its own loop over the
    case-folded forms of each sentence: longest phrase first, greedy,
    non-overlapping."""
    refs = []
    for si, sentence in enumerate(ctx.doc.sentences):
        forms = [t.form.casefold() for t in sentence.tokens]
        ti = 0
        n = len(forms)
        while ti < n:
            hit = None
            for phrase in index.get(forms[ti], ()):
                k = len(phrase)
                if ti + k <= n and tuple(forms[ti:ti + k]) == phrase:
                    hit = k
                    break
            if hit:
                refs.extend((si, ti + j) for j in range(hit))
                ti += hit
            else:
                ti += 1
    return refs


def phrase_metric_ids(language: str) -> list[str]:
    cfg = packs._read_manifest(language)
    return [section.partition(" ")[2] for section in cfg.sections()
            if cfg[section].get("family") == "lexicon"
            and cfg[f"lexicon {cfg[section]['lexicon']}"]["mode"] == "phrase"]


def stock_phrase_document(language: str):
    """Sentences of the entries of the stock phrase lexicons of ``language``:
    all entries run together, the same title-cased, and their words shuffled."""
    cfg = packs._read_manifest(language)
    entries = sorted(entry for section in cfg.sections()
                     if section.startswith("lexicon ") and cfg[section]["mode"] == "phrase"
                     for entry in lexicons.load_lexicon(packs.DATA_DIR / cfg[section]["file"],
                                                        "phrase").entries)
    words = " ".join(entries).split()
    shuffled = random.Random(1).sample(words, len(words))
    return build_doc(*(word_sentence(*ws) for ws in (words, [w.title() for w in words], shuffled)),
                     language=language)


FIXTURE_DOCS = [parse_conllu(p.read_text(encoding="utf-8"), doc_id=p.stem)
                for p in sorted((Path(__file__).parent / "fixtures").rglob("*.conllu"))]


def test_stock_phrase_lexicons_match_the_loop():
    fired = set()
    for document in FIXTURE_DOCS + [stock_phrase_document("en"), stock_phrase_document("pl")]:
        ctx = DocContext(document)
        stock, scanned = registry_for(document.language), scanned_pack(document.language)
        for mid in phrase_metric_ids(document.language):
            refs, raw = stock.get(mid).rule(ctx)
            assert (refs, raw) == scanned.get(mid).rule(ctx), (document.doc_id, mid)
            if refs:
                fired.add(mid)
    assert fired == {mid for lang in LANGUAGES for mid in phrase_metric_ids(lang)}
    assert len(fired) == 9


PHRASE_WORDS = ("in", "spite", "of", "ha", "strasse")
# forms that case-fold to a phrase word, and two that fold to none
PHRASE_FORMS = ("in", "In", "IN", "spite", "Spite", "of", "OF", "ha", "Ha", "HA",
                "Straße", "STRASSE", "inn", "the")
# shared first words, nested and self-overlapping phrases, and phrases
# longer than any drawn sentence
SHAPED_PHRASES = ("in spite", "in spite of", "in of", "spite of", "ha ha", "ha ha ha",
                  "of in spite of ha", " ".join(["ha"] * 10))
phrase_sets = st.builds(
    lambda shaped, drawn: frozenset(shaped) | {" ".join(words) for words in drawn},
    st.sets(st.sampled_from(SHAPED_PHRASES)),
    st.sets(st.lists(st.sampled_from(PHRASE_WORDS), min_size=1, max_size=5).map(tuple),
            max_size=6),
).filter(bool)


@given(phrases=phrase_sets,
       sentences=st.lists(st.lists(st.sampled_from(PHRASE_FORMS), min_size=1, max_size=9),
                          min_size=1, max_size=3))
@settings(max_examples=300)
def test_phrase_lexicons_match_the_loop(phrases, sentences):
    lexicon = lexicons.Lexicon("phrases", "phrase", phrases)
    ctx = DocContext(build_doc(*(word_sentence(*forms) for forms in sentences)))
    assert lexicons.lexicon_incidence(lexicon)(ctx) == \
        (phrase_refs_by_loop(ctx, lexicon.phrase_index), None)


def clause_holds_by_chain(quantifier, test, sentence):
    """``universal.clause`` as the if-chain it replaced, reading the
    quantifier for every sentence."""
    if quantifier == "any":
        return any(test.matches(t, sentence) for t in sentence.tokens)
    if quantifier == "all":
        return all(test.matches(t, sentence) for t in sentence.tokens)
    if quantifier == "none":
        return not any(test.matches(t, sentence) for t in sentence.tokens)
    if quantifier == "first":
        return test.matches(sentence.tokens[0], sentence)
    return test.matches(sentence.tokens[-1], sentence)


QUANTIFIERS = ("any", "all", "none", "first", "last")


def stock_clause_tests() -> list:
    """The token test of every clause.N key of the stock manifests, once each."""
    specs = {spec.partition(";")[2].strip()
             for language in LANGUAGES for section in packs._read_manifest(language).values()
             for key, spec in section.items() if key.startswith("clause.")}
    return [packs._parse_test(spec) for spec in sorted(specs)]


STOCK_CLAUSE_TESTS = stock_clause_tests()


def clause_outcomes(document) -> set[tuple[str, int, bool]]:
    """Check every quantifier with every stock clause test against the
    chain on each sentence; returns the (quantifier, test, outcome) seen."""
    seen = set()
    for sentence in document.sentences:
        for q in QUANTIFIERS:
            for i, test in enumerate(STOCK_CLAUSE_TESTS):
                holds = universal.clause(q, test)(sentence)
                assert holds == clause_holds_by_chain(q, test, sentence), (q, test)
                seen.add((q, i, holds))
    return seen


def test_clauses_match_the_chain_on_fixed_documents():
    assert len(STOCK_CLAUSE_TESTS) == 6
    documents = FIXTURE_DOCS + [make_doc(seed, "en") for seed in range(5)]
    seen = set().union(*map(clause_outcomes, documents))
    # every stock test both holds and fails on some sentence under "any"
    assert {(i, holds) for q, i, holds in seen if q == "any"} == \
        {(i, holds) for i in range(len(STOCK_CLAUSE_TESTS)) for holds in (True, False)}


@given(seed=seeds, language=languages)
@settings(max_examples=40)
def test_clauses_match_the_chain(seed, language):
    clause_outcomes(make_doc(seed, language))


def intensifiers_by_window(sentence):
    """``english._intensifiers`` as a window loop over every occurrence of
    each phrase."""
    found = [t.index for t in sentence.tokens if t.lemma.casefold() in english._IRRITATION_LEMMAS]
    forms = [t.form.casefold() for t in sentence.tokens]
    for phrase in (("all", "the", "time"), ("every", "time")):
        k = len(phrase)
        for i in range(len(forms) - k + 1):
            if tuple(forms[i:i + k]) == phrase:
                found.extend(range(i, i + k))
    return found


IRRITATION_CHUNKS = (("always",), ("Always",), ("constantly",), ("all", "the", "time"),
                     ("ALL", "The", "time"), ("every", "time"), ("Every", "TIME"),
                     ("all", "the"), ("the", "time"), ("every",), ("all",), ("time",), ("day",))
ENGLISH_FIXTURES = [d for d in FIXTURE_DOCS if d.language == "en"]


def with_words(document, words):
    """``document`` with ``words`` appended to every sentence as adverbs of its root."""
    def extend(sentence):
        extra = [tok(len(sentence) + i, w, upos="ADV", head=sentence.root.index, deprel="advmod")
                 for i, w in enumerate(words)]
        return Sentence(sentence.tokens + tuple(extra), sentence.ranges)
    return replace(document, sentences=tuple(map(extend, document.sentences)))


def assert_irritation_matches_the_window_loop(document):
    """SYN_IRRITATION captures the same tokens as with the window loop; returns them."""
    for sentence in document.sentences:
        assert sorted(english._intensifiers(sentence)) == sorted(intensifiers_by_window(sentence))
    rule = registry_for("en").get("SYN_IRRITATION").rule
    refs, raw = rule(DocContext(document))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(english, "_intensifiers", intensifiers_by_window)
        old_refs, old_raw = rule(DocContext(document))
    assert (sorted(refs), raw) == (sorted(old_refs), old_raw)
    return {document.token_at(si, ti).form for si, ti in refs}


def test_irritation_matches_the_window_loop_on_fixture_documents():
    assert len(ENGLISH_FIXTURES) == 42
    forms = set()
    for document in ENGLISH_FIXTURES:
        for chunk in IRRITATION_CHUNKS:
            forms |= assert_irritation_matches_the_window_loop(with_words(document, chunk))
    # every intensifier fires somewhere, and the near misses never do
    assert {f.casefold() for f in forms} >= {"always", "constantly", "all", "the", "time", "every"}
    assert "day" not in forms


@given(document=st.sampled_from(ENGLISH_FIXTURES),
       chunks=st.lists(st.sampled_from(IRRITATION_CHUNKS), max_size=6))
@settings(max_examples=200)
def test_irritation_matches_the_window_loop(document, chunks):
    assert_irritation_matches_the_window_loop(with_words(document, [w for c in chunks for w in c]))


PHRASE_HEADS = ("NOUN", "VERB", "ADP", "ADJ", "ADV")


def phrase_distance_by_scan(upos):
    """``universal.phrase_distance`` as its walk over every token of the
    document, averaging the gaps between the positions of consecutive heads."""
    def rule(ctx):
        positions = []
        refs = []
        for pos, (si, ti, tok) in enumerate(ctx.refs):
            if tok.upos != upos:
                continue
            sentence = ctx.doc.sentences[si]
            if tok.head is not None and sentence.tokens[tok.head].upos == upos:
                continue
            positions.append(pos)
            refs.append((si, ti))
        if len(positions) < 2:
            return refs, 0.0
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        return refs, sum(gaps) / len(gaps)
    return rule


def is_inverted_epithet(tok, sentence) -> bool:
    """``polish.inverted_epithets`` as the per-token test of its scan."""
    return (tok.upos == "ADJ" and tok.deprel_base() == "amod"
            and tok.head is not None and tok.head < tok.index)


def assert_phrase_distance_and_epithets_match_the_scans(document):
    """Every phrase head and SY_INV_EPITHET give the scans' refs and raw
    value (equal and of the same type); returns the raw values by head."""
    ctx = DocContext(document)
    raws = {}
    for upos in PHRASE_HEADS:
        refs, raw = universal.phrase_distance(upos)(ctx)
        old_refs, old_raw = phrase_distance_by_scan(upos)(ctx)
        assert sorted(refs) == sorted(old_refs), upos
        assert (raw, type(raw)) == (old_raw, type(old_raw)), upos
        raws[upos] = raw
    for sentence in document.sentences:
        assert polish.inverted_epithets(sentence) == \
            [t.index for t in sentence.tokens if is_inverted_epithet(t, sentence)]
    refs, raw = registry_for("pl").get("SY_INV_EPITHET").rule(ctx)
    assert (sorted(refs), raw) == (sorted(token_incidence(is_inverted_epithet)(ctx)[0]), None)
    return raws


def epithet_document():
    """Post-posed epithets (one with a subtype), a pre-posed one, and a
    post-posed amod that is not an adjective."""
    return build_doc(
        sent(tok(0, "dzień", upos="NOUN"),
             tok(1, "piękny", upos="ADJ", head=0, deprel="amod"),
             tok(2, "słoneczny", upos="ADJ", head=0, deprel="amod:flat")),
        sent(tok(0, "piękny", upos="ADJ", head=1, deprel="amod"),
             tok(1, "dzień", upos="NOUN"),
             tok(2, "drugi", upos="NUM", head=1, deprel="amod")),
        language="pl")


def test_phrase_distance_and_epithets_match_the_scans_on_fixed_documents():
    for document in FIXTURE_DOCS + [epithet_document()]:
        assert_phrase_distance_and_epithets_match_the_scans(document)
    ctx = DocContext(epithet_document())
    assert registry_for("pl").get("SY_INV_EPITHET").rule(ctx)[0] == [(0, 1), (0, 2)]


def test_phrase_distance_crosses_sentences():
    # noun heads at (0, 1) and (2, 2): the gap is the lengths of
    # sentences 0 and 1 (3 + 3) plus 2 - 1
    document = build_doc(
        sent(tok(0, "so", upos="ADV", head=1, deprel="advmod"), tok(1, "cats", upos="NOUN"),
             tok(2, "sleep", upos="VERB", head=1, deprel="acl")),
        word_sentence("run", "walk", "sit", upos="VERB"),
        sent(tok(0, "a", upos="DET", head=2, deprel="det"),
             tok(1, "big", upos="ADJ", head=2, deprel="amod"), tok(2, "dog", upos="NOUN")))
    assert assert_phrase_distance_and_epithets_match_the_scans(document)["NOUN"] == 7.0
    assert universal.phrase_distance("NOUN")(DocContext(document))[0] == [(0, 1), (2, 2)]


def test_phrase_distance_of_one_head_is_zero():
    # the nested noun's head is a noun, so "cats" is the only noun head
    document = build_doc(sent(tok(0, "cats", upos="NOUN"),
                              tok(1, "dogs", upos="NOUN", head=0, deprel="conj")))
    raws = assert_phrase_distance_and_epithets_match_the_scans(document)
    assert universal.phrase_distance("NOUN")(DocContext(document)) == ([(0, 0)], 0.0)
    assert raws == dict.fromkeys(PHRASE_HEADS, 0.0)


@given(seed=seeds, language=languages)
@settings(max_examples=60)
def test_phrase_distance_and_epithets_match_the_scans(seed, language):
    raws = assert_phrase_distance_and_epithets_match_the_scans(make_doc(seed, language))
    event(f"heads with a mean gap: {sum(raw > 0 for raw in raws.values())}")


MAX_EDITS = 3
# More token lines than edits, so no mutant loses every token line: an
# empty document is the one whole-payload error, reported without a line.
# The last source is a property document with multiword ranges, XPOS
# and NER labels, which no fixture has.
MUTATION_SOURCES = [
    text for text in [*(p.read_text(encoding="utf-8")
                        for p in sorted((Path(__file__).parent / "fixtures").rglob("*.conllu"))),
                      to_conllu(make_doc(1, "pl"))]
    if sum(line[:1].isdigit() for line in text.split("\n")) > MAX_EDITS
]


def test_property_documents_reach_ranges_xpos_and_entities():
    sentences = [s for seed in range(10) for s in make_doc(seed, "en").sentences]
    tokens = [t for s in sentences for t in s.tokens]
    assert sum(bool(s.ranges) for s in sentences) > len(sentences) // 4
    assert {t.xpos for t in tokens} == {None, *XPOS_TAGS}
    assert {t.entity for t in tokens} == {None, *ENTITIES}
    for s in sentences:
        for r in s.ranges:
            assert not any(t.space_after for t in s.tokens[r.start:r.end])
    ranged = MUTATION_SOURCES[-1]
    assert re.search(r"^\d+-\d+\t", ranged, re.M)
    assert re.search(r"^\d+\t([^\t]*\t){3}(NN|VB|JJ)", ranged, re.M)
    assert "NER=PER" in ranged


# Characters the format gives a meaning to, plus a letter, a non-ASCII
# letter and a non-ASCII digit.
EDIT_CHARS = "\t\n\r #-._=|:0129aé٣\ufeff"
edits = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "replace")),
              st.integers(min_value=0), st.integers(min_value=0), st.sampled_from(EDIT_CHARS)),
    min_size=1, max_size=MAX_EDITS,
)


def mutate(text: str, changes) -> str:
    """Apply (op, line, column, char) edits; line and column wrap around,
    and deleting at the end of a line joins it with the next one."""
    for op, line_pick, column_pick, char in changes:
        lines = text.split("\n")
        line = line_pick % len(lines)
        pos = sum(len(s) + 1 for s in lines[:line]) + column_pick % (len(lines[line]) + 1)
        text = text[:pos] + ("" if op == "delete" else char) + text[pos + (op != "insert"):]
    return text


@given(source=st.sampled_from(MUTATION_SOURCES), edits=edits)
@settings(max_examples=300)
def test_mutated_text_is_rejected_with_a_line_or_round_trips(source, edits):
    text = mutate(source, edits)
    try:
        doc = parse_conllu(text, doc_id="mutant")
    except ParseError as exc:
        assert exc.line > 0, str(exc)
        return
    assert parse_conllu(to_conllu(doc), doc_id="mutant") == doc


# Values a CoNLL-U line gives a meaning to: "_", "", "|", "=", tab,
# newline and carriage return, alone, inside a word and drawn as text.
odd_text = (st.sampled_from(("", "_", "|", "=", "a|b", "a=b", "a\tb", "a\nb", "a\r"))
            | st.text(alphabet="_|=\t\n\ra", max_size=3))
EDITED_FIELDS = ("form", "lemma", "upos", "xpos", "feat key", "feat value", "deprel", "deps",
                 "entity", "range form", "language")
value_edits = st.lists(st.tuples(st.integers(min_value=0), st.integers(min_value=0),
                                 st.sampled_from(EDITED_FIELDS), odd_text), max_size=2)


def with_values(document, edits):
    """``document`` with each (sentence, token, field, value) edit applied;
    sentence and token wrap around, and a range form edits every range of
    the sentence. A tree the edit breaks is a ModelError."""
    for si, ti, field, value in edits:
        if field == "language":
            document = replace(document, language=value)
            continue
        sentences = list(document.sentences)
        si %= len(sentences)
        tokens, ranges = list(sentences[si].tokens), sentences[si].ranges
        if field == "range form":
            ranges = tuple(replace(r, form=value) for r in ranges)
        else:
            ti %= len(tokens)
            change = {"feat key": {"feats": {value: "x"}},
                      "feat value": {"feats": {"A": value}}}.get(field, {field: value})
            tokens[ti] = replace(tokens[ti], **change)
        sentences[si] = Sentence(tuple(tokens), ranges)
        document = replace(document, sentences=tuple(sentences))
    return document


def written_value(document, place: str, column: str) -> str:
    """The text a ``sentence s, token t`` or ``sentence s, range a-b`` place
    writes into ``column``, as far as the tab-or-newline check reads it."""
    si, kind, where = re.fullmatch(r"sentence (\d+), (token|range) ([\d-]+)", place).groups()
    sentence = document.sentences[int(si) - 1]
    if kind == "range":
        assert column == "FORM"
        return next(r.form for r in sentence.ranges if f"{r.start + 1}-{r.end + 1}" == where)
    t = sentence.tokens[int(where) - 1]
    return {"FORM": t.form, "LEMMA": t.lemma, "UPOS": t.upos, "XPOS": t.xpos or "",
            "FEATS": "".join(k + v for k, v in t.feats.items()), "DEPREL": t.deprel,
            "DEPS": t.deps, "MISC": t.entity or ""}[column]


@given(seed=seeds, edits=value_edits)
@settings(max_examples=500)
def test_written_text_reads_back_or_the_writer_refuses(seed, edits):
    try:
        document = with_values(make_doc(seed, "en", max_tokens=12), edits)
    except ModelError:  # a non-root token lost its relation
        reject()
    try:
        text = to_conllu(document)
    except ModelError as exc:
        if str(exc).startswith("language "):
            return
        place, column = re.match(r"(sentence \d+, (?:token \d+|range \d+-\d+)), column ([A-Z]+): ",
                                 str(exc)).groups()
        # written without the read-back, only a tab or a newline is refused
        with mock.patch.object(conllu, "parse_conllu", lambda payload, doc_id: document):
            try:
                text = to_conllu(document)
            except ModelError as unchecked:
                assert str(unchecked) == str(exc)
                value = written_value(document, place, column)
                assert "\t" in value or "\n" in value, (str(exc), value)
                event("refused: tab or newline")
                return
        # the refused text is rejected by the reader or reads back as another document
        try:
            assert parse_conllu(text, doc_id=document.doc_id) != document
        except ParseError:
            pass
        event("refused on read-back")
        return
    event("round trip")
    assert parse_conllu(text, doc_id=document.doc_id) == document


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    """Under the repository's pytest settings a failing ``@given`` test ends
    in an ordinary failure report that shows its example."""
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n")
    config = Path(__file__).parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(config),
                          "test_fails.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert run.returncode == 1
