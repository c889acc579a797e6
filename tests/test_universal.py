from __future__ import annotations

import re
from collections import Counter

import pytest

from stylovec.engine import DocContext
from stylovec.model import CONTENT_UPOS, FUNCTION_UPOS
from stylovec.universal import (
    GRAPHICAL_KINDS,
    TokenTest,
    clause,
    function_content_split,
    graphical_incidence,
    has_emoji,
    phrase_distance,
    pos_incidence,
    repetition_incidence,
    sentence_pattern,
    syllable_count,
    token_pattern,
    top_frequency_incidence,
    type_token_ratio,
    word_length_incidence,
)

from conftest import doc, sent, tok, word_sentence


def run(rule, document):
    refs, raw = rule(DocContext(document))
    refs = sorted(set(refs))
    return refs, (len(refs) if raw is None else raw)


class TestSyllableCount:
    @pytest.mark.parametrize("word,language,expected", [
        ("cat", "en", 1),
        ("make", "en", 1),      # final lone 'e' dropped
        ("be", "en", 1),        # drop would leave zero syllables
        ("sequence", "en", 2),
        ("idea", "en", 2),
        ("queue", "en", 1),     # one maximal vowel run
        ("xyzzy", "en", 2),     # y is an English vowel letter
        ("THE", "en", 1),       # case-insensitive
        ("42", "en", 0),
        (".", "en", 0),
        ("kot", "pl", 1),
        ("matematyka", "pl", 5),
        ("się", "pl", 1),
        ("serce", "pl", 2),     # no silent-e rule outside English
        ("привіт", "uk", 2),
        ("молоко", "ru", 3),
    ])
    def test_counts(self, word, language, expected):
        assert syllable_count(word, language) == expected

    def test_unknown_language_has_no_vowels(self):
        with pytest.raises(KeyError):
            syllable_count("cat", "de")


class TestTokenTest:
    def make(self):
        return sent(
            tok(0, "The", lemma="the", upos="DET", head=1, deprel="det"),
            tok(1, "Cats", lemma="cat", upos="NOUN", head=2, deprel="nsubj",
                feats={"Number": "Plur", "Gender": "Masc,Fem"}, entity="ANIM",
                xpos="NNS"),
            tok(2, "sat", lemma="sit", upos="VERB", feats={"Tense": "Past"}),
            tok(3, ".", lemma=".", upos="PUNCT", head=2, deprel="punct"),
        )

    def match_set(self, test):
        s = self.make()
        return {t.form for t in s.tokens if test.matches(t, s)}

    def test_empty_test_matches_all(self):
        assert self.match_set(TokenTest()) == {"The", "Cats", "sat", "."}

    def test_upos(self):
        assert self.match_set(TokenTest(upos=frozenset({"NOUN", "VERB"}))) == {"Cats", "sat"}

    def test_deprel_exact_vs_base(self):
        s = sent(
            tok(0, "nie", upos="PART", head=1, deprel="advmod:neg"),
            tok(1, "ma", upos="VERB"),
        )
        exact = TokenTest(deprel=frozenset({"advmod"}))
        base = TokenTest(deprel_base=frozenset({"advmod"}))
        assert not exact.matches(s.tokens[0], s)
        assert base.matches(s.tokens[0], s)

    def test_feats_and_multivalue(self):
        assert self.match_set(TokenTest(feats=(("Number", "Plur"),))) == {"Cats"}
        assert self.match_set(TokenTest(feats=(("Gender", "Fem"),))) == {"Cats"}
        assert self.match_set(TokenTest(feats=(("Tense", "Pres"),))) == set()

    def test_feats_absent(self):
        assert self.match_set(TokenTest(feats_absent=("Tense", "Number"))) == {"The", "."}

    def test_lemma_and_form_sets_casefold(self):
        assert self.match_set(TokenTest(lemma_in=frozenset({"cat"}))) == {"Cats"}
        assert self.match_set(TokenTest(form_in=frozenset({"cats", "the"}))) == {"The", "Cats"}

    def test_form_regexes_use_search(self):
        assert self.match_set(TokenTest(form_re=re.compile("at"))) == {"Cats", "sat"}
        assert self.match_set(TokenTest(form_not_re=re.compile("a"))) == {"The", "."}

    def test_entity_and_punct(self):
        assert self.match_set(TokenTest(entity="ANIM")) == {"Cats"}
        assert self.match_set(TokenTest(is_punct=True)) == {"."}
        assert self.match_set(TokenTest(is_punct=False)) == {"The", "Cats", "sat"}

    def test_xpos_prefix(self):
        assert self.match_set(TokenTest(xpos_prefix="NN")) == {"Cats"}
        assert self.match_set(TokenTest(xpos_prefix="VB")) == set()

    def test_child_and_no_child(self):
        has_det_child = TokenTest(child=TokenTest(upos=frozenset({"DET"})))
        assert self.match_set(has_det_child) == {"Cats"}
        no_punct_child = TokenTest(upos=frozenset({"VERB"}),
                                   no_child=TokenTest(is_punct=True))
        assert self.match_set(no_punct_child) == set()

    def test_head_test(self):
        headed_by_verb = TokenTest(head=TokenTest(upos=frozenset({"VERB"})))
        assert self.match_set(headed_by_verb) == {"Cats", "."}
        # root token has no head, so a head test never matches it
        assert self.match_set(TokenTest(upos=frozenset({"VERB"}),
                                        head=TokenTest())) == set()

    def test_conjunction_of_fields(self):
        t = TokenTest(upos=frozenset({"NOUN"}), feats=(("Number", "Sing"),))
        assert self.match_set(t) == set()


class TestSentenceClause:
    def test_quantifiers(self):
        s = sent(
            tok(0, "Dogs", upos="NOUN", head=1, deprel="nsubj"),
            tok(1, "bark", upos="VERB"),
            tok(2, "!", upos="PUNCT", head=1, deprel="punct"),
        )
        noun = TokenTest(upos=frozenset({"NOUN"}))
        assert clause("any", noun)(s)
        assert not clause("all", noun)(s)
        assert clause("none", TokenTest(upos=frozenset({"ADJ"})))(s)
        assert clause("first", noun)(s)
        assert not clause("last", noun)(s)
        assert clause("last", TokenTest(is_punct=True))(s)

    def test_unknown_quantifier_rejected(self):
        with pytest.raises(ValueError, match="unknown quantifier 'some'"):
            clause("some", TokenTest())


class TestPatternRules:
    def test_token_pattern_captures_matching_tokens(self):
        d = doc(word_sentence("a", "b"), word_sentence("c"))
        refs, raw = run(token_pattern(TokenTest(form_in=frozenset({"a", "c"}))), d)
        assert refs == [(0, 0), (1, 0)]
        assert raw == 2

    def test_sentence_pattern_captures_whole_sentences(self):
        d = doc(
            sent(tok(0, "Go", upos="VERB"), tok(1, "!", upos="PUNCT", head=0, deprel="punct")),
            word_sentence("quiet", "words", "here"),
        )
        exclaims = clause("last", TokenTest(form_in=frozenset({"!"})))
        refs, raw = run(sentence_pattern((exclaims,)), d)
        assert refs == [(0, 0), (0, 1)]
        assert raw == 2

    def test_sentence_pattern_conjunction(self):
        d = doc(
            sent(tok(0, "Go", upos="VERB"), tok(1, "!", upos="PUNCT", head=0, deprel="punct")),
            sent(tok(0, "Ouch", upos="INTJ"), tok(1, "!", upos="PUNCT", head=0, deprel="punct")),
        )
        clauses = (
            clause("last", TokenTest(form_in=frozenset({"!"}))),
            clause("any", TokenTest(upos=frozenset({"VERB"}))),
        )
        refs, _ = run(sentence_pattern(clauses), d)
        assert refs == [(0, 0), (0, 1)]

    def test_pos_and_feat_incidence(self):
        d = doc(sent(
            tok(0, "cats", upos="NOUN", head=1, deprel="nsubj", feats={"Number": "Plur"}),
            tok(1, "sleep", upos="VERB", feats={"Number": "Plur"}),
        ))
        refs, _ = run(pos_incidence("NOUN"), d)
        assert refs == [(0, 0)]
        plural = (("Number", "Plur"),)
        refs, _ = run(token_pattern(TokenTest(feats=plural)), d)
        assert refs == [(0, 0), (0, 1)]
        refs, _ = run(token_pattern(TokenTest(upos=frozenset({"NOUN"}), feats=plural)), d)
        assert refs == [(0, 0)]


class TestTypeTokenRatio:
    def make(self):
        return doc(sent(
            tok(0, "The", lemma="the", upos="DET", head=1, deprel="det"),
            tok(1, "cat", lemma="cat", upos="NOUN", head=3, deprel="nsubj"),
            tok(2, "THE", lemma="the", upos="DET", head=3, deprel="det"),
            tok(3, "saw", lemma="see", upos="VERB"),
            tok(4, "seen", lemma="see", upos="VERB", head=3, deprel="xcomp"),
            tok(5, ".", lemma=".", upos="PUNCT", head=3, deprel="punct"),
        ))

    def test_form_layer_casefolds_and_skips_punct(self):
        refs, raw = run(type_token_ratio("form"), self.make())
        # distinct forms: the, cat, saw, seen
        assert raw == 4.0
        assert refs == [(0, 0), (0, 1), (0, 3), (0, 4)]  # first occurrence each

    def test_lemma_layer(self):
        refs, raw = run(type_token_ratio("lemma"), self.make())
        # distinct lemmas: the, cat, see
        assert raw == 3.0
        assert refs == [(0, 0), (0, 1), (0, 3)]

    @pytest.mark.parametrize("factory", [
        type_token_ratio, lambda layer: top_frequency_incidence(0.5, layer),
    ], ids=["type_token_ratio", "top_frequency"])
    def test_unknown_layer_rejected_when_built(self, factory):
        with pytest.raises(ValueError, match="^unknown layer 'lemmas'$"):
            factory("lemmas")

    def test_matches_brute_force_set_count(self):
        d = self.make()
        expected = len({t.form.casefold() for t in d.tokens() if not t.is_punct})
        _, raw = run(type_token_ratio("form"), d)
        assert raw == expected


class TestTopFrequency:
    def make(self):
        # form frequencies: aa x4, bb x3, cc x2, dd x1, ee x1  (plus punct, ignored)
        words = ["aa"] * 4 + ["bb"] * 3 + ["cc"] * 2 + ["dd", "ee"]
        s = sent(
            tok(0, words[0]),
            *[tok(i, w, head=0, deprel="dep") for i, w in enumerate(words[1:], start=1)],
            tok(11, ".", upos="PUNCT", head=0, deprel="punct"),
        )
        return doc(s)

    def test_k_is_ceiling_of_fraction(self):
        d = self.make()
        refs, raw = run(top_frequency_incidence(0.2), d)   # ceil(0.2*5)=1 -> {aa}
        assert raw == 4
        refs, raw = run(top_frequency_incidence(0.21), d)  # ceil(1.05)=2 -> {aa,bb}
        assert raw == 7
        refs, raw = run(top_frequency_incidence(0.6), d)   # ceil(3)=3 -> {aa,bb,cc}
        assert raw == 9

    def test_tie_breaks_alphabetically(self):
        d = self.make()
        # k=4: dd and ee tie at count 1; 'dd' sorts first
        refs, raw = run(top_frequency_incidence(0.8), d)
        assert raw == 10
        forms = {d.token_at(si, ti).form for si, ti in refs}
        assert forms == {"aa", "bb", "cc", "dd"}

    def test_all_punct_document_is_zero(self):
        d = doc(sent(tok(0, "!", upos="PUNCT")))
        refs, raw = run(top_frequency_incidence(0.5), d)
        assert refs == [] and raw == 0.0


class TestWordLength:
    def test_min_chars(self):
        d = doc(word_sentence("a", "bcdefghi", "jk", "lmnopqrst"))
        refs, _ = run(word_length_incidence(min_chars=8), d)
        forms = {d.token_at(si, ti).form for si, ti in refs}
        assert forms == {"bcdefghi", "lmnopqrst"}

    def test_min_syllables(self):
        d = doc(word_sentence("cat", "banana", "independence", "."))
        refs, _ = run(word_length_incidence(min_syllables=3, language="en"), d)
        forms = {d.token_at(si, ti).form for si, ti in refs}
        assert forms == {"banana", "independence"}

    def test_punct_never_counted(self):
        d = doc(sent(
            tok(0, "word"),
            tok(1, "!!!!!!!!!!", upos="PUNCT", head=0, deprel="punct"),
        ))
        refs, _ = run(word_length_incidence(min_chars=1), d)
        assert refs == [(0, 0)]


class TestFunctionContentSplit:
    def make(self):
        return doc(sent(
            tok(0, "Maps", upos="NOUN", head=1, deprel="nsubj"),
            tok(1, "help", upos="VERB"),
            tok(2, "the", upos="DET", head=3, deprel="det"),
            tok(3, "lost", upos="ADJ", head=1, deprel="obj"),
            tok(4, "5", upos="NUM", head=1, deprel="nummod"),
            tok(5, "!", upos="PUNCT", head=1, deprel="punct"),
        ))

    def test_three_way_partition(self):
        d = self.make()
        content, _ = run(function_content_split("content"), d)
        function, _ = run(function_content_split("function"), d)
        other, _ = run(function_content_split("other"), d)
        assert len(content) == 3 and len(function) == 1 and len(other) == 2
        assert sorted(content + function + other) == [(0, i) for i in range(6)]
        assert not (set(content) & set(function))
        assert not (set(content) & set(other))
        assert not (set(function) & set(other))

    def test_matches_upos_classes(self):
        d = self.make()
        content, _ = run(function_content_split("content"), d)
        for si, ti in content:
            assert d.token_at(si, ti).upos in CONTENT_UPOS
        function, _ = run(function_content_split("function"), d)
        for si, ti in function:
            assert d.token_at(si, ti).upos in FUNCTION_UPOS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            function_content_split("stopword")


class TestGraphical:
    EXAMPLES = {
        "emoji": "🎉",
        "emoticon": ":-)",
        "url": "https://example.test/page",
        "hashtag": "#linguistics",
        "mention": "@friend",
        "lenny": "(ツ)",
        "masked_word": "d**n",
        "capitalized": "WOW",
    }

    def make(self):
        forms = list(self.EXAMPLES.values()) + ["plain", "word"]
        return doc(word_sentence(*forms, upos="X"))

    @pytest.mark.parametrize("kind", GRAPHICAL_KINDS)
    def test_each_kind_hits_only_its_example(self, kind):
        d = self.make()
        emoticons = frozenset({":-)", ":)"})
        refs, _ = run(graphical_incidence(kind, emoticons=emoticons), d)
        forms = {d.token_at(si, ti).form for si, ti in refs}
        assert forms == {self.EXAMPLES[kind]}

    def test_negatives(self):
        d = doc(word_sentence("plain", "Word", "ab", "e.g.", "x", upos="X"))
        for kind in GRAPHICAL_KINDS:
            refs, _ = run(graphical_incidence(kind, emoticons=frozenset({":)"})), d)
            assert refs == [], kind

    def test_url_variants(self):
        d = doc(word_sentence("www.example.test", "HTTP://X.Y", "ftp://n", upos="X"))
        refs, _ = run(graphical_incidence("url"), d)
        forms = {d.token_at(si, ti).form for si, ti in refs}
        assert forms == {"www.example.test", "HTTP://X.Y"}

    def test_has_emoji_ranges(self):
        assert has_emoji("party 🎉 time")
        assert has_emoji("☀")
        assert not has_emoji("plain ascii :-)")
        ranges = [(0x1F1E6, 0x1F1FF), (0x1F300, 0x1F5FF), (0x1F600, 0x1F64F),
                  (0x1F680, 0x1F6FF), (0x1F900, 0x1F9FF), (0x1FA70, 0x1FAFF),
                  (0x2600, 0x26FF), (0x2700, 0x27BF), (0x2B00, 0x2BFF)]
        def covered(o):
            return any(lo <= o <= hi for lo, hi in ranges)
        for lo, hi in ranges:
            assert has_emoji(chr(lo)) and has_emoji(chr(hi)), hex(lo)
            for outside in (lo - 1, hi + 1):
                assert has_emoji(chr(outside)) == covered(outside), hex(outside)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            graphical_incidence("sticker")


class TestRepetition:
    def test_lemma_bigram_counts_all_occurrences(self):
        d = doc(
            sent(
                tok(0, "the", lemma="the", upos="DET", head=1, deprel="det"),
                tok(1, "cat", lemma="cat", upos="NOUN", head=2, deprel="nsubj"),
                tok(2, "sat", lemma="sit", upos="VERB"),
                tok(3, ".", upos="PUNCT", head=2, deprel="punct"),
            ),
            sent(
                tok(0, "The", lemma="the", upos="DET", head=1, deprel="det"),
                tok(1, "cats", lemma="cat", upos="NOUN", head=2, deprel="nsubj"),
                tok(2, "ran", lemma="run", upos="VERB"),
                tok(3, ".", upos="PUNCT", head=2, deprel="punct"),
            ),
        )
        refs, raw = run(repetition_incidence("lemma_bigram"), d)
        # bigram (the, cat) occurs twice -> both occurrences, 4 tokens
        assert refs == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert raw == 4

    def test_punctuation_breaks_bigrams(self):
        d = doc(
            sent(
                tok(0, "yes", lemma="yes", upos="INTJ"),
                tok(1, ",", upos="PUNCT", head=0, deprel="punct"),
                tok(2, "no", lemma="no", upos="INTJ", head=0, deprel="conj"),
            ),
            sent(
                tok(0, "yes", lemma="yes", upos="INTJ"),
                tok(1, "no", lemma="no", upos="INTJ", head=0, deprel="conj"),
            ),
            sent(
                tok(0, "yes", lemma="yes", upos="INTJ"),
                tok(1, "no", lemma="no", upos="INTJ", head=0, deprel="conj"),
            ),
        )
        refs, raw = run(repetition_incidence("lemma_bigram"), d)
        # (yes, no) occurs in sentences 1 and 2 only; the comma severs sentence 0
        assert refs == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_sentence_repetition_captures_every_copy(self):
        rep = word_sentence("again", "and", "again")
        d = doc(rep, word_sentence("unique", "words"), rep)
        refs, raw = run(repetition_incidence("sentence"), d)
        assert refs == [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)]
        assert raw == 6

    def test_sentence_repetition_casefolds(self):
        d = doc(word_sentence("Ha"), word_sentence("ha"))
        refs, raw = run(repetition_incidence("sentence"), d)
        assert raw == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            repetition_incidence("trigram")


class TestPhraseDistance:
    def test_mean_gap_between_heads(self):
        # ten tokens, VERB root at index 1; NOUN heads at flat positions
        # 0 and 4 -> one gap of 4
        toks = []
        for i in range(10):
            upos = "NOUN" if i in (0, 4) else "VERB"
            toks.append(tok(i, f"w{i}", upos=upos,
                            head=None if i == 1 else 1,
                            deprel="root" if i == 1 else "dep"))
        d = doc(sent(*toks))
        refs, raw = run(phrase_distance("NOUN"), d)
        assert refs == [(0, 0), (0, 4)]
        assert raw == 4.0
        # three heads at 0, 4, 6 -> gaps 4 and 2 -> mean 3
        toks[6] = tok(6, "w6", upos="NOUN", head=1, deprel="dep")
        d = doc(sent(*toks))
        _, raw = run(phrase_distance("NOUN"), d)
        assert raw == 3.0

    def test_noun_headed_by_noun_is_not_a_phrase_head(self):
        d = doc(sent(
            tok(0, "coffee", upos="NOUN", head=1, deprel="compound"),
            tok(1, "cup", upos="NOUN"),
            tok(2, "broke", upos="VERB", head=1, deprel="parataxis"),
        ))
        refs, raw = run(phrase_distance("NOUN"), d)
        assert refs == [(0, 1)]
        assert raw == 0.0  # fewer than two heads

    def test_counts_span_sentences(self):
        d = doc(
            sent(tok(0, "dog", upos="NOUN")),
            sent(tok(0, "ran", upos="VERB")),
            sent(tok(0, "cat", upos="NOUN")),
        )
        _, raw = run(phrase_distance("NOUN"), d)
        assert raw == 2.0  # flat positions 0 and 2

    def test_no_heads_is_zero(self):
        d = doc(word_sentence("run", upos="VERB"))
        refs, raw = run(phrase_distance("NOUN"), d)
        assert refs == [] and raw == 0.0
