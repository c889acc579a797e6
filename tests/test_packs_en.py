from __future__ import annotations

from functools import lru_cache

import pytest

from stylovec.engine import evaluate_all
from stylovec.packs import registry_for
from stylovec.packs.english import extract_verb_groups

from conftest import doc, load_fixture, sent, tok


CELL_IDS = tuple(
    f"VG_{tense}_{aspect}_{voice}"
    for tense in ("PRES", "PAST", "FUT")
    for aspect in ("SIMPLE", "CONT", "PERF", "PERFCONT")
    for voice in ("ACT", "PASS")
)

# one fixture per tense x aspect x voice cell; expected raw = size of the
# single verb group (main verb plus auxiliary chain)
CELL_EXPECTATIONS = [
    ("c01", "VG_PRES_SIMPLE_ACT", 1),
    ("c02", "VG_PRES_SIMPLE_PASS", 2),
    ("c03", "VG_PRES_CONT_ACT", 2),
    ("c04", "VG_PRES_CONT_PASS", 3),
    ("c05", "VG_PRES_PERF_ACT", 2),
    ("c06", "VG_PRES_PERF_PASS", 3),
    ("c07", "VG_PRES_PERFCONT_ACT", 3),
    ("c08", "VG_PRES_PERFCONT_PASS", 4),
    ("c09", "VG_PAST_SIMPLE_ACT", 1),
    ("c10", "VG_PAST_SIMPLE_PASS", 2),
    ("c11", "VG_PAST_CONT_ACT", 2),
    ("c12", "VG_PAST_CONT_PASS", 3),
    ("c13", "VG_PAST_PERF_ACT", 2),
    ("c14", "VG_PAST_PERF_PASS", 3),
    ("c15", "VG_PAST_PERFCONT_ACT", 3),
    ("c16", "VG_PAST_PERFCONT_PASS", 4),
    ("c17", "VG_FUT_SIMPLE_ACT", 2),
    ("c18", "VG_FUT_SIMPLE_PASS", 3),
    ("c19", "VG_FUT_CONT_ACT", 3),
    ("c20", "VG_FUT_CONT_PASS", 4),
    ("c21", "VG_FUT_PERF_ACT", 3),
    ("c22", "VG_FUT_PERF_PASS", 4),
    ("c23", "VG_FUT_PERFCONT_ACT", 4),
    ("c24", "VG_FUT_PERFCONT_PASS", 5),
]

# modal auxiliaries fall back to the tense of their morphological form:
# preterite modals pattern with past, "shall" with future
MODAL_EXPECTATIONS = [
    ("m32", "VG_MODAL_CAN", "VG_PRES_SIMPLE_ACT"),
    ("m33", "VG_MODAL_COULD", "VG_PAST_SIMPLE_ACT"),
    ("m34", "VG_MODAL_MAY", "VG_PRES_SIMPLE_ACT"),
    ("m35", "VG_MODAL_MIGHT", "VG_PAST_SIMPLE_ACT"),
    ("m36", "VG_MODAL_MUST", "VG_PRES_SIMPLE_ACT"),
    ("m37", "VG_MODAL_SHALL", "VG_FUT_SIMPLE_ACT"),
    ("m38", "VG_MODAL_SHOULD", "VG_PAST_SIMPLE_ACT"),
    ("m39", "VG_MODAL_WOULD", "VG_PAST_SIMPLE_ACT"),
]

ALL_VERB_FIXTURES = (
    [name for name, _, _ in CELL_EXPECTATIONS]
    + [f"p{i}" for i in range(25, 32)]
    + [name for name, _, _ in MODAL_EXPECTATIONS]
    + ["x40"]
)


@lru_cache(maxsize=None)
def results_for(relpath):
    document = load_fixture(relpath)
    vector = evaluate_all(registry_for("en"), document)
    return document, {r.metric_id: r for r in vector.results}


def evaluate_doc(document):
    vector = evaluate_all(registry_for("en"), document)
    return {r.metric_id: r for r in vector.results}


class TestRegistryShape:
    def test_metric_count_and_categories(self):
        reg = registry_for("en")
        assert len(reg) == 118
        assert reg.categories() == (
            "pos", "text_stats", "syntactic", "social_media",
            "additional_lexical", "detailed_grammar", "general_grammar",
            "detailed_lexical",
        )

    def test_all_24_cells_present(self):
        reg = registry_for("en")
        for cid in CELL_IDS:
            assert cid in reg

    def test_registry_is_deterministic(self):
        assert registry_for("en").ids() == registry_for("en").ids()
        assert registry_for("en").schema_hash == registry_for("en").schema_hash

    def test_filtered_registry_is_cached(self):
        reg = registry_for("en", categories=["pos"])
        assert registry_for("en", categories=["pos"]) is reg
        assert registry_for("en", categories=("pos",)) is reg
        assert reg.categories() == ("pos",)


class TestVerbGroupCells:
    @pytest.mark.parametrize("name,cell,raw", CELL_EXPECTATIONS)
    def test_exactly_one_cell_fires(self, name, cell, raw):
        document, res = results_for(f"en_verbs/{name}.conllu")
        assert res[cell].raw_count == raw
        assert res[cell].value == raw / document.token_count
        for other in CELL_IDS:
            if other != cell:
                assert res[other].raw_count == 0, f"{name}: unexpected {other}"

    @pytest.mark.parametrize("name,cell,raw", CELL_EXPECTATIONS)
    def test_general_tense_and_voice_agree(self, name, cell, raw):
        _, res = results_for(f"en_verbs/{name}.conllu")
        tense = {"PRES": "VG_PRESENT", "PAST": "VG_PAST", "FUT": "VG_FUTURE"}[cell.split("_")[1]]
        voice = "VG_PASSIVE" if cell.endswith("_PASS") else "VG_ACTIVE"
        assert res[tense].raw_count == raw
        assert res[voice].raw_count == raw

    def test_captured_tokens_are_the_group(self):
        document, res = results_for("en_verbs/c24.conllu")
        captured = res["VG_FUT_PERFCONT_PASS"].captured
        forms = [document.token_at(si, ti).form for si, ti in captured]
        assert forms == ["will", "have", "been", "being", "restored"]


class TestModalGroups:
    @pytest.mark.parametrize("name,modal_id,cell", MODAL_EXPECTATIONS)
    def test_modal_and_tense_fallback(self, name, modal_id, cell):
        _, res = results_for(f"en_verbs/{name}.conllu")
        assert res[modal_id].raw_count == 2  # modal + main verb
        assert res[cell].raw_count == 2
        for other in (mid for _, mid, _ in MODAL_EXPECTATIONS if mid != modal_id):
            assert res[other].raw_count == 0


class TestFigureDetectors:
    def test_emphatic_do(self):
        _, res = results_for("en_verbs/p25.conllu")
        assert res["VG_PRES_SIMPLE_ACT"].raw_count == 2  # do + love
        assert res["SYN_DO_SUPPORT"].raw_count == 2
        assert res["PRON_1SG"].raw_count == 1

    def test_do_in_question_not_emphatic(self):
        d = doc(sent(
            tok(0, "Do", lemma="do", upos="AUX", head=2, deprel="aux"),
            tok(1, "you", lemma="you", upos="PRON", head=2, deprel="nsubj"),
            tok(2, "swim", lemma="swim", upos="VERB"),
            tok(3, "?", lemma="?", upos="PUNCT", head=2, deprel="punct"),
        ))
        assert evaluate_doc(d)["SYN_DO_SUPPORT"].raw_count == 0

    def test_negated_do_not_emphatic(self):
        d = doc(sent(
            tok(0, "I", lemma="i", upos="PRON", head=3, deprel="nsubj"),
            tok(1, "do", lemma="do", upos="AUX", head=3, deprel="aux"),
            tok(2, "not", lemma="not", upos="PART", head=3, deprel="advmod"),
            tok(3, "swim", lemma="swim", upos="VERB"),
            tok(4, ".", lemma=".", upos="PUNCT", head=3, deprel="punct"),
        ))
        assert evaluate_doc(d)["SYN_DO_SUPPORT"].raw_count == 0

    def test_irritation_with_always(self):
        document, res = results_for("en_verbs/p26.conllu")
        assert res["VG_PRES_CONT_ACT"].raw_count == 2  # 's + coming
        assert res["SYN_IRRITATION"].raw_count == 3
        forms = {document.token_at(si, ti).form for si, ti in res["SYN_IRRITATION"].captured}
        assert forms == {"'s", "coming", "always"}

    def test_irritation_with_constantly(self):
        _, res = results_for("en_verbs/p31.conllu")
        assert res["VG_PAST_CONT_ACT"].raw_count == 2  # was + losing
        assert res["SYN_IRRITATION"].raw_count == 3

    def test_intensifier_without_continuous_group(self):
        d = doc(sent(
            tok(0, "She", lemma="she", upos="PRON", head=2, deprel="nsubj"),
            tok(1, "always", lemma="always", upos="ADV", head=2, deprel="advmod"),
            tok(2, "comes", lemma="come", upos="VERB", feats={"Tense": "Pres", "VerbForm": "Fin"}),
            tok(3, "late", lemma="late", upos="ADV", head=2, deprel="advmod"),
        ))
        res = evaluate_doc(d)
        assert res["VG_PRES_SIMPLE_ACT"].raw_count == 1
        assert res["SYN_IRRITATION"].captured == ()

    def test_continuous_group_without_intensifier(self):
        _, res = results_for("en_verbs/c03.conllu")
        assert res["VG_PRES_CONT_ACT"].raw_count == 2
        assert res["SYN_IRRITATION"].captured == ()

    def test_inversion_and_fronting(self):
        document, res = results_for("en_verbs/p27.conllu")
        assert res["VG_PAST_SIMPLE_ACT"].raw_count == 1
        inv = {document.token_at(si, ti).form for si, ti in res["SYN_INVERSION"].captured}
        assert inv == {"stood", "shop"}
        front = [document.token_at(si, ti).form for si, ti in res["SYN_FRONTING"].captured]
        assert front == ["On", "the", "corner"]

    def test_fronted_adverb(self):
        document, res = results_for("en_verbs/p29.conllu")
        assert res["VG_PRES_CONT_ACT"].raw_count == 2
        front = [document.token_at(si, ti).form for si, ti in res["SYN_FRONTING"].captured]
        assert front == ["Carefully"]
        assert res["SYN_INVERSION"].raw_count == 0

    def test_as_adj_as_simile(self):
        document, res = results_for("en_verbs/p28.conllu")
        assert res["VG_PRES_SIMPLE_ACT"].raw_count == 2  # 's + busy (copular)
        forms = [document.token_at(si, ti).form for si, ti in res["SYN_SIMILE"].captured]
        assert forms == ["as", "busy", "as", "a", "bee"]

    def test_look_like_simile(self):
        document, res = results_for("en_verbs/p30.conllu")
        assert res["VG_PRES_SIMPLE_ACT"].raw_count == 1
        forms = [document.token_at(si, ti).form for si, ti in res["SYN_SIMILE"].captured]
        assert forms == ["looks", "like", "her", "mother"]

    def test_plain_passive(self):
        _, res = results_for("en_verbs/x40.conllu")
        assert res["VG_PAST_SIMPLE_PASS"].raw_count == 2  # were + loved
        assert res["VG_PASSIVE"].raw_count == 2
        assert res["VG_PAST"].raw_count == 2


class TestGroupConsistency:
    @pytest.mark.parametrize("name", ALL_VERB_FIXTURES)
    def test_detailed_cells_sum_to_general(self, name):
        _, res = results_for(f"en_verbs/{name}.conllu")
        detailed = sum(res[c].raw_count for c in CELL_IDS)
        tenses = sum(res[m].raw_count for m in ("VG_PRESENT", "VG_PAST", "VG_FUTURE"))
        voices = res["VG_ACTIVE"].raw_count + res["VG_PASSIVE"].raw_count
        assert detailed == tenses == voices
        assert detailed > 0

    @pytest.mark.parametrize("name", ALL_VERB_FIXTURES)
    def test_per_tense_and_per_voice_sums(self, name):
        _, res = results_for(f"en_verbs/{name}.conllu")
        for prefix, general in (("VG_PRES_", "VG_PRESENT"),
                                ("VG_PAST_", "VG_PAST"),
                                ("VG_FUT_", "VG_FUTURE")):
            cells = [c for c in CELL_IDS if c.startswith(prefix)]
            assert sum(res[c].raw_count for c in cells) == res[general].raw_count
        for suffix, general in (("_ACT", "VG_ACTIVE"), ("_PASS", "VG_PASSIVE")):
            cells = [c for c in CELL_IDS if c.endswith(suffix)]
            assert sum(res[c].raw_count for c in cells) == res[general].raw_count

    @pytest.mark.parametrize("name", ALL_VERB_FIXTURES)
    def test_every_group_is_classified(self, name):
        document = load_fixture(f"en_verbs/{name}.conllu")
        for sentence in document.sentences:
            groups = extract_verb_groups(sentence)
            assert groups, name
            for g in groups:
                assert g.tense in ("present", "past", "future")
                assert g.aspect in ("simple", "continuous", "perfect",
                                    "perfect_continuous")
                assert g.voice in ("active", "passive")

    def test_nonfinite_group_stays_unclassified(self):
        # bare infinitive clause: no finite anchor anywhere
        d = doc(sent(
            tok(0, "To", lemma="to", upos="PART", head=1, deprel="mark"),
            tok(1, "dream", lemma="dream", upos="VERB", feats={"VerbForm": "Inf"}),
        ))
        groups = extract_verb_groups(d.sentences[0])
        assert len(groups) == 1
        assert groups[0].tense is None and groups[0].aspect is None
        res = evaluate_doc(d)
        assert sum(res[c].raw_count for c in CELL_IDS) == 0
        for general in ("VG_PRESENT", "VG_PAST", "VG_FUTURE",
                        "VG_ACTIVE", "VG_PASSIVE"):
            assert res[general].raw_count == 0


class TestSentenceTypes:
    def make(self):
        return doc(
            sent(tok(0, "Words", upos="NOUN", head=1, deprel="nsubj"),
                 tok(1, "end", upos="VERB"),
                 tok(2, ".", upos="PUNCT", head=1, deprel="punct")),
            sent(tok(0, "Really", upos="ADV"),
                 tok(1, "?", upos="PUNCT", head=0, deprel="punct")),
            sent(tok(0, "Wow", upos="INTJ"),
                 tok(1, "!!", upos="PUNCT", head=0, deprel="punct")),
            sent(tok(0, "Well", upos="INTJ"),
                 tok(1, "...", upos="PUNCT", head=0, deprel="punct")),
        )

    def test_each_type_captures_its_sentence(self):
        res = evaluate_doc(self.make())
        assert res["ST_DECLARATIVE"].raw_count == 3
        assert res["ST_INTERROGATIVE"].raw_count == 2
        assert res["ST_EXCLAMATORY"].raw_count == 2
        assert res["ST_ELLIPSIS"].raw_count == 2

    def test_punctuation_counts(self):
        res = evaluate_doc(self.make())
        assert res["PUNCT_QUESTION"].raw_count == 1
        assert res["PUNCT_EXCLAMATION"].raw_count == 1
        assert res["PUNCT_ELLIPSIS"].raw_count == 1
        assert res["PUNCT_COMMA"].raw_count == 0


class TestLexicalMetrics:
    def test_pronoun_person_metrics(self):
        d = doc(sent(
            tok(0, "My", lemma="my", upos="DET", head=1, deprel="det"),
            tok(1, "island", lemma="island", upos="NOUN", head=2, deprel="nsubj"),
            tok(2, "suits", lemma="suit", upos="VERB"),
            tok(3, "him", lemma="he", upos="PRON", head=2, deprel="obj"),
            tok(4, "and", lemma="and", upos="CCONJ", head=5, deprel="cc"),
            tok(5, "them", lemma="they", upos="PRON", head=3, deprel="conj"),
        ))
        res = evaluate_doc(d)
        assert res["PRON_1SG"].raw_count == 1   # My; 'island' is not a PRON/DET
        assert res["PRON_3SG_M"].raw_count == 1  # him
        assert res["PRON_3PL"].raw_count == 1   # them
        assert res["PRON_2"].raw_count == 0

    def test_digital_vs_spelled_numerals(self):
        d = doc(sent(
            tok(0, "42", lemma="42", upos="NUM", head=2, deprel="nummod"),
            tok(1, "seven", lemma="seven", upos="NUM", head=2, deprel="nummod"),
            tok(2, "cats", lemma="cat", upos="NOUN"),
            tok(3, "7th", lemma="7th", upos="ADJ", head=2, deprel="amod"),
        ))
        res = evaluate_doc(d)
        assert res["NUM_DIGITAL"].raw_count == 1
        assert res["NUM_SPELLED"].raw_count == 1
        assert res["POS_NUM"].raw_count == 2

    def test_abbreviation_feat(self):
        d = doc(sent(
            tok(0, "etc", lemma="etc", upos="X", feats={"Abbr": "Yes"}),
            tok(1, "words", lemma="word", upos="NOUN", head=0, deprel="dep"),
        ))
        assert evaluate_doc(d)["LEX_ABBREVIATION"].raw_count == 1

    def test_sentiment_signs(self):
        d = doc(sent(
            tok(0, "love", lemma="love", upos="VERB"),
            tok(1, "bad", lemma="bad", upos="ADJ", head=0, deprel="xcomp"),
            tok(2, "plain", lemma="plain", upos="ADJ", head=0, deprel="xcomp"),
            tok(3, "chair", lemma="chair", upos="NOUN", head=0, deprel="obj"),
        ))
        res = evaluate_doc(d)
        assert res["SENT_POSITIVE"].raw_count == 1  # love
        assert res["SENT_NEGATIVE"].raw_count == 1  # bad; zero-weight 'plain' in neither

    def test_linking_phrase_and_single_word(self):
        d = doc(
            sent(
                tok(0, "For", lemma="for", upos="ADP", head=1, deprel="case"),
                tok(1, "example", lemma="example", upos="NOUN", head=3, deprel="obl"),
                tok(2, "this", lemma="this", upos="PRON", head=3, deprel="nsubj"),
                tok(3, "works", lemma="work", upos="VERB"),
            ),
            sent(
                tok(0, "namely", lemma="namely", upos="ADV", head=1, deprel="advmod"),
                tok(1, "here", lemma="here", upos="ADV"),
            ),
        )
        res = evaluate_doc(d)
        assert res["LINK_EXAMPLE"].raw_count == 3  # 'for example' + 'namely'

    def test_stopwords_intensifiers_hurtful(self):
        d = doc(sent(
            tok(0, "The", lemma="the", upos="DET", head=2, deprel="det"),
            tok(1, "very", lemma="very", upos="ADV", head=2, deprel="advmod"),
            tok(2, "idiot", lemma="idiot", upos="NOUN"),
            tok(3, "shouted", lemma="shout", upos="VERB", head=2, deprel="parataxis"),
        ))
        res = evaluate_doc(d)
        assert res["FW_STOPWORD"].raw_count >= 1   # 'the' at minimum
        assert res["LEX_INTENSIFIER"].raw_count == 1
        assert res["LEX_HURTFUL"].raw_count == 1

    def test_graphical_metrics_wired(self):
        d = doc(sent(
            tok(0, "WOW", lemma="wow", upos="INTJ"),
            tok(1, "🎉", lemma="🎉", upos="SYM", head=0, deprel="discourse"),
            tok(2, ":-)", lemma=":-)", upos="SYM", head=0, deprel="discourse"),
        ))
        res = evaluate_doc(d)
        assert res["GR_CAPS"].raw_count == 1
        assert res["GR_EMOJI"].raw_count == 1
        assert res["GR_EMOTICON"].raw_count == 1


class TestNormalizationOnFixtures:
    @pytest.mark.parametrize("name", ALL_VERB_FIXTURES)
    def test_value_is_raw_over_token_count(self, name):
        document, res = results_for(f"en_verbs/{name}.conllu")
        for r in res.values():
            assert r.error is None
            assert 0.0 <= r.value <= 1.0
            assert r.value == r.raw_count / document.token_count
