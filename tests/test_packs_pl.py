from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from stylovec.engine import evaluate_all
from stylovec.packs import DATA_DIR, registry_for

from conftest import doc, load_fixture, sent, tok


NEG_EXPECTATIONS = [
    # fixture, token count, tokens of sentences with clause negation
    ("neg01", 12, 4),
    ("neg02", 7, 0),
    ("neg03", 7, 7),
    ("neg04", 6, 0),
    ("neg05", 8, 5),
    ("neg06", 7, 7),
    ("neg07", 9, 4),
    ("neg08", 8, 5),
    ("neg09", 11, 8),
    ("neg10", 7, 4),
]


def evaluate_doc(document):
    vector = evaluate_all(registry_for("pl"), document)
    return {r.metric_id: r for r in vector.results}


def pl_doc(*sentences):
    return doc(*sentences, language="pl")


class TestRegistryShape:
    def test_metric_count_and_categories(self):
        reg = registry_for("pl")
        assert len(reg) == 107
        assert set(reg.categories()) == {
            "grammatical_forms", "punctuation", "syntax", "lexical",
            "descriptive", "graphical", "inflection", "psycholinguistic",
        }

    def test_negation_metric_carries_reference_name(self):
        desc = registry_for("pl").get("SY_S_NEG").descriptor
        assert desc.name_en == "negative_sentences"
        assert desc.category == "syntax"


class TestNegativeSentences:
    @pytest.mark.parametrize("name,count,raw", NEG_EXPECTATIONS)
    def test_exact_rational_value(self, name, count, raw):
        document = load_fixture(f"pl_neg/{name}.conllu")
        assert document.token_count == count
        res = evaluate_doc(document)["SY_S_NEG"]
        assert res.raw_count == raw
        assert res.value == float(Fraction(raw, count))
        assert len(res.captured) == raw

    def test_captures_whole_matched_sentences(self):
        document = load_fixture("pl_neg/neg01.conllu")
        res = evaluate_doc(document)["SY_S_NEG"]
        # sentence 0 matches in full; sentence 1 contributes nothing
        assert res.captured == ((0, 0), (0, 1), (0, 2), (0, 3))

    def test_both_clauses_required(self):
        # negation particle without any finite predicate -> no match
        document = load_fixture("pl_neg/neg04.conllu")
        assert evaluate_doc(document)["SY_S_NEG"].raw_count == 0
        # plain advmod on the particle does not count as clause negation
        document = load_fixture("pl_neg/neg07.conllu")
        res = evaluate_doc(document)["SY_S_NEG"]
        assert {si for si, _ in res.captured} == {1}


class TestSyntaxDetectors:
    def test_nominal_sentence(self):
        d = pl_doc(
            sent(
                tok(0, "Piękny", lemma="piękny", upos="ADJ", head=1, deprel="amod"),
                tok(1, "dzień", lemma="dzień", upos="NOUN"),
                tok(2, ".", lemma=".", upos="PUNCT", head=1, deprel="punct"),
            ),
            sent(
                tok(0, "Dzień", lemma="dzień", upos="NOUN", head=1, deprel="nsubj"),
                tok(1, "trwa", lemma="trwać", upos="VERB"),
                tok(2, ".", lemma=".", upos="PUNCT", head=1, deprel="punct"),
            ),
        )
        res = evaluate_doc(d)["SY_NOMINAL"]
        assert res.captured == ((0, 0), (0, 1), (0, 2))

    def test_quoted_word(self):
        d = pl_doc(sent(
            tok(0, "To", lemma="to", upos="PRON", head=3, deprel="nsubj"),
            tok(1, "„", lemma="„", upos="PUNCT", head=3, deprel="punct"),
            tok(2, "dom", lemma="dom", upos="NOUN", head=3, deprel="nmod"),
            tok(3, "praca", lemma="praca", upos="NOUN"),
            tok(4, "”", lemma="”", upos="PUNCT", head=3, deprel="punct"),
            tok(5, "było", lemma="być", upos="AUX", head=3, deprel="cop"),
        ))
        res = evaluate_doc(d)["SY_QUOTED"]
        assert res.captured == ((0, 2), (0, 3))

    def test_unclosed_quote_captures_nothing(self):
        d = pl_doc(sent(
            tok(0, "„", lemma="„", upos="PUNCT", head=1, deprel="punct"),
            tok(1, "dom", lemma="dom", upos="NOUN"),
        ))
        assert evaluate_doc(d)["SY_QUOTED"].raw_count == 0

    def test_two_quoted_spans_in_one_sentence(self):
        d = pl_doc(sent(
            tok(0, "„", lemma="„", upos="PUNCT", head=1, deprel="punct"),
            tok(1, "dom", lemma="dom", upos="NOUN"),
            tok(2, "”", lemma="”", upos="PUNCT", head=1, deprel="punct"),
            tok(3, "i", lemma="i", upos="CCONJ", head=5, deprel="cc"),
            tok(4, "«", lemma="«", upos="PUNCT", head=5, deprel="punct"),
            tok(5, "praca", lemma="praca", upos="NOUN", head=1, deprel="conj"),
            tok(6, ",", lemma=",", upos="PUNCT", head=5, deprel="punct"),
            tok(7, "odpoczynek", lemma="odpoczynek", upos="NOUN", head=5, deprel="conj"),
            tok(8, "»", lemma="»", upos="PUNCT", head=5, deprel="punct"),
        ))
        assert evaluate_doc(d)["SY_QUOTED"].captured == ((0, 1), (0, 5), (0, 7))

    def test_closed_pair_then_unclosed_quote(self):
        d = pl_doc(sent(
            tok(0, "„", lemma="„", upos="PUNCT", head=1, deprel="punct"),
            tok(1, "dom", lemma="dom", upos="NOUN"),
            tok(2, "”", lemma="”", upos="PUNCT", head=1, deprel="punct"),
            tok(3, "i", lemma="i", upos="CCONJ", head=5, deprel="cc"),
            tok(4, "„", lemma="„", upos="PUNCT", head=5, deprel="punct"),
            tok(5, "praca", lemma="praca", upos="NOUN", head=1, deprel="conj"),
        ))
        assert evaluate_doc(d)["SY_QUOTED"].captured == ((0, 1),)

    def test_ovs_order(self):
        d = pl_doc(sent(
            tok(0, "Książkę", lemma="książka", upos="NOUN", head=1, deprel="obj",
                feats={"Case": "Acc"}),
            tok(1, "czyta", lemma="czytać", upos="VERB", feats={"Tense": "Pres"}),
            tok(2, "Piotr", lemma="Piotr", upos="PROPN", head=1, deprel="nsubj",
                feats={"Case": "Nom"}),
            tok(3, ".", lemma=".", upos="PUNCT", head=1, deprel="punct"),
        ))
        res = evaluate_doc(d)["SY_OVS"]
        assert res.captured == ((0, 0), (0, 1), (0, 2))

    def test_svo_order_not_flagged(self):
        d = pl_doc(sent(
            tok(0, "Piotr", lemma="Piotr", upos="PROPN", head=1, deprel="nsubj"),
            tok(1, "czyta", lemma="czytać", upos="VERB"),
            tok(2, "książkę", lemma="książka", upos="NOUN", head=1, deprel="obj"),
        ))
        assert evaluate_doc(d)["SY_OVS"].raw_count == 0

    def test_inverted_epithet(self):
        d = pl_doc(sent(
            tok(0, "dzień", lemma="dzień", upos="NOUN"),
            tok(1, "piękny", lemma="piękny", upos="ADJ", head=0, deprel="amod"),
        ))
        res = evaluate_doc(d)
        assert res["SY_INV_EPITHET"].captured == ((0, 1),)
        # pre-posed epithet is the unmarked order
        d = pl_doc(sent(
            tok(0, "piękny", lemma="piękny", upos="ADJ", head=1, deprel="amod"),
            tok(1, "dzień", lemma="dzień", upos="NOUN"),
        ))
        assert evaluate_doc(d)["SY_INV_EPITHET"].raw_count == 0

    def simile_doc(self):
        return pl_doc(
            sent(
                tok(0, "szybki", lemma="szybki", upos="ADJ", head=None, deprel="root"),
                tok(1, "jak", lemma="jak", upos="SCONJ", head=2, deprel="case"),
                tok(2, "błyskawica", lemma="błyskawica", upos="NOUN", head=0, deprel="obl"),
            ),
            sent(
                tok(0, "biega", lemma="biegać", upos="VERB"),
                tok(1, "jak", lemma="jak", upos="SCONJ", head=2, deprel="mark"),
                tok(2, "szalony", lemma="szalony", upos="ADJ", head=0, deprel="advcl"),
            ),
        )

    def test_simile_to_noun(self):
        res = evaluate_doc(self.simile_doc())["SY_SIMILE_A"]
        assert res.captured == ((0, 1), (0, 2))

    def test_simile_to_adjective(self):
        res = evaluate_doc(self.simile_doc())["SY_SIMILE_B"]
        assert res.captured == ((1, 1), (1, 2))


class TestGrammaticalForms:
    def make(self):
        return pl_doc(sent(
            tok(0, "Czytam", lemma="czytać", upos="VERB",
                feats={"Tense": "Pres", "Aspect": "Imp", "VerbForm": "Fin"}),
            tok(1, "przeczytałem", lemma="przeczytać", upos="VERB", head=0,
                deprel="conj", feats={"Tense": "Past", "Aspect": "Perf"}),
            tok(2, "przeczytam", lemma="przeczytać", upos="VERB", head=0,
                deprel="conj", feats={"Tense": "Fut", "Aspect": "Perf"}),
            tok(3, "czytałbym", lemma="czytać", upos="VERB", head=0,
                deprel="conj", feats={"Mood": "Cnd"}),
            tok(4, "czytaj", lemma="czytać", upos="VERB", head=0,
                deprel="conj", feats={"Mood": "Imp"}),
            tok(5, "czytany", lemma="czytać", upos="VERB", head=0,
                deprel="conj", feats={"Voice": "Pass", "VerbForm": "Part"}),
            tok(6, "czytać", lemma="czytać", upos="VERB", head=0,
                deprel="conj", feats={"VerbForm": "Inf"}),
            tok(7, "czytając", lemma="czytać", upos="VERB", head=0,
                deprel="conj", feats={"VerbForm": "Conv"}),
            tok(8, "szybko", lemma="szybko", upos="ADV", head=0, deprel="advmod",
                feats={"Tense": "Pres"}),  # non-verb: must not count
        ))

    def test_verb_feature_shares(self):
        res = self.results()
        assert res["GF_VERB_PRES"].raw_count == 1
        assert res["GF_VERB_PAST"].raw_count == 1
        assert res["GF_VERB_FUT"].raw_count == 1
        assert res["GF_ASPECT_PERF"].raw_count == 2
        assert res["GF_ASPECT_IMPERF"].raw_count == 1
        assert res["GF_MOOD_COND"].raw_count == 1
        assert res["GF_MOOD_IMP"].raw_count == 1
        assert res["GF_VOICE_PASS"].raw_count == 1
        assert res["GF_VERBFORM_INF"].raw_count == 1
        assert res["GF_VERBFORM_PART"].raw_count == 1
        assert res["GF_VERBFORM_CONV"].raw_count == 1

    def results(self):
        return evaluate_doc(self.make())

    def test_upos_restriction(self):
        # the Tense=Pres ADV is excluded by the VERB/AUX restriction
        assert self.results()["GF_VERB_PRES"].raw_count == 1


class TestInflection:
    def test_case_metrics_nouns_only(self):
        d = pl_doc(sent(
            tok(0, "dom", lemma="dom", upos="NOUN", feats={"Case": "Nom"}),
            tok(1, "domu", lemma="dom", upos="NOUN", head=0, deprel="nmod",
                feats={"Case": "Gen"}),
            tok(2, "domowi", lemma="dom", upos="NOUN", head=0, deprel="nmod",
                feats={"Case": "Dat"}),
            tok(3, "ten", lemma="ten", upos="DET", head=0, deprel="det",
                feats={"Case": "Nom", "PronType": "Dem"}),
        ))
        res = evaluate_doc(d)
        assert res["IN_CASE_NOM"].raw_count == 1  # DET does not count
        assert res["IN_CASE_GEN"].raw_count == 1
        assert res["IN_CASE_DAT"].raw_count == 1
        assert res["IN_CASE_ACC"].raw_count == 0
        assert res["IN_PRON_DEM"].raw_count == 1

    def test_degree_and_number(self):
        d = pl_doc(sent(
            tok(0, "szybszy", lemma="szybki", upos="ADJ", feats={"Degree": "Cmp"}),
            tok(1, "najszybszy", lemma="szybki", upos="ADJ", head=0,
                deprel="conj", feats={"Degree": "Sup"}),
            tok(2, "koty", lemma="kot", upos="NOUN", head=0, deprel="nsubj",
                feats={"Number": "Plur"}),
            tok(3, "kot", lemma="kot", upos="NOUN", head=0, deprel="nsubj",
                feats={"Number": "Sing"}),
        ))
        res = evaluate_doc(d)
        assert res["IN_DEGREE_CMP"].raw_count == 1
        assert res["IN_DEGREE_SUP"].raw_count == 1
        assert res["IN_NOUN_PLUR"].raw_count == 1
        assert res["IN_NOUN_SING"].raw_count == 1


class TestLexicalResources:
    def test_greek_prefix_with_exceptions(self):
        d = pl_doc(sent(
            tok(0, "hipernowoczesne", lemma="hipernowoczesny", upos="ADJ"),
            tok(1, "megafon", lemma="megafon", upos="NOUN", head=0, deprel="nsubj"),
            tok(2, "superata", lemma="superata", upos="NOUN", head=0, deprel="nsubj"),
            tok(3, "dom", lemma="dom", upos="NOUN", head=0, deprel="nsubj"),
        ))
        res = evaluate_doc(d)["LEX_PREFIX_GREEK"]
        # megafon and superata are fossilized exceptions, not live prefixes
        assert res.captured == ((0, 0),)

    def test_fixed_adverbial_phrase(self):
        d = pl_doc(sent(
            tok(0, "Na", lemma="na", upos="ADP", head=1, deprel="case"),
            tok(1, "pewno", lemma="pewno", upos="ADV", head=2, deprel="advmod"),
            tok(2, "przyjdę", lemma="przyjść", upos="VERB"),
        ))
        res = evaluate_doc(d)["LEX_ADV_PHRASE"]
        assert res.captured == ((0, 0), (0, 1))

    def test_spelling_errors_match_surface_form(self):
        d = pl_doc(sent(
            tok(0, "poszłem", lemma="pójść", upos="VERB"),
            tok(1, "poszedłem", lemma="pójść", upos="VERB", head=0, deprel="conj"),
        ))
        res = evaluate_doc(d)["LEX_ERRORS"]
        assert res.captured == ((0, 0),)

    def test_vulgar_and_time_adverbs(self):
        d = pl_doc(sent(
            tok(0, "Cholera", lemma="cholera", upos="INTJ"),
            tok(1, "jutro", lemma="jutro", upos="ADV", head=0, deprel="advmod"),
            tok(2, "zawsze", lemma="zawsze", upos="ADV", head=0, deprel="advmod"),
        ))
        res = evaluate_doc(d)
        assert res["LEX_VULGAR"].raw_count == 1
        assert res["LEX_ADV_TIME"].raw_count == 1
        assert res["LEX_ADV_FREQ"].raw_count == 1


class TestDescriptive:
    def test_epithets_and_adverbial_modifiers(self):
        d = pl_doc(sent(
            tok(0, "piękny", lemma="piękny", upos="ADJ", head=1, deprel="amod"),
            tok(1, "dzień", lemma="dzień", upos="NOUN", head=2, deprel="nsubj"),
            tok(2, "mija", lemma="mijać", upos="VERB"),
            tok(3, "szybko", lemma="szybko", upos="ADV", head=2, deprel="advmod"),
            tok(4, "miły", lemma="miły", upos="ADJ", head=2, deprel="xcomp"),
        ))
        res = evaluate_doc(d)
        assert res["DESC_EPITHET"].captured == ((0, 0),)  # predicative ADJ excluded
        assert res["DESC_ADV_MOD"].captured == ((0, 3),)


class TestPsycholinguisticNorms:
    PS_METRICS = {
        "PS_VAL_PLUS_ABOVE": ("valence_plus", "above"),
        "PS_VAL_PLUS_BELOW": ("valence_plus", "below"),
        "PS_VAL_MINUS_ABOVE": ("valence_minus", "above"),
        "PS_VAL_MINUS_BELOW": ("valence_minus", "below"),
        "PS_ORI_PLUS_ABOVE": ("origin_plus", "above"),
        "PS_ORI_PLUS_BELOW": ("origin_plus", "below"),
        "PS_ORI_MINUS_ABOVE": ("origin_minus", "above"),
        "PS_ORI_MINUS_BELOW": ("origin_minus", "below"),
        "PS_ACT_PLUS_ABOVE": ("activation_plus", "above"),
        "PS_ACT_PLUS_BELOW": ("activation_plus", "below"),
        "PS_ACT_MINUS_ABOVE": ("activation_minus", "above"),
        "PS_ACT_MINUS_BELOW": ("activation_minus", "below"),
    }

    def read_table(self):
        """Independent re-read of the norms table, bypassing the loader."""
        lines = (Path(DATA_DIR) / "norms_pl.tsv").read_text(encoding="utf-8").splitlines()
        rows = [ln.split("\t") for ln in lines if ln.strip() and not ln.startswith("#")]
        header = rows[0]
        dims = [cell.split(":")[0] for cell in header[1:]]
        means = {cell.split(":")[0]: float(cell.split(":")[1]) for cell in header[1:]}
        scores = {r[0]: dict(zip(dims, map(float, r[1:]))) for r in rows[1:]}
        return means, scores

    def test_metrics_match_independent_recomputation(self):
        means, scores = self.read_table()
        lemmas = sorted(scores)[:10]
        d = pl_doc(sent(
            tok(0, lemmas[0], lemma=lemmas[0], upos="NOUN"),
            *[tok(i, lem, lemma=lem, upos="NOUN", head=0, deprel="conj")
              for i, lem in enumerate(lemmas[1:], start=1)],
        ))
        res = evaluate_doc(d)
        for metric_id, (dim, side) in self.PS_METRICS.items():
            expected = sum(
                1 for lem in lemmas
                if (scores[lem][dim] > means[dim]) == (side == "above")
                or (side == "below" and scores[lem][dim] == means[dim])
            )
            assert res[metric_id].raw_count == expected, metric_id

    def test_above_below_partition_scored_tokens(self):
        means, scores = self.read_table()
        lemmas = sorted(scores)[:10]
        d = pl_doc(sent(
            tok(0, lemmas[0], lemma=lemmas[0], upos="NOUN"),
            *[tok(i, lem, lemma=lem, upos="NOUN", head=0, deprel="conj")
              for i, lem in enumerate(lemmas[1:], start=1)],
        ))
        res = evaluate_doc(d)
        for above_id in (m for m in self.PS_METRICS if m.endswith("_ABOVE")):
            below_id = above_id.replace("_ABOVE", "_BELOW")
            assert res[above_id].raw_count + res[below_id].raw_count == len(lemmas)

    def test_unscored_lemma_ignored(self):
        d = pl_doc(sent(tok(0, "xyzzywort", lemma="xyzzywort", upos="NOUN")))
        res = evaluate_doc(d)
        for metric_id in self.PS_METRICS:
            assert res[metric_id].raw_count == 0
