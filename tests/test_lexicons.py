from __future__ import annotations

import logging

import pytest

from stylovec.engine import DocContext
from stylovec.lexicons import (
    AffectiveNorms,
    Lexicon,
    LexiconError,
    lexicon_incidence,
    load_lexicon,
    load_norms,
    norms_incidence,
)

from conftest import doc, sent, tok, word_sentence


def forms_of(document, refs):
    return sorted(document.token_at(si, ti).form for si, ti in refs)


def lex(entries, mode="lemma_exact", exceptions=(), name="test"):
    return Lexicon(name=name, mode=mode, entries=frozenset(entries),
                   exceptions=frozenset(exceptions))


class TestLoadLexicon:
    def put(self, tmp_path, body, name="words.txt"):
        p = tmp_path / name
        p.write_text(body, encoding="utf-8")
        return p

    def test_basic_load(self, tmp_path):
        p = self.put(tmp_path, "# comment\nalpha\nBeta\n\n  gamma  \n")
        lx = load_lexicon(p, mode="lemma_exact")
        assert lx.entries == frozenset({"alpha", "beta", "gamma"})
        assert lx.name == "words"

    def test_duplicates_warn_and_keep_first(self, tmp_path, caplog):
        p = self.put(tmp_path, "alpha\nbeta\nAlpha\n")
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            lx = load_lexicon(p, mode="lemma_exact")
        assert lx.entries == frozenset({"alpha", "beta"})
        assert any("duplicate" in r.message for r in caplog.records)
        # the tab check reads every line, a duplicate too
        self.put(tmp_path, "alpha\nbeta\nalpha\t-2.0\n")
        with pytest.raises(LexiconError, match=r"words\.txt:3: tab in entry"):
            load_lexicon(p, mode="lemma_exact")

    def test_duplicate_warning_names_the_line_of_the_file(self, tmp_path, caplog):
        # comment and blank lines count: the second 'foo' is line 5 of the file
        p = self.put(tmp_path, "# c\nfoo\n\nbar\nfoo\n")
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            load_lexicon(p, mode="form_exact")
        assert f"{p}:5: duplicate entry 'foo' ignored" in caplog.text

    def test_bad_weight_is_error(self, tmp_path):
        """A lexicon line holds one entry; a weight column (a scored word
        belongs in a norms table) is refused, not read as part of the entry."""
        for weight in ("heavy", "2.5"):
            p = self.put(tmp_path, f"plain\nword\t{weight}\n")
            with pytest.raises(LexiconError, match=r"words\.txt:2: tab in entry; scored words "
                                                   r"go in a norms table"):
                load_lexicon(p, mode="form_exact")

    def test_empty_file_is_error(self, tmp_path):
        p = self.put(tmp_path, "# only a comment\n")
        with pytest.raises(LexiconError, match="empty"):
            load_lexicon(p, mode="lemma_exact")

    def test_missing_file_is_error(self, tmp_path):
        with pytest.raises(LexiconError, match="no such file"):
            load_lexicon(tmp_path / "nope.txt", mode="lemma_exact")

    def test_directory_is_error(self, tmp_path):
        with pytest.raises(LexiconError, match="cannot read"):
            load_lexicon(tmp_path, mode="lemma_exact")
        with pytest.raises(LexiconError, match="cannot read"):
            load_norms(tmp_path)

    def test_unknown_mode_is_error(self, tmp_path):
        p = self.put(tmp_path, "word\n")
        with pytest.raises(LexiconError, match="mode"):
            load_lexicon(p, mode="fuzzy")

    def test_exceptions_file(self, tmp_path):
        p = self.put(tmp_path, "anti\n")
        e = self.put(tmp_path, "antique\n", name="exc.txt")
        lx = load_lexicon(p, mode="prefix", exceptions_path=e)
        assert lx.exceptions == frozenset({"antique"})

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029", "\x0b", "\x0c",
                                           "\x1c", "\x1d", "\x1e", "\r"],
                             ids=["NEL", "LS", "PS", "VT", "FF", "FS", "GS", "RS", "CR"])
    def test_a_line_ends_only_at_newline(self, tmp_path, separator):
        p = self.put(tmp_path, f"a\r\nc{separator}d\nb\n")
        assert load_lexicon(p, mode="phrase").entries == frozenset({"a", "c d", "b"})
        self.put(tmp_path, f"a\r\nc{separator}d\nb\theavy\n")
        with pytest.raises(LexiconError, match=r"words\.txt:3: tab in entry"):
            load_lexicon(p, mode="form_exact")
        n = self.put(tmp_path, f"lemma\tv:1\r\nko{separator}t\t5\nbad\tx\n", name="n.tsv")
        with pytest.raises(LexiconError, match=r"n\.tsv:3: non-numeric score"):
            load_norms(n)

    def test_phrase_entries_whitespace_normalized(self, tmp_path):
        p = self.put(tmp_path, "Na   Przykład\n")
        lx = load_lexicon(p, mode="phrase")
        assert lx.entries == frozenset({"na przykład"})
        assert lx.phrase_index == {"na": [("na", "przykład")]}


class TestMatching:
    def match(self, document, lexicon):
        return lexicon_incidence(lexicon)(DocContext(document))[0]

    def test_lemma_exact_casefolds(self):
        d = doc(sent(
            tok(0, "Ran", lemma="run", upos="VERB"),
            tok(1, "runs", lemma="run", upos="VERB", head=0, deprel="conj"),
            tok(2, "runner", lemma="runner", upos="NOUN", head=0, deprel="obj"),
        ))
        refs = self.match(d, lex({"run"}))
        assert forms_of(d, refs) == ["Ran", "runs"]

    def test_form_exact_ignores_lemma(self):
        d = doc(sent(
            tok(0, "Ran", lemma="run", upos="VERB"),
            tok(1, "run", lemma="running", upos="NOUN", head=0, deprel="obj"),
        ))
        refs = self.match(d, lex({"run"}, mode="form_exact"))
        assert forms_of(d, refs) == ["run"]

    def test_prefix_with_exceptions(self):
        d = doc(word_sentence("antygen", "antyk", "antylopa", "inny"))
        lx = lex({"anty"}, mode="prefix", exceptions={"antyk", "antylopa"})
        refs = self.match(d, lx)
        assert forms_of(d, refs) == ["antygen"]

    def test_phrase_matches_consecutive_forms(self):
        d = doc(word_sentence("seen", "all", "the", "time", "today"))
        refs = self.match(d, lex({"all the time"}, mode="phrase"))
        assert forms_of(d, refs) == ["all", "the", "time"]

    def test_phrase_does_not_cross_sentences(self):
        d = doc(word_sentence("nice", "all", "the"), word_sentence("time", "flies"))
        refs = self.match(d, lex({"all the time"}, mode="phrase"))
        assert refs == []

    def test_phrase_longest_match_wins(self):
        d = doc(word_sentence("in", "spite", "of", "this"))
        lx = lex({"in spite", "in spite of"}, mode="phrase")
        refs = self.match(d, lx)
        assert forms_of(d, refs) == ["in", "of", "spite"]

    def test_phrase_non_overlapping_greedy(self):
        d = doc(word_sentence("ha", "ha", "ha"))
        refs = self.match(d, lex({"ha ha"}, mode="phrase"))
        # greedy left-to-right: tokens 0-1 consumed, token 2 has no partner
        assert refs == [(0, 0), (0, 1)]

    def test_single_word_phrase(self):
        d = doc(word_sentence("well", "then"))
        refs = self.match(d, lex({"well"}, mode="phrase"))
        assert refs == [(0, 0)]

    def test_incidence_rule_wraps_matching(self):
        d = doc(word_sentence("alpha", "beta"))
        rule = lexicon_incidence(lex({"alpha"}, mode="form_exact"))
        refs, raw = rule(DocContext(d))
        assert refs == [(0, 0)] and raw is None


class TestLoadNorms:
    def put(self, tmp_path, body):
        p = tmp_path / "norms.tsv"
        p.write_text(body, encoding="utf-8")
        return p

    GOOD = (
        "lemma\tvalence:4.00\tactivation:3.50\n"
        "dom\t5.10\t2.00\n"
        "noc\t3.20\t4.40\n"
        "lód\t4.00\t3.50\n"
    )

    def test_header_and_scores(self, tmp_path):
        norms = load_norms(self.put(tmp_path, self.GOOD))
        assert norms.dimensions == ("valence", "activation")
        assert norms.means == {"valence": 4.0, "activation": 3.5}
        assert norms.scores["dom"]["valence"] == 5.1
        assert len(norms.scores) == 3

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(LexiconError, match="header"):
            load_norms(self.put(tmp_path, "word\tvalence:4.0\nx\t1\n"))
        with pytest.raises(LexiconError, match="name:mean"):
            load_norms(self.put(tmp_path, "lemma\tvalence\nx\t1\n"))
        with pytest.raises(LexiconError, match="mean"):
            load_norms(self.put(tmp_path, "lemma\tvalence:high\nx\t1\n"))

    def test_duplicate_dimension_rejected(self, tmp_path):
        body = "lemma\tv:1\tv:2\nx\t1\t2\n"
        with pytest.raises(LexiconError, match="duplicate dimension"):
            load_norms(self.put(tmp_path, body))

    def test_column_count_mismatch_rejected(self, tmp_path):
        body = "lemma\tv:1\nx\t1\t2\n"
        with pytest.raises(LexiconError, match="columns"):
            load_norms(self.put(tmp_path, body))

    def test_non_numeric_score_rejected(self, tmp_path):
        body = "lemma\tv:1\nx\thigh\n"
        with pytest.raises(LexiconError, match="non-numeric"):
            load_norms(self.put(tmp_path, body))

    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
    def test_non_finite_mean_rejected(self, tmp_path, mean):
        with pytest.raises(LexiconError, match=rf"bad mean in header cell 'v:{mean}'"):
            load_norms(self.put(tmp_path, f"lemma\tv:{mean}\nx\t1\n"))

    @pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        # a nan score would sit in neither above_mean nor below_mean
        body = f"lemma\tv:1\ndobry\t2\nzly\t{score}\n"
        with pytest.raises(LexiconError, match=r"norms\.tsv:3: non-numeric score"):
            load_norms(self.put(tmp_path, body))

    def test_no_rows_rejected(self, tmp_path):
        with pytest.raises(LexiconError, match="rows"):
            load_norms(self.put(tmp_path, "lemma\tv:1\n"))

    def test_duplicate_lemma_keeps_first(self, tmp_path, caplog):
        body = "lemma\tv:1\nx\t5\nx\t9\n"
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            norms = load_norms(self.put(tmp_path, body))
        assert norms.scores["x"]["v"] == 5.0

    def test_indented_comment_is_skipped(self, tmp_path):
        norms = load_norms(self.put(tmp_path, "lemma\tv:1\n  # note\nkot\t6.0\n"))
        assert norms.scores == {"kot": {"v": 6.0}}

    def test_cells_are_stripped(self, tmp_path):
        # a lemma stored as 'kot ' would match no token: a silent zero column
        norms = load_norms(self.put(tmp_path, "lemma\tv:1\nkot \t6.0\n"))
        assert norms.scores == {"kot": {"v": 6.0}}

    def test_trailing_tab_is_an_extra_column(self, tmp_path):
        with pytest.raises(LexiconError, match=r"norms\.tsv:2: expected 2 columns, got 3"):
            load_norms(self.put(tmp_path, "lemma\tv:1\nkot\t6.0\t\n"))

    def test_errors_name_the_line_of_the_file(self, tmp_path, caplog):
        # comment and blank lines count: the bad row is line 6 of the file
        head = "# comment\n\nlemma\tv:1\n# another\ndobro\t6\n"
        with pytest.raises(LexiconError, match=r"norms\.tsv:6: non-numeric score"):
            load_norms(self.put(tmp_path, head + "zlo\tx\n"))
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            load_norms(self.put(tmp_path, head + "\ndobro\t2\n"))
        assert "norms.tsv:7: duplicate lemma 'dobro' ignored" in caplog.text


class TestNormsIncidence:
    def norms(self):
        return AffectiveNorms(
            dimensions=("valence",),
            means={"valence": 4.0},
            scores={"dom": {"valence": 5.0}, "noc": {"valence": 3.0},
                    "lód": {"valence": 4.0}},
        )

    def make(self):
        return doc(sent(
            tok(0, "Dom", lemma="dom"),
            tok(1, "noc", lemma="noc", head=0, deprel="conj"),
            tok(2, "lód", lemma="lód", head=0, deprel="conj"),
            tok(3, "inny", lemma="inny", head=0, deprel="conj"),
        ))

    def test_above_is_strict_below_is_inclusive(self):
        d = self.make()
        ctx = DocContext(d)
        above, _ = norms_incidence(self.norms(), "valence", "above_mean")(ctx)
        below, _ = norms_incidence(self.norms(), "valence", "below_mean")(ctx)
        assert forms_of(d, above) == ["Dom"]
        assert forms_of(d, below) == ["lód", "noc"]  # exactly-at-mean counts below

    def test_unscored_lemmas_in_neither(self):
        d = self.make()
        ctx = DocContext(d)
        above, _ = norms_incidence(self.norms(), "valence", "above_mean")(ctx)
        below, _ = norms_incidence(self.norms(), "valence", "below_mean")(ctx)
        captured = set(above) | set(below)
        assert (0, 3) not in captured
        assert len(captured) == 3

    def test_unknown_dimension_rejected(self):
        with pytest.raises(LexiconError, match="dimension"):
            norms_incidence(self.norms(), "arousal", "above_mean")

    def test_unknown_side_rejected(self):
        with pytest.raises(ValueError, match="side"):
            norms_incidence(self.norms(), "valence", "at_mean")
