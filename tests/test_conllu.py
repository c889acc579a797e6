from __future__ import annotations

import logging
from dataclasses import replace

import pytest

from stylovec.conllu import (
    ParseError,
    list_corpus_files,
    parse_conllu,
    read_document,
    to_conllu,
)
from stylovec.engine import evaluate_all
from stylovec.model import Document, ModelError, MultiwordRange, Sentence
from stylovec.packs import registry_for
from stylovec.runner import StrictAbort, analyze_corpus

from conftest import doc, sent, tok


def tline(tid, form, lemma, upos, head, deprel, feats="_", xpos="_", deps="_", misc="_"):
    return "\t".join([str(tid), form, lemma, upos, xpos, feats, str(head), deprel, deps, misc])


BASIC = "\n".join([
    "# language = en",
    tline(1, "The", "the", "DET", 2, "det", feats="Definite=Def|PronType=Art"),
    tline(2, "cat", "cat", "NOUN", 3, "nsubj", feats="Number=Sing"),
    tline(3, "sat", "sit", "VERB", 0, "root", feats="Tense=Past", misc="SpaceAfter=No"),
    tline(4, ".", ".", "PUNCT", 3, "punct"),
    "",
    tline(1, "It", "it", "PRON", 2, "nsubj"),
    tline(2, "purred", "purr", "VERB", 0, "root", feats="Tense=Past"),
    tline(3, "loudly", "loudly", "ADV", 2, "advmod"),
    tline(4, "!", "!", "PUNCT", 2, "punct"),
    "",
])


class TestParseBasics:
    def test_two_sentences_eight_tokens(self):
        d = parse_conllu(BASIC, doc_id="basic")
        assert d.doc_id == "basic"
        assert d.language == "en"
        assert len(d.sentences) == 2
        assert d.token_count == 8
        assert [t.form for t in d.sentences[0].tokens] == ["The", "cat", "sat", "."]

    def test_head_and_deprel_mapping(self):
        d = parse_conllu(BASIC, doc_id="basic")
        s = d.sentences[0]
        assert s.tokens[2].head is None  # HEAD column 0 -> root
        assert s.tokens[0].head == 1  # 1-based 2 -> 0-based 1
        assert s.tokens[3].deprel == "punct"

    def test_feats_parsed_to_map(self):
        d = parse_conllu(BASIC, doc_id="basic")
        assert d.sentences[0].tokens[0].feats == {"Definite": "Def", "PronType": "Art"}
        assert d.sentences[1].tokens[0].feats == {}

    def test_space_after_no(self):
        d = parse_conllu(BASIC, doc_id="basic")
        assert d.sentences[0].tokens[2].space_after is False
        assert d.sentences[0].text == "The cat sat."

    def test_explicit_language_argument_wins(self):
        d = parse_conllu(BASIC, doc_id="basic", language="pl")
        assert d.language == "pl"

    def test_language_override_logs_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            parse_conllu(BASIC, doc_id="basic", language="pl")
        assert any("overrides" in r.message for r in caplog.records)

    def test_matching_language_no_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stylovec"):
            parse_conllu(BASIC, doc_id="basic", language="en")
        assert not caplog.records

    def test_no_language_anywhere_is_none(self):
        payload = tline(1, "hi", "hi", "INTJ", 0, "root") + "\n"
        d = parse_conllu(payload, doc_id="x")
        assert d.language is None

    def test_lemma_underscore_falls_back_to_form(self):
        payload = tline(1, "Kyiv", "_", "PROPN", 0, "root") + "\n"
        d = parse_conllu(payload, doc_id="x")
        assert d.sentences[0].tokens[0].lemma == "Kyiv"

    def test_ner_label_from_misc(self):
        payload = tline(1, "Kyiv", "Kyiv", "PROPN", 0, "root", misc="NER=LOC|SpaceAfter=No") + "\n"
        t = parse_conllu(payload, doc_id="x").sentences[0].tokens[0]
        assert t.entity == "LOC"
        assert t.space_after is False

    def test_final_sentence_without_trailing_blank_line(self):
        payload = tline(1, "hi", "hi", "INTJ", 0, "root")
        assert parse_conllu(payload, doc_id="x").token_count == 1

    @pytest.mark.parametrize("misc, entity, space_after", [
        ("NER=PER", "PER", True),
        ("SpaceAfter=No", None, False),
        ("NER=PER|SpaceAfter=No", "PER", False),
        ("_", None, True),
    ])
    def test_last_line_reads_the_same_with_any_ending(self, misc, entity, space_after):
        line = tline(1, "Kyiv", "Kyiv", "PROPN", 0, "root", misc=misc)
        for head in ("", BASIC.replace("\n", "\r\n") + "\r\n"):
            read = [parse_conllu(head + line + ending, doc_id="x") for ending in ("", "\r", "\r\n")]
            assert read[0] == read[1] == read[2]
            last = read[0].sentences[-1].tokens[-1]
            assert (last.entity, last.space_after) == (entity, space_after)

    def test_crlf_and_bom_accepted(self):
        payload = "﻿" + BASIC.replace("\n", "\r\n")
        d = parse_conllu(payload, doc_id="x")
        assert d.token_count == 8
        assert d.language == "en"

    def test_xpos_kept_or_none(self):
        payload = tline(1, "cat", "cat", "NOUN", 0, "root", xpos="NN") + "\n"
        assert parse_conllu(payload, doc_id="x").sentences[0].tokens[0].xpos == "NN"
        payload = tline(1, "cat", "cat", "NOUN", 0, "root") + "\n"
        assert parse_conllu(payload, doc_id="x").sentences[0].tokens[0].xpos is None


class TestMultiwordRanges:
    PAYLOAD = "\n".join([
        "\t".join(["1-2", "don't", "_", "_", "_", "_", "_", "_", "_", "_"]),
        tline(1, "do", "do", "AUX", 3, "aux"),
        tline(2, "n't", "not", "PART", 3, "advmod"),
        tline(3, "go", "go", "VERB", 0, "root"),
        "",
    ])

    def test_range_does_not_inflate_token_count(self):
        d = parse_conllu(self.PAYLOAD, doc_id="x")
        assert d.token_count == 3

    def test_text_uses_surface_form(self):
        d = parse_conllu(self.PAYLOAD, doc_id="x")
        assert d.sentences[0].text == "don't go"

    def test_range_bounds_checked(self):
        bad = self.PAYLOAD.replace("1-2", "1-9", 1)
        raises_at(bad, "token range 1-9 exceeds sentence length 3", 1)

    def test_inverted_range_rejected(self):
        bad = self.PAYLOAD.replace("1-2", "2-1", 1)
        raises_at(bad, "invalid token range 2-1", 1)

    @pytest.mark.parametrize("rid", ["0-1", "01-2", "1-02", "-2", "1-", "1-2-3", "+1-2"])
    def test_range_id_that_does_not_round_trip_rejected(self, rid):
        bad = self.PAYLOAD.replace("1-2", rid, 1)
        raises_at(bad, f"invalid token range id {rid!r}", 1)


def raises_at(payload: str, message: str, line: int) -> None:
    """``payload`` is rejected with exactly ``message``, reported at ``line``."""
    with pytest.raises(ParseError) as exc:
        parse_conllu(payload, doc_id="x")
    assert exc.value.line == line
    assert str(exc.value) == (f"line {line}: {message}" if line else message)


ROOT = tline(1, "a", "a", "NOUN", 0, "root")

# (malformed input, exact message, reported line); the tree errors come from
# the model and are reported at the first token line of their sentence
MALFORMED = [
    pytest.param("\n".join([ROOT, tline(2, "b", "b", "NOUN", 1, "dep"), tline(2, "c", "c", "NOUN", 1, "dep")]),
                 "token id 2 out of sequence, expected 3", 3, id="repeated-id"),
    pytest.param(tline(2, "a", "a", "NOUN", 0, "root"),
                 "token id 2 out of sequence, expected 1", 1, id="first-id-not-1"),
    pytest.param(tline("x", "a", "a", "NOUN", 0, "root"), "invalid token id 'x'", 1, id="id-letters"),
    pytest.param(tline("\u00b2", "a", "a", "NOUN", 0, "root"),
                 "invalid token id '\u00b2'", 1, id="id-superscript-digit"),
    pytest.param(tline(1, "a", "a", "noun", 0, "root"), "invalid UPOS tag 'noun'", 1, id="upos-lowercase"),
    pytest.param("\n".join([ROOT, tline(2, "b", "b", "NOUN", "x", "dep")]),
                 "invalid HEAD 'x'", 2, id="head-letters"),
    pytest.param("\n".join([ROOT, tline(2, "b", "b", "NOUN", "\u0661", "dep")]),
                 "invalid HEAD '\u0661'", 2, id="head-non-ascii-digit"),
    pytest.param("\n".join([ROOT, tline(2, "b", "b", "NOUN", 3, "dep")]),
                 "HEAD 3 out of range for 2-token sentence", 2, id="head-past-end"),
    pytest.param(tline(1, "a", "a", "NOUN", 0, "root", feats="=x"), "malformed feature '=x'", 1,
                 id="feature-no-key"),
    pytest.param(tline(1, "a", "a", "NOUN", 0, "root", feats="N=1|"), "malformed feature ''", 1,
                 id="feature-empty-item"),
    pytest.param(tline(1, "a", "a", "NOUN", 0, "root", feats="N="), "malformed feature 'N='", 1,
                 id="feature-no-value"),
    pytest.param("\n".join(["\t".join(["2-2", "aa", "_", "_", "_", "_", "_", "_", "_", "_"]),
                            ROOT, tline(2, "b", "b", "NOUN", 1, "dep")]),
                 "invalid token range 2-2", 1, id="range-one-token"),
    pytest.param("\n".join([ROOT, tline(2, "b", "b", "NOUN", 1, "dep"),
                            "\t".join(["1-2", "ab", "_", "_", "_", "_", "_", "_", "_", "_"]),
                            "\t".join(["2-3", "bc", "_", "_", "_", "_", "_", "_", "_", "_"]),
                            tline(3, "c", "c", "NOUN", 1, "dep")]),
                 "overlapping token range 2-3", 4, id="range-overlap"),
    pytest.param("\n".join(["# c", "\t".join(["1-2", "ab", "_", "_", "_", "_", "_", "_", "_", "_"]), ""]),
                 "token range without token lines", 2, id="range-without-tokens"),
    pytest.param("\n".join([ROOT, "", "# c", tline(1, "b", "b", "NOUN", 2, "dep"),
                            tline(2, "c", "c", "NOUN", 1, "dep")]),
                 "sentence has 0 roots, expected 1", 4, id="tree-cycle-no-root"),
    pytest.param("\n".join(["\t".join(["1-2", "ab", "_", "_", "_", "_", "_", "_", "_", "_"]),
                            ROOT, tline(2, "b", "b", "NOUN", 2, "dep")]),
                 "token 1 is its own head", 2, id="tree-own-head"),
    pytest.param("\n".join([ROOT, tline(2, "b", "b", "NOUN", 3, "dep"), tline(3, "c", "c", "NOUN", 2, "dep")]),
                 "head relation is not a connected tree", 1, id="tree-detached-cycle"),
]


class TestParseErrors:
    @pytest.mark.parametrize("payload, message, line", MALFORMED)
    def test_malformed_input_message_and_line(self, payload, message, line):
        raises_at(payload, message, line)

    def test_wrong_column_count(self):
        payload = "\t".join(["1", "cat", "cat", "NOUN", "_", "_", "0", "root", "_"])  # 9 cols
        raises_at(payload, "expected 10 tab-separated columns, got 9", 1)

    def test_empty_node_rejected(self):
        payload = "\n".join([
            tline(1, "cat", "cat", "NOUN", 0, "root"),
            tline("1.1", "ghost", "ghost", "NOUN", 0, "root"),
        ])
        raises_at(payload, "empty nodes are not supported (id '1.1')", 2)

    def test_invalid_upos(self):
        payload = tline(1, "cat", "cat", "NOUNZ", 0, "root") + "\n"
        raises_at(payload, "invalid UPOS tag 'NOUNZ'", 1)

    def test_missing_head(self):
        payload = tline(1, "cat", "cat", "NOUN", "_", "root") + "\n"
        raises_at(payload, "missing HEAD", 1)

    @pytest.mark.parametrize("tid", ["01", "0", "+1", " 1", "1_0", "\u0661"])
    def test_token_id_that_does_not_round_trip(self, tid):
        payload = "\n".join(["# c", tline(tid, "cat", "cat", "NOUN", 0, "root")])
        raises_at(payload, f"invalid token id {tid!r}", 2)

    @pytest.mark.parametrize("head", ["01", "00", "+1", "-1"])
    def test_head_that_does_not_round_trip(self, head):
        payload = "\n".join([
            tline(1, "a", "a", "NOUN", 0, "root"),
            tline(2, "b", "b", "NOUN", head, "dep"),
        ])
        raises_at(payload, f"invalid HEAD {head!r}", 2)

    @pytest.mark.parametrize("column, kwargs", [
        ("LEMMA", {"lemma": ""}),
        ("XPOS", {"xpos": ""}),
        ("DEPS", {"deps": ""}),
        ("MISC", {"misc": ""}),
        ("FORM", {"form": ""}),
    ])
    def test_empty_column_rejected(self, column, kwargs):
        fields = {"tid": 2, "form": "b", "lemma": "b", "upos": "NOUN", "head": 1, "deprel": "dep"}
        fields.update(kwargs)
        payload = "\n".join([tline(1, "a", "a", "NOUN", 0, "root"), tline(**fields)])
        raises_at(payload, f"empty {column} column", 2)

    def test_empty_column_on_range_line_rejected(self):
        payload = "\n".join([
            "\t".join(["1-2", "don't", "_", "_", "_", "_", "_", "_", "_", ""]),
            tline(1, "do", "do", "AUX", 0, "root"),
            tline(2, "n't", "not", "PART", 1, "advmod"),
        ])
        raises_at(payload, "empty MISC column", 1)

    def test_head_out_of_range(self):
        payload = tline(1, "cat", "cat", "NOUN", 5, "dep") + "\n"
        raises_at(payload, "HEAD 5 out of range for 1-token sentence", 1)

    def test_missing_deprel(self):
        payload = tline(1, "cat", "cat", "NOUN", 0, "_") + "\n"
        raises_at(payload, "missing DEPREL", 1)

    def test_malformed_feature(self):
        payload = tline(1, "cat", "cat", "NOUN", 0, "root", feats="Number") + "\n"
        raises_at(payload, "malformed feature 'Number'", 1)

    def test_duplicate_feature_key(self):
        payload = tline(1, "cat", "cat", "NOUN", 0, "root", feats="N=1|N=2") + "\n"
        raises_at(payload, "duplicate feature key 'N'", 1)

    def test_id_out_of_sequence(self):
        payload = "\n".join([
            tline(1, "a", "a", "NOUN", 0, "root"),
            tline(3, "b", "b", "NOUN", 1, "dep"),
        ])
        raises_at(payload, "token id 3 out of sequence, expected 2", 2)

    def test_two_roots_reported_with_line(self):
        payload = "\n".join([
            "# c",
            tline(1, "a", "a", "NOUN", 0, "root"),
            tline(2, "b", "b", "NOUN", 0, "root"),
        ])
        raises_at(payload, "sentence has 2 roots, expected 1", 2)

    def test_empty_payload(self):
        raises_at("", "empty document: no token lines found", 0)
        raises_at("# language = en\n\n", "empty document: no token lines found", 0)

    def test_error_line_numbers_are_exact(self):
        payload = "\n".join([
            "# a comment",
            tline(1, "a", "a", "NOUN", 0, "root"),
            "",
            tline(1, "b", "b", "BAD", 0, "root"),
        ])
        raises_at(payload, "invalid UPOS tag 'BAD'", 4)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        d = parse_conllu(BASIC, doc_id="basic")
        again = parse_conllu(to_conllu(d), doc_id="basic")
        assert again == d

    def test_round_trip_preserves_ranges_and_misc(self):
        d = parse_conllu(TestMultiwordRanges.PAYLOAD, doc_id="x", language="en")
        again = parse_conllu(to_conllu(d), doc_id="x")
        assert again == d
        assert again.sentences[0].ranges == d.sentences[0].ranges

    def test_builder_docs_round_trip(self):
        d = doc(
            sent(
                tok(0, "Ich", lemma="ich", upos="PRON", head=1, deprel="nsubj"),
                tok(1, "gehe", lemma="gehen", upos="VERB", feats={"Tense": "Pres"}),
            ),
            language="en",
        )
        assert parse_conllu(to_conllu(d), doc_id="t") == d


class TestWriteRefusals:
    """to_conllu refuses what parse_conllu would reject or read back
    differently, and writes what reads back unchanged."""

    def one(self, language="en", **fields):
        word = replace(tok(1, "x", upos="VERB"), **fields)
        return doc(sent(tok(0, "ja", upos="PRON", head=1, deprel="nsubj"), word),
                   language=language)

    @pytest.mark.parametrize("fields, column", [
        ({"lemma": "_"}, "LEMMA"),
        ({"xpos": "_"}, "XPOS"),
        ({"xpos": ""}, "XPOS"),
        ({"feats": {"A": "b|C=d"}}, "FEATS"),
        ({"feats": {"A=B": "c"}}, "FEATS"),
        ({"feats": {"A": ""}}, "FEATS"),
        ({"entity": "PER|X"}, "MISC"),
        ({"entity": ""}, "MISC"),
        ({"entity": "PER\r"}, "MISC"),
        ({"form": "a\tb"}, "FORM"),
        ({"form": "a\nb"}, "FORM"),
        ({"form": ""}, "FORM"),
        ({"lemma": ""}, "LEMMA"),
        ({"deps": ""}, "DEPS"),
        ({"upos": "BAD"}, "UPOS"),
        ({"deprel": "_"}, "DEPREL"),
    ])
    def test_unreadable_value_names_sentence_token_and_column(self, fields, column):
        with pytest.raises(ModelError, match=rf"^sentence 1, token 2, column {column}: "):
            to_conllu(self.one(**fields))

    def test_unreadable_range_form_is_refused(self):
        tokens = (tok(0, "do", space_after=False), tok(1, "nt", head=0, deprel="dep"))
        d = Document("r", "en", (Sentence(tokens, (MultiwordRange(0, 1, "do\tnt"),)),))
        with pytest.raises(ModelError, match=r"^sentence 1, range 1-2, column FORM: "):
            to_conllu(d)

    @pytest.mark.parametrize("language", ["", " en", "en\n", "e\nn"])
    def test_unreadable_language_is_refused(self, language):
        with pytest.raises(ModelError, match="language"):
            to_conllu(self.one(language=language))

    def test_document_without_sentences_is_refused(self):
        with pytest.raises(ModelError, match="no sentences"):
            to_conllu(Document("empty", "en", ()))

    @pytest.mark.parametrize("fields", [
        {"form": "_", "lemma": "_"},
        {"form": "a\rb", "xpos": "x_"},
        {"feats": {"A": "b=c", "_": "x,y"}},
        {"entity": "A=B"},
        {"entity": "PER\r", "space_after": False},
        {"deps": "_", "deprel": "obj:x"},
    ])
    def test_values_that_read_back_are_written(self, fields):
        d = self.one(**fields)
        assert parse_conllu(to_conllu(d), doc_id=d.doc_id) == d


class TestCorpusLoading:
    def put(self, root, name, payload):
        p = root / name
        p.write_text(payload, encoding="utf-8")
        return p

    def doc_ids(self, run):
        return [v.doc_id for vectors in run.vectors.values() for v in vectors]

    def test_directory_sorted_by_name(self, tmp_path):
        self.put(tmp_path, "b.conllu", BASIC)
        self.put(tmp_path, "a.conllu", BASIC)
        run = analyze_corpus(tmp_path)
        assert self.doc_ids(run) == ["a", "b"]
        assert not run.report.errors

    def test_single_file_path(self, tmp_path):
        p = self.put(tmp_path, "solo.conllu", BASIC)
        assert read_document(p).doc_id == "solo"
        assert self.doc_ids(analyze_corpus(p)) == ["solo"]

    def test_bad_file_collected_not_fatal(self, tmp_path):
        self.put(tmp_path, "a.conllu", BASIC)
        self.put(tmp_path, "bad.conllu", "not\tconllu\n")
        self.put(tmp_path, "c.conllu", BASIC)
        run = analyze_corpus(tmp_path)
        assert self.doc_ids(run) == ["a", "c"]
        assert len(run.report.errors) == 1
        assert "bad.conllu" in run.report.errors[0][0]

    def test_strict_raises_on_first_bad_file(self, tmp_path):
        self.put(tmp_path, "bad.conllu", "nope\n")
        self.put(tmp_path, "good.conllu", BASIC)
        with pytest.raises(StrictAbort, match="bad.conllu"):
            analyze_corpus(tmp_path, strict=True)

    def test_non_utf8_file_is_an_error(self, tmp_path):
        (tmp_path / "latin.conllu").write_bytes(b"caf\xe9\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            read_document(tmp_path / "latin.conllu")
        run = analyze_corpus(tmp_path)
        assert not run.vectors
        assert len(run.report.errors) == 1
        assert "not valid UTF-8" in run.report.errors[0][1]

    def test_unreadable_file_is_an_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_document(tmp_path / "missing.conllu")

    def test_empty_directory_is_an_error(self, tmp_path):
        with pytest.raises(ParseError, match="empty corpus"):
            list_corpus_files(tmp_path)

    def test_pattern_filters_files(self, tmp_path):
        self.put(tmp_path, "a.conllu", BASIC)
        self.put(tmp_path, "b.conll", BASIC)
        assert [f.name for f in list_corpus_files(tmp_path)] == ["a.conllu"]

    def test_language_argument_applies_to_all(self, tmp_path):
        p = self.put(tmp_path, "a.conllu", BASIC)
        assert read_document(p, language="uk").language == "uk"
        assert analyze_corpus(tmp_path, language="uk").languages == ["uk"]

    def test_failed_debug_write_is_a_per_file_error(self, tmp_path):
        corpus, debug = tmp_path / "corpus", tmp_path / "debug"
        corpus.mkdir()
        self.put(corpus, "a.conllu", BASIC)
        self.put(corpus, "b.conllu", BASIC)
        (debug / "a.debug.csv").mkdir(parents=True)  # the CSV cannot be written
        run = analyze_corpus(corpus, debug_dir=debug)
        assert self.doc_ids(run) == ["b"]
        assert [path for path, _ in run.report.errors] == [str(corpus / "a.conllu")]

    def test_runner_vectors_match_evaluate_all_without_captures(self, tmp_path):
        p = self.put(tmp_path, "a.conllu", BASIC)
        expected = evaluate_all(registry_for("en"), read_document(p))
        [vector] = analyze_corpus(tmp_path, jobs=1).vectors["en"]
        assert vector.metric_ids == expected.metric_ids
        assert vector.values == expected.values
        assert any(r.captured for r in expected.results)
        assert all(r.captured == () for r in vector.results)
