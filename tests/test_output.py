from __future__ import annotations

import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stylovec import engine, runner
from stylovec.conllu import read_document
from stylovec.engine import StyloVector, evaluate_all
from stylovec.output import (
    DEBUG_COLUMNS,
    OutputError,
    RunReport,
    vectors_to_json,
    write_debug_csv,
    write_vectors_csv,
    write_vectors_json,
)
from stylovec.packs import registry_for
from stylovec.runner import analyze_corpus
from stylovec.synth import random_document

from conftest import FIXTURES, doc, load_fixture, word_sentence

CORPUS = FIXTURES / "golden" / "corpus"


def vec(doc_id, pairs):
    ids = tuple(mid for mid, _ in pairs)
    values = tuple(value for _, value in pairs)
    return StyloVector(doc_id, ids, values, values)


class TestVectorCsv:
    def test_header_and_fixed_decimals(self):
        buf = io.StringIO()
        n = write_vectors_csv([vec("d1", [("A", 0.25), ("B", 1.0)]),
                               vec("d2", [("A", 0.0), ("B", 1 / 3)])], buf)
        assert n == 2
        lines = buf.getvalue().splitlines()
        assert lines[0] == "doc_id,A,B"
        assert lines[1] == "d1,0.250000,1.000000"
        assert lines[2] == "d2,0.000000,0.333333"
        assert buf.getvalue().endswith("\n")

    def test_doc_id_with_comma_is_quoted(self):
        buf = io.StringIO()
        write_vectors_csv([vec('we,ird', [("A", 0.5)])], buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[1][0] == "we,ird"
        assert '"we,ird"' in buf.getvalue()

    def test_mixed_schema_rejected(self):
        with pytest.raises(OutputError, match="mixed schemas"):
            write_vectors_csv([vec("d1", [("A", 0.0)]),
                               vec("d2", [("B", 0.0)])], io.StringIO())

    def test_empty_input_rejected(self):
        with pytest.raises(OutputError, match="no vectors"):
            write_vectors_csv([], io.StringIO())

    def test_path_sink(self, tmp_path):
        out = tmp_path / "v.csv"
        write_vectors_csv([vec("d1", [("A", 0.5)])], out)
        assert out.read_text(encoding="utf-8") == "doc_id,A\nd1,0.500000\n"

    def test_row_order_preserved(self):
        buf = io.StringIO()
        write_vectors_csv([vec("zz", [("A", 0.0)]), vec("aa", [("A", 0.0)])], buf)
        ids = [r.split(",")[0] for r in buf.getvalue().splitlines()[1:]]
        assert ids == ["zz", "aa"]


class TestVectorJson:
    def test_payload_shape(self):
        payload = vectors_to_json([("en", vec("d1", [("A", 1 / 3)]))])
        assert payload == [{
            "doc_id": "d1",
            "language": "en",
            "schema_hash": vec("d1", [("A", 0.0)]).schema_hash,
            "values": {"A": 0.333333},
        }]

    def test_json_values_match_csv_digits(self):
        v = vec("d1", [("A", 1 / 7), ("B", 2 / 3)])
        payload = vectors_to_json([(None, v)])
        buf = io.StringIO()
        write_vectors_csv([v], buf)
        csv_cells = buf.getvalue().splitlines()[1].split(",")[1:]
        for cell, mid in zip(csv_cells, ("A", "B")):
            assert float(cell) == payload[0]["values"][mid]

    def test_write_json_file(self, tmp_path):
        out = tmp_path / "v.json"
        n = write_vectors_json([("pl", vec("d1", [("A", 0.5)]))], out)
        assert n == 1
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data[0]["language"] == "pl"
        assert out.read_text(encoding="utf-8").endswith("\n")


def debug_rows(vector, document) -> list[list[str]]:
    buf = io.StringIO()
    write_debug_csv(vector, document, buf)
    buf.seek(0)
    return list(csv.reader(buf))


class TestDebugCsv:
    def results_on_fixture(self):
        document = load_fixture("pl_neg/neg01.conllu")
        vector = evaluate_all(registry_for("pl"), document)
        return document, vector

    def test_one_row_per_captured_token(self):
        document, vector = self.results_on_fixture()
        rows = debug_rows(vector, document)
        assert tuple(rows[0]) == DEBUG_COLUMNS
        expected = sum(len(r.captured) for r in vector.results)
        assert len(rows) - 1 == expected

    def test_rows_ordered_and_traceable(self):
        document, vector = self.results_on_fixture()
        rows = debug_rows(vector, document)[1:]
        metric_order = {mid: i for i, mid in enumerate(vector.metric_ids)}
        keys = [(metric_order[r[1]], int(r[2]), int(r[3])) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            si, ti = int(r[2]), int(r[3])
            token = document.token_at(si, ti)
            assert r[0] == document.doc_id
            assert r[4] == token.form
            assert r[5] == token.lemma
            assert r[6] == token.upos
            assert r[7] == token.deprel

    def test_negation_rows_name_the_evidence(self):
        document, vector = self.results_on_fixture()
        rows = debug_rows(vector, document)[1:]
        neg_rows = [r for r in rows if r[1] == "SY_S_NEG"]
        assert [r[4] for r in neg_rows] == ["Nie", "lubię", "tego", "."]

    def test_doc_mismatch_rejected(self):
        document, vector = self.results_on_fixture()
        other = doc(word_sentence("x"), doc_id="other")
        with pytest.raises(OutputError, match="does not belong"):
            write_debug_csv(vector, other, io.StringIO())

    def test_dangling_reference_rejected(self):
        document = doc(word_sentence("a"), doc_id="t")
        bad = StyloVector("t", ("M",), (1.0,), (1.0,), captured=(((5, 0),),))
        with pytest.raises(OutputError, match="internal error"):
            write_debug_csv(bad, document, io.StringIO())

    @pytest.mark.parametrize("ref", [(-1, 0), (0, -1), (-2, -1), (2, 0), (0, 99)])
    def test_ref_outside_document_rejected_and_no_file_left(self, tmp_path, ref):
        document = read_document(CORPUS / "alpha_en.conllu")
        assert len(document.sentences) == 2
        good = ((0, 0), (1, 0))
        bad = StyloVector(document.doc_id, ("A", "X"), (1.0, 1.0), (2.0, 1.0),
                          captured=(good, (ref,)))
        out = tmp_path / "alpha_en.debug.csv"
        with pytest.raises(OutputError, match=rf"metric X captured \({ref[0]}, {ref[1]}\) "
                                              r"outside document 'alpha_en'"):
            write_debug_csv(bad, document, out)
        assert not out.exists()

    def test_vector_without_captures_rejected(self, tmp_path):
        run = analyze_corpus(CORPUS)
        vector = run.vectors["en"][0]
        assert vector.captured is None
        out = tmp_path / "debug.csv"
        with pytest.raises(OutputError, match=f"{vector.doc_id!r} holds no captures"):
            write_debug_csv(vector, read_document(CORPUS / f"{vector.doc_id}.conllu"), out)
        assert not out.exists()

    def test_runner_builds_captures_only_for_debug_csv(self, monkeypatch, tmp_path):
        asked = []

        def spy(registry, document, captures=True):
            asked.append(captures)
            return evaluate_all(registry, document, captures)

        monkeypatch.setattr(runner, "evaluate_all", spy)
        monkeypatch.setattr(engine, "MetricResult", None)  # building one would raise
        analyze_corpus(CORPUS)
        analyze_corpus(CORPUS, debug_dir=tmp_path)
        assert asked == [False] * 6 + [True] * 6
        assert len(list(tmp_path.glob("*.debug.csv"))) == 6

    def test_returns_row_count(self, tmp_path):
        document, vector = self.results_on_fixture()
        out = tmp_path / "debug.csv"
        n = write_debug_csv(vector, document, out)
        assert n == sum(len(r.captured) for r in vector.results)
        assert len(out.read_text(encoding="utf-8").splitlines()) == n + 1


def oracle_vectors_csv(vectors, fh) -> None:
    """Reference vector writer: one ``csv.writer`` row per vector."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("doc_id",) + vectors[0].metric_ids)
    for vec in vectors:
        writer.writerow([vec.doc_id] + [f"{v:.6f}" for v in vec.values])


def oracle_debug_csv(vector, document, fh) -> None:
    """Reference debug writer: one ``csv.writer`` row per (metric, token) pair."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(DEBUG_COLUMNS)
    for metric_id, captured in zip(vector.metric_ids, vector.captured):
        for si, ti in captured:
            tok = document.sentences[si].tokens[ti]
            writer.writerow(
                (document.doc_id, metric_id, si, ti, tok.form, tok.lemma, tok.upos, tok.deprel)
            )


def assert_writers_match_oracles(vectors, documents) -> None:
    expected = io.StringIO()
    oracle_vectors_csv(vectors, expected)
    got = io.StringIO()
    assert write_vectors_csv(vectors, got) == len(vectors)
    assert got.getvalue() == expected.getvalue()
    for vector, document in zip(vectors, documents):
        expected = io.StringIO()
        oracle_debug_csv(vector, document, expected)
        got = io.StringIO()
        assert write_debug_csv(vector, document, got) == sum(map(len, vector.captured))
        assert got.getvalue() == expected.getvalue()


ODD_FORMS = ("a,b", 'say "hi"', "cr\rx", "nl\nx", "crlf\r\n", "ls\u2028x", "vt\x0bx",
             "fs\x1cx", " pad ", "")
ODD_DOC_IDS = ("we,ird", 'quo"te', "new\nline", "cr\rid", "ls\u2028id", "", "plain")


class TestWritersMatchOracles:
    """Both writers give the bytes of the per-row reference writers."""

    def test_fixture_documents(self):
        by_language: dict[str, list] = {}
        for path in sorted(FIXTURES.rglob("*.conllu")):
            document = read_document(path)
            vector = evaluate_all(registry_for(document.language), document)
            by_language.setdefault(document.language, []).append((vector, document))
        assert sorted(by_language) == ["en", "pl", "ru", "uk"]
        for pairs in by_language.values():
            assert_writers_match_oracles(*zip(*pairs))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           language=st.sampled_from(("en", "pl", "uk", "ru")))
    @settings(max_examples=20, deadline=None)
    def test_synth_documents(self, seed, language):
        rng = random.Random(seed)
        documents = [random_document(rng, f"s{seed}_{i}", language, rng.randint(1, 120))
                     for i in range(2)]
        vectors = [evaluate_all(registry_for(language), d) for d in documents]
        assert_writers_match_oracles(vectors, documents)

    def test_odd_cells(self):
        words = [word_sentence(*ODD_FORMS), word_sentence("x", "y")]
        documents = [doc(*words, doc_id=doc_id) for doc_id in ODD_DOC_IDS]
        all_refs = tuple((si, ti) for si, ti, _ in documents[0].refs())
        values = (-0.0, math.nan, math.inf, -math.inf, 1, 1 / 3, 1e20, 0.0)
        ids = tuple(f"M{i}" for i in range(len(values)))
        captured = (all_refs, (), ((0, 1),), all_refs[::2], ((1, 0), (1, 1)), (), all_refs,
                    ((0, 9),))
        vectors = [StyloVector(d.doc_id, ids, values, values, captured=captured)
                   for d in documents]
        assert_writers_match_oracles(vectors, documents)
        text = io.StringIO()
        write_vectors_csv(vectors[-1:], text)
        assert text.getvalue().splitlines()[1] == (
            "plain,-0.000000,nan,inf,-inf,1.000000,0.333333,100000000000000000000.000000,"
            "0.000000")

    def test_path_sinks_hold_the_same_bytes(self, tmp_path):
        document = doc(word_sentence(*ODD_FORMS), doc_id="crlf\r\nid")
        refs = tuple((si, ti) for si, ti, _ in document.refs())
        vector = StyloVector(document.doc_id, ("A", "B"), (0.5, -0.0), (1, 0),
                             captured=(refs, refs[:1]))
        for write, oracle, args in ((write_vectors_csv, oracle_vectors_csv, ([vector],)),
                                    (write_debug_csv, oracle_debug_csv, (vector, document))):
            expected = io.StringIO()
            oracle(*args, expected)
            out = tmp_path / f"{write.__name__}.csv"
            write(*args, out)
            assert out.read_bytes() == expected.getvalue().encode("utf-8")


class TestRunReport:
    def make(self):
        return RunReport(
            corpus_dir="/corpus",
            language=None,
            schemas={"en": "a" * 64, "pl": "b" * 64},
            processed=3,
            failed=1,
            errors=[("/corpus/bad.conllu", "line 2: whoops")],
            wall_time=1.2345,
        )

    def test_discovered_is_sum(self):
        assert self.make().discovered == 4

    def test_as_dict_round_trips_through_json(self):
        data = json.loads(json.dumps(self.make().as_dict()))
        assert data["discovered"] == 4
        assert data["processed"] == 3
        assert data["failed"] == 1
        assert data["language"] is None
        assert data["errors"] == [{"path": "/corpus/bad.conllu", "message": "line 2: whoops"}]
        assert data["wall_time"] == 1.234
        assert set(data["schemas"]) == {"en", "pl"}

    def test_summary_mentions_everything(self):
        text = self.make().summary()
        assert "3 processed" in text
        assert "1 failed" in text
        assert "schema[en]" in text
        assert "bad.conllu" in text
        assert "per-file" in text
