from __future__ import annotations

import csv
import io
import json

import pytest

from stylovec import engine, runner
from stylovec.conllu import read_document
from stylovec.engine import StyloVector, evaluate_all
from stylovec.output import (
    DEBUG_COLUMNS,
    OutputError,
    RunReport,
    debug_csv_string,
    vectors_to_json,
    write_debug_csv,
    write_vectors_csv,
    write_vectors_json,
)
from stylovec.packs import registry_for
from stylovec.runner import analyze_corpus

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


class TestDebugCsv:
    def results_on_fixture(self):
        document = load_fixture("pl_neg/neg01.conllu")
        vector = evaluate_all(registry_for("pl"), document)
        return document, vector

    def test_one_row_per_captured_token(self):
        document, vector = self.results_on_fixture()
        text = debug_csv_string(vector, document)
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == DEBUG_COLUMNS
        expected = sum(len(r.captured) for r in vector.results)
        assert len(rows) - 1 == expected

    def test_rows_ordered_and_traceable(self):
        document, vector = self.results_on_fixture()
        rows = list(csv.reader(io.StringIO(debug_csv_string(vector, document))))[1:]
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
        rows = list(csv.reader(io.StringIO(debug_csv_string(vector, document))))[1:]
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
