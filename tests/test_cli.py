"""End-to-end tests for the command-line interface.

Every test drives ``stylovec.cli.main`` with an argv list, the same entry
point the installed console script uses, and asserts on exit codes and on
the files/streams the run produces.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stylovec import cli, runner
from stylovec.cli import main
from stylovec.conllu import ParseError
from stylovec.output import OutputError
from stylovec.packs import PackError
from stylovec.runner import RunnerError, StrictAbort, WorkerDied
from stylovec.runner import _process_file as process_file

GOLDEN_CORPUS = Path(__file__).parent / "fixtures" / "golden" / "corpus"

# Minimal but fully valid documents (10-column lines, explicit language
# comments) used to assemble throwaway corpora under tmp_path.
EN_DOC = (
    "# language = en\n"
    "1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
    "2\tcat\tcat\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
    "3\tsat\tsit\tVERB\t_\t_\t0\troot\t_\t_\n"
    "4\t.\t.\tPUNCT\t_\t_\t3\tpunct\t_\t_\n"
)
EN_DOC_2 = (
    "# language = en\n"
    "1\tDogs\tdog\tNOUN\t_\tNumber=Plur\t2\tnsubj\t_\t_\n"
    "2\tbark\tbark\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\tloudly\tloudly\tADV\t_\t_\t2\tadvmod\t_\t_\n"
    "4\t!\t!\tPUNCT\t_\t_\t2\tpunct\t_\t_\n"
)
PL_DOC = (
    "# language = pl\n"
    "1\tNie\tnie\tPART\t_\t_\t2\tadvmod:neg\t_\t_\n"
    "2\tlubię\tlubić\tVERB\t_\tVerbForm=Fin\t0\troot\t_\t_\n"
    "3\ttego\tto\tPRON\t_\t_\t2\tobj\t_\t_\n"
    "4\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_\n"
)


def write_corpus(root: Path, files: dict[str, str]) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (root / name).write_text(payload, encoding="utf-8")
    return root


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _slow_when_ok(item):
    """The runner's worker body, 20 ms slower for each file that succeeds."""
    outcome = process_file(item)
    if outcome[0] == "ok":
        time.sleep(0.02)
    return outcome


class TestAnalyzeCsv:
    def test_single_language_happy_path(self, tmp_path):
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC, "b.conllu": EN_DOC_2})
        out = tmp_path / "vectors.csv"
        assert main(["analyze", "--input", str(corpus), "--out", str(out)]) == 0
        # One language in the corpus: the output lands at the exact path.
        assert out.is_file()
        header, rows = read_csv(out)
        assert header[0] == "doc_id"
        assert len(header) == 1 + 118
        assert [r[0] for r in rows] == ["a", "b"]
        for row in rows:
            for cell in row[1:]:
                assert 0.0 <= float(cell) <= 1.0

    def test_metric_filter_trims_columns(self, tmp_path):
        corpus = write_corpus(tmp_path / "c", {"neg.conllu": PL_DOC})
        out = tmp_path / "neg.csv"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out),
            "--lang", "pl", "--metrics", "SY_S_NEG",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["doc_id", "SY_S_NEG"]
        # All four tokens of the negated sentence over four tokens total.
        assert rows == [["neg", "1.000000"]]

    def test_category_filter(self, tmp_path):
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC})
        out = tmp_path / "pos.csv"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out),
            "--lang", "en", "--categories", "pos",
        ])
        assert code == 0
        header, _ = read_csv(out)
        assert len(header) == 1 + 17
        assert all(col.startswith("POS_") for col in header[1:])

    def test_multilingual_corpus_splits_output_per_language(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c",
            {"a.conllu": EN_DOC, "b.conllu": EN_DOC_2, "n.conllu": PL_DOC},
        )
        out = tmp_path / "vectors.csv"
        assert main(["analyze", "--input", str(corpus), "--out", str(out)]) == 0
        assert not out.exists()
        en_out = tmp_path / "vectors.en.csv"
        pl_out = tmp_path / "vectors.pl.csv"
        assert en_out.is_file() and pl_out.is_file()
        en_header, en_rows = read_csv(en_out)
        pl_header, pl_rows = read_csv(pl_out)
        assert len(en_header) == 1 + 118
        assert len(pl_header) == 1 + 107
        assert [r[0] for r in en_rows] == ["a", "b"]
        assert [r[0] for r in pl_rows] == ["n"]

    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c",
            {"a.conllu": EN_DOC, "b.conllu": EN_DOC_2, "n.conllu": PL_DOC},
        )
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        assert main(["analyze", "--input", str(corpus), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["analyze", "--input", str(corpus), "--out", str(out2), "--jobs", "2"]) == 0
        for lang in ("en", "pl"):
            a = tmp_path / f"one.{lang}.csv"
            b = tmp_path / f"two.{lang}.csv"
            assert a.read_bytes() == b.read_bytes()

    def test_debug_out_writes_per_document_captures(self, tmp_path):
        corpus = write_corpus(tmp_path / "c", {"neg.conllu": PL_DOC})
        out = tmp_path / "v.csv"
        debug = tmp_path / "debug"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out),
            "--debug-out", str(debug),
        ])
        assert code == 0
        debug_file = debug / "neg.debug.csv"
        assert debug_file.is_file()
        header, rows = read_csv(debug_file)
        assert header[:3] == ["doc_id", "metric_id", "sentence_index"]
        assert any(r[1] == "SY_S_NEG" for r in rows)


class TestAnalyzeJson:
    def test_json_format_single_file_for_all_languages(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c", {"a.conllu": EN_DOC, "n.conllu": PL_DOC}
        )
        out = tmp_path / "vectors.json"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out), "--format", "json",
        ])
        assert code == 0
        assert out.is_file()
        assert not (tmp_path / "vectors.en.json").exists()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert isinstance(payload, list) and len(payload) == 2
        by_lang = {entry["language"]: entry for entry in payload}
        assert set(by_lang) == {"en", "pl"}
        assert by_lang["en"]["doc_id"] == "a"
        assert set(by_lang["pl"]["values"]) >= {"SY_S_NEG", "POS_VERB"}
        for entry in payload:
            assert set(entry) == {"doc_id", "language", "schema_hash", "values"}


class TestAnalyzeFailures:
    def test_unknown_language_flag_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze", "--input", str(tmp_path), "--out",
                str(tmp_path / "o.csv"), "--lang", "xx",
            ])
        assert exc.value.code == 2

    def test_empty_corpus_is_a_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        out = tmp_path / "o.csv"
        assert main(["analyze", "--input", str(corpus), "--out", str(out)]) == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_unknown_metric_filter_is_a_usage_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC})
        out = tmp_path / "o.csv"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out),
            "--lang", "en", "--metrics", "NO_SUCH_METRIC",
        ])
        assert code == 2
        assert "NO_SUCH_METRIC" in capsys.readouterr().err

    def test_unknown_filter_without_lang_is_a_usage_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC, "b.conllu": PL_DOC})
        out = tmp_path / "o.csv"
        for flag, message in (("--categories", "unknown categories: NOPE"),
                              ("--metrics", "unknown metric ids: NO_SUCH_METRIC")):
            value = "NOPE" if flag == "--categories" else "NO_SUCH_METRIC,POS_NOUN"
            code = main(["analyze", "--input", str(corpus), "--out", str(out), flag, value])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_filter_known_to_some_packs_fails_only_the_other_languages(self, tmp_path, capsys):
        # "pos" is an English category and no Polish one
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC, "b.conllu": PL_DOC})
        out = tmp_path / "o.csv"
        code = main(["analyze", "--input", str(corpus), "--out", str(out), "--categories", "pos"])
        assert code == 1
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["a"]
        assert "b.conllu: unknown categories: pos" in capsys.readouterr().err

    def test_file_name_that_is_not_utf8_is_a_per_file_failure(self, tmp_path, capfd):
        # capfd, not capsys: like sys.stderr, its stream does not fail on the
        # undecodable character of the name in the summary
        corpus = write_corpus(tmp_path / "c", {"d00000_en.conllu": EN_DOC})
        try:
            with open(os.fsencode(corpus) + b"/\xff_bad.conllu", "wb") as fh:
                fh.write(EN_DOC.encode("utf-8"))
        except OSError:
            pytest.skip("the file system refuses a file name that is not UTF-8")
        out = tmp_path / "o.csv"
        report_path = tmp_path / "report.json"
        code = main(["analyze", "--input", str(corpus), "--out", str(out),
                     "--report-json", str(report_path)])
        assert code == 1
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["d00000_en"]
        assert "file name is not valid UTF-8: b'\\xff_bad.conllu'" in capfd.readouterr().err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert (report["processed"], report["failed"]) == (1, 1)
        assert os.fsencode(report["errors"][0]["path"]).endswith(b"/\xff_bad.conllu")

    def test_missing_input_file_is_a_per_file_failure(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main([
            "analyze", "--input", str(tmp_path / "nope.conllu"), "--out", str(out),
        ])
        assert code == 1
        assert "nope.conllu" in capsys.readouterr().err

    def test_partial_failure_keeps_good_rows_and_reports(self, tmp_path, capsys):
        corpus = write_corpus(
            tmp_path / "c",
            {"a.conllu": EN_DOC, "broken.conllu": "1\tonly-two-columns\n"},
        )
        out = tmp_path / "o.csv"
        report_path = tmp_path / "report.json"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out),
            "--report-json", str(report_path),
        ])
        assert code == 1
        # The healthy document still produced a row.
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["a"]
        err = capsys.readouterr().err
        assert "broken.conllu" in err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["processed"] == 1
        assert report["failed"] == 1
        assert len(report["errors"]) == 1
        assert report["errors"][0]["path"].endswith("broken.conllu")
        assert report["errors"][0]["message"]

    def test_strict_aborts_on_first_bad_file(self, tmp_path, capsys):
        corpus = write_corpus(
            tmp_path / "c",
            {"aaa-broken.conllu": "garbage\n", "b.conllu": EN_DOC},
        )
        out = tmp_path / "o.csv"
        code = main([
            "analyze", "--input", str(corpus), "--out", str(out), "--strict",
        ])
        assert code == 1
        assert not out.exists()
        assert "aaa-broken.conllu" in capsys.readouterr().err

    def test_strict_abort_at_two_jobs_leaves_chunks_not_started(self, monkeypatch, tmp_path,
                                                                capsys):
        # 40 files make 8 chunks of 5; the first chunk fails at once while the good
        # files are slowed down, so the abort comes before the last chunks start
        monkeypatch.setattr(runner, "_process_file", _slow_when_ok)
        bad = {f"a{i}.conllu": "garbage\n" for i in range(5)}
        good = {f"d{i:02d}.conllu": EN_DOC for i in range(35)}
        corpus = write_corpus(tmp_path / "c", {**bad, **good})
        debug = tmp_path / "debug"
        code = main(["analyze", "--input", str(corpus), "--out", str(tmp_path / "o.csv"),
                     "--lang", "en", "--strict", "--debug-out", str(debug), "--jobs", "2"])
        assert code == 1
        assert "a0.conllu" in capsys.readouterr().err
        assert len(list(debug.iterdir())) < len(good)

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC})
        code = main(["analyze", "--input", str(corpus), "--out", str(tmp_path / "o.csv"),
                     "--jobs", "0"])
        assert code == 2
        assert capsys.readouterr().err == "stylovec: error: jobs must be >= 1, got 0\n"

    def test_unwritable_output_path_fails_cleanly(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c", {"a.conllu": EN_DOC})
        out = tmp_path / "no" / "such" / "dir" / "o.csv"
        code = main(["analyze", "--input", str(corpus), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err


def _corpus_with_non_utf8_name(root: Path) -> Path:
    corpus = write_corpus(root, {"a.conllu": EN_DOC})
    try:
        with open(os.fsencode(corpus) + b"/bad\xff.conllu", "wb") as fh:
            fh.write(EN_DOC.encode("utf-8"))
    except OSError:
        pytest.skip("the file system refuses a file name that is not UTF-8")
    return corpus


EXIT_CODES = [(StrictAbort, 1), (WorkerDied, 1), (RunnerError, 2), (PackError, 2),
              (ParseError, 2), (OutputError, 2), (OSError, 1)]


class TestErrorOutput:
    @pytest.mark.parametrize("error,code", EXIT_CODES, ids=[e.__name__ for e, _ in EXIT_CODES])
    @pytest.mark.parametrize("command", ["analyze", "list-metrics"])
    def test_each_error_class_has_one_exit_code(self, monkeypatch, tmp_path, capsys,
                                                command, error, code):
        def fail(*args, **kwargs):
            raise error("it went wrong")

        monkeypatch.setattr(cli, "analyze_corpus", fail)
        monkeypatch.setattr(cli, "registry_for", fail)
        argv = (["analyze", "--input", str(tmp_path), "--out", str(tmp_path / "o.csv")]
                if command == "analyze" else ["list-metrics", "--lang", "en"])
        assert main(argv) == code
        assert capsys.readouterr().err.splitlines() == ["stylovec: error: it went wrong"]

    def test_other_value_errors_are_not_swallowed(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise UnicodeEncodeError("utf-8", "\udcff", 0, 1, "surrogates not allowed")

        monkeypatch.setattr(cli, "analyze_corpus", fail)
        with pytest.raises(UnicodeEncodeError):
            main(["analyze", "--input", str(tmp_path), "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("strict", [False, True], ids=["summary", "strict"])
    def test_non_utf8_name_on_a_strict_stderr(self, monkeypatch, tmp_path, strict):
        corpus = _corpus_with_non_utf8_name(tmp_path / "c")
        buffer = io.BytesIO()
        stream = io.TextIOWrapper(buffer, encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stderr", stream)
        argv = ["analyze", "--input", str(corpus), "--out", str(tmp_path / "o.csv")]
        assert main(argv + ["--strict"] * strict) == 1
        stream.flush()
        err = buffer.getvalue().decode("utf-8")
        line = "bad\\udcff.conllu: file name is not valid UTF-8: b'bad\\xff.conllu'"
        assert (f"stylovec: error: {corpus}/{line}" if strict else f"error: {corpus}/{line}") \
            in err.splitlines()

    def test_interpreter_stderr_bytes_are_the_escaped_summary(self, tmp_path):
        corpus = _corpus_with_non_utf8_name(tmp_path / "c")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   PYTHONIOENCODING="utf-8")
        run = subprocess.run(
            [sys.executable, "-m", "stylovec.cli", "analyze", "--input", str(corpus),
             "--out", str(tmp_path / "o.csv")],
            env=env, capture_output=True, timeout=60)
        assert run.returncode == 1
        assert (b"error: " + os.fsencode(corpus) + b"/bad\\udcff.conllu: file name is not"
                b" valid UTF-8: b'bad\\xff.conllu'") in run.stderr.splitlines()


class TestListMetrics:
    def test_text_listing(self, capsys):
        assert main(["list-metrics", "--lang", "en"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 118
        for line in lines:
            metric_id, category, description = line.split("\t")
            assert metric_id and category and description
        assert lines[0].split("\t")[0].startswith("POS_")
        assert any(line.startswith("SYN_DO_SUPPORT\t") for line in lines)

    def test_json_listing(self, capsys):
        assert main(["list-metrics", "--lang", "pl", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 107
        for entry in payload:
            assert set(entry) == {"id", "category", "language", "name_en", "description"}
        ids = [entry["id"] for entry in payload]
        assert "SY_S_NEG" in ids

    def test_category_filter(self, capsys):
        code = main(["list-metrics", "--lang", "en", "--categories", "social_media"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all(line.split("\t")[1] == "social_media" for line in lines)

    def test_unknown_category_is_a_usage_error(self, capsys):
        assert main(["list-metrics", "--lang", "en", "--categories", "nope"]) == 2
        assert "nope" in capsys.readouterr().err


class TestGoldenCorpus:
    def test_end_to_end_four_languages(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["analyze", "--input", str(GOLDEN_CORPUS), "--out", str(out)]) == 0
        expected = {
            "en": (1 + 118, ["alpha_en", "bravo_en"]),
            "pl": (1 + 107, ["charlie_pl", "delta_pl"]),
            "uk": (1 + 78, ["echo_uk"]),
            "ru": (1 + 76, ["fox_ru"]),
        }
        for lang, (width, doc_ids) in expected.items():
            header, rows = read_csv(tmp_path / f"v.{lang}.csv")
            assert len(header) == width
            assert [r[0] for r in rows] == doc_ids
            for row in rows:
                for cell in row[1:]:
                    assert 0.0 <= float(cell) <= 1.0
