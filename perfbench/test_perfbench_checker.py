"""The benchmark's output checker accepts real CLI output and rejects damaged output."""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

import checker
import corpus
from stylovec.cli import main as cli_main

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A small two-language corpus analysed once as CSV and once as JSON with debug CSVs."""
    root = tmp_path_factory.mktemp("perfbench")
    tiny = corpus.Workload("tiny", ("en", "pl"), docs=6, tokens=(20, 60), jobs=1)
    docs = corpus.generate(tiny, 7, FIXTURES)
    corpus.write(docs, root / "corpus")
    (root / "csv").mkdir()
    assert cli_main(["analyze", "--input", str(root / "corpus"),
                     "--out", str(root / "csv" / "vectors.csv")]) == 0
    assert cli_main(["analyze", "--input", str(root / "corpus"), "--format", "json",
                     "--out", str(root / "json" / "vectors.json"), "--debug-out", str(root / "json" / "debug"),
                     "--report-json", str(root / "json" / "report.json")]) == 0
    return docs, root


def _copy(outputs, kind: str, tmp_path: Path) -> tuple[list, Path]:
    docs, root = outputs
    return docs, Path(shutil.copytree(root / kind, tmp_path / kind))


def _check(docs, out: Path, kind: str) -> None:
    checker.check_outputs(out, docs, kind, debug=kind == "json", failed=set())


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_accepts_program_output(outputs, kind, tmp_path):
    docs, out = _copy(outputs, kind, tmp_path)
    _check(docs, out, kind)


def _edit_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_rejects_one_corrupted_value(outputs, tmp_path):
    docs, out = _copy(outputs, "csv", tmp_path)

    def bump(rows):
        col = rows[0].index("POS_NOUN")
        rows[1][col] = f"{float(rows[1][col]) + 1e-6:.6f}"

    _edit_csv(out / "vectors.en.csv", bump)
    with pytest.raises(checker.Mismatch, match="POS_NOUN"):
        _check(docs, out, "csv")


def test_rejects_one_missing_row(outputs, tmp_path):
    docs, out = _copy(outputs, "csv", tmp_path)
    _edit_csv(out / "vectors.pl.csv", lambda rows: rows.pop(2))
    with pytest.raises(checker.Mismatch, match="rows"):
        _check(docs, out, "csv")


def test_rejects_one_corrupted_json_value(outputs, tmp_path):
    docs, out = _copy(outputs, "json", tmp_path)
    path = out / "vectors.json"
    records = json.loads(path.read_text(encoding="utf-8"))
    records[0]["values"]["TTR_LEMMA"] += 1e-6
    path.write_text(json.dumps(records), encoding="utf-8")
    with pytest.raises(checker.Mismatch, match="TTR_LEMMA"):
        _check(docs, out, "json")


def test_rejects_one_missing_debug_row(outputs, tmp_path):
    docs, out = _copy(outputs, "json", tmp_path)
    _edit_csv(out / "debug" / f"{docs[0].doc_id}.debug.csv", lambda rows: rows.pop(1))
    with pytest.raises(checker.Mismatch, match="rows"):
        _check(docs, out, "json")
