"""Output checks made apart from the program.

Values are recomputed by brute force from the ``Document`` objects the
generator built, never by calling the metric engine, and compared with
the six-decimal strings the CLI wrote. Headers are checked against the
metric order of the pack manifests, schema hashes against
``registry_for(lang).schema_hash``, and debug CSV rows against the
generated tokens. Every failed check raises :class:`Mismatch`.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import re
from pathlib import Path

from stylovec.model import Document
from stylovec.packs import DATA_DIR, PACK_FILES, registry_for

UPOS = ("ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X")
CONTENT = frozenset({"NOUN", "VERB", "ADJ", "ADV", "PROPN"})
FUNCTION = frozenset({"ADP", "AUX", "CCONJ", "SCONJ", "DET", "PART", "PRON"})
DEBUG_HEADER = ["doc_id", "metric_id", "sentence_index", "token_index",
                "form", "lemma", "upos", "deprel"]
POS_IDS = tuple(f"POS_{u}" for u in UPOS)
CF_IDS = ("CF_CONTENT", "CF_FUNCTION", "CF_OTHER")
# A six-decimal value is off by at most 5e-7 from the ratio it rounds.
HALF_ULP6 = 5e-7
_SIX = re.compile(r"[01]\.\d{6}\Z")
_SUMMARY = re.compile(r"documents: (\d+) processed, (\d+) failed of (\d+) discovered")


class Mismatch(Exception):
    """An output disagrees with the independent recomputation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class Manifest:
    """Metric order, families and stop words of one pack, read from its file."""

    def __init__(self, language: str):
        cfg = configparser.ConfigParser(interpolation=None, strict=True,
                                        delimiters=("=",), comment_prefixes=("#",))
        cfg.optionxform = str
        cfg.read(DATA_DIR / PACK_FILES[language], encoding="utf-8")
        self.family: dict[str, str] = {}
        self.local: set[str] = set()
        for section in cfg.sections():
            kind, _, name = section.partition(" ")
            if kind == "metric":
                opts = cfg[section]
                mid = name.strip()
                self.family[mid] = opts.get("family") or "detector"
                # Only phrase_distance reports a raw value other than its capture count.
                default = "no" if self.family[mid] == "phrase_distance" else "yes"
                if opts.get("local", default).strip().casefold() in ("yes", "true", "1"):
                    self.local.add(mid)
        self.ids = list(self.family)
        self.stopwords = _read_words(DATA_DIR / cfg["lexicon stopwords"]["file"])


def _read_words(path: Path) -> frozenset[str]:
    words = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(" ".join(line.partition("\t")[0].casefold().split()))
    return frozenset(words)


def expected_values(doc: Document, stopwords: frozenset[str]) -> dict[str, float]:
    """POS_*, CF_*, TTR_FORM, TTR_LEMMA and FW_STOPWORD counted token by token."""
    tokens = [t for s in doc.sentences for t in s.tokens]
    n = len(tokens)
    out = {f"POS_{u}": sum(1 for t in tokens if t.upos == u) / n for u in UPOS}
    out["CF_CONTENT"] = sum(1 for t in tokens if t.upos in CONTENT) / n
    out["CF_FUNCTION"] = sum(1 for t in tokens if t.upos in FUNCTION) / n
    out["CF_OTHER"] = sum(1 for t in tokens
                          if t.upos not in CONTENT and t.upos not in FUNCTION) / n
    words = [t for t in tokens if t.upos != "PUNCT"]
    out["TTR_FORM"] = len({t.form.casefold() for t in words}) / n
    out["TTR_LEMMA"] = len({t.lemma.casefold() for t in words}) / n
    out["FW_STOPWORD"] = sum(1 for t in tokens if t.lemma.casefold() in stopwords) / n
    return out


def _check_vector(doc: Document, manifest: Manifest, values: dict[str, float],
                  rendered: dict[str, str] | None) -> None:
    """Compare one vector with the recomputation; ``rendered`` holds CSV strings."""
    where = doc.doc_id
    for mid, value in values.items():
        _require(0.0 <= value <= 1.0, f"{where}: {mid}={value} outside [0, 1]")
    for mid, want in expected_values(doc, manifest.stopwords).items():
        if rendered is not None:
            _require(rendered[mid] == f"{want:.6f}",
                     f"{where}: {mid} is {rendered[mid]}, recomputed {want:.6f}")
        else:
            _require(values[mid] == round(want, 6),
                     f"{where}: {mid} is {values[mid]}, recomputed {round(want, 6)}")
    pos = sum(values[m] for m in POS_IDS)
    cf = sum(values[m] for m in CF_IDS)
    _require(abs(pos - 1.0) <= len(POS_IDS) * HALF_ULP6 + 1e-12, f"{where}: POS sum {pos}")
    _require(abs(cf - 1.0) <= len(CF_IDS) * HALF_ULP6 + 1e-12, f"{where}: CF sum {cf}")


def check_csv(path: Path, docs: list[Document], manifest: Manifest) -> dict[str, dict[str, float]]:
    """Check one per-language vectors CSV; returns the values by document id."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows), f"{path.name}: empty file")
    _require(rows[0] == ["doc_id"] + manifest.ids, f"{path.name}: header is not in manifest order")
    body = rows[1:]
    by_id = {d.doc_id: d for d in docs}
    _require([r[0] for r in body] == sorted(by_id, key=lambda d: d.encode("utf-8")),
             f"{path.name}: rows are not the expected documents in byte order")
    out = {}
    for row in body:
        _require(len(row) == len(rows[0]), f"{path.name}: {row[0]}: {len(row)} cells")
        rendered = dict(zip(manifest.ids, row[1:]))
        for mid, text in rendered.items():
            _require(bool(_SIX.match(text)), f"{row[0]}: {mid}={text!r} is not a six-decimal ratio")
        values = {m: float(t) for m, t in rendered.items()}
        _check_vector(by_id[row[0]], manifest, values, rendered)
        out[row[0]] = values
    return out


def check_json(path: Path, docs: list[Document], manifests: dict[str, Manifest]) -> dict[str, dict[str, float]]:
    """Check the JSON vectors file; returns the values by document id."""
    records = json.loads(path.read_text(encoding="utf-8"))
    by_id = {d.doc_id: d for d in docs}
    order = sorted(by_id, key=lambda d: (by_id[d].language, d.encode("utf-8")))
    _require([r["doc_id"] for r in records] == order,
             f"{path.name}: records are not the expected documents in (language, byte) order")
    out = {}
    for record in records:
        doc = by_id[record["doc_id"]]
        manifest = manifests[doc.language]
        _require(record["language"] == doc.language, f"{doc.doc_id}: language {record['language']}")
        _require(record["schema_hash"] == registry_for(doc.language).schema_hash,
                 f"{doc.doc_id}: schema hash differs from the registry's")
        values = record["values"]
        _require(list(values) == manifest.ids, f"{doc.doc_id}: keys are not in manifest order")
        _check_vector(doc, manifest, values, None)
        out[doc.doc_id] = values
    return out


def check_debug(directory: Path, docs: list[Document], manifests: dict[str, Manifest],
                values: dict[str, dict[str, float]]) -> None:
    """Check every debug CSV row against the generated tokens."""
    for doc in docs:
        path = directory / f"{doc.doc_id}.debug.csv"
        _require(path.is_file(), f"{path.name}: missing")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        _require(rows[:1] == [DEBUG_HEADER], f"{path.name}: bad header")
        manifest = manifests[doc.language]
        rank = {m: i for i, m in enumerate(manifest.ids)}
        counts = dict.fromkeys(manifest.ids, 0)
        last = (-1, -1, -1)
        for row in rows[1:]:
            _require(len(row) == len(DEBUG_HEADER), f"{path.name}: row of {len(row)} cells")
            doc_id, mid, si, ti, form, lemma, upos, deprel = row
            _require(doc_id == doc.doc_id and mid in rank, f"{path.name}: row {row} is foreign")
            si, ti = int(si), int(ti)
            _require(0 <= si < len(doc.sentences) and 0 <= ti < len(doc.sentences[si].tokens),
                     f"{path.name}: {mid} captures ({si}, {ti}) outside the document")
            tok = doc.sentences[si].tokens[ti]
            _require((form, lemma, upos, deprel) == (tok.form, tok.lemma, tok.upos, tok.deprel),
                     f"{path.name}: {mid} row ({si}, {ti}) disagrees with the token")
            key = (rank[mid], si, ti)
            _require(key > last, f"{path.name}: rows out of order or repeated at {mid} ({si}, {ti})")
            last = key
            counts[mid] += 1
        n = doc.token_count
        for mid in manifest.local:
            got, value = counts[mid], values[doc.doc_id][mid]
            _require(abs(got - value * n) <= HALF_ULP6 * n + 1e-9,
                     f"{path.name}: {mid} has {got} rows, value {value} x {n} tokens")


def check_report(report: dict, docs: list[Document], failed: set[str]) -> None:
    """Counts and schema hashes of the run report, or of the parsed summary,
    which shows hash prefixes."""
    languages = {d.language for d in docs if d.doc_id not in failed}
    _require(report["discovered"] == len(docs), f"report: discovered {report['discovered']}")
    _require(report["processed"] == len(docs) - len(failed), f"report: processed {report['processed']}")
    _require(report["failed"] == len(failed), f"report: failed {report['failed']}")
    _require(set(report["schemas"]) == languages, f"report: schemas for {sorted(report['schemas'])}")
    for lang, digest in report["schemas"].items():
        _require(len(digest) >= 16 and registry_for(lang).schema_hash.startswith(digest),
                 f"report: schema[{lang}] differs")


def parse_summary(stderr: str) -> dict:
    """Counts, schema prefixes and failed document ids from the CLI's summary."""
    match = _SUMMARY.search(stderr)
    _require(match is not None, "no run summary on stderr")
    schemas, failed = {}, set()
    for line in stderr.splitlines():
        if line.startswith("schema["):
            lang, _, digest = line[len("schema["):].partition("]: ")
            schemas[lang] = digest
        elif line.startswith("error: "):
            failed.add(Path(line[len("error: "):].partition(": ")[0]).stem)
    processed, n_failed, discovered = map(int, match.groups())
    return {"processed": processed, "failed": n_failed, "discovered": discovered,
            "schemas": schemas, "failed_ids": failed}


def check_outputs(out_dir: Path, docs: list[Document], fmt: str, debug: bool,
                  failed: set[str]) -> None:
    """Check a whole analyze output directory (vectors, debug CSVs, report)."""
    kept = [d for d in docs if d.doc_id not in failed]
    manifests = {lang: Manifest(lang) for lang in sorted({d.language for d in kept})}
    if fmt == "json":
        values = check_json(out_dir / "vectors.json", kept, manifests)
    else:
        values = {}
        multi = len(manifests) > 1
        for lang, manifest in manifests.items():
            name = f"vectors.{lang}.csv" if multi else "vectors.csv"
            values.update(check_csv(out_dir / name, [d for d in kept if d.language == lang], manifest))
    if debug:
        check_debug(out_dir / "debug", kept, manifests, values)
    report = out_dir / "report.json"
    if report.exists():
        check_report(json.loads(report.read_text(encoding="utf-8")), docs, failed)


def digest(out_dir: Path) -> str:
    """Fingerprint of every output file except the report, whose wall time varies."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "report.json"):
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
