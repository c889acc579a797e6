"""Serialization of vectors, debug captures, and run reports.

Vectors go to CSV (fixed schema, six decimal places) or JSON; captured
tokens go to per-document debug CSVs with one row per (metric, token)
pair so every count can be traced back to surface evidence.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Sequence

from .engine import StyloVector
from .model import Document

DEBUG_COLUMNS = (
    "doc_id",
    "metric_id",
    "sentence_index",
    "token_index",
    "form",
    "lemma",
    "upos",
    "deprel",
)


class OutputError(ValueError):
    """Serialization contract violation."""


@contextmanager
def _open_sink(sink: str | Path | IO[str]) -> Iterator[IO[str]]:
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sink


def write_vectors_csv(vectors: Sequence[StyloVector], sink: str | Path | IO[str]) -> int:
    """Write one row per vector; returns the data row count.

    All vectors must share one schema; values are fixed to six decimal
    places; quoting follows RFC 4180. Rows keep the order given.
    """
    if not vectors:
        raise OutputError("no vectors to write")
    schema = vectors[0].metric_ids
    for vec in vectors:
        if vec.metric_ids != schema:
            raise OutputError(
                f"mixed schemas: document {vec.doc_id!r} does not match the first vector"
            )
    with _open_sink(sink) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("doc_id",) + schema)
        for vec in vectors:
            writer.writerow([vec.doc_id] + [f"{v:.6f}" for v in vec.values])
    return len(vectors)


def vectors_to_json(pairs: Sequence[tuple[str | None, StyloVector]]) -> list[dict]:
    """JSON-ready payload from (language, vector) pairs.

    Values are rounded to six decimals so JSON and CSV agree digit for digit.
    """
    out = []
    for language, vec in pairs:
        out.append(
            {
                "doc_id": vec.doc_id,
                "language": language,
                "schema_hash": vec.schema_hash,
                "values": {mid: round(v, 6) for mid, v in zip(vec.metric_ids, vec.values)},
            }
        )
    return out


def write_vectors_json(pairs: Sequence[tuple[str | None, StyloVector]], sink: str | Path | IO[str]) -> int:
    payload = vectors_to_json(pairs)
    with _open_sink(sink) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2)
        fh.write("\n")
    return len(payload)


def write_debug_csv(vector: StyloVector, doc: Document, sink: str | Path | IO[str]) -> int:
    """One row per captured token, ordered by (metric, sentence, token)."""
    if vector.doc_id != doc.doc_id:
        raise OutputError(
            f"vector for {vector.doc_id!r} does not belong to document {doc.doc_id!r}"
        )
    if vector.captured is None:
        raise OutputError(
            f"vector for {vector.doc_id!r} holds no captures: evaluate it with captures=True"
        )
    rows = 0
    with _open_sink(sink) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DEBUG_COLUMNS)
        for metric_id, captured in zip(vector.metric_ids, vector.captured):
            for si, ti in captured:
                if si >= len(doc.sentences) or ti >= len(doc.sentences[si].tokens):
                    raise OutputError(
                        f"internal error: metric {metric_id} captured "
                        f"({si}, {ti}) outside document {doc.doc_id!r}"
                    )
                tok = doc.sentences[si].tokens[ti]
                writer.writerow(
                    (doc.doc_id, metric_id, si, ti, tok.form, tok.lemma, tok.upos, tok.deprel)
                )
                rows += 1
    return rows


def debug_csv_string(vector: StyloVector, doc: Document) -> str:
    buf = io.StringIO()
    write_debug_csv(vector, doc, buf)
    return buf.getvalue()


@dataclass
class RunReport:
    """Summary of one corpus run: what was read, what failed, how long."""

    corpus_dir: str
    language: str | None
    schemas: dict[str, str] = field(default_factory=dict)
    processed: int = 0
    failed: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def discovered(self) -> int:
        return self.processed + self.failed

    def as_dict(self) -> dict:
        return {
            "corpus_dir": self.corpus_dir,
            "language": self.language,
            "schemas": dict(self.schemas),
            "discovered": self.discovered,
            "processed": self.processed,
            "failed": self.failed,
            "errors": [{"path": p, "message": m} for p, m in self.errors],
            "wall_time": round(self.wall_time, 3),
        }

    def summary(self) -> str:
        lines = [
            f"corpus: {self.corpus_dir}",
            f"language: {self.language or 'per-file'}",
            f"documents: {self.processed} processed, {self.failed} failed "
            f"of {self.discovered} discovered",
            f"wall time: {self.wall_time:.2f} s",
        ]
        for lang, digest in sorted(self.schemas.items()):
            lines.append(f"schema[{lang}]: {digest[:16]}")
        for path, message in self.errors:
            lines.append(f"error: {path}: {message}")
        return "\n".join(lines)
