"""Serialization of vectors, debug captures, and run reports.

Vectors go to CSV (fixed schema, six decimal places) or JSON; captured
tokens go to per-document debug CSVs with one row per (metric, token)
pair so every count can be traced back to surface evidence.
"""

from __future__ import annotations

import csv
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


class _Lines(list):
    """A ``csv.writer`` target that keeps each written row as one item."""

    write = list.append


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
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(("doc_id",) + schema)
    # csv quotes each doc_id (the row "<id>,\n" less its ",\n"); one %-template
    # prints all values of a row exactly as f"{v:.6f}" would
    writer.writerows([(vec.doc_id, "") for vec in vectors])
    template = "".join([",%.6f"] * len(schema)) + "\n"
    lines[1:] = [line[:-2] + template % tuple(vec.values)
                 for line, vec in zip(lines[1:], vectors)]
    with _open_sink(sink) as fh:
        fh.writelines(lines)
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
    """One row per captured token, ordered by (metric, sentence, token).

    Each token's cells and each metric's ``doc_id,metric_id,`` prefix are
    quoted once; all rows are built before the sink is opened, so a ref
    outside the document raises and leaves no file behind.
    """
    if vector.doc_id != doc.doc_id:
        raise OutputError(
            f"vector for {vector.doc_id!r} does not belong to document {doc.doc_id!r}"
        )
    if vector.captured is None:
        raise OutputError(
            f"vector for {vector.doc_id!r} holds no captures: evaluate it with captures=True"
        )
    lines = _Lines()
    writer = csv.writer(lines, lineterminator="\n")
    refs = doc.refs()
    writer.writerows([(si, ti, tok.form, tok.lemma, tok.upos, tok.deprel) for si, ti, tok in refs])
    cells_of = dict(zip([(si, ti) for si, ti, _ in refs], lines))
    lines.clear()
    writer.writerow(DEBUG_COLUMNS)
    for metric_id, captured in zip(vector.metric_ids, vector.captured):
        if not captured:
            continue
        writer.writerow((doc.doc_id, metric_id, ""))
        prefix = lines.pop()[:-1]
        try:
            lines.extend(map(prefix.__add__, map(cells_of.__getitem__, captured)))
        except KeyError as exc:
            raise OutputError(
                f"internal error: metric {metric_id} captured "
                f"{exc.args[0]} outside document {doc.doc_id!r}"
            ) from None
    with _open_sink(sink) as fh:
        fh.writelines(lines)
    return len(lines) - 1


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
