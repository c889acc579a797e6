"""CoNLL-U reader and writer.

Parses the 10-column tab-separated format: integer-id token lines,
``n-m`` multiword range lines, ``#`` comments, blank-line sentence
breaks. Every token line must be fully annotated (lemma, UPOS, head,
deprel), no column may be empty, and ids are decimals without leading
zeros; decimal-id empty nodes are rejected. MISC is scanned for
``SpaceAfter=No`` and ``NER=<label>``. A blank line is empty, and no
line ends in a carriage return once its line ending is removed. The
writer reads its own text back and refuses a document that the reader
rejects or reads back differently.
"""

from __future__ import annotations

import logging
import os
import re
from pathlib import Path

from .model import (
    Document,
    ModelError,
    MultiwordRange,
    Sentence,
    Token,
    UPOS_TAGS,
)

_COLUMNS = ("ID", "FORM", "LEMMA", "UPOS", "XPOS", "FEATS", "HEAD", "DEPREL", "DEPS", "MISC")
_RANGE_ID = re.compile(r"([1-9][0-9]*)-([1-9][0-9]*)")
_CORPUS_PATTERN = "*.conllu"

log = logging.getLogger("stylovec")


class ParseError(ValueError):
    """Malformed CoNLL-U input; ``line`` is 1-based, 0 for whole-payload errors;
    ``column`` names the UD column whose value alone is at fault, or is None."""

    def __init__(self, message: str, line: int = 0, column: str | None = None):
        self.line = line
        self.column = column
        super().__init__(f"line {line}: {message}" if line else message)


def _parse_feats(raw: str, line: int) -> dict[str, str]:
    if raw == "_":
        return {}
    feats: dict[str, str] = {}
    for item in raw.split("|"):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ParseError(f"malformed feature {item!r}", line, "FEATS")
        if key in feats:
            raise ParseError(f"duplicate feature key {key!r}", line, "FEATS")
        feats[key] = value
    return feats


def _parse_misc(raw: str) -> tuple[str | None, bool]:
    """Extract (entity label, space_after) from the MISC column."""
    if raw == "_":
        return None, True
    entity = None
    space_after = True
    for item in raw.split("|"):
        key, _, value = item.partition("=")
        if key == "NER" and value:
            entity = value
        elif key == "SpaceAfter" and value == "No":
            space_after = False
    return entity, space_after


def _build_sentence(rows: list[tuple[int, list[str]]],
                    ranges: list[tuple[int, int, int, str, str]]) -> Sentence:
    tokens: list[Token] = []
    n = len(rows)
    for pos, (line, cols) in enumerate(rows):
        tid, form, lemma, upos, xpos, feats, head, deprel, deps, misc = cols
        if int(tid) != pos + 1:
            raise ParseError(f"token id {tid} out of sequence, expected {pos + 1}", line)
        if upos not in UPOS_TAGS:
            raise ParseError(f"invalid UPOS tag {upos!r}", line, "UPOS")
        feats = _parse_feats(feats, line)
        if head == "_":
            raise ParseError("missing HEAD", line, "HEAD")
        if not (head.isascii() and head.isdigit()) or head[0] == "0" and head != "0":
            raise ParseError(f"invalid HEAD {head!r}", line, "HEAD")
        head_id = int(head)
        if head_id > n:
            raise ParseError(f"HEAD {head_id} out of range for {n}-token sentence", line)
        if deprel == "_":
            raise ParseError("missing DEPREL", line, "DEPREL")
        entity, space_after = _parse_misc(misc)
        tokens.append(Token(pos, form, form if lemma == "_" else lemma, upos,
                            None if xpos == "_" else xpos, feats,
                            None if head_id == 0 else head_id - 1, deprel, deps,
                            entity, space_after))
    mw = []
    last_end = -1
    for line, start, end, form, misc in ranges:
        if start >= end:
            raise ParseError(f"invalid token range {start}-{end}", line)
        if end > n:
            raise ParseError(f"token range {start}-{end} exceeds sentence length {n}", line)
        if start <= last_end:
            raise ParseError(f"overlapping token range {start}-{end}", line)
        last_end = end
        _, space_after = _parse_misc(misc)
        mw.append(MultiwordRange(start=start - 1, end=end - 1, form=form, space_after=space_after))
    first = rows[0][0]
    try:
        return Sentence(tokens=tuple(tokens), ranges=tuple(mw))
    except ModelError as exc:
        raise ParseError(str(exc), first) from None


def parse_conllu(payload: str, doc_id: str, language: str | None = None) -> Document:
    """Parse one document from CoNLL-U text.

    ``language`` overrides any ``# language = xx`` comment in the payload.
    Raises :class:`ParseError` on structural problems.
    """
    if payload.startswith("﻿"):
        payload = payload[1:]
    payload = payload.replace("\r\n", "\n").removesuffix("\r")
    stray = (payload + "\n").find("\r\n")  # a carriage return left at the end of a line
    if stray >= 0:
        start = payload.rfind("\n", 0, stray) + 1
        raise ParseError("carriage return at the end of the line", payload.count("\n", 0, start) + 1,
                         None if payload.startswith("#", start) else "MISC")
    sentences: list[Sentence] = []
    rows: list[tuple[int, list[str]]] = []
    ranges: list[tuple[int, int, int, str, str]] = []
    comment_language: str | None = None

    def flush() -> None:
        nonlocal rows, ranges
        if rows:
            sentences.append(_build_sentence(rows, ranges))
        elif ranges:
            raise ParseError("token range without token lines", ranges[0][0])
        rows = []
        ranges = []

    for lineno, line in enumerate(payload.split("\n"), start=1):
        if not line:
            flush()
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if sep and key.strip() == "language" and value.strip():
                comment_language = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) != len(_COLUMNS):
            raise ParseError(f"expected {len(_COLUMNS)} tab-separated columns, got {len(cols)}", lineno)
        if "" in cols:
            empty = _COLUMNS[cols.index("")]
            raise ParseError(f"empty {empty} column", lineno, empty)
        tid = cols[0]
        # ASCII digits without a leading zero: str(int(tid)) == tid
        if tid.isascii() and tid.isdigit() and tid[0] != "0":
            rows.append((lineno, cols))
        elif "-" in tid:
            match = _RANGE_ID.fullmatch(tid)
            if match is None:
                raise ParseError(f"invalid token range id {tid!r}", lineno, "ID")
            ranges.append((lineno, int(match[1]), int(match[2]), cols[1], cols[9]))
        elif "." in tid:
            raise ParseError(f"empty nodes are not supported (id {tid!r})", lineno)
        else:
            raise ParseError(f"invalid token id {tid!r}", lineno, "ID")
    flush()
    if not sentences:
        raise ParseError("empty document: no token lines found")
    if language and comment_language and language != comment_language:
        log.warning(
            "document %s: language %r overrides file comment %r",
            doc_id, language, comment_language,
        )
    return Document(doc_id=doc_id, language=language or comment_language, sentences=tuple(sentences))


def _misc_column(entity: str | None, space_after: bool) -> str:
    parts = []
    if entity is not None:
        parts.append(f"NER={entity}")
    if not space_after:
        parts.append("SpaceAfter=No")
    return "|".join(parts) if parts else "_"


def _feats_column(feats: dict[str, str]) -> str:
    if not feats:
        return "_"
    return "|".join(f"{k}={v}" for k, v in sorted(feats.items()))


_FIELD_COLUMNS = {"form": "FORM", "lemma": "LEMMA", "upos": "UPOS", "xpos": "XPOS",
                  "feats": "FEATS", "head": "HEAD", "deprel": "DEPREL", "deps": "DEPS",
                  "entity": "MISC", "space_after": "MISC"}


def to_conllu(doc: Document) -> str:
    """Serialize a document to CoNLL-U text that :func:`parse_conllu` reads
    back as ``doc``. The text is read back before it is returned: a value
    that the reader rejects or reads back differently is a
    :class:`ModelError` naming the sentence, the token and the column."""
    if not doc.sentences:
        raise ModelError("document has no sentences")
    lang = doc.language
    if lang is not None and (not lang or lang != lang.strip() or "\n" in lang):
        raise ModelError(f"language {lang!r} does not read back from a comment")
    out: list[str] = []
    places: dict[int, str] = {}  # line number -> the token or range it writes

    def emit(place: str, cols: list[str]) -> None:
        # a tab or a newline moves the rest of the line; the reader cannot tell whose it was
        for name, value in zip(_COLUMNS, cols):
            if "\t" in value or "\n" in value:
                raise ModelError(f"{place}, column {name}: tab or newline in {value!r}")
        out.append("\t".join(cols))
        places[len(out)] = place

    if lang:
        out.append(f"# language = {lang}")
    for si, sent in enumerate(doc.sentences, start=1):
        by_start = {r.start: r for r in sent.ranges}
        for tok in sent.tokens:
            rng = by_start.get(tok.index)
            if rng is not None:
                span = f"{rng.start + 1}-{rng.end + 1}"
                emit(f"sentence {si}, range {span}", [
                    span, rng.form, "_", "_", "_",
                    "_", "_", "_", "_", _misc_column(None, rng.space_after),
                ])
            emit(f"sentence {si}, token {tok.index + 1}", [
                str(tok.index + 1),
                tok.form,
                tok.lemma,
                tok.upos,
                tok.xpos or "_",
                _feats_column(tok.feats),
                "0" if tok.head is None else str(tok.head + 1),
                tok.deprel,
                tok.deps,
                _misc_column(tok.entity, tok.space_after),
            ])
        out.append("")
    text = "\n".join(out) + "\n"
    try:
        back = parse_conllu(text, doc.doc_id)
    except ParseError as exc:
        reason = str(exc).removeprefix(f"line {exc.line}: ")
        raise ModelError(f"{places[exc.line]}, column {exc.column}: {reason}") from None
    if back != doc:
        for (si, ti, tok), (_, _, again) in zip(doc.refs(), back.refs()):
            for name, column in _FIELD_COLUMNS.items():
                value, read = getattr(tok, name), getattr(again, name)
                if value != read:
                    raise ModelError(f"sentence {si + 1}, token {ti + 1}, column {column}: "
                                     f"{value!r} reads back as {read!r}")
    return text


def list_corpus_files(path: str | Path) -> list[Path]:
    """Corpus file discovery: ``*.conllu`` glob sorted by name bytes, or the one file.

    Zero matches in a directory is an error; downstream row order relies
    on the byte-order sort being stable across platforms.
    """
    root = Path(path)
    if root.is_dir():
        files = sorted(root.glob(_CORPUS_PATTERN), key=lambda p: os.fsencode(p.name))
        if not files:
            raise ParseError(f"empty corpus: no files matching {_CORPUS_PATTERN!r} under {root}")
        return files
    return [root]


def read_document(path: str | Path, language: str | None = None) -> Document:
    """Read, decode and parse one CoNLL-U file; the document id is the file stem.

    Unreadable and non-UTF-8 files, and file names that are not UTF-8, raise
    :class:`ParseError` like malformed ones.
    """
    path = Path(path)
    try:
        path.stem.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"file name is not valid UTF-8: {os.fsencode(path.name)!r}") from None
    try:
        payload = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8: {exc}") from None
    return parse_conllu(payload, doc_id=path.stem, language=language)
