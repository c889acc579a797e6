"""Seeded corpora for the benchmark workloads.

Documents are assembled sentence by sentence from three pools: the
fixture documents bundled with the tests, ``synth.genre_corpus``
(English only) and ``synth.random_document``. Every document gets an
exact token count drawn from its workload's range, so one seed fixes a
corpus down to the byte. Files are written by the benchmark's own
CoNLL-U writer; the program under test only ever sees those files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from stylovec import synth
from stylovec.conllu import parse_conllu
from stylovec.model import Document, Sentence


@dataclass(frozen=True)
class Workload:
    name: str
    languages: tuple[str, ...]
    docs: int
    tokens: tuple[int, int]
    jobs: int
    format: str = "csv"
    debug: bool = False


# Sentence-source weights: fixture, genre (English only), fuzz.
FIXTURE_W, GENRE_W, FUZZ_W = 0.4, 0.3, 0.3


WORKLOADS = {
    w.name: w
    for w in (
        # Per-token parse and evaluation on every pack, single job.
        Workload("mixed-long-j1", ("en", "pl", "uk", "ru"), docs=240,
                 tokens=(150, 300), jobs=1),
        # Per-document fixed costs: rule calls, result pickling, collection.
        Workload("short-docs-j2", ("en", "pl"), docs=2000, tokens=(3, 25), jobs=2),
        # Output layer: JSON vectors plus one debug CSV per document.
        Workload("debug-json-j1", ("en", "pl"), docs=100, tokens=(150, 300),
                 jobs=1, format="json", debug=True),
    )
}


def fixture_pools(fixtures_dir: Path) -> dict[str, list[Sentence]]:
    """Sentences of every bundled fixture document, grouped by language."""
    pools: dict[str, list[Sentence]] = {}
    for path in sorted(fixtures_dir.rglob("*.conllu")):
        doc = parse_conllu(path.read_text(encoding="utf-8"), doc_id=path.stem)
        pools.setdefault(doc.language, []).extend(doc.sentences)
    return pools


def _genre_pool(rng: random.Random) -> list[Sentence]:
    docs = synth.genre_corpus(rng, "formal", 20) + synth.genre_corpus(rng, "chat", 20)
    return [s for d in docs for s in d.sentences]


def _document(rng: random.Random, doc_id: str, language: str, size: int,
              pools: list[list[Sentence]], weights: tuple[float, ...]) -> Document:
    sentences: list[Sentence] = []
    remaining = size
    while remaining > 0:
        pool = rng.choices(pools, weights)[0]
        fitting = [s for s in pool if len(s) <= remaining]
        if fitting:
            picked = [rng.choice(fitting)]
        else:
            chunk = min(remaining, rng.randint(4, 16))
            picked = list(synth.random_document(rng, doc_id, language, chunk).sentences)
        sentences.extend(picked)
        remaining -= sum(len(s) for s in picked)
    return Document(doc_id=doc_id, language=language, sentences=tuple(sentences))


def generate(workload: Workload, seed: int, fixtures_dir: Path) -> list[Document]:
    """The workload's documents for ``seed``; languages take turns."""
    rng = random.Random(seed)
    fixtures = fixture_pools(fixtures_dir)
    genre = _genre_pool(rng)
    docs = []
    for i in range(workload.docs):
        language = workload.languages[i % len(workload.languages)]
        if language == "en":
            pools, weights = [fixtures["en"], genre, []], (FIXTURE_W, GENRE_W, FUZZ_W)
        else:
            pools, weights = [fixtures[language], []], (FIXTURE_W + GENRE_W, FUZZ_W)
        size = rng.randint(*workload.tokens)
        docs.append(_document(rng, f"d{i:05d}_{language}", language, size, pools, weights))
    return docs


def _misc(entity: str | None, space_after: bool) -> str:
    parts = ([f"NER={entity}"] if entity is not None else []) + ([] if space_after else ["SpaceAfter=No"])
    return "|".join(parts) or "_"


def to_text(doc: Document) -> str:
    """CoNLL-U text for one document, written without the program's writer."""
    lines = [f"# language = {doc.language}"]
    for sent in doc.sentences:
        ranges = {r.start: r for r in sent.ranges}
        for tok in sent.tokens:
            rng = ranges.get(tok.index)
            if rng is not None:
                lines.append(f"{rng.start + 1}-{rng.end + 1}\t{rng.form}\t_\t_\t_\t_\t_\t_\t_\t"
                             + _misc(None, rng.space_after))
            feats = "|".join(f"{k}={v}" for k, v in sorted(tok.feats.items())) or "_"
            head = 0 if tok.head is None else tok.head + 1
            lines.append("\t".join((
                str(tok.index + 1), tok.form, tok.lemma, tok.upos, tok.xpos or "_", feats,
                str(head), tok.deprel, tok.deps, _misc(tok.entity, tok.space_after),
            )))
        lines.append("")
    return "\n".join(lines) + "\n"


def write(docs: list[Document], directory: Path) -> None:
    """Write one ``<doc_id>.conllu`` per document."""
    directory.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (directory / f"{doc.doc_id}.conllu").write_text(to_text(doc), encoding="utf-8")
