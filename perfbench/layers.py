"""Traced run: per-layer busy time and counts, taken around public calls.

The benchmark walks the same corpus the timed runs use through each
layer's public functions and times every call itself; nothing inside
the program is instrumented. Worker results are measured where the
main process unpickles them, by wrapping ``ForkingPickler.loads`` for
the duration of one ``analyze_corpus(jobs=2)`` call.
"""

from __future__ import annotations

import shutil
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import reduction
from pathlib import Path

from stylovec import (
    DocContext,
    Sentence,
    evaluate_all,
    evaluate_metric,
    load_pack,
    parse_conllu,
    registry_for,
)
from stylovec.conllu import list_corpus_files
from stylovec.model import Document
from stylovec.output import write_debug_csv, write_vectors_csv, write_vectors_json
from stylovec.runner import analyze_corpus

from checker import Manifest, Mismatch

FAMILIES = ("pos_incidence", "feat_incidence", "token_pattern", "sentence_pattern",
            "type_token_ratio", "top_frequency", "word_length", "content_function",
            "graphical", "lexicon", "sentiment", "norms", "phrase_distance",
            "repetition", "detector")

UNITS = {
    "conllu.read.s": "s", "conllu.read.bytes": "bytes",
    "conllu.parse_conllu.s": "s", "conllu.tokens": "count", "conllu.sentences": "count",
    "model.sentence_build.s": "s",
    "packs.load_pack.s": "s",
    "engine.doc_context.s": "s", "engine.evaluate_all.s": "s",
    "engine.metric_evals": "count", "engine.captured_refs": "count", "engine.metric_errors": "count",
    **{f"family.{f}.s": "s" for f in FAMILIES},
    "runner.analyze_corpus.s": "s", "runner.analyze_corpus.j1.s": "s",
    "runner.analyze_corpus.j2.s": "s", "runner.overhead.s": "s",
    "runner.result_bytes": "bytes", "runner.unpickle.s": "s", "runner.speedup": "ratio",
    "output.write_vectors_csv.s": "s", "output.write_vectors_json.s": "s",
    "output.write_debug_csv.s": "s", "output.bytes": "bytes", "output.debug_rows": "count",
}


@contextmanager
def ipc_probe():
    """Record size and unpickle time of every message the main process loads."""
    original = reduction.ForkingPickler.loads
    sizes: list[int] = []
    seconds: list[float] = []

    def loads(data, *args, **kwargs):
        started = time.perf_counter()
        obj = original(data, *args, **kwargs)
        seconds.append(time.perf_counter() - started)
        sizes.append(memoryview(data).nbytes)
        return obj

    reduction.ForkingPickler.loads = staticmethod(loads)
    try:
        yield sizes, seconds
    finally:
        reduction.ForkingPickler.loads = original


def _values(vectors: dict[str, list]) -> dict[str, list]:
    return {lang: [(v.doc_id, v.metric_ids, v.values) for v in vecs]
            for lang, vecs in vectors.items()}


def _one_pass(workload, docs: list[Document], corpus_dir: Path, out_dir: Path,
              family_of: dict[str, dict[str, str]]) -> tuple[dict[str, float], int]:
    m: dict[str, float] = defaultdict(float)
    clock = time.perf_counter
    generated = {d.doc_id: d for d in docs}

    parsed = []
    for path in list_corpus_files(corpus_dir):
        t0 = clock()
        data = path.read_bytes()
        text = data.decode("utf-8")
        t1 = clock()
        doc = parse_conllu(text, doc_id=path.stem)
        t2 = clock()
        m["conllu.read.s"] += t1 - t0
        m["conllu.parse_conllu.s"] += t2 - t1
        m["conllu.read.bytes"] += len(data)
        m["conllu.tokens"] += doc.token_count
        m["conllu.sentences"] += len(doc.sentences)
        if doc != generated[doc.doc_id]:
            raise Mismatch(f"{path.name}: parsed document differs from the generated one")
        parsed.append(doc)

    for doc in parsed:
        t0 = clock()
        for sent in doc.sentences:
            Sentence(tokens=sent.tokens, ranges=sent.ranges)
        m["model.sentence_build.s"] += clock() - t0

    for lang in workload.languages:
        t0 = clock()
        load_pack(lang)
        m["packs.load_pack.s"] += clock() - t0
    registries = {lang: registry_for(lang) for lang in workload.languages}

    for doc in parsed:
        t0 = clock()
        ctx = DocContext(doc)
        ctx.refs, ctx.upos_index, ctx.lemma_index, ctx.form_index, ctx.non_punct_refs
        m["engine.doc_context.s"] += clock() - t0
        family = family_of[doc.language]
        for metric in registries[doc.language]:
            t0 = clock()
            evaluate_metric(metric, ctx)
            m[f"family.{family[metric.id]}.s"] += clock() - t0

    vectors: dict[str, list] = {}
    pairs = []
    for doc in parsed:
        t0 = clock()
        vec = evaluate_all(registries[doc.language], doc)
        m["engine.evaluate_all.s"] += clock() - t0
        m["engine.metric_evals"] += len(vec.results)
        m["engine.captured_refs"] += sum(len(r.captured) for r in vec.results)
        m["engine.metric_errors"] += sum(r.error is not None for r in vec.results)
        vectors.setdefault(doc.language, []).append(vec)
        pairs.append((doc, vec))

    for lang, vecs in vectors.items():
        path = out_dir / f"vectors.{lang}.csv"
        t0 = clock()
        write_vectors_csv(vecs, path)
        m["output.write_vectors_csv.s"] += clock() - t0
        m["output.bytes"] += path.stat().st_size
    path = out_dir / "vectors.json"
    t0 = clock()
    write_vectors_json([(lang, v) for lang in sorted(vectors) for v in vectors[lang]], path)
    m["output.write_vectors_json.s"] += clock() - t0
    m["output.bytes"] += path.stat().st_size
    (out_dir / "debug").mkdir(exist_ok=True)
    for doc, vec in pairs:
        path = out_dir / "debug" / f"{doc.doc_id}.debug.csv"
        t0 = clock()
        m["output.debug_rows"] += write_debug_csv(vec, doc, path)
        m["output.write_debug_csv.s"] += clock() - t0
        m["output.bytes"] += path.stat().st_size

    runs, wall = {}, {}
    for jobs in (1, 2):
        debug_dir = out_dir / f"debug-j{jobs}" if workload.debug else None
        with ipc_probe() as (sizes, seconds):
            t0 = clock()
            runs[jobs] = analyze_corpus(corpus_dir, jobs=jobs, debug_dir=debug_dir)
            wall[jobs] = clock() - t0
        if jobs == 2:
            m["runner.result_bytes"] = sum(sizes)
            m["runner.unpickle.s"] = sum(seconds)
    # The jobs-independence contract, checked against the traced vectors too.
    if not _values(runs[1].vectors) == _values(runs[2].vectors) == _values(vectors):
        raise Mismatch("jobs 1, jobs 2 and evaluate_all vectors differ")
    busy = m["conllu.read.s"] + m["conllu.parse_conllu.s"] + m["engine.evaluate_all.s"]
    if workload.debug:
        busy += m["output.write_debug_csv.s"]
    m["runner.analyze_corpus.s"] = wall[workload.jobs]
    m["runner.analyze_corpus.j1.s"] = wall[1]
    m["runner.analyze_corpus.j2.s"] = wall[2]
    m["runner.overhead.s"] = wall[workload.jobs] - busy / workload.jobs
    m["runner.speedup"] = wall[1] / wall[2]
    return m, runs[workload.jobs].report.failed


def run(workload, docs: list[Document], corpus_dir: Path, work: Path, seconds: float) -> dict:
    """Traced passes over the corpus for ``seconds``; medians per metric."""
    family_of = {lang: Manifest(lang).family for lang in workload.languages}
    passes, failed = [], 0
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        out_dir = work / f"trace{len(passes)}"
        out_dir.mkdir()
        metrics, pass_failed = _one_pass(workload, docs, corpus_dir, out_dir, family_of)
        shutil.rmtree(out_dir)
        passes.append(metrics)
        failed += pass_failed
    return {
        "correct": True,
        "attempted": len(docs) * len(passes),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(p.get(name, 0.0) for p in passes), "unit": unit}
                    for name, unit in UNITS.items()},
    }
