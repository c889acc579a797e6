"""Corpus-level evaluation with optional multiprocess fan-out.

One worker unit = one file: read, parse, evaluate against the pack for
the document's language, optionally write the per-document debug CSV.
Captures are built only for the debug CSV. At any ``jobs`` value the
worker returns the vector's columns as builtins, from which the main
process builds a vector without captures. Results are re-sorted by
document id afterwards, so the output is byte-identical for any
``jobs`` value.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .conllu import ParseError, list_corpus_files, read_document
from .engine import StyloVector, evaluate_all
from .model import LANGUAGES
from .output import RunReport, write_debug_csv
from .packs import PackError, registry_for


class RunnerError(ValueError):
    """Unusable run configuration."""


class StrictAbort(RunnerError):
    """First file error under strict mode."""


class WorkerDied(RunnerError):
    """A worker process ended abruptly, so the pool returned no more results."""


@dataclass
class RunResult:
    """Vectors grouped by language (each list sorted by doc_id bytes)."""

    vectors: dict[str, list[StyloVector]] = field(default_factory=dict)
    report: RunReport = field(default_factory=lambda: RunReport("", None))

    @property
    def languages(self) -> list[str]:
        return sorted(self.vectors)


def _process_file(args: tuple) -> tuple:
    """Worker body; returns ("err", path, message) or ("ok", language, doc_id, values,
    raw_counts, flags): the columns of the vector, whose ids the main process has."""
    path_s, language, categories, metric_ids, debug_dir = args
    try:
        doc = read_document(path_s, language)
        if doc.language is None:
            raise ParseError("language unknown: pass --lang or add a '# language = xx' comment")
        vector = evaluate_all(registry_for(doc.language, categories, metric_ids), doc,
                              captures=debug_dir is not None)
        if debug_dir is not None:
            write_debug_csv(vector, doc, Path(debug_dir) / f"{doc.doc_id}.debug.csv")
    # OSError here is a failed debug CSV write: a per-file error like the rest.
    except (OSError, ParseError, PackError) as exc:
        return ("err", path_s, str(exc))
    return ("ok", doc.language, vector.doc_id, vector.values, vector.raw_counts, vector.flags)


def analyze_corpus(
    input_path: str | Path,
    language: str | None = None,
    categories: Sequence[str] | None = None,
    metric_ids: Sequence[str] | None = None,
    jobs: int = 1,
    strict: bool = False,
    debug_dir: str | Path | None = None,
) -> RunResult:
    """Evaluate every corpus file; never raises on per-file data errors unless strict."""
    started = time.monotonic()
    if jobs < 1:
        raise RunnerError(f"jobs must be >= 1, got {jobs}")
    if language is not None or categories or metric_ids:
        # A bad language, or a filter name no pack in play knows, is a usage error; without
        # a language, a name only some packs know fails just the other languages' files.
        _check_known(LANGUAGES if language is None else (language,), categories, metric_ids)
    files = list_corpus_files(input_path)
    if debug_dir is not None:
        Path(debug_dir).mkdir(parents=True, exist_ok=True)
    debug_s = str(debug_dir) if debug_dir is not None else None
    items = [(str(p), language, categories, metric_ids, debug_s) for p in files]

    result = RunResult(report=RunReport(str(input_path), language))
    # the pool forks every worker at once, so start no more than there are files
    workers = min(jobs, len(items))
    if workers <= 1:
        _collect(result, map(_process_file, items), strict, categories, metric_ids)
    else:
        # imported here so that jobs=1 runs and the CLI's start-up skip loading the pool
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = max(1, len(items) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = pool.map(_process_file, items, chunksize=chunk)
            try:
                _collect(result, outcomes, strict, categories, metric_ids)
            except StrictAbort:
                # leaving the block waits for every chunk: drop those not yet started
                pool.shutdown(cancel_futures=True)
                raise
            except BrokenProcessPool as exc:
                raise WorkerDied(f"a worker process died, so the run stopped: {exc}") from exc

    for lang, vectors in result.vectors.items():
        vectors.sort(key=lambda v: v.doc_id.encode("utf-8"))
        result.report.schemas[lang] = vectors[0].schema_hash
    result.report.wall_time = time.monotonic() - started
    return result


def _check_known(languages, categories, metric_ids) -> None:
    registries = [registry_for(lang) for lang in languages]
    for what, names, known in (
            ("categories", categories, {c for r in registries for c in r.categories()}),
            ("metric ids", metric_ids, {i for r in registries for i in r.ids()})):
        bad = [name for name in names or () if name not in known]
        if bad:
            raise PackError(f"unknown {what}: {', '.join(sorted(bad))}")


def _collect(result: RunResult, outcomes, strict: bool, categories, metric_ids) -> None:
    ids_of: dict[str, tuple[str, ...]] = {}  # one ids tuple per language, shared by its vectors
    for outcome in outcomes:
        if outcome[0] == "ok":
            _, lang, doc_id, values, raw_counts, flags = outcome
            ids = ids_of.get(lang)
            if ids is None:
                ids = ids_of[lang] = registry_for(lang, categories, metric_ids).ids()
            result.vectors.setdefault(lang, []).append(
                StyloVector(doc_id, ids, values, raw_counts, flags))
            result.report.processed += 1
        else:
            _, path_s, message = outcome
            if strict:
                raise StrictAbort(f"{path_s}: {message}")
            result.report.errors.append((path_s, message))
            result.report.failed += 1
