"""Corpus runner: vectors and worker messages at any ``jobs`` value."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stylovec import cli, runner
from stylovec.conllu import ParseError, read_document
from stylovec.engine import Metric, MetricDescriptor, Registry, evaluate_all
from stylovec.model import LANGUAGES
from stylovec.packs import PackError
from stylovec.runner import analyze_corpus

CORPUS = Path(__file__).parent / "fixtures" / "golden" / "corpus"
BUILTINS = (str, float, int, bool, type(None))


def _broken_rule(ctx):
    raise RuntimeError(f"broken rule on {ctx.doc.doc_id}")


def _negative_zero_rule(ctx):
    return [], -0.0


def _with_rules(monkeypatch, rules):
    """Make the runner use every stock registry plus ``rules``, ``(id, rule)`` pairs.

    The runner looks ``registry_for`` up on its own module, and forked
    workers inherit the patch, so both ``jobs`` paths see the same
    registries.
    """
    stock = runner.registry_for
    cache: dict[str, Registry] = {}

    def registry_for(language, categories=None, metric_ids=None):
        if language not in cache:
            cache[language] = Registry([*stock(language, categories, metric_ids), *(
                Metric(MetricDescriptor(id=mid, category="custom", language=language,
                                        description=""), rule)
                for mid, rule in rules)])
        return cache[language]

    monkeypatch.setattr(runner, "registry_for", registry_for)
    return registry_for


@pytest.fixture
def broken_metric_registries(monkeypatch):
    """Every stock registry plus a metric whose rule always raises and
    one whose count is -0.0."""
    return _with_rules(monkeypatch, (("X_BROKEN", _broken_rule),
                                     ("X_NEGATIVE_ZERO", _negative_zero_rule)))


def _fields(vector, captured=None):
    """Every field of every result; floats by repr, so the sign of a zero counts."""
    return [(r.metric_id, repr(r.value), repr(r.raw_count),
             r.captured if captured is None else captured, r.error, r.degenerate)
            for r in vector.results]


@pytest.mark.parametrize("jobs", [1, 2])
def test_vectors_equal_evaluate_all_field_by_field(broken_metric_registries, jobs):
    run = analyze_corpus(CORPUS, jobs=jobs)
    assert run.report.processed == 6 and not run.report.errors
    seen = 0
    for language, vectors in run.vectors.items():
        for vector in vectors:
            doc = read_document(CORPUS / f"{vector.doc_id}.conllu")
            expected = evaluate_all(broken_metric_registries(language), doc)
            assert vector.doc_id == expected.doc_id
            assert vector.metric_ids == expected.metric_ids
            assert _fields(vector) == _fields(expected, captured=())
            by_id = dict(zip(vector.metric_ids, vector.results))
            assert by_id["X_BROKEN"].error == f"broken rule on {vector.doc_id}"
            assert repr(by_id["X_NEGATIVE_ZERO"].value) == "-0.0"
            seen += 1
    assert seen == 6


def test_vectors_of_one_language_share_one_ids_tuple():
    run = analyze_corpus(CORPUS, jobs=2)
    for vectors in run.vectors.values():
        assert len({id(v.metric_ids) for v in vectors}) == 1


def test_collected_vectors_carry_the_registry_ids_tuple():
    outcomes = []
    for lang in ("en", "pl", "en", "pl", "en"):
        n = len(runner.registry_for(lang))
        outcomes.append(("ok", lang, f"d{len(outcomes)}", (0.0,) * n, (0.0,) * n, ()))
    result = runner.RunResult()
    runner._collect(result, outcomes, False, None, None)
    assert result.report.processed == 5
    for lang, vectors in result.vectors.items():
        assert all(v.metric_ids is runner.registry_for(lang).ids() for v in vectors)


@pytest.mark.parametrize("kwargs,loaded", [
    ({}, []),
    ({"language": "en"}, ["en"]),
    ({"language": "en", "metric_ids": ["POS_NOUN"]}, ["en"]),
    ({"categories": ["pos"]}, list(LANGUAGES)),
], ids=["none", "language", "language-and-filter", "filter"])
def test_configuration_check_loads_packs_only_for_a_language_or_filter(
        monkeypatch, tmp_path, kwargs, loaded):
    calls = []
    real = runner.registry_for

    def spy(language, *filters):
        calls.append(language)
        return real(language, *filters)

    monkeypatch.setattr(runner, "registry_for", spy)
    # the check runs before the corpus is listed, so an empty one shows what it loaded
    with pytest.raises(ParseError, match="empty corpus"):
        analyze_corpus(tmp_path, **kwargs)
    assert calls == loaded


@pytest.mark.parametrize("kwargs,message", [
    ({"language": "xx"}, "unsupported language 'xx'"),
    ({"language": "pl", "categories": ["pos", "NOPE"]}, "unknown categories: NOPE, pos"),
    ({"language": "en", "metric_ids": ["SY_S_NEG"]}, "unknown metric ids: SY_S_NEG"),
    ({"metric_ids": ["NOPE", "SY_S_NEG"]}, "unknown metric ids: NOPE"),
])
def test_configuration_check_messages(tmp_path, kwargs, message):
    with pytest.raises(PackError, match=message):
        analyze_corpus(tmp_path, **kwargs)


def test_cli_import_does_not_load_the_process_pool():
    code = ("import sys, stylovec.cli; "
            "assert 'concurrent.futures.process' not in sys.modules, 'pool loaded'")
    env = dict(os.environ, PYTHONPATH=str(Path(runner.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


SPAWNED_RUNS = """\
import multiprocessing, sys
from stylovec.runner import analyze_corpus

def columns(run):
    return [(lang, v.doc_id, v.metric_ids, [repr(x) for x in v.values],
             [repr(x) for x in v.raw_counts], v.flags)
            for lang, vectors in sorted(run.vectors.items()) for v in vectors]

multiprocessing.set_start_method("spawn")
one, two = (analyze_corpus(sys.argv[1], jobs=jobs) for jobs in (1, 2))
assert two.report.processed == 6 and not two.report.errors
assert columns(one) == columns(two)
"""


def test_spawned_workers_give_the_vectors_of_one_process():
    """Workers started by ``spawn`` load every pack afresh instead of
    inheriting the parent's registries, and still give the same vectors.
    The start method is set in a subprocess, so this session keeps its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(runner.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", SPAWNED_RUNS, str(CORPUS)], env=env, check=True,
                   timeout=120)


def _walk(value):
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _walk(item)


@pytest.mark.parametrize("path", [CORPUS / "alpha_en.conllu", CORPUS / "missing.conllu"])
def test_worker_message_holds_builtins_only(broken_metric_registries, path):
    message = runner._process_file((str(path), None, None, None, None))
    assert message[0] == ("ok" if path.exists() else "err")
    for item in _walk(message):
        assert type(item) in (*BUILTINS, tuple), type(item).__name__


@pytest.mark.parametrize("bad", ["x", (0, 999)], ids=["str", "out-of-range"])
@pytest.mark.parametrize("debug", [False, True])
def test_bad_ref_is_an_error_with_or_without_debug_output(monkeypatch, tmp_path, debug, bad):
    _with_rules(monkeypatch, (("X_BAD_REF", lambda ctx: ([(0, 0), bad], None)),))
    run = analyze_corpus(CORPUS / "alpha_en.conllu", jobs=1,
                         debug_dir=tmp_path / "debug" if debug else None)
    [vector] = run.vectors["en"]
    result = dict(zip(vector.metric_ids, vector.results))["X_BAD_REF"]
    assert (result.value, result.raw_count) == (0.0, 0.0)
    assert result.error == f"ref {bad!r} is not a (sentence, token) pair of the document"


@pytest.mark.parametrize("jobs,workers", [(64, 6), (4, 4)])
def test_pool_starts_at_most_one_worker_per_file(monkeypatch, jobs, workers):
    """The pool forks all its workers at the first submit, so ``jobs`` above the
    file count is capped; a fake pool records the request and maps in-process."""
    import concurrent.futures

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            asked.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    run = analyze_corpus(CORPUS, jobs=jobs)
    assert asked == [workers, 1]
    assert run.report.processed == 6
    serial = analyze_corpus(CORPUS, jobs=1)
    assert {lang: [v.values for v in vs] for lang, vs in run.vectors.items()} == \
        {lang: [v.values for v in vs] for lang, vs in serial.vectors.items()}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched registry")
def test_a_dying_worker_exits_1_with_one_error_line(monkeypatch, tmp_path, capsys):
    parent = os.getpid()

    def die_on_one_file(ctx):
        if ctx.doc.doc_id == "dies" and os.getpid() != parent:
            os._exit(3)
        return [], None

    _with_rules(monkeypatch, (("X_DIES", die_on_one_file),))
    text = (CORPUS / "alpha_en.conllu").read_bytes()
    for stem in ("a", "b", "dies"):
        (tmp_path / f"{stem}.conllu").write_bytes(text)
    argv = ["analyze", "--input", str(tmp_path), "--out", str(tmp_path / "o.csv"),
            "--jobs", "2"]
    assert cli.main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("stylovec: error: a worker process died, so the run stopped: ")
    assert not (tmp_path / "o.csv").exists()
