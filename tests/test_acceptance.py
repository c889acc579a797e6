"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Each criterion prints ``ACCEPTANCE <n> [PASS|FAIL|SKIP] <label>`` with
pytest's capture suspended (capture works at the file-descriptor level,
so plain writes to ``sys.__stdout__`` would still be swallowed).
Expected values come from hand-frozen tables, independent brute-force
re-implementations, and closed-form invariants — never from the code
under test.
"""

from __future__ import annotations

import math
import os
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from stylovec.analysis import nearest_centroid_loo, to_matrix
from stylovec.cli import main as cli_main
from stylovec.conllu import read_document, to_conllu
from stylovec.engine import evaluate_all
from stylovec.model import Document, Sentence, Token
from stylovec.packs import registry_for
from stylovec.packs.english import extract_verb_groups
from stylovec.synth import genre_corpus, random_document

from doc_transforms import dilute, duplicate
from test_packs_en import CELL_EXPECTATIONS, MODAL_EXPECTATIONS
from test_packs_pl import NEG_EXPECTATIONS

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_OUT = Path(__file__).parent / "golden"
LANGUAGES = ("en", "pl", "uk", "ru")


_CAPMAN = None


@pytest.fixture(autouse=True, scope="module")
def _capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPMAN = None


def _verdict(num: str, status: str, label: str, note: str = "") -> None:
    suffix = f" ({note})" if note else ""
    line = f"ACCEPTANCE {num} [{status}] {label}{suffix}\n"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()


@contextmanager
def criterion(num: str, label: str):
    """Print one verdict line when the enclosed checks finish or fail."""
    info: dict[str, str] = {}
    try:
        yield info
    except BaseException as exc:
        if not isinstance(exc, pytest.skip.Exception):
            _verdict(num, "FAIL", label)
        raise
    _verdict(num, "PASS", label, info.get("note", ""))


def load(relpath: str) -> Document:
    return read_document(FIXTURES / relpath)


# ------------------------------------------------------------ criterion 1

def _deprel_base(deprel: str) -> str:
    return deprel.split(":", 1)[0]


def _manual_negative_sentence_refs(document: Document) -> list[tuple[int, int]]:
    """Hand transcription of the negative-sentence rule: a clause predicate
    (VERB or AUX serving as root/ccomp/cop) and a negating particle
    (PART with deprel advmod:neg) must both be present; every token of a
    matching sentence is captured."""
    refs: list[tuple[int, int]] = []
    for si, sentence in enumerate(document.sentences):
        has_predicate = any(
            token.upos in ("VERB", "AUX")
            and _deprel_base(token.deprel) in ("root", "ccomp", "cop")
            for token in sentence.tokens
        )
        has_negator = any(
            token.upos == "PART" and token.deprel == "advmod:neg"
            for token in sentence.tokens
        )
        if has_predicate and has_negator:
            refs.extend((si, ti) for ti in range(len(sentence.tokens)))
    return refs


def test_criterion_1_reference_metric_fidelity():
    with criterion("1", "negative-sentence metric matches manual rule on 10 fixtures") as info:
        registry = registry_for("pl", metric_ids=("SY_S_NEG",))
        started = time.perf_counter()
        for name, total, raw in NEG_EXPECTATIONS:
            document = load(f"pl_neg/{name}.conllu")
            assert document.token_count == total
            manual = _manual_negative_sentence_refs(document)
            assert len(manual) == raw
            result = evaluate_all(registry, document).results[0]
            assert result.captured == tuple(manual)
            assert result.raw_count == float(raw)
            assert result.value == float(Fraction(raw, total))
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        info["note"] = f"{elapsed * 1000:.0f} ms"


# ------------------------------------------------------------ criterion 2

def test_criterion_2_normalization_fuzz():
    with criterion("2", "1000 fuzzed documents normalized for every pack") as info:
        started = time.perf_counter()
        rng = random.Random(20260822)
        checked = 0
        for language in LANGUAGES:
            registry = registry_for(language)
            for i in range(250):
                document = random_document(
                    rng, f"fuzz-{language}-{i:03d}", language,
                    token_count=rng.randint(1, 500))
                total = document.token_count
                vector = evaluate_all(registry, document)
                for result in vector.results:
                    assert result.error is None
                    assert 0.0 <= result.value <= 1.0
                    assert result.value == min(result.raw_count / total, 1.0)
                checked += 1
        assert checked == 1000
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        info["note"] = f"{elapsed:.1f} s"


# ------------------------------------------------------------ criterion 3

def _brute_top_frequency(document: Document, fraction: float) -> int:
    """Independent ranking scan: types by descending count, ties by
    lexicographic order, top ceil(fraction * |types|) selected."""
    counts: Counter[str] = Counter()
    for sentence in document.sentences:
        for token in sentence.tokens:
            if not token.is_punct:
                counts[token.form.casefold()] += 1
    if not counts:
        return 0
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    k = math.ceil(fraction * len(ranked))
    return sum(counts[t] for t in ranked[:k])


def test_criterion_3_duplication_and_dilution():
    with criterion("3", "duplication invariance and filler rescale on 100 documents"):
        rng = random.Random(30303)
        for language in LANGUAGES:
            registry = registry_for(language)
            metrics = list(registry)
            for i in range(25):
                document = random_document(
                    rng, f"inv-{language}-{i:02d}", language,
                    token_count=rng.randint(1, 200))
                base = evaluate_all(registry, document)

                for k in (2, 3):
                    scaled = evaluate_all(registry, duplicate(document, k))
                    for metric, a, b in zip(metrics, base.results, scaled.results):
                        if metric.descriptor.scale_invariant:
                            assert b.raw_count == k * a.raw_count, metric.id
                            assert b.value == a.value, metric.id

                n = rng.randint(1, 50)
                total = document.token_count
                diluted_doc = dilute(document, n)
                diluted = evaluate_all(registry, diluted_doc)
                factor = total / (total + n)
                for metric, a, b in zip(metrics, base.results, diluted.results):
                    if metric.id in ("POS_X", "CF_OTHER", "TTR_FORM", "TTR_LEMMA"):
                        # the filler is n unique UPOS-X forms, so these
                        # gain exactly n raw counts
                        assert b.raw_count == a.raw_count + n, metric.id
                    elif metric.id in ("TF_TOP_1", "TF_TOP_5"):
                        fraction = 0.01 if metric.id == "TF_TOP_1" else 0.05
                        expected = _brute_top_frequency(diluted_doc, fraction)
                        assert b.raw_count == float(expected), metric.id
                    else:
                        assert b.raw_count == a.raw_count, metric.id
                        assert abs(b.value - a.value * factor) <= 1e-12, metric.id


# ------------------------------------------------------------ criterion 4

def _all_fixture_documents() -> list[Document]:
    documents = []
    for sub in ("pl_neg", "en_verbs", "eastslavic", "golden/corpus"):
        for path in sorted((FIXTURES / sub).glob("*.conllu")):
            documents.append(read_document(path))
    return documents


def test_criterion_4_partition_sums():
    with criterion("4", "UPOS and content/function/other partitions sum to 1") as info:
        documents = _all_fixture_documents()
        assert len(documents) == 63
        for document in documents:
            vector = evaluate_all(registry_for(document.language), document)
            values = dict(zip(vector.metric_ids, vector.values))
            pos_values = [v for mid, v in values.items() if mid.startswith("POS_")]
            assert len(pos_values) == 17
            assert abs(sum(pos_values) - 1.0) <= 1e-12
            share_sum = values["CF_CONTENT"] + values["CF_FUNCTION"] + values["CF_OTHER"]
            assert abs(share_sum - 1.0) <= 1e-12
        info["note"] = f"{len(documents)} fixtures"


# ------------------------------------------------------------ criterion 5

_WORD_POOL = (
    # entries of the bundled stop-word lexicon
    "the", "a", "and", "or", "but", "of", "to", "in",
    # entries of the bundled intensifier lexicon
    "very", "really", "extremely",
    # lemmas of the bundled sentiment table
    "good", "great", "love", "bad", "hate",
    # plain content words
    "cat", "dog", "house", "storm", "run", "walk", "see", "bright",
    "window", "garden", "letter", "music", "winter", "quiet",
)


def _styled_sentence(words: list[str], rng: random.Random) -> Sentence:
    tokens = []
    for word in words:
        ti = len(tokens)
        if word in (",", "."):
            tokens.append(Token(index=ti, form=word, lemma=word, upos="PUNCT",
                                xpos=None, feats={}, head=0 if ti else None,
                                deprel="punct" if ti else "root", entity=None,
                                space_after=True))
            continue
        lemma = word.casefold() if rng.random() < 0.85 else rng.choice(_WORD_POOL)
        upos = rng.choice(("NOUN", "VERB", "ADJ", "DET", "ADV"))
        tokens.append(Token(index=ti, form=word, lemma=lemma, upos=upos,
                            xpos=None, feats={}, head=0 if ti else None,
                            deprel="dep" if ti else "root", entity=None,
                            space_after=True))
    return Sentence(tokens=tuple(tokens), ranges=())


def _styled_document(rng: random.Random, idx: int) -> Document:
    """English text over a fixed word pool with deliberate repetition,
    case variation, and mid-sentence punctuation."""
    sentences = []
    history: list[list[str]] = []
    for _ in range(rng.randint(4, 10)):
        if history and rng.random() < 0.25:
            words = list(rng.choice(history))
        else:
            words = [rng.choice(_WORD_POOL) for _ in range(rng.randint(3, 9))]
            if rng.random() < 0.5:
                words[0] = words[0].capitalize()
            if len(words) > 4 and rng.random() < 0.4:
                words.insert(rng.randint(1, len(words) - 1), ",")
            if rng.random() < 0.8:
                words.append(".")
            history.append(words)
        sentences.append(_styled_sentence(words, rng))
    return Document(doc_id=f"styled{idx:02d}", language="en",
                    sentences=tuple(sentences))


def _lexicon_entries(filename: str) -> set[str]:
    text = (resources.files("stylovec.packs") / "data" / filename).read_text("utf-8")
    entries = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.split("\t")[0].casefold())
    return entries


def _brute_distinct(document: Document, layer: str) -> int:
    seen = set()
    for sentence in document.sentences:
        for token in sentence.tokens:
            if not token.is_punct:
                unit = token.form if layer == "form" else token.lemma
                seen.add(unit.casefold())
    return len(seen)


def _brute_lexicon(document: Document, entries: set[str]) -> int:
    return sum(
        1
        for sentence in document.sentences
        for token in sentence.tokens
        if token.lemma.casefold() in entries
    )


def _brute_repeated_bigram_refs(document: Document) -> set[tuple[int, int]]:
    occurrences: dict[tuple[str, str], list[tuple]] = {}
    for si, sentence in enumerate(document.sentences):
        prev: tuple[str, int] | None = None
        for ti, token in enumerate(sentence.tokens):
            if token.is_punct:
                prev = None
                continue
            lemma = token.lemma.casefold()
            if prev is not None:
                occurrences.setdefault((prev[0], lemma), []).append(
                    ((si, prev[1]), (si, ti)))
            prev = (lemma, ti)
    refs: set[tuple[int, int]] = set()
    for pairs in occurrences.values():
        if len(pairs) >= 2:
            for first, second in pairs:
                refs.add(first)
                refs.add(second)
    return refs


def _brute_repeated_sentence_refs(document: Document) -> set[tuple[int, int]]:
    counts = Counter(s.text.casefold() for s in document.sentences)
    refs: set[tuple[int, int]] = set()
    for si, sentence in enumerate(document.sentences):
        if counts[sentence.text.casefold()] >= 2:
            refs.update((si, ti) for ti in range(len(sentence.tokens)))
    return refs


def test_criterion_5_brute_force_oracles():
    with criterion("5", "TTR/top-frequency/lexicon/repetition equal brute-force scans"):
        ids = ("TTR_FORM", "TTR_LEMMA", "TF_TOP_1", "TF_TOP_5",
               "FW_STOPWORD", "LEX_INTENSIFIER", "REP_BIGRAM", "REP_SENTENCE")
        registry = registry_for("en", metric_ids=ids)
        stopwords = _lexicon_entries("stopwords_en.txt")
        intensifiers = _lexicon_entries("intensifiers_en.txt")
        rng = random.Random(505)
        for idx in range(50):
            document = _styled_document(rng, idx)
            total = document.token_count
            vector = evaluate_all(registry, document)
            res = {r.metric_id: r for r in vector.results}

            expectations = {
                "TTR_FORM": _brute_distinct(document, "form"),
                "TTR_LEMMA": _brute_distinct(document, "lemma"),
                "TF_TOP_1": _brute_top_frequency(document, 0.01),
                "TF_TOP_5": _brute_top_frequency(document, 0.05),
                "FW_STOPWORD": _brute_lexicon(document, stopwords),
                "LEX_INTENSIFIER": _brute_lexicon(document, intensifiers),
            }
            for mid, expected in expectations.items():
                assert res[mid].raw_count == float(expected), mid
                assert res[mid].value == expected / total, mid

            for mid, brute in (
                ("REP_BIGRAM", _brute_repeated_bigram_refs(document)),
                ("REP_SENTENCE", _brute_repeated_sentence_refs(document)),
            ):
                assert set(res[mid].captured) == brute, mid
                assert res[mid].raw_count == float(len(brute)), mid
                assert res[mid].value == len(brute) / total, mid


# ------------------------------------------------------------ criterion 6

def test_criterion_6_verb_group_suite():
    with criterion("6", "40-sentence tense/aspect/voice suite classifies correctly"):
        registry = registry_for("en")
        detailed_ids = [m.id for m in registry
                        if m.descriptor.category == "detailed_grammar"]
        assert len(detailed_ids) == 24
        paths = sorted((FIXTURES / "en_verbs").glob("*.conllu"))
        assert len(paths) == 40

        for path in paths:
            document = read_document(path)
            res = {r.metric_id: r for r in evaluate_all(registry, document).results}
            detailed_sum = sum(res[mid].raw_count for mid in detailed_ids)
            tense_sum = sum(res[mid].raw_count
                            for mid in ("VG_PRESENT", "VG_PAST", "VG_FUTURE"))
            voice_sum = res["VG_ACTIVE"].raw_count + res["VG_PASSIVE"].raw_count
            assert detailed_sum == tense_sum == voice_sum > 0, path.stem
            for sentence in document.sentences:
                for group in extract_verb_groups(sentence):
                    assert group.tense in ("present", "past", "future"), path.stem
                    assert group.aspect in ("simple", "continuous", "perfect",
                                            "perfect_continuous"), path.stem
                    assert group.voice in ("active", "passive"), path.stem

        # one dedicated fixture per cell, firing exactly that cell
        covered = set()
        for name, cell, raw in CELL_EXPECTATIONS:
            res = {r.metric_id: r
                   for r in evaluate_all(registry, load(f"en_verbs/{name}.conllu")).results}
            assert res[cell].raw_count == float(raw), name
            for other in detailed_ids:
                if other != cell:
                    assert res[other].raw_count == 0.0, (name, other)
            covered.add(cell)
        assert covered == set(detailed_ids)

        # modal auxiliaries keep their dedicated counter plus a tense cell
        for name, modal_id, cell in MODAL_EXPECTATIONS:
            res = {r.metric_id: r
                   for r in evaluate_all(registry, load(f"en_verbs/{name}.conllu")).results}
            assert res[modal_id].raw_count == 2.0, name
            assert res[cell].raw_count == 2.0, name

        # the cited example sentences land in the expected cells
        for name, cell, raw in (
            ("p25", "VG_PRES_SIMPLE_ACT", 2.0),   # emphatic do + love
            ("p26", "VG_PRES_CONT_ACT", 2.0),     # 's + coming
            ("p27", "VG_PAST_SIMPLE_ACT", 1.0),   # stood
            ("p28", "VG_PRES_SIMPLE_ACT", 2.0),   # copular 's + busy
        ):
            res = {r.metric_id: r
                   for r in evaluate_all(registry, load(f"en_verbs/{name}.conllu")).results}
            assert res[cell].raw_count == raw, name


# ------------------------------------------------------------ criterion 7

def test_criterion_7_genre_separability():
    with criterion("7", "two synthetic genres separate at >= 90% LOO accuracy") as info:
        rng = random.Random(7007)
        documents = genre_corpus(rng, "formal", 50) + genre_corpus(rng, "chat", 50)
        registry = registry_for("en")
        matrix = to_matrix([evaluate_all(registry, d) for d in documents])
        labels = ["formal"] * 50 + ["chat"] * 50
        accuracy = nearest_centroid_loo(matrix, labels)
        assert accuracy >= 0.90
        info["note"] = f"accuracy {accuracy:.2f}"


# ------------------------------------------------------------ criterion 8

def test_criterion_8_determinism_and_golden_files(tmp_path):
    with criterion("8", "jobs-independent byte-identical CSV matching golden files"):
        corpus = FIXTURES / "golden" / "corpus"
        snapshots = []
        for run in range(3):
            for jobs in (1, 8):
                out_dir = tmp_path / f"run{run}-j{jobs}"
                out_dir.mkdir()
                code = cli_main(["analyze", "--input", str(corpus),
                                 "--out", str(out_dir / "vectors.csv"),
                                 "--jobs", str(jobs)])
                assert code == 0
                snapshots.append({
                    lang: (out_dir / f"vectors.{lang}.csv").read_bytes()
                    for lang in LANGUAGES
                })
        for other in snapshots[1:]:
            assert other == snapshots[0]
        for lang in LANGUAGES:
            golden = GOLDEN_OUT / f"vectors.{lang}.csv"
            assert golden.is_file(), f"golden file missing: {golden}"
            assert snapshots[0][lang] == golden.read_bytes(), lang


# ------------------------------------------------------------ criterion 9

@pytest.fixture(scope="module")
def throughput_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("throughput")
    rng = random.Random(909)
    for i in range(1000):
        document = random_document(rng, f"doc{i:04d}", "en",
                                   token_count=rng.randint(180, 220))
        (root / f"doc{i:04d}.conllu").write_text(to_conllu(document),
                                                 encoding="utf-8")
    return root


def test_criterion_9_throughput(throughput_corpus, tmp_path):
    with criterion("9", "1000 documents end-to-end in under 60 s, single job") as info:
        out = tmp_path / "vectors.csv"
        started = time.perf_counter()
        code = cli_main(["analyze", "--input", str(throughput_corpus),
                         "--out", str(out), "--jobs", "1"])
        elapsed = time.perf_counter() - started
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 1000
        assert elapsed < 60.0
        info["note"] = f"{elapsed:.1f} s"


def test_criterion_9_parallel_speedup(throughput_corpus, tmp_path):
    label = "parallel speedup >= 2x at 4 jobs"
    cpus = os.cpu_count() or 1
    if cpus < 4:
        _verdict("9", "SKIP", label,
                 f"hardware precondition not met: os.cpu_count()={cpus} < 4, "
                 "a single-core host cannot exhibit multicore speedup")
        pytest.skip(f"requires >= 4 CPUs, host has {cpus}")
    with criterion("9", label) as info:
        timings = {}
        for jobs in (1, 4):
            out = tmp_path / f"j{jobs}" / "vectors.csv"
            out.parent.mkdir()
            started = time.perf_counter()
            assert cli_main(["analyze", "--input", str(throughput_corpus),
                             "--out", str(out), "--jobs", str(jobs)]) == 0
            timings[jobs] = time.perf_counter() - started
        speedup = timings[1] / timings[4]
        assert speedup >= 2.0
        info["note"] = f"speedup {speedup:.2f}x"
