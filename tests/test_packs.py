"""Manifest parsing shared by every language pack."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from stylovec import packs, universal
from stylovec.conllu import parse_conllu
from stylovec.engine import evaluate_all
from stylovec.lexicons import AffectiveNorms, Lexicon
from stylovec.output import write_debug_csv
from stylovec.packs import PackError, PackResources, registry_for

TESTS = Path(__file__).parent


class TestConditionKeys:
    @pytest.mark.parametrize("spec,key", [
        ("upos=NOUN; upos=VERB", "upos"),
        ("form=a; form=b", "form"),
        ("upos=VERB; deprel=obj; deprel=iobj", "deprel"),
        ("form_re=^a; form_re=b$", "form_re"),
    ])
    def test_repeated_key_rejected(self, spec, key):
        with pytest.raises(PackError, match=f"repeated condition key '{key}'"):
            packs._parse_test(spec)

    def test_repeated_feat_key_is_a_conjunction(self):
        test = packs._parse_test("feat.Gender=Masc; feat.Gender=Fem")
        assert test.feats == (("Gender", "Masc"), ("Gender", "Fem"))


class TestLayer:
    @pytest.mark.parametrize("family", ["type_token_ratio", "top_frequency"])
    def test_unknown_layer_rejected(self, family):
        opts = {"category": "LEX", "family": family, "fraction": "0.1", "layer": "lemmas"}
        with pytest.raises(PackError, match="unknown layer 'lemmas'"):
            packs._build_metric("X", opts, PackResources("en"), ("LEX",))


def _resources() -> PackResources:
    sentiment = Lexicon(name="sent", mode="lemma_exact", entries=frozenset({"good"}),
                        weights={"good": 1.0})
    norms = AffectiveNorms(dimensions=("valence",), means={"valence": 0.0},
                           scores={"good": {"valence": 1.0}})
    return PackResources("en", lexicons={"sent": sentiment}, norms=norms)


VG_SHAPE = "verb_group takes tense, aspect and voice, or one of tense, voice, modal; got "


@pytest.mark.parametrize("params,message", [
    ({"family": "graphical", "kind": "smiley"}, "unknown graphical kind 'smiley'"),
    ({"family": "content_function", "kind": "lexical"}, "unknown split kind 'lexical'"),
    ({"family": "repetition", "kind": "word"}, "unknown repetition kind 'word'"),
    ({"family": "sentiment", "lexicon": "sent", "sign": "neutral"}, "unknown sign 'neutral'"),
    ({"family": "norms", "dimension": "valence", "side": "at_mean"},
     "unknown side 'at_mean'"),
    ({"family": "sentence_pattern", "clause.1": "most; upos=NOUN"},
     "unknown quantifier 'most'"),
    ({"detector": "verb_group", "tense": "pluperfect"}, "unknown tense 'pluperfect'"),
    ({"family": "graphical"}, "missing parameter 'kind'"),
    ({"detector": "verb_group", "tense": "past", "voice": "active"},
     VG_SHAPE + "['tense', 'voice']"),
    ({"detector": "verb_group"}, VG_SHAPE + "[]"),
    ({"detector": "verb_group", "voice": "middle"}, "unknown voice 'middle'"),
    ({"detector": "verb_group", "modal": "Can"}, "unknown modal 'Can'"),
    ({"family": "token_pattern", "test": "upos"}, "bad condition 'upos'"),
    ({"family": "token_pattern", "test": "upos=VERB; colour=red"},
     "unknown condition key 'colour'"),
    ({"family": "sentence_pattern", "clause.1": "any"}, "clause 'any' lacks conditions"),
    ({"family": "token_pattern", "test": "child.upos=NOUN"},
     "unknown condition key 'child.upos'"),
    ({"family": "pos_incidence", "upos": "NUON"}, "unknown UPOS 'NUON'"),
    ({"family": "token_pattern", "test": "upos=NOUN,NUON"}, "unknown UPOS ['NUON']"),
    ({"family": "word_length", "min_chars": "x"}, "parameter 'min_chars': not a number 'x'"),
    ({"family": "top_frequency", "fraction": "1.5"}, "fraction 1.5 outside (0, 1]"),
    ({"family": "top_frequency", "fraction": "0"}, "fraction 0.0 outside (0, 1]"),
    ({"family": "phrase_distance", "upos": "DET"}, "unsupported phrase head 'DET'"),
    ({"family": "word_length"}, "word_length needs min_syllables or min_chars"),
    ({"family": "sentence_pattern"}, "sentence_pattern needs clause.N keys"),
    ({"family": "feat_incidence", "test": "upos=NOUN"},
     "feat_incidence needs at least one feat.* condition"),
    ({"family": "norms", "dimension": "valence", "side": "above_mean",
      "pack": PackResources("en")}, "pack declares no norms file"),
    ({"family": "lexicon", "lexicon": "nope"}, "missing lexicon 'nope'"),
    ({"family": "token_pattern", "test": "form_re=("},
     "bad regular expression '(': missing ), unterminated subpattern at position 0"),
    ({"family": "token_pattern", "test": "upos=NOUN; form_not_re=a**"},
     "bad regular expression 'a**': multiple repeat at position 2"),
    ({"family": "top_frequency", "fraction": "abc"}, "parameter 'fraction': not a number 'abc'"),
    ({"family": "word_length", "min_chars": "-3"}, "min_chars -3 below 1"),
    ({"family": "token_pattern", "test": ""}, "no conditions in ''"),
    ({"family": "token_pattern", "test": ";"}, "no conditions in ';'"),
    ({"family": "sentence_pattern", "clause.1": "any;"}, "no conditions in ''"),
    ({"detector": "verb_group", "tense": "past", "aspect": "habitual", "voice": "active"},
     "unknown aspect 'habitual'"),
    ({"detector": "verb_group", "tense": "past", "modal": "can"},
     VG_SHAPE + "['modal', 'tense']"),
    ({"detector": "verb_group", "tense": "past", "mood": "indicative"},
     VG_SHAPE + "['mood', 'tense']"),
    ({"detector": "verb_group_cell", "tense": "past", "aspect": "simple", "voice": "active"},
     "unknown detector 'verb_group_cell'"),
    ({"family": "type_token_ratio", "layr": "lemma"}, "unused parameter 'layr'"),
    ({"detector": "fronting", "tense": "past"}, "unused parameter 'tense'"),
])
def test_build_error_message_names_the_bad_value(params, message):
    """Every error a manifest metric can raise, with its exact text; a
    row's ``pack`` replaces the default resources."""
    opts = {"category": "LEX", **params}
    pack = opts.pop("pack", None) or _resources()
    with pytest.raises(PackError) as info:
        packs._build_metric("X", opts, pack, ("LEX",))
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: universal.pos_incidence("NUON"), "unknown UPOS 'NUON'"),
    (lambda: universal.TokenTest(upos=frozenset({"NUON"})), "unknown UPOS ['NUON']"),
    (lambda: universal.phrase_distance("DET"), "unsupported phrase head 'DET'"),
    (lambda: universal.top_frequency_incidence(1.5), "fraction 1.5 outside (0, 1]"),
    (lambda: universal.top_frequency_incidence(0.0), "fraction 0.0 outside (0, 1]"),
    (lambda: universal.word_length_incidence(), "word_length needs min_syllables or min_chars"),
    (lambda: universal.sentence_pattern(()), "sentence_pattern needs clause.N keys"),
    pytest.param(lambda: universal.TokenTest(child=universal.TokenTest(upos={"NUON"})),
                 "unknown UPOS ['NUON']", id="<lambda>-nested unknown UPOS ['NUON']"),
    (lambda: universal.word_length_incidence(min_syllables=0), "min_syllables 0 below 1"),
    (lambda: universal.word_length_incidence(min_syllables=3, language="de"),
     "unknown language 'de'"),
])
def test_library_call_raises_the_manifest_message(call, message):
    """A factory checks its own parameters, so a library call fails as
    the manifest row above does."""
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_every_builder_and_parameter_serves_a_stock_metric(monkeypatch):
    """Each family and detector builds at least one stock metric, each stock
    metric's builder reads every parameter of its manifest section, and every
    metric section loads, so a leftover builder or a misspelt key fails."""
    built: list[packs._Params] = []

    class Recorded(packs._Params):
        def __init__(self, items):
            super().__init__(items)
            built.append(self)

    monkeypatch.setattr(packs, "_Params", Recorded)
    families, detectors = set(), set()
    for language in packs.PACK_FILES:
        built.clear()
        ids = packs.load_pack(language).ids()
        cfg = packs._read_manifest(language)
        assert ids == tuple(s.split()[1] for s in cfg.sections() if s.startswith("metric "))
        assert len(built) == len(ids)
        for mid, params in zip(ids, built):
            assert set(params) <= params.read, mid
        families |= {cfg[s]["family"] for s in cfg.sections() if "family" in cfg[s]}
        detectors |= {cfg[s]["detector"] for s in cfg.sections() if "detector" in cfg[s]}
    assert families == set(packs.FAMILIES)
    assert detectors == set(packs.DETECTORS)


class TestPackFiles:
    """An unreadable pack data file is a PackError naming the file."""

    HEAD = b"[pack]\nlanguage = en\ncategories = LEX\n"

    def message(self, monkeypatch, tmp_path, manifest: bytes | None) -> str:
        if manifest is not None:
            (tmp_path / "en.cfg").write_bytes(manifest)
        monkeypatch.setattr(packs, "DATA_DIR", tmp_path)
        with pytest.raises(PackError) as info:
            packs.load_pack("en")
        return str(info.value)

    def test_missing_manifest(self, monkeypatch, tmp_path):
        assert self.message(monkeypatch, tmp_path, None) == f"{tmp_path / 'en.cfg'}: no such file"

    def test_manifest_not_utf8(self, monkeypatch, tmp_path):
        text = self.message(monkeypatch, tmp_path, self.HEAD + b"# caf\xe9\n")
        assert text.startswith(f"{tmp_path / 'en.cfg'}: not valid UTF-8: ")

    def test_manifest_is_a_directory(self, monkeypatch, tmp_path):
        (tmp_path / "en.cfg").mkdir()
        assert self.message(monkeypatch, tmp_path, None).startswith(
            f"{tmp_path / 'en.cfg'}: cannot read: ")

    def test_manifest_syntax_error_names_the_file(self, monkeypatch, tmp_path):
        text = self.message(monkeypatch, tmp_path, b"[pack]\n[pack]\n")
        assert text.startswith(f"{tmp_path / 'en.cfg'}: ")
        assert "already exists" in text

    def test_missing_emoticon_list(self, monkeypatch, tmp_path):
        text = self.message(monkeypatch, tmp_path, self.HEAD + b"emoticons = emo.txt\n")
        assert text == f"{tmp_path / 'emo.txt'}: no such file"

    def test_lexicon_is_a_directory(self, monkeypatch, tmp_path):
        (tmp_path / "words").mkdir()
        text = self.message(monkeypatch, tmp_path,
                            self.HEAD + b"[lexicon words]\nfile = words\nmode = lemma_exact\n")
        assert text.startswith(f"lexicon words: {tmp_path / 'words'}: cannot read: ")


def test_every_family_and_detector_is_used_by_a_stock_manifest():
    used: set[str] = set()
    for language in packs.PACK_FILES:
        cfg = packs._read_manifest(language)
        for section in cfg.sections():
            used.update(cfg[section].get(k) for k in ("family", "detector"))
    assert set(packs.FAMILIES) - used == set()
    assert set(packs.DETECTORS) - used == set()


@pytest.mark.parametrize("language", packs.PACK_FILES)
def test_only_phrase_distance_counts_differ_from_their_captures(language):
    """The README contract: a stock metric's raw count is its number of captured
    tokens, except for the non-local metrics, which are exactly the PD_* ones."""
    registry = registry_for(language)
    non_local = [m.id for m in registry if not m.descriptor.local]
    assert non_local and non_local == [i for i in registry.ids() if i.startswith("PD_")]
    for path in sorted((TESTS / "fixtures").rglob("*.conllu")):
        document = parse_conllu(path.read_text(encoding="utf-8"), doc_id=path.stem)
        if document.language == language:
            for result in evaluate_all(registry, document).results:
                assert result.metric_id in non_local or \
                    result.raw_count == len(result.captured), (path.name, result.metric_id)


def _captures_csv(metric_ids=lambda language: None) -> str:
    """Debug rows of the metrics ``metric_ids(language)`` picks (all of
    them by default) over the fixture documents, under one header."""
    lines = []
    for path in sorted((TESTS / "fixtures").rglob("*.conllu")):
        document = parse_conllu(path.read_text(encoding="utf-8"), doc_id=path.stem)
        registry = registry_for(document.language, metric_ids=metric_ids(document.language))
        buf = io.StringIO()
        write_debug_csv(evaluate_all(registry, document), document, buf)
        rows = buf.getvalue().splitlines(True)
        if not lines:
            lines.append(rows[0])
        lines.extend(rows[1:])
    return "".join(lines)


def _detector_ids(language: str) -> list[str]:
    cfg = packs._read_manifest(language)
    return [name.partition(" ")[2].strip() for name in cfg.sections() if cfg[name].get("detector")]


def test_detector_captures_match_golden():
    golden = TESTS / "golden" / "detector_captures.csv"
    assert _captures_csv(_detector_ids) == golden.read_text(encoding="utf-8")


def test_captures_match_golden():
    golden = TESTS / "golden" / "captures.csv"
    assert _captures_csv() == golden.read_text(encoding="utf-8")
