"""Manifest parsing shared by every language pack."""

from __future__ import annotations

from pathlib import Path

import pytest

from stylovec import packs
from stylovec.conllu import parse_conllu
from stylovec.engine import evaluate_all
from stylovec.lexicons import AffectiveNorms, Lexicon
from stylovec.output import debug_csv_string
from stylovec.packs import PackError, PackResources, registry_for

TESTS = Path(__file__).parent


class TestConditionKeys:
    @pytest.mark.parametrize("spec,key", [
        ("upos=NOUN; upos=VERB", "upos"),
        ("lemma=a; lemma=b", "lemma"),
        ("nofeat=Tense; nofeat=Mood", "nofeat"),
        ("upos=VERB; child.deprel=obj; child.deprel=iobj", "child.deprel"),
        ("upos=VERB; head.upos=NOUN; head.upos=VERB", "head.upos"),
    ])
    def test_repeated_key_rejected(self, spec, key):
        with pytest.raises(PackError, match=f"repeated condition key '{key}'"):
            packs._parse_test(spec)

    def test_repeated_feat_key_is_a_conjunction(self):
        test = packs._parse_test("feat.Gender=Masc; feat.Gender=Fem")
        assert test.feats == (("Gender", "Masc"), ("Gender", "Fem"))
        nested = packs._parse_test("upos=NOUN; child.feat.Case=Gen; child.feat.Case=Dat")
        assert nested.child.feats == (("Case", "Gen"), ("Case", "Dat"))


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


@pytest.mark.parametrize("params,message", [
    ({"family": "graphical", "kind": "smiley"}, "unknown graphical kind 'smiley'"),
    ({"family": "content_function", "kind": "lexical"}, "unknown split kind 'lexical'"),
    ({"family": "repetition", "kind": "word"}, "unknown repetition kind 'word'"),
    ({"family": "sentiment", "lexicon": "sent", "sign": "neutral"}, "unknown sign 'neutral'"),
    ({"family": "norms", "dimension": "valence", "side": "at_mean"},
     "unknown side 'at_mean'"),
    ({"family": "sentence_pattern", "clause.1": "most; upos=NOUN"},
     "unknown quantifier 'most'"),
    ({"detector": "verb_group_tense", "tense": "pluperfect"}, "unknown tense 'pluperfect'"),
    ({"family": "graphical"}, "missing parameter 'kind'"),
    ({"detector": "verb_group_cell", "tense": "past", "voice": "active"},
     "missing parameter 'aspect'"),
    ({"detector": "verb_group_tense"}, "missing parameter 'tense'"),
    ({"detector": "verb_group_voice"}, "missing parameter 'voice'"),
    ({"detector": "verb_group_modal"}, "missing parameter 'modal'"),
])
def test_build_error_message_names_the_bad_value(params, message):
    with pytest.raises(PackError) as info:
        packs._build_metric("X", {"category": "LEX", **params}, _resources(), ("LEX",))
    assert str(info.value) == message


def test_every_family_and_detector_is_used_by_a_stock_manifest():
    used: set[str] = set()
    for language in packs.PACK_FILES:
        cfg = packs._read_manifest(language)
        for section in cfg.sections():
            used.update(cfg[section].get(k) for k in ("family", "detector"))
    assert set(packs.FAMILIES) - used == set()
    assert set(packs.DETECTORS) - used == set()


def _captures_csv(metric_ids=lambda language: None) -> str:
    """Debug rows of the metrics ``metric_ids(language)`` picks (all of
    them by default) over the fixture documents, under one header."""
    lines = []
    for path in sorted((TESTS / "fixtures").rglob("*.conllu")):
        document = parse_conllu(path.read_text(encoding="utf-8"), doc_id=path.stem)
        registry = registry_for(document.language, metric_ids=metric_ids(document.language))
        rows = debug_csv_string(evaluate_all(registry, document), document).splitlines(True)
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
