"""Manifest parsing shared by every language pack."""

from __future__ import annotations

import pytest

from stylovec import packs
from stylovec.packs import PackError, PackResources


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


def test_every_family_and_detector_is_used_by_a_stock_manifest():
    used: set[str] = set()
    for language in packs.PACK_FILES:
        cfg = packs._read_manifest(language)
        for section in cfg.sections():
            used.update(cfg[section].get(k) for k in ("family", "detector"))
    assert set(packs.FAMILIES) - used == set()
    assert set(packs.DETECTORS) - used == set()
