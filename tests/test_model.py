from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from stylovec.model import Document, ModelError, MultiwordRange, Sentence, Token

from conftest import doc, sent, tok, word_sentence


class TestToken:
    def test_feat_lookup(self):
        t = tok(0, "ran", upos="VERB", feats={"Tense": "Past"})
        assert t.feat("Tense") == "Past"
        assert t.feat("Mood") is None
        assert t.has_feat("Tense", "Past")
        assert not t.has_feat("Tense", "Pres")
        assert not t.has_feat("Mood", "Ind")

    def test_multivalued_feat_matches_any_listed_value(self):
        t = tok(0, "los", feats={"Gender": "Masc,Fem"})
        assert t.has_feat("Gender", "Fem")
        assert t.has_feat("Gender", "Masc")
        assert not t.has_feat("Gender", "Neut")

    def test_empty_feats_never_match(self):
        t = tok(0, "cat")
        assert not t.has_feat("Tense", "Past")

    def test_deprel_base_strips_subtype(self):
        assert tok(0, "nie", deprel="advmod:neg").deprel_base() == "advmod"
        assert tok(0, "ran", deprel="root").deprel_base() == "root"

    def test_is_punct(self):
        assert tok(0, ".", upos="PUNCT", deprel="punct").is_punct
        assert not tok(0, "dot").is_punct


class TestSentenceValidation:
    def test_empty_sentence_rejected(self):
        with pytest.raises(ModelError):
            Sentence(tokens=(), ranges=())

    def test_index_must_match_position(self):
        with pytest.raises(ModelError):
            sent(tok(1, "a"))

    def test_self_head_rejected(self):
        with pytest.raises(ModelError):
            sent(tok(0, "a", head=0, deprel="dep"))

    def test_head_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            sent(tok(0, "a"), tok(1, "b", head=5, deprel="dep"))

    def test_exactly_one_root(self):
        with pytest.raises(ModelError):
            sent(tok(0, "a"), tok(1, "b"))  # two roots
        with pytest.raises(ModelError):
            sent(tok(0, "a", head=1, deprel="dep"), tok(1, "b", head=0, deprel="dep"))

    def test_cycle_unreachable_from_root_rejected(self):
        with pytest.raises(ModelError):
            sent(
                tok(0, "r"),
                tok(1, "a", head=2, deprel="dep"),
                tok(2, "b", head=1, deprel="dep"),
            )

    def test_non_root_needs_deprel(self):
        with pytest.raises(ModelError):
            sent(tok(0, "r"), tok(1, "a", head=0, deprel=""))

    @pytest.mark.parametrize("ranges", [
        [(2, 0)], [(1, 1)], [(0, 3)], [(-1, 1)], [(1, 2), (0, 1)], [(0, 1), (1, 2)],
    ], ids=["backwards", "empty", "past-end", "negative", "before-previous", "overlapping"])
    def test_bad_multiword_range_raises_instead_of_hanging(self, ranges):
        # a subprocess with a timeout, so a constructor that loops fails the test
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from conftest import word_sentence; "
                "from stylovec.model import ModelError, MultiwordRange, Sentence; "
                "tokens = word_sentence('a', 'b', 'c').tokens; "
                f"ranges = tuple(MultiwordRange(s, e, 'x') for s, e in {ranges!r})\n"
                "try:\n    Sentence(tokens, ranges)\nexcept ModelError as exc:\n"
                "    print(exc)\nelse:\n    print('accepted')")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                             capture_output=True, text=True, timeout=20, check=True).stdout
        start, end = ranges[-1]
        assert out.startswith(f"multiword range {start}-{end} is empty, out of order or outside")


class TestSentenceQueries:
    def make(self):
        # "the cat sat ." : sat is root, cat<-the, sat<-cat, sat<-.
        return sent(
            tok(0, "the", upos="DET", head=1, deprel="det"),
            tok(1, "cat", upos="NOUN", head=2, deprel="nsubj"),
            tok(2, "sat", upos="VERB", head=None, deprel="root"),
            tok(3, ".", upos="PUNCT", head=2, deprel="punct"),
        )

    def test_root(self):
        s = self.make()
        assert s.root.form == "sat"

    def test_children_in_linear_order(self):
        s = self.make()
        assert [t.form for t in s.children(s.root)] == ["cat", "."]
        assert [t.form for t in s.children(s.tokens[1])] == ["the"]
        assert s.children(s.tokens[0]) == []

    def test_children_foreign_token_rejected(self):
        s = self.make()
        stray = tok(0, "the", upos="DET", head=1, deprel="det")
        other = sent(stray, tok(1, "dog", head=None, deprel="root"))
        with pytest.raises(ModelError):
            s.children(other.tokens[1])

    def test_subtree_linear_order(self):
        s = self.make()
        assert [s.tokens[j].form for j in s.subtree_indices(s.root.index)] == ["the", "cat", "sat", "."]
        assert [s.tokens[j].form for j in s.subtree_indices(1)] == ["the", "cat"]
        assert [s.tokens[j].form for j in s.subtree_indices(0)] == ["the"]

    def test_text_honors_space_after(self):
        s = sent(
            tok(0, "Hi", upos="INTJ", head=1, deprel="discourse", space_after=False),
            tok(1, ",", upos="PUNCT", head=None, deprel="root"),
        )
        assert s.text == "Hi,"

    def test_text_with_multiword_range(self):
        # range covers tokens 0-1 with surface "don't"
        s = Sentence(
            tokens=(
                tok(0, "do", upos="AUX", head=2, deprel="aux"),
                tok(1, "not", upos="PART", head=2, deprel="advmod"),
                tok(2, "go", upos="VERB", head=None, deprel="root"),
            ),
            ranges=(MultiwordRange(start=0, end=1, form="don't", space_after=True),),
        )
        assert s.text == "don't go"


class TestDocument:
    def test_token_count_is_sum(self):
        d = doc(word_sentence("a", "b", "c"), word_sentence("d", "e", "f", "g"))
        assert d.token_count == 7
        assert len(d) == 7
        assert len(d.tokens()) == 7

    def test_traversal_order(self):
        d = doc(word_sentence("a", "b"), word_sentence("c"))
        assert [t.form for t in d.tokens()] == ["a", "b", "c"]
        refs = d.refs()
        assert [(si, ti) for si, ti, _ in refs] == [(0, 0), (0, 1), (1, 0)]
        assert d.token_at(1, 0).form == "c"

    def test_single_token_document(self):
        d = doc(word_sentence("only"))
        assert len(d.tokens()) == 1

    def test_zero_sentence_document_allowed_with_zero_count(self):
        d = Document(doc_id="empty", language="en", sentences=())
        assert d.token_count == 0
