from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import Phase, settings

from stylovec.conllu import read_document
from stylovec.model import Document, Sentence, Token

FIXTURES = Path(__file__).parent / "fixtures"

# One Hypothesis profile for every property test. No deadline: example times
# vary with the load of the machine. No explain phase: for a test that raises,
# it has pytest format the traceback of every shrink candidate, which can stall
# the session for minutes before the falsifying example is reported.
settings.register_profile("stylovec", deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("stylovec")


def load_fixture(relpath: str) -> Document:
    return read_document(FIXTURES / relpath)


def tok(index: int, form: str, lemma: str | None = None, upos: str = "NOUN",
        head: int | None = None, deprel: str = "root",
        feats: dict[str, str] | None = None, entity: str | None = None,
        space_after: bool = True, xpos: str | None = None) -> Token:
    return Token(index=index, form=form, lemma=lemma if lemma is not None else form.casefold(),
                 upos=upos, xpos=xpos, feats=feats or {}, head=head, deprel=deprel,
                 entity=entity, space_after=space_after)


def sent(*tokens: Token) -> Sentence:
    return Sentence(tokens=tuple(tokens), ranges=())


def doc(*sentences: Sentence, doc_id: str = "t", language: str = "en") -> Document:
    return Document(doc_id=doc_id, language=language, sentences=tuple(sentences))


def word_sentence(*words: str, upos: str = "NOUN") -> Sentence:
    """Flat sentence: token 0 is root, the rest depend on it."""
    tokens = [
        tok(i, w, upos=upos, head=None if i == 0 else 0,
            deprel="root" if i == 0 else "dep")
        for i, w in enumerate(words)
    ]
    return sent(*tokens)


@pytest.fixture
def simple_doc() -> Document:
    return doc(word_sentence("alpha", "beta", "gamma"))
