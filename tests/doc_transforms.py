"""Corpus transforms for the invariance checks: duplication repeats a
document's sentences, dilution appends inert filler tokens."""

from __future__ import annotations

from stylovec.model import Document, Sentence, Token


def duplicate(doc: Document, k: int) -> Document:
    """Repeat every sentence k times over (whole-document concatenation)."""
    return Document(doc_id=f"{doc.doc_id}__x{k}", language=doc.language,
                    sentences=doc.sentences * k)


def filler_sentence(n: int) -> Sentence:
    """n inert tokens: unique vowel-free lowercase forms, UPOS X, flat tree."""
    consonants = "bcdfghjklmnpqrstvwxz"
    tokens = []
    for i in range(n):
        digits = []
        value = i
        while True:
            digits.append(consonants[value % len(consonants)])
            value //= len(consonants)
            if value == 0:
                break
        form = "zz" + "".join(reversed(digits))
        tokens.append(
            Token(index=i, form=form, lemma=form, upos="X", xpos=None, feats={},
                  head=None if i == 0 else 0, deprel="root" if i == 0 else "dep",
                  entity=None, space_after=True)
        )
    return Sentence(tokens=tuple(tokens), ranges=())


def dilute(doc: Document, n: int) -> Document:
    """Append n inert filler tokens as one extra sentence."""
    return Document(doc_id=f"{doc.doc_id}__d{n}", language=doc.language,
                    sentences=doc.sentences + (filler_sentence(n),))
