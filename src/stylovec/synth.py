"""Synthetic document generators for stress tests and demos.

Three producers: a fuzzer emitting random but structurally valid
documents, two contrasting English "genre" generators with deliberately
different grammatical profiles, and small corpus transforms
(duplication, dilution) used by the invariance checks.
"""

from __future__ import annotations

import random

from .model import Document, Sentence, Token

_WEIGHTED_UPOS = (
    ("NOUN", 18), ("VERB", 14), ("ADJ", 8), ("ADV", 7), ("PRON", 8),
    ("ADP", 8), ("DET", 8), ("AUX", 5), ("PUNCT", 10), ("CCONJ", 3),
    ("SCONJ", 2), ("PROPN", 4), ("NUM", 2), ("PART", 2), ("INTJ", 1),
    ("SYM", 1), ("X", 1),
)
_PUNCT_FORMS = (".", ",", "!", "?", ";", ":", "-", "—", '"', "'", "…", "...")
_DEPRELS = (
    "nsubj", "obj", "iobj", "obl", "amod", "advmod", "advmod:neg", "det",
    "case", "mark", "cc", "conj", "aux", "aux:pass", "cop", "xcomp",
    "ccomp", "nmod", "appos", "dep", "parataxis",
)
_FEAT_POOL = (
    ("Tense", ("Pres", "Past", "Fut")),
    ("Case", ("Nom", "Gen", "Dat", "Acc", "Ins", "Loc", "Voc")),
    ("Aspect", ("Imp", "Perf")),
    ("Number", ("Sing", "Plur")),
    ("VerbForm", ("Fin", "Inf", "Part", "Conv")),
    ("Mood", ("Ind", "Imp", "Cnd")),
    ("PronType", ("Dem", "Rel", "Int", "Prs")),
    ("Degree", ("Pos", "Cmp", "Sup")),
    ("Gender", ("Masc", "Fem", "Neut")),
)
_ODD_FORMS = (
    ":)", ";-(", "#topic", "@someone", "http://example.test", "HELLO",
    "d**n", "\U0001F600", "( ͡° ͜ʖ ͡°)", "x3",
)
_SYLLABLES = ("ba", "re", "mi", "to", "lu", "san", "ver", "kol", "dra", "pin",
              "zor", "fen", "gul", "tas", "nov", "lek", "mur", "sif", "war", "het")


def _pick_upos(rng: random.Random) -> str:
    total = sum(w for _, w in _WEIGHTED_UPOS)
    roll = rng.randrange(total)
    for tag, weight in _WEIGHTED_UPOS:
        roll -= weight
        if roll < 0:
            return tag
    return "X"


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 4)))


def _random_sentence(rng: random.Random, size: int) -> Sentence:
    order = list(range(size))
    rng.shuffle(order)
    heads: dict[int, int | None] = {order[0]: None}
    attached = [order[0]]
    for idx in order[1:]:
        heads[idx] = rng.choice(attached)
        attached.append(idx)
    tokens = []
    for i in range(size):
        upos = _pick_upos(rng)
        if upos == "PUNCT":
            form = rng.choice(_PUNCT_FORMS)
            lemma = form
        elif rng.random() < 0.02:
            form = rng.choice(_ODD_FORMS)
            lemma = form.casefold()
            upos = "X" if not form.isalpha() else upos
        else:
            form = _word(rng)
            lemma = form if rng.random() < 0.7 else _word(rng)
        feats: dict[str, str] = {}
        for key, values in _FEAT_POOL:
            if rng.random() < 0.08:
                feats[key] = rng.choice(values)
        head = heads[i]
        deprel = "root" if head is None else ("punct" if upos == "PUNCT" else rng.choice(_DEPRELS))
        tokens.append(
            Token(
                index=i,
                form=form,
                lemma=lemma,
                upos=upos,
                xpos=None,
                feats=feats,
                head=head,
                deprel=deprel,
                entity="thing" if rng.random() < 0.03 else None,
                space_after=rng.random() > 0.05,
            )
        )
    return Sentence(tokens=tuple(tokens), ranges=())


def random_document(rng: random.Random, doc_id: str, language: str = "en",
                    token_count: int | None = None) -> Document:
    """One structurally valid document with ``token_count`` tokens (1..500)."""
    if token_count is None:
        token_count = rng.randint(1, 500)
    sentences = []
    remaining = token_count
    while remaining > 0:
        size = min(remaining, rng.randint(1, 12))
        sentences.append(_random_sentence(rng, size))
        remaining -= size
    return Document(doc_id=doc_id, language=language, sentences=tuple(sentences))


# --------------------------------------------------------------- transforms

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


# ------------------------------------------------------------ genre corpora

def _tok(i: int, form: str, lemma: str, upos: str, head: int | None, deprel: str,
         feats: dict[str, str] | None = None, space_after: bool = True) -> Token:
    return Token(index=i, form=form, lemma=lemma, upos=upos, xpos=None,
                 feats=feats or {}, head=head, deprel=deprel, entity=None,
                 space_after=space_after)


_NOUNS = ("report", "budget", "bridge", "policy", "committee", "decision",
          "project", "minister", "contract", "airport")
_TRANS = (("approve", "approved"), ("review", "reviewed"), ("sign", "signed"),
          ("delay", "delayed"), ("cancel", "cancelled"), ("publish", "published"),
          ("inspect", "inspected"), ("reject", "rejected"))
_CHAT_VERBS = ("like", "love", "need", "want", "see", "call", "help", "miss")


def _passive_sentences(rng: random.Random) -> Sentence:
    noun = rng.choice(_NOUNS)
    agent = rng.choice(_NOUNS)
    lemma, part = rng.choice(_TRANS)
    kind = rng.randrange(4)
    past = {"Tense": "Past", "VerbForm": "Fin"}
    if kind == 0:
        # The NOUN was PART by the NOUN .
        toks = [
            _tok(0, "The", "the", "DET", 1, "det"),
            _tok(1, noun, noun, "NOUN", 3, "nsubj:pass", {"Number": "Sing"}),
            _tok(2, "was", "be", "AUX", 3, "aux:pass", dict(past)),
            _tok(3, part, lemma, "VERB", None, "root",
                 {"Tense": "Past", "VerbForm": "Part", "Voice": "Pass"}),
            _tok(4, "by", "by", "ADP", 6, "case"),
            _tok(5, "the", "the", "DET", 6, "det"),
            _tok(6, agent, agent, "NOUN", 3, "obl", {"Number": "Sing"}, space_after=False),
            _tok(7, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif kind == 1:
        # It has been PART .
        toks = [
            _tok(0, "It", "it", "PRON", 3, "nsubj:pass", {"PronType": "Prs"}),
            _tok(1, "has", "have", "AUX", 3, "aux", {"Tense": "Pres", "VerbForm": "Fin"}),
            _tok(2, "been", "be", "AUX", 3, "aux:pass", {"VerbForm": "Part"}),
            _tok(3, part, lemma, "VERB", None, "root",
                 {"Tense": "Past", "VerbForm": "Part", "Voice": "Pass"}, space_after=False),
            _tok(4, ".", ".", "PUNCT", 3, "punct"),
        ]
    elif kind == 2:
        # The NOUN is PART annually .
        toks = [
            _tok(0, "The", "the", "DET", 1, "det"),
            _tok(1, noun, noun, "NOUN", 3, "nsubj:pass", {"Number": "Sing"}),
            _tok(2, "is", "be", "AUX", 3, "aux:pass", {"Tense": "Pres", "VerbForm": "Fin"}),
            _tok(3, part, lemma, "VERB", None, "root",
                 {"Tense": "Past", "VerbForm": "Part", "Voice": "Pass"}),
            _tok(4, "annually", "annually", "ADV", 3, "advmod", space_after=False),
            _tok(5, ".", ".", "PUNCT", 3, "punct"),
        ]
    else:
        # The NOUN of the NOUN had been PART .
        toks = [
            _tok(0, "The", "the", "DET", 1, "det"),
            _tok(1, noun, noun, "NOUN", 6, "nsubj:pass", {"Number": "Sing"}),
            _tok(2, "of", "of", "ADP", 4, "case"),
            _tok(3, "the", "the", "DET", 4, "det"),
            _tok(4, agent, agent, "NOUN", 1, "nmod", {"Number": "Sing"}),
            _tok(5, "had", "have", "AUX", 6, "aux", dict(past)),
            _tok(6, part, lemma, "VERB", None, "root",
                 {"Tense": "Past", "VerbForm": "Part", "Voice": "Pass"}, space_after=False),
            _tok(7, ".", ".", "PUNCT", 6, "punct"),
        ]
    return Sentence(tokens=tuple(toks), ranges=())


def _dialogue_sentence(rng: random.Random) -> Sentence:
    verb = rng.choice(_CHAT_VERBS)
    noun = rng.choice(_NOUNS)
    kind = rng.randrange(4)
    if kind == 0:
        # Do you VERB it ?
        toks = [
            _tok(0, "Do", "do", "AUX", 2, "aux", {"Tense": "Pres", "VerbForm": "Fin"}),
            _tok(1, "you", "you", "PRON", 2, "nsubj", {"PronType": "Prs"}),
            _tok(2, verb, verb, "VERB", None, "root", {"VerbForm": "Inf"}),
            _tok(3, "it", "it", "PRON", 2, "obj", {"PronType": "Prs"}, space_after=False),
            _tok(4, "?", "?", "PUNCT", 2, "punct"),
        ]
    elif kind == 1:
        # I really VERB this !
        toks = [
            _tok(0, "I", "i", "PRON", 2, "nsubj", {"PronType": "Prs"}),
            _tok(1, "really", "really", "ADV", 2, "advmod"),
            _tok(2, verb, verb, "VERB", None, "root", {"Tense": "Pres", "VerbForm": "Fin"}),
            _tok(3, "this", "this", "PRON", 2, "obj", {"PronType": "Dem"}, space_after=False),
            _tok(4, "!", "!", "PUNCT", 2, "punct"),
        ]
    elif kind == 2:
        # You are joking now ?
        toks = [
            _tok(0, "You", "you", "PRON", 2, "nsubj", {"PronType": "Prs"}),
            _tok(1, "are", "be", "AUX", 2, "aux", {"Tense": "Pres", "VerbForm": "Fin"}),
            _tok(2, "joking", "joke", "VERB", None, "root",
                 {"Tense": "Pres", "VerbForm": "Part"}),
            _tok(3, "now", "now", "ADV", 2, "advmod", space_after=False),
            _tok(4, "?", "?", "PUNCT", 2, "punct"),
        ]
    else:
        # We can VERB your NOUN :)
        toks = [
            _tok(0, "We", "we", "PRON", 2, "nsubj", {"PronType": "Prs"}),
            _tok(1, "can", "can", "AUX", 2, "aux", {"VerbForm": "Fin"}),
            _tok(2, verb, verb, "VERB", None, "root", {"VerbForm": "Inf"}),
            _tok(3, "your", "you", "DET", 4, "det", {"PronType": "Prs"}),
            _tok(4, noun, noun, "NOUN", 2, "obj", {"Number": "Sing"}),
            _tok(5, ":)", ":)", "SYM", 2, "punct", space_after=False),
        ]
    return Sentence(tokens=tuple(toks), ranges=())


def genre_corpus(rng: random.Random, genre: str, n_docs: int,
                 sentences_per_doc: tuple[int, int] = (6, 12)) -> list[Document]:
    """English documents with a deliberately skewed grammatical profile.

    ``genre`` is "formal" (passive-heavy reportage) or "chat" (questions,
    first/second person, emoticons).
    """
    if genre not in ("formal", "chat"):
        raise ValueError(f"unknown genre {genre!r}")
    make = _passive_sentences if genre == "formal" else _dialogue_sentence
    docs = []
    for i in range(n_docs):
        count = rng.randint(*sentences_per_doc)
        sentences = tuple(make(rng) for _ in range(count))
        docs.append(Document(doc_id=f"{genre}{i:03d}", language="en", sentences=sentences))
    return docs
