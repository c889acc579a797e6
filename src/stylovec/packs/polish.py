"""Polish syntax and description detectors.

Covers constructions the declarative pattern language cannot express
cleanly: nominal (verbless) sentences, quoted words, OVS order and
post-posed epithets (both experimental heuristics), and the two simile
variants built on the comparative particles jak/niczym.
"""

from __future__ import annotations

from ..universal import sentence_incidence, sentence_refs

_QUOTE_FORMS = frozenset({'"', "'", "„", "”", "«", "»", "‚", "’"})
_COMPARATIVE_LEMMAS = frozenset({"jak", "niczym"})


def is_nominal(sent) -> bool:
    """Verbless sentences with a nominal or adjectival head; captures
    the whole sentence."""
    return (sent.root.upos in ("NOUN", "PROPN", "ADJ")
            and not any(t.upos in ("VERB", "AUX") for t in sent.tokens))


def quoted_words(sent) -> list[int]:
    """Non-punctuation tokens enclosed by a quote pair within one
    sentence."""
    found: list[int] = []
    pending: list[int] = []
    inside = False
    for ti, tok in enumerate(sent.tokens):
        if tok.form in _QUOTE_FORMS:
            if inside:
                found.extend(pending)
                pending = []
            inside = not inside
        elif inside and not tok.is_punct:
            pending.append(ti)
    return found


def ovs(sent) -> tuple[int, ...]:
    """Object-verb-subject linear order around the root (experimental
    heuristic); captures object head, root, and subject head."""
    root = sent.root
    if root.upos not in ("VERB", "AUX"):
        return ()
    obj = None
    subj = None
    for c in sent.children(root):
        if c.deprel_base() == "obj":
            obj = c
        elif c.deprel_base() in ("nsubj", "csubj"):
            subj = c
    if obj is not None and subj is not None and obj.index < root.index < subj.index:
        return obj.index, root.index, subj.index
    return ()


def inverted_epithets(sent) -> list[int]:
    """Adjectival modifiers placed after their noun (experimental
    heuristic); captures each post-posed adjective."""
    found: list[int] = []
    for t in sent.tokens:
        if (t.upos == "ADJ" and t.deprel_base() == "amod"
                and t.head is not None and t.head < t.index):
            found.append(t.index)
    return found


def _simile(target_upos: tuple[str, ...]):
    """Finder for comparisons where jak/niczym depends on a token of
    ``target_upos``: a noun or pronoun standard ('szybki jak błyskawica')
    or an adjective ('jak szalony'); captures the particle and its head."""
    def find(sent) -> list[int]:
        found: list[int] = []
        for tok in sent.tokens:
            if tok.upos in target_upos:
                for c in sent.children(tok):
                    if c.lemma.casefold() in _COMPARATIVE_LEMMAS:
                        found += (c.index, tok.index)
        return found
    return find


DETECTORS = {
    "nominal_sentence": lambda params, pack: sentence_incidence(is_nominal),
    "quoted_word": lambda params, pack: sentence_refs(quoted_words),
    "ovs": lambda params, pack: sentence_refs(ovs),
    "inverted_epithet": lambda params, pack: sentence_refs(inverted_epithets),
    "simile_pl_noun": lambda params, pack: sentence_refs(_simile(("NOUN", "PROPN", "PRON"))),
    "simile_pl_adj": lambda params, pack: sentence_refs(_simile(("ADJ",))),
}
