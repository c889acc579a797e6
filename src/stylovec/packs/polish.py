"""Polish syntax and description detectors.

Covers constructions the declarative pattern language cannot express
cleanly: nominal (verbless) sentences, quoted words, OVS order and
post-posed epithets (both experimental heuristics), and the two simile
variants built on the comparative particles jak/niczym.
"""

from __future__ import annotations

from ..engine import DocContext, TokenRef
from ..universal import sentence_incidence, token_incidence

_QUOTE_FORMS = frozenset({'"', "'", "„", "”", "«", "»", "‚", "’"})
_COMPARATIVE_LEMMAS = frozenset({"jak", "niczym"})


def _is_nominal(sent) -> bool:
    return (sent.root.upos in ("NOUN", "PROPN", "ADJ")
            and not any(t.upos in ("VERB", "AUX") for t in sent.tokens))


def detect_nominal_sentence(params, pack):
    """Verbless sentences with a nominal or adjectival head; captures
    the whole sentence."""
    return sentence_incidence(_is_nominal)


def detect_quoted_word(params, pack):
    """Non-punctuation tokens enclosed by a quote pair within one
    sentence."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            inside = False
            pending: list[TokenRef] = []
            for ti, tok in enumerate(sent.tokens):
                if tok.form in _QUOTE_FORMS:
                    if inside:
                        refs.extend(pending)
                        pending = []
                    inside = not inside
                elif inside and not tok.is_punct:
                    pending.append((si, ti))
        return refs, None
    return rule


def detect_ovs(params, pack):
    """Object-verb-subject linear order around the root (experimental
    heuristic); captures object head, root, and subject head."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            root = sent.root
            if root.upos not in ("VERB", "AUX"):
                continue
            obj = None
            subj = None
            for c in sent.children(root):
                if c.deprel_base() == "obj":
                    obj = c
                elif c.deprel_base() in ("nsubj", "csubj"):
                    subj = c
            if obj is not None and subj is not None and obj.index < root.index < subj.index:
                refs.extend(((si, obj.index), (si, root.index), (si, subj.index)))
        return refs, None
    return rule


def _is_inverted_epithet(tok, sent) -> bool:
    return (tok.upos == "ADJ" and tok.deprel_base() == "amod"
            and tok.head is not None and tok.head < tok.index)


def detect_inverted_epithet(params, pack):
    """Adjectival modifier placed after its noun (experimental
    heuristic); captures the post-posed adjective."""
    return token_incidence(_is_inverted_epithet)


def _simile(target_upos: tuple[str, ...]):
    """Detector for comparisons where jak/niczym depends on a token of
    ``target_upos``: a noun or pronoun standard ('szybki jak błyskawica')
    or an adjective ('jak szalony'); captures the particle and its head."""
    def detect(params, pack):
        def rule(ctx: DocContext):
            refs: list[TokenRef] = []
            for si, sent in enumerate(ctx.doc.sentences):
                for tok in sent.tokens:
                    if tok.upos not in target_upos:
                        continue
                    for c in sent.children(tok):
                        if c.lemma.casefold() in _COMPARATIVE_LEMMAS:
                            refs.append((si, c.index))
                            refs.append((si, tok.index))
            return refs, None
        return rule
    return detect


DETECTORS = {
    "nominal_sentence": detect_nominal_sentence,
    "quoted_word": detect_quoted_word,
    "ovs": detect_ovs,
    "inverted_epithet": detect_inverted_epithet,
    "simile_pl_noun": _simile(("NOUN", "PROPN", "PRON")),
    "simile_pl_adj": _simile(("ADJ",)),
}
