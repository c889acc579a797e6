"""Ukrainian and Russian detectors shared by both packs.

Parataxis and dialogue-dash direct speech, the archaic dash-joined
adjective-noun compounds, the analytic future (buty/byt' + infinitive)
alongside the synthetic one, and object-taking verbs.
"""

from __future__ import annotations

from ..model import Token
from ..universal import sentence_incidence, sentence_refs

_DASH_FORMS = frozenset({"-", "–", "—"})
_FUTURE_AUX_LEMMAS = frozenset({"бути", "быть"})

# stems of short-form adjectives seen in folkloric dash compounds
# (зелен-сад, ясен-місяць); matched as prefixes of the first element
_ARCHAIC_ADJ_STEMS = (
    "зелен", "ясен", "ясн", "красен", "красн", "бел", "біл", "черн",
    "чорн", "син", "сив", "стар", "млад", "молод", "добр", "худ",
    "сир", "жив",
)


def _is_finite_verb(tok: Token) -> bool:
    if tok.upos not in ("VERB", "AUX"):
        return False
    return tok.has_feat("VerbForm", "Fin") or "Tense" in tok.feats


def parataxis(sent) -> list[int]:
    """Sentences of two or more juxtaposed clauses with no conjunction:
    parataxis relations, or comma-separated finite conjuncts lacking a
    coordinator; captures the clause-head tokens."""
    heads = [sent.root.index]
    for tok in sent.tokens:
        if tok.deprel_base() == "parataxis":
            heads.append(tok.index)
        elif tok.deprel_base() == "conj" and _is_finite_verb(tok):
            if any(c.deprel == "cc" for c in sent.children(tok)):
                continue
            head = tok.index if tok.head is None else tok.head
            between = sent.tokens[min(tok.index, head) + 1:max(tok.index, head)]
            if any(t.form == "," for t in between) and not any(
                    t.upos in ("CCONJ", "SCONJ") for t in between):
                heads.append(tok.index)
    return heads if len(heads) >= 2 else []


def direct_speech(sent) -> bool:
    """Dialogue lines opened by a dash; captures the whole sentence."""
    return sent.tokens[0].form in _DASH_FORMS


def _adjectival_first_element(part: str) -> bool:
    part = part.casefold()
    return part.startswith(_ARCHAIC_ADJ_STEMS)


def positioning(sent) -> list[int]:
    """Dash-joined adjective+noun compounds, either one hyphenated
    token (зелен-сад) or an ADJ - NOUN token triple."""
    toks = sent.tokens
    found = [ti for ti, tok in enumerate(toks)
             if tok.upos in ("NOUN", "PROPN") and "-" in tok.form.strip("-")
             and _adjectival_first_element(tok.form.split("-", 1)[0])]
    for ti in range(len(toks) - 2):
        if (toks[ti].upos == "ADJ"
                and toks[ti + 1].form in _DASH_FORMS
                and toks[ti + 2].upos in ("NOUN", "PROPN")):
            found.extend((ti, ti + 1, ti + 2))
    return found


def analytic_future(sent) -> list[int]:
    """Future built from a buty/byt' auxiliary with Tense=Fut plus an
    infinitive main verb."""
    return [ti for tok in sent.tokens
            if tok.upos == "AUX" and tok.lemma.casefold() in _FUTURE_AUX_LEMMAS
            and tok.has_feat("Tense", "Fut") and tok.head is not None
            and sent.tokens[tok.head].has_feat("VerbForm", "Inf")
            for ti in (tok.index, tok.head)]


def future_any(sent) -> list[int]:
    """Synthetic or analytic future: verbs carrying Tense=Fut plus
    analytic auxiliary+infinitive pairs."""
    return analytic_future(sent) + [tok.index for tok in sent.tokens
                                    if tok.upos == "VERB" and tok.has_feat("Tense", "Fut")]


def verb_with_object(sent) -> list[int]:
    """Transitively used verbs: a verb with a direct object; captures
    the verb and the object head."""
    return [ti for tok in sent.tokens if tok.upos == "VERB"
            for c in sent.children(tok) if c.deprel_base() == "obj"
            for ti in (tok.index, c.index)]


DETECTORS = {
    "parataxis": lambda params, pack: sentence_refs(parataxis),
    "direct_speech": lambda params, pack: sentence_incidence(direct_speech),
    "positioning": lambda params, pack: sentence_refs(positioning),
    "analytic_future": lambda params, pack: sentence_refs(analytic_future),
    "future_any": lambda params, pack: sentence_refs(future_any),
    "verb_with_object": lambda params, pack: sentence_refs(verb_with_object),
}
