"""Ukrainian and Russian detectors shared by both packs.

Parataxis and dialogue-dash direct speech, the archaic dash-joined
adjective-noun compounds, the analytic future (buty/byt' + infinitive)
alongside the synthetic one, and object-taking verbs.
"""

from __future__ import annotations

from ..engine import DocContext, TokenRef
from ..model import Token
from ..universal import sentence_incidence, token_incidence

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


def detect_parataxis(params, pack):
    """Sentences of two or more juxtaposed clauses with no conjunction:
    parataxis relations, or comma-separated finite conjuncts lacking a
    coordinator; captures the clause-head tokens."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            heads = [sent.root]
            for tok in sent.tokens:
                if tok.deprel_base() == "parataxis":
                    heads.append(tok)
                elif tok.deprel_base() == "conj" and _is_finite_verb(tok):
                    kids = sent.children(tok)
                    if any(c.deprel == "cc" for c in kids):
                        continue
                    lo = min(tok.index, tok.head if tok.head is not None else tok.index)
                    hi = max(tok.index, tok.head if tok.head is not None else tok.index)
                    between = sent.tokens[lo + 1:hi]
                    if any(t.form == "," for t in between) and not any(
                            t.upos in ("CCONJ", "SCONJ") for t in between):
                        heads.append(tok)
            if len(heads) >= 2:
                refs.extend((si, h.index) for h in heads)
        return refs, None
    return rule


def detect_direct_speech(params, pack):
    """Dialogue lines opened by a dash; captures the whole sentence."""
    return sentence_incidence(lambda sent: sent.tokens[0].form in _DASH_FORMS)


def _adjectival_first_element(part: str) -> bool:
    part = part.casefold()
    return part.startswith(_ARCHAIC_ADJ_STEMS)


def detect_positioning(params, pack):
    """Dash-joined adjective+noun compounds, either one hyphenated
    token (зелен-сад) or an ADJ - NOUN token triple."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            toks = sent.tokens
            for ti, tok in enumerate(toks):
                if tok.upos in ("NOUN", "PROPN") and "-" in tok.form.strip("-"):
                    first = tok.form.split("-", 1)[0]
                    if _adjectival_first_element(first):
                        refs.append((si, ti))
            for ti in range(len(toks) - 2):
                if (toks[ti].upos == "ADJ"
                        and toks[ti + 1].form in _DASH_FORMS
                        and toks[ti + 2].upos in ("NOUN", "PROPN")):
                    refs.extend(((si, ti), (si, ti + 1), (si, ti + 2)))
        return refs, None
    return rule


def detect_analytic_future(params, pack):
    """Future built from a buty/byt' auxiliary with Tense=Fut plus an
    infinitive main verb."""
    def rule(ctx: DocContext):
        return _analytic_future_refs(ctx), None
    return rule


def _analytic_future_refs(ctx: DocContext) -> list[TokenRef]:
    refs: list[TokenRef] = []
    for si, sent in enumerate(ctx.doc.sentences):
        for tok in sent.tokens:
            if tok.upos != "AUX" or tok.lemma.casefold() not in _FUTURE_AUX_LEMMAS:
                continue
            if not tok.has_feat("Tense", "Fut") or tok.head is None:
                continue
            head = sent.tokens[tok.head]
            if head.has_feat("VerbForm", "Inf"):
                refs.append((si, tok.index))
                refs.append((si, head.index))
    return refs


def detect_future_any(params, pack):
    """Synthetic or analytic future: verbs carrying Tense=Fut plus
    analytic auxiliary+infinitive pairs."""
    synthetic = token_incidence(lambda tok, sent: tok.upos == "VERB" and tok.has_feat("Tense", "Fut"))
    def rule(ctx: DocContext):
        return _analytic_future_refs(ctx) + synthetic(ctx)[0], None
    return rule


def detect_verb_with_object(params, pack):
    """Transitively used verbs: a verb with a direct object; captures
    the verb and the object head."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            for tok in sent.tokens:
                if tok.upos != "VERB":
                    continue
                for c in sent.children(tok):
                    if c.deprel_base() == "obj":
                        refs.append((si, tok.index))
                        refs.append((si, c.index))
        return refs, None
    return rule


DETECTORS = {
    "parataxis": detect_parataxis,
    "direct_speech": detect_direct_speech,
    "positioning": detect_positioning,
    "analytic_future": detect_analytic_future,
    "future_any": detect_future_any,
    "verb_with_object": detect_verb_with_object,
}
