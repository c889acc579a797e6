"""English verb-group analysis and syntactic figure detectors.

A verb group is one main predicate (a verb, or a copular predicate
noun/adjective/adverb) together with its auxiliary chain. Groups are
classified into tense (present/past/future), aspect (simple/continuous/
perfect/perfect_continuous), voice, and an optional modal auxiliary;
nonfinite groups keep ``tense=None`` rather than being dropped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ..engine import DocContext, TokenRef
from ..model import Sentence, Token

log = logging.getLogger("stylovec")

MODALS = frozenset({"can", "could", "may", "might", "must", "shall", "should", "would"})
FUTURE_MARKERS = frozenset({"will", "shall"})
_PAST_MODALS = frozenset({"could", "might", "should", "would"})
_COPULAR_UPOS = frozenset({"ADJ", "NOUN", "PROPN", "PRON", "ADV", "NUM", "DET", "SYM"})

TENSES = ("present", "past", "future")
ASPECTS = ("simple", "continuous", "perfect", "perfect_continuous")
VOICES = ("active", "passive")


@dataclass(frozen=True)
class VerbGroup:
    main: Token
    auxiliaries: tuple[Token, ...]
    tense: str | None
    aspect: str | None
    voice: str
    modal: str | None
    has_do: bool = False

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(sorted((self.main, *self.auxiliaries), key=lambda t: t.index))


def _is_ing(tok: Token) -> bool:
    if tok.has_feat("VerbForm", "Ger"):
        return True
    return tok.has_feat("VerbForm", "Part") and tok.has_feat("Tense", "Pres")


def _classify(main: Token, auxes: list[Token]) -> VerbGroup:
    lemmas = [a.lemma.casefold() for a in auxes]
    modal = next((l for l in lemmas if l in MODALS), None)
    passive = any(a.deprel == "aux:pass" for a in auxes)

    if any(l in FUTURE_MARKERS for l in lemmas):
        tense = "future"
    else:
        tense = None
        for aux in auxes:
            feat = aux.feat("Tense")
            if feat in ("Pres", "Past", "Fut"):
                tense = {"Pres": "present", "Past": "past", "Fut": "future"}[feat]
                break
        if tense is None:
            finite_main = main.has_feat("VerbForm", "Fin") or "VerbForm" not in main.feats
            feat = main.feat("Tense")
            if finite_main and feat in ("Pres", "Past"):
                tense = "present" if feat == "Pres" else "past"
            elif modal is not None:
                tense = "past" if modal in _PAST_MODALS else "present"

    ing = _is_ing(main) or any(a.form.casefold() == "being" for a in auxes)
    perf = "have" in lemmas
    if perf and ing:
        aspect = "perfect_continuous"
    elif ing:
        aspect = "continuous"
    elif perf:
        aspect = "perfect"
    else:
        aspect = "simple"
    if tense is None:
        aspect = None

    return VerbGroup(
        main=main,
        auxiliaries=tuple(sorted(auxes, key=lambda t: t.index)),
        tense=tense,
        aspect=aspect,
        voice="passive" if passive else "active",
        modal=modal,
        has_do="do" in lemmas,
    )


def extract_verb_groups(sent: Sentence) -> list[VerbGroup]:
    """All verb groups of one sentence, in main-token order."""
    groups: list[VerbGroup] = []
    for tok in sent.tokens:
        if tok.upos == "VERB" and tok.deprel_base() not in ("aux", "cop"):
            auxes = [c for c in sent.children(tok)
                     if c.deprel_base() in ("aux", "cop") and c.upos in ("AUX", "VERB")]
            groups.append(_classify(tok, auxes))
        elif tok.upos in _COPULAR_UPOS:
            kids = sent.children(tok)
            if any(c.deprel == "cop" for c in kids):
                auxes = [c for c in kids
                         if c.deprel_base() in ("aux", "cop") and c.upos in ("AUX", "VERB")]
                groups.append(_classify(tok, auxes))
    for group in groups:
        # mirror of a known tagger defect: contracted "'s" marked passive
        # without any participle to license it
        for aux in group.auxiliaries:
            if aux.form.casefold() in ("'s", "’s") and aux.has_feat("Voice", "Pass"):
                if not group.main.has_feat("VerbForm", "Part"):
                    log.warning("suspicious 's tagged Voice=Pass without participle "
                                "(main %r)", group.main.form)
    return groups


def doc_verb_groups(ctx: DocContext) -> list[list[VerbGroup]]:
    return ctx.memo("en.verb_groups",
                    lambda: [extract_verb_groups(s) for s in ctx.doc.sentences])


def _group_refs(si: int, group: VerbGroup) -> list[TokenRef]:
    return [(si, t.index) for t in group.tokens]


def _groups_where(pred):
    """Rule capturing the tokens of every verb group ``pred`` accepts."""
    def rule(ctx: DocContext):
        return [ref for si, groups in enumerate(doc_verb_groups(ctx))
                for g in groups if pred(g) for ref in _group_refs(si, g)], None
    return rule


def verb_group_cell(params, pack):
    tense, aspect, voice = params["tense"], params["aspect"], params["voice"]
    if tense not in TENSES or aspect not in ASPECTS or voice not in VOICES:
        raise ValueError(f"bad verb-group cell {tense}/{aspect}/{voice}")
    return _groups_where(lambda g: g.tense == tense and g.aspect == aspect and g.voice == voice)


def verb_group_tense(params, pack):
    tense = params["tense"]
    if tense not in TENSES:
        raise ValueError(f"unknown tense {tense!r}")
    return _groups_where(lambda g: g.tense == tense)


def verb_group_voice(params, pack):
    voice = params["voice"]
    if voice not in VOICES:
        raise ValueError(f"unknown voice {voice!r}")
    # restricted to classified groups so the general voice metric stays
    # the exact union of the detailed cells
    return _groups_where(lambda g: g.tense is not None and g.voice == voice)


def verb_group_modal(params, pack):
    modal = params["modal"].casefold()
    if modal not in MODALS:
        raise ValueError(f"unknown modal {modal!r}")
    return _groups_where(lambda g: g.modal == modal)


# ---------------------------------------------------------------------------
# syntactic figures


def _subject_of(sent: Sentence, tok: Token) -> Token | None:
    for c in sent.children(tok):
        if c.deprel_base() in ("nsubj", "csubj"):
            return c
    return None


def detect_fronting(params, pack):
    """Adverbial or oblique dependents of the root standing before both
    the subject and the predicate; captures the fronted constituent."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            root = sent.root
            subject = _subject_of(sent, root)
            if subject is None:
                continue
            for cand in sent.children(root):
                if cand.deprel_base() not in ("obl", "advmod"):
                    continue
                span = sent.subtree_indices(cand.index)
                if max(span) < root.index and max(span) < subject.index:
                    refs.extend((si, j) for j in span)
        return refs, None
    return rule


_IRRITATION_LEMMAS = frozenset({"constantly", "continuously", "always"})
_IRRITATION_PHRASES = (("all", "the", "time"), ("every", "time"))


def _intensifier_refs(si: int, sent: Sentence) -> list[TokenRef]:
    refs = [(si, t.index) for t in sent.tokens
            if t.lemma.casefold() in _IRRITATION_LEMMAS]
    forms = [t.form.casefold() for t in sent.tokens]
    for phrase in _IRRITATION_PHRASES:
        k = len(phrase)
        for i in range(len(forms) - k + 1):
            if tuple(forms[i:i + k]) == phrase:
                refs.extend((si, i + j) for j in range(k))
    return refs


def detect_irritation(params, pack):
    """Habitual-annoyance figure: a continuous-aspect group together
    with an intensifier ('always', 'constantly', 'all the time', ...)."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            intens = _intensifier_refs(si, sent)
            if not intens:
                continue
            hit = False
            for g in doc_verb_groups(ctx)[si]:
                if g.aspect in ("continuous", "perfect_continuous"):
                    refs.extend(_group_refs(si, g))
                    hit = True
            if hit:
                refs.extend(intens)
        return refs, None
    return rule


_SIMILE_VERBS = frozenset({"look", "seem", "sound", "feel"})


def detect_simile(params, pack):
    """'as ADJ/ADV as NP' and 'look/seem like NP' comparisons."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            for tok in sent.tokens:
                if tok.upos in ("ADJ", "ADV"):
                    kids = sent.children(tok)
                    first_as = [c for c in kids
                                if c.lemma.casefold() == "as" and c.index < tok.index]
                    if not first_as:
                        continue
                    for np in kids:
                        if np.index <= tok.index or np.upos not in ("NOUN", "PROPN", "PRON", "NUM"):
                            continue
                        if any(c.lemma.casefold() == "as"
                               for c in sent.children(np)):
                            refs.append((si, first_as[0].index))
                            refs.append((si, tok.index))
                            refs.extend((si, j) for j in sent.subtree_indices(np.index))
                elif tok.upos == "VERB" and tok.lemma.casefold() in _SIMILE_VERBS:
                    for np in sent.children(tok):
                        if np.upos not in ("NOUN", "PROPN", "PRON"):
                            continue
                        if any(c.lemma.casefold() == "like"
                               for c in sent.children(np)):
                            refs.append((si, tok.index))
                            refs.extend((si, j) for j in sent.subtree_indices(np.index))
        return refs, None
    return rule


def _negated(sent: Sentence, main: Token) -> bool:
    return any(c.lemma.casefold() in ("not", "n't", "never")
               for c in sent.children(main))


def detect_do_support(params, pack):
    """Emphatic do: a do-auxiliary on a positive, non-interrogative
    clause ('I do love dogs')."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            if sent.tokens[-1].form == "?":
                continue
            for g in doc_verb_groups(ctx)[si]:
                if g.has_do and g.main.upos == "VERB" and not _negated(sent, g.main):
                    refs.extend(_group_refs(si, g))
        return refs, None
    return rule


def detect_inversion(params, pack):
    """Declarative subject-predicate inversion: the subject follows the
    root predicate in linear order."""
    def rule(ctx: DocContext):
        refs: list[TokenRef] = []
        for si, sent in enumerate(ctx.doc.sentences):
            if sent.tokens[-1].form == "?":
                continue
            root = sent.root
            subject = _subject_of(sent, root)
            if subject is not None and subject.index > root.index:
                refs.append((si, root.index))
                refs.append((si, subject.index))
        return refs, None
    return rule


DETECTORS = {
    "verb_group_cell": verb_group_cell,
    "verb_group_tense": verb_group_tense,
    "verb_group_voice": verb_group_voice,
    "verb_group_modal": verb_group_modal,
    "fronting": detect_fronting,
    "irritation": detect_irritation,
    "simile_en": detect_simile,
    "do_support": detect_do_support,
    "inversion": detect_inversion,
}
