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
from ..lexicons import phrase_hits
from ..model import Sentence, Token
from ..universal import sentence_refs

log = logging.getLogger("stylovec")

MODALS = frozenset({"can", "could", "may", "might", "must", "shall", "should", "would"})
FUTURE_MARKERS = frozenset({"will", "shall"})
_PAST_MODALS = frozenset({"could", "might", "should", "would"})
_COPULAR_UPOS = frozenset({"ADJ", "NOUN", "PROPN", "PRON", "ADV", "NUM", "DET", "SYM"})

TENSES = ("present", "past", "future")
ASPECTS = ("simple", "continuous", "perfect", "perfect_continuous")
VOICES = ("active", "passive")
# the parameters a verb_group metric may take, and the sets it accepts
_VALUES = {"tense": TENSES, "aspect": ASPECTS, "voice": VOICES, "modal": MODALS}
_SHAPES = (("tense", "aspect", "voice"), ("tense",), ("voice",), ("modal",))


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


def verb_group_table(ctx: DocContext) -> dict:
    """Verb-group token refs under ``(tense,)``, ``(voice,)``, ``(modal,)`` and
    ``(tense, aspect, voice)`` for each classified group (tense set), under
    ``"do_support"`` for each group with emphatic do, and under ``"irritation"``
    for the continuous groups and intensifiers of a sentence that has both."""
    def build():
        table: dict = {}
        for si, sent in enumerate(ctx.doc.sentences):
            continuous: list[TokenRef] = []
            for g in extract_verb_groups(sent):
                keys = ["do_support"] if do_support(g, sent) else []
                if g.tense:
                    keys += [(g.tense,), (g.voice,), (g.modal,), (g.tense, g.aspect, g.voice)]
                refs = [(si, t.index) for t in g.tokens]
                for key in keys:
                    table.setdefault(key, []).extend(refs)
                if g.aspect in ("continuous", "perfect_continuous"):
                    continuous += refs
            if continuous and (intensifiers := _intensifiers(sent)):
                table.setdefault("irritation", []).extend(
                    continuous + [(si, ti) for ti in intensifiers])
        return table
    return ctx.memo("en.verb_group_table", build)


def _table_rule(key):
    return lambda ctx: (verb_group_table(ctx).get(key, ()), None)


def verb_group(params, pack):
    """Rule capturing the classified verb groups of one tense/aspect/voice
    cell, or of one tense, voice or modal."""
    names = tuple(k for k in _VALUES if k in params)
    if names not in _SHAPES or len(names) != len(params):
        raise ValueError("verb_group takes tense, aspect and voice, or one of tense, "
                         f"voice, modal; got {sorted(params)}")
    key = tuple(params.pop(name) for name in names)
    for name, value in zip(names, key):
        if value not in _VALUES[name]:
            raise ValueError(f"unknown {name} {value!r}")
    return _table_rule(key)


# ---------------------------------------------------------------------------
# syntactic figures


def _subject_of(sent: Sentence, tok: Token) -> Token | None:
    for c in sent.children(tok):
        if c.deprel_base() in ("nsubj", "csubj"):
            return c
    return None


def fronting(sent: Sentence) -> list[int]:
    """Adverbial or oblique dependents of the root standing before both
    the subject and the predicate; captures the fronted constituent."""
    root = sent.root
    subject = _subject_of(sent, root)
    if subject is None:
        return []
    found: list[int] = []
    for cand in sent.children(root):
        if cand.deprel_base() in ("obl", "advmod"):
            span = sent.subtree_indices(cand.index)
            if span[-1] < root.index and span[-1] < subject.index:
                found.extend(span)
    return found


# irritation, the habitual-annoyance figure ('she is always complaining'): a
# continuous group and an intensifier in one sentence
_IRRITATION_LEMMAS = frozenset({"constantly", "continuously", "always"})
_IRRITATION_PHRASES = {"all": [("all", "the", "time")], "every": [("every", "time")]}


def _intensifiers(sent: Sentence) -> list[int]:
    return ([t.index for t in sent.tokens if t.lemma.casefold() in _IRRITATION_LEMMAS]
            + phrase_hits(sent, _IRRITATION_PHRASES))


_SIMILE_VERBS = frozenset({"look", "seem", "sound", "feel"})


def simile(sent: Sentence) -> list[int]:
    """'as ADJ/ADV as NP' and 'look/seem like NP' comparisons."""
    found: list[int] = []
    for tok in sent.tokens:
        if tok.upos in ("ADJ", "ADV"):
            kids = sent.children(tok)
            first_as = [c for c in kids if c.lemma.casefold() == "as" and c.index < tok.index]
            if not first_as:
                continue
            for np in kids:
                if np.index <= tok.index or np.upos not in ("NOUN", "PROPN", "PRON", "NUM"):
                    continue
                if any(c.lemma.casefold() == "as" for c in sent.children(np)):
                    found += (first_as[0].index, tok.index)
                    found.extend(sent.subtree_indices(np.index))
        elif tok.upos == "VERB" and tok.lemma.casefold() in _SIMILE_VERBS:
            for np in sent.children(tok):
                if np.upos not in ("NOUN", "PROPN", "PRON"):
                    continue
                if any(c.lemma.casefold() == "like" for c in sent.children(np)):
                    found.append(tok.index)
                    found.extend(sent.subtree_indices(np.index))
    return found


def _negated(sent: Sentence, main: Token) -> bool:
    return any(c.lemma.casefold() in ("not", "n't", "never")
               for c in sent.children(main))


def do_support(g: VerbGroup, sent: Sentence) -> bool:
    """Emphatic do: a do-auxiliary on a positive, non-interrogative
    clause ('I do love dogs')."""
    return (g.has_do and g.main.upos == "VERB" and sent.tokens[-1].form != "?"
            and not _negated(sent, g.main))


def inversion(sent: Sentence) -> tuple[int, ...]:
    """Declarative subject-predicate inversion: the subject follows the
    root predicate in linear order."""
    if sent.tokens[-1].form == "?":
        return ()
    root = sent.root
    subject = _subject_of(sent, root)
    if subject is not None and subject.index > root.index:
        return root.index, subject.index
    return ()


DETECTORS = {
    "verb_group": verb_group,
    "fronting": lambda params, pack: sentence_refs(fronting),
    "irritation": lambda params, pack: _table_rule("irritation"),
    "simile_en": lambda params, pack: sentence_refs(simile),
    "do_support": lambda params, pack: _table_rule("do_support"),
    "inversion": lambda params, pack: sentence_refs(inversion),
}
