"""Immutable document model for dependency-annotated text.

Tokens carry the usual UD annotation layers (form, lemma, UPOS, XPOS,
morphological features, dependency head and relation, optional entity
label). Sentences are dependency trees; documents are ordered sentence
lists. Everything is frozen after construction so documents can be
shared freely across threads and metric evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

UPOS_TAGS = frozenset({
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
})

CONTENT_UPOS = frozenset({"NOUN", "VERB", "ADJ", "ADV", "PROPN"})
FUNCTION_UPOS = frozenset({"ADP", "AUX", "CCONJ", "SCONJ", "DET", "PART", "PRON"})

LANGUAGES = ("en", "pl", "uk", "ru")


class ModelError(ValueError):
    """Structural violation in a document object (bad tree, foreign token)."""


@dataclass(frozen=True, slots=True)
class Token:
    """One annotated token. ``index`` and ``head`` are 0-based within the
    sentence; ``head`` is None for the root."""

    index: int
    form: str
    lemma: str
    upos: str
    xpos: str | None = None
    feats: dict[str, str] = field(default_factory=dict)
    head: int | None = None
    deprel: str = "root"
    deps: str = "_"
    entity: str | None = None
    space_after: bool = True

    def feat(self, key: str) -> str | None:
        return self.feats.get(key)

    def has_feat(self, key: str, value: str) -> bool:
        """True iff ``feats[key]`` equals ``value``; multivalued features
        (``Gender=Masc,Fem``) match any listed alternative."""
        got = self.feats.get(key)
        if got is None:
            return False
        if got == value:
            return True
        return value in got.split(",") if "," in got else False

    @property
    def is_punct(self) -> bool:
        return self.upos == "PUNCT"

    def deprel_base(self) -> str:
        """Base relation without the subtype (``advmod:neg`` -> ``advmod``)."""
        rel = self.deprel
        i = rel.find(":")
        return rel if i < 0 else rel[:i]


@dataclass(frozen=True, slots=True)
class MultiwordRange:
    """Surface form covering token indices ``start``..``end`` inclusive
    (0-based). Kept for text reconstruction and serialization only;
    never counted as tokens."""

    start: int
    end: int
    form: str
    space_after: bool = True


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]
    ranges: tuple[MultiwordRange, ...] = ()
    _children: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _root_index: int = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if n == 0:
            raise ModelError("sentence with no tokens")
        roots = []
        kids: list[list[int]] = [[] for _ in range(n)]
        for i, tok in enumerate(self.tokens):
            head = tok.head
            if tok.index != i:
                raise ModelError(f"token index {tok.index} at position {i}")
            if head is None:
                roots.append(i)
                continue
            if head == i:
                raise ModelError(f"token {i} is its own head")
            if not 0 <= head < n:
                raise ModelError(f"head {head} outside sentence of {n} tokens")
            if not tok.deprel or tok.deprel == "_":
                raise ModelError(f"empty deprel on non-root token {i}")
            kids[head].append(i)
        if len(roots) != 1:
            raise ModelError(f"sentence has {len(roots)} roots, expected 1")
        # every token has one head, so a walk down from the root meets each
        # token at most once; reaching all n is the acyclicity check
        reached = 1
        stack = [roots[0]]
        while stack:
            below = kids[stack.pop()]
            reached += len(below)
            stack.extend(below)
        if reached != n:
            raise ModelError("head relation is not a connected tree")
        last_end = -1
        for rng in self.ranges:
            # _reconstruct jumps from each range's start past its end, so a range
            # out of order or out of bounds would send it back or past the tokens
            if not last_end < rng.start < rng.end < n:
                raise ModelError(f"multiword range {rng.start}-{rng.end} is empty, out of "
                                 f"order or outside the sentence of {n} tokens")
            last_end = rng.end
        object.__setattr__(self, "_children", tuple(map(tuple, kids)))
        object.__setattr__(self, "_root_index", roots[0])
        object.__setattr__(self, "_text", self._reconstruct())

    def _reconstruct(self) -> str:
        covered = {r.start: r for r in self.ranges}
        parts: list[str] = []
        i = 0
        n = len(self.tokens)
        while i < n:
            rng = covered.get(i)
            if rng is not None:
                parts.append(rng.form)
                if rng.space_after and rng.end + 1 < n:
                    parts.append(" ")
                i = rng.end + 1
            else:
                tok = self.tokens[i]
                parts.append(tok.form)
                if tok.space_after and i + 1 < n:
                    parts.append(" ")
                i += 1
        return "".join(parts)

    @property
    def root(self) -> Token:
        return self.tokens[self._root_index]

    @property
    def text(self) -> str:
        return self._text

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def _own(self, token: Token) -> int:
        i = token.index
        if not 0 <= i < len(self.tokens) or self.tokens[i] is not token:
            raise ModelError("token does not belong to this sentence")
        return i

    def children(self, token: Token) -> list[Token]:
        """Direct dependents of ``token``, in linear order."""
        return [self.tokens[j] for j in self._children[self._own(token)]]

    def subtree_indices(self, index: int) -> list[int]:
        """``index`` plus the indices of all transitive dependents, in linear order."""
        acc = [index]
        stack = list(self._children[index])
        while stack:
            j = stack.pop()
            acc.append(j)
            stack.extend(self._children[j])
        acc.sort()
        return acc


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    language: str | None
    sentences: tuple[Sentence, ...]
    token_count: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_count", sum(len(s) for s in self.sentences))

    def tokens(self) -> list[Token]:
        """All tokens in document order."""
        out: list[Token] = []
        for sent in self.sentences:
            out.extend(sent.tokens)
        return out

    def refs(self) -> list[tuple[int, int, Token]]:
        """(sentence index, token index, token) triples in document order."""
        out = []
        for si, sent in enumerate(self.sentences):
            for ti, tok in enumerate(sent.tokens):
                out.append((si, ti, tok))
        return out

    def token_at(self, sentence_index: int, token_index: int) -> Token:
        return self.sentences[sentence_index].tokens[token_index]

    def __len__(self) -> int:
        return self.token_count
