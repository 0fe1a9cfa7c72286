"""Domain model: documents, mentions, chains, partitions, score triples.

A ``Partition`` stores spans: its chain ids in canonical (sorted) order,
each chain's sorted (start, end) tuples, the set of spans flagged
is_named and a sparse span -> surface map.  Scoring, stratification and
stats read only these.  ``Chain`` and ``Mention`` objects are views for
API callers, built on first access to ``Partition.chains`` (or
``mention_set``, ``chain_by_mention``); nothing else in the package does.

Input is checked once, in ``DocumentBuilder``: both parsers,
``Partition(...)`` and ``_slice`` (a partition cut to a set of spans) go
through it, and its errors name the input line.  ``CorpusSource`` checks
only what a partition cannot know: that it belongs to its document, that
document ids are unique and that no span ends past the token count.

Identity rules: ``Mention`` equality and hashing use only the
(doc_id, start, end) span; ``is_named`` and ``surface`` are carried
metadata and never affect identity.  Chains and partitions normalize
their contents into a canonical order on construction, so equal values
compare equal regardless of input order and every downstream iteration
(including float accumulation in the metrics) is deterministic.

``Document``, ``Mention`` and ``ScoreTriple`` are named tuples that check
their fields in ``__new__`` (``_replace`` too); ``Chain``, ``Partition``
and ``CorpusSource`` are ``Frozen`` plain classes.  No type is a
dataclass, so no command pays for importing ``dataclasses`` and
``inspect`` at start-up.  All types but ``DocumentBuilder`` are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import sys
from collections import defaultdict, namedtuple
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, Optional

from .errors import DocMismatch, DuplicateSpan, ModelError, RangeError


class Role(str, Enum):
    """Which side of the evaluation a partition belongs to."""

    KEY = "key"
    RESPONSE = "response"


class SourceFormat(str, Enum):
    """Supported corpus serialization formats."""

    CONLL = "conll"
    JSONL = "jsonl"


def checked_tuple(name: str, fields: str) -> type:
    """The base of a named tuple that checks its fields in ``__new__``;
    its ``_make``, and so ``_replace``, go through the constructor too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Frozen:
    """Base of the immutable plain classes.  Constructors set fields with
    ``object.__setattr__`` or ``vars(self)``, where ``cached_property`` views
    cache too; equality, hashing and repr read the ``_compared`` fields."""

    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._key() == other._key() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._compared, self._key()))
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")

    __delattr__ = __setattr__


class Document(checked_tuple("Document", "doc_id num_tokens")):
    __slots__ = ()

    def __new__(cls, doc_id: str, num_tokens: int):
        if num_tokens < 0:
            raise ModelError(f"num_tokens must be >= 0, got {num_tokens}")
        return super().__new__(cls, doc_id, num_tokens)


class Mention(checked_tuple("Mention", "doc_id start end is_named surface")):
    """A token span [start, end], inclusive on both ends, 0-based."""

    __slots__ = ()

    def __new__(
        cls, doc_id: str, start: int, end: int, is_named: bool = False, surface=None
    ):
        if not 0 <= start <= end:
            raise ModelError(f"invalid span ({start}, {end})")
        return super().__new__(cls, doc_id, start, end, is_named, surface)

    def __eq__(self, other):
        return self[:3] == other[:3] if isinstance(other, Mention) else NotImplemented

    def __ne__(self, other):
        return self[:3] != other[:3] if isinstance(other, Mention) else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:3])

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


class Chain(Frozen):
    """A non-empty set of mentions referring to one entity.

    Mentions are stored sorted by span, so two chains built from the same
    mention set in any order are equal.  A chain of size 1 is a singleton.
    """

    chain_id: str
    mentions: tuple[Mention, ...]
    _compared = ("chain_id", "mentions")

    def __init__(self, chain_id: str, mentions: Iterable[Mention]):
        ordered = tuple(sorted(mentions, key=lambda m: (m.start, m.end)))
        if not ordered:
            raise ModelError(f"chain {chain_id!r} has no mentions")
        doc_id = ordered[0].doc_id
        for m in ordered:
            if m.doc_id != doc_id:
                raise ModelError(
                    f"chain {chain_id!r} mixes documents {doc_id!r} and {m.doc_id!r}"
                )
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise DuplicateSpan(
                    f"span {a.span} repeated in chain {chain_id!r} of document {doc_id!r}"
                )
        object.__setattr__(self, "chain_id", chain_id)
        object.__setattr__(self, "mentions", ordered)

    def __len__(self) -> int:
        return len(self.mentions)

    def __iter__(self) -> Iterator[Mention]:
        return iter(self.mentions)

    @property
    def doc_id(self) -> str:
        return self.mentions[0].doc_id

    @property
    def is_singleton(self) -> bool:
        return len(self.mentions) == 1

    @cached_property
    def mention_set(self) -> frozenset[Mention]:
        return frozenset(self.mentions)


Span = tuple[int, int]

_NO_NAMES: frozenset[Span] = frozenset()
_NO_SURFACES: Mapping[Span, str] = MappingProxyType({})


class DocumentBuilder:
    """The one place input is checked: both parsers, ``Partition(...)`` and
    ``_slice`` put a document's spans in through ``add``.

    ``add`` checks 0 <= start <= end < num_tokens and that no span is in
    two chains, ``chain`` that a chain id is new, and the constructor that
    the document id is not in ``seen`` and the token count is not
    negative.  The ``(start, end)`` tuple ``add`` is given is the span the
    partition keeps.  A span repeated in one chain collapses, keeping the
    metadata of its first occurrence.  Errors name ``line`` when given.
    """

    def __init__(
        self,
        doc_id: str,
        line: Optional[int] = None,
        num_tokens: Optional[int] = None,
        seen: Optional[set[str]] = None,
    ):
        if seen is not None:
            if doc_id in seen:
                raise ModelError(f"duplicate document id {doc_id!r}", line=line)
            seen.add(doc_id)
        if num_tokens is not None and num_tokens < 0:
            raise ModelError(f"num_tokens must be >= 0, got {num_tokens}", line=line)
        self.doc_id, self.num_tokens = doc_id, num_tokens
        self.limit = sys.maxsize if num_tokens is None else num_tokens
        self.chains: dict[str, list[Span]] = defaultdict(list)
        self.owner: dict[Span, str] = {}
        self.named: set[Span] = set()
        self.surfaces: dict[Span, str] = {}

    def chain(self, chain_id: str, line: Optional[int] = None) -> None:
        """Open a chain; ``add`` opens one itself if it is not yet open."""
        if chain_id in self.chains:
            raise ModelError(
                f"duplicate chain id {chain_id!r} in document {self.doc_id!r}", line=line
            )
        self.chains[chain_id] = []

    def add(
        self,
        chain_id: str,
        span: Span,
        line: Optional[int] = None,
        is_named: bool = False,
        surface: Optional[str] = None,
    ) -> None:
        if not 0 <= span[0] <= span[1] < self.limit:
            raise RangeError(
                f"mention {span} outside document {self.doc_id!r} "
                f"with {self.num_tokens} tokens",
                line=line,
            )
        previous = self.owner.get(span)
        if previous is not None:
            if previous != chain_id:
                raise DuplicateSpan(
                    f"span {span} in chains {previous!r} and {chain_id!r} "
                    f"of document {self.doc_id!r}",
                    line=line,
                )
            return
        self.owner[span] = chain_id
        self.chains[chain_id].append(span)
        if is_named:
            self.named.add(span)
        if surface is not None:
            self.surfaces[span] = surface

    def finish(
        self, role: Role | str, num_tokens: Optional[int] = None
    ) -> tuple[Document, Partition]:
        """The document and its partition; ``num_tokens`` if not given before."""
        n = self.num_tokens if num_tokens is None else num_tokens
        return Document(self.doc_id, n), Partition.__new__(Partition)._store(self, role)


class Partition(Frozen):
    """A division of a document's mentions into disjoint chains, as spans.

    ``chain_ids`` holds the chain ids sorted (the canonical chain order)
    and ``spans[i]`` the sorted (start, end) spans of chain i; ``named``
    holds the spans flagged is_named and ``surfaces`` maps a span to its
    surface text where one was given.  Equality ignores that metadata, as
    ``Mention`` equality does.  ``chains``, ``mention_set`` and
    ``chain_by_mention`` are ``Chain``/``Mention`` views for API callers,
    built on first access; scoring, strata and stats read the spans.
    """

    doc_id: str
    role: Role
    chain_ids: tuple[str, ...]
    spans: tuple[tuple[Span, ...], ...]
    named: frozenset[Span]
    surfaces: Mapping[Span, str]
    _compared = ("doc_id", "role", "chain_ids", "spans")

    def __init__(self, doc_id: str, chains: Iterable[Chain], role: Role | str):
        builder = DocumentBuilder(doc_id)
        for chain in chains:
            if chain.doc_id != doc_id:
                raise ModelError(
                    f"chain {chain.chain_id!r} belongs to document {chain.doc_id!r}, "
                    f"not {doc_id!r}"
                )
            builder.chain(chain.chain_id)
            for m in chain.mentions:
                builder.add(chain.chain_id, m.span, None, m.is_named, m.surface)
        self._store(builder, role)

    def _store(self, built: DocumentBuilder, role: Role | str) -> Partition:
        ids = sorted(built.chains)
        fields = {
            "doc_id": built.doc_id,
            "role": Role(role),
            "chain_ids": tuple(ids),
            # From a list: see metrics.overlap.
            "spans": tuple([tuple(sorted(built.chains[c])) for c in ids]),
            "named": frozenset(built.named) if built.named else _NO_NAMES,
            "surfaces": MappingProxyType(built.surfaces) if built.surfaces else _NO_SURFACES,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        return self

    def __len__(self) -> int:
        return len(self.chain_ids)

    @cached_property
    def chains(self) -> tuple[Chain, ...]:
        def mention(span: Span) -> Mention:
            return Mention(self.doc_id, *span, span in self.named, self.surfaces.get(span))

        return tuple(map(Chain, self.chain_ids, (map(mention, s) for s in self.spans)))

    @cached_property
    def mention_set(self) -> frozenset[Mention]:
        return frozenset(m for c in self.chains for m in c.mentions)

    @cached_property
    def chain_by_mention(self) -> dict[Mention, Chain]:
        return {m: c for c in self.chains for m in c.mentions}


def _slice(p: Partition, keep: Container[Span]) -> Partition:
    """``p`` with each chain cut to its spans in ``keep`` and emptied chains
    dropped, through the readers' ``DocumentBuilder``: chain ids and each
    kept span's is_named and surface are kept, and no view is built."""
    builder = DocumentBuilder(p.doc_id)
    for chain_id, spans in zip(p.chain_ids, p.spans):
        for span in spans:
            if span in keep:
                builder.add(chain_id, span, None, span in p.named, p.surfaces.get(span))
    return Partition.__new__(Partition)._store(builder, p.role)


def check_same_doc(key: Partition, response: Partition) -> None:
    if key.doc_id != response.doc_id:
        raise DocMismatch(
            f"key document {key.doc_id!r} does not match response document "
            f"{response.doc_id!r}",
            doc_id=key.doc_id,
        )


class ScoreTriple(checked_tuple("ScoreTriple", "recall precision f1")):
    """Recall, precision, F1, each in [0, 1].

    The f1-is-harmonic-mean relation is not enforced here: BLANC's overall
    triple averages two category F1s and macro-averaged triples average
    per-document F1s, both of which break the relation by definition.
    Use ``from_rp`` when the harmonic relation should hold.
    """

    __slots__ = ()

    def __new__(cls, recall: float, precision: float, f1: float):
        triple = super().__new__(cls, recall, precision, f1)
        for name, v in zip(cls._fields, triple):
            if not 0.0 <= v <= 1.0:
                raise ModelError(f"{name} out of range: {v}")
        return triple

    @classmethod
    def from_rp(cls, recall: float, precision: float) -> "ScoreTriple":
        """F1 as the harmonic mean, with the 0/0 -> 0 convention."""
        if recall + precision == 0:
            return cls(recall, precision, 0.0)
        return cls(recall, precision, 2.0 * recall * precision / (recall + precision))


ZERO_TRIPLE = ScoreTriple(0.0, 0.0, 0.0)


class CorpusSource(Frozen):
    """A parsed corpus: one (Document, Partition) per document, ids unique."""

    format: SourceFormat
    documents: tuple[tuple[Document, Partition], ...]
    _compared = ("format", "documents")

    def __init__(
        self,
        format: SourceFormat | str,
        documents: Iterable[tuple[Document, Partition]],
    ):
        docs = tuple(documents)
        seen: set[str] = set()
        for doc, part in docs:
            if part.doc_id != doc.doc_id:
                raise ModelError(
                    f"partition for {part.doc_id!r} attached to document {doc.doc_id!r}"
                )
            builder = DocumentBuilder(doc.doc_id, num_tokens=doc.num_tokens, seen=seen)
            for chain_id, spans in zip(part.chain_ids, part.spans):
                for span in spans:
                    if span[1] >= doc.num_tokens:
                        builder.add(chain_id, span)
        vars(self).update(format=SourceFormat(format), documents=docs)

    def __len__(self) -> int:
        return len(self.documents)
