"""Line-delimited structured corpus format.

One JSON record per document:

  {"doc_id": "...", "num_tokens": N,
   "chains": [{"chain_id": "...",
               "mentions": [{"start": s, "end": e,
                             "is_named": bool?, "surface": str?}]}]}

``is_named`` defaults to false and ``surface`` to null when absent; this
is the only input format that can carry the named-entity flag used by
stratification.  Unknown record fields are tolerated.  Emission is
byte-deterministic, omits defaulted fields, and parse -> emit is a fixed
point up to field ordering.  Mentions decode straight to spans: a mention
object of just integer ``start`` and ``end`` becomes the ``(start, end)``
tuple the partition keeps, and goes into the document's ``DocumentBuilder``;
any other object, a mention with ``is_named`` or ``surface`` included,
stays a dict and is checked field by field.  A record's line is dropped
once decoded, before its document is built.
``parse_jsonl`` collects what ``iter_jsonl`` yields into a ``CorpusSource``.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import IO, Iterable, Iterator, Optional

from .errors import ParseError, SchemaError
from .model import CorpusSource, Document, DocumentBuilder, Partition, Role


def _mention(obj: dict):
    """An object of just non-bool int ``start`` and ``end`` as its span;
    any other object as it is."""
    if len(obj) == 2:
        start, end = obj.get("start"), obj.get("end")
        if type(start) is int and type(end) is int:
            # One int twice for one token, as in CoNLL: the decoder builds a
            # new int, of 28 bytes, for each number past 256.
            return start, start if end == start else end
    return obj


# One decoder, as json.loads(raw, object_hook=...) builds one per call.  JSON
# decodes no array to a tuple, so a decoded tuple is always a mention.
_DECODER = json.JSONDecoder(object_hook=_mention)


def _field(record: dict, name: str, kind: type, lineno: int):
    # A record or chain decoded as a mention is an int pair: no name is in it.
    if name not in record:
        raise SchemaError(f"missing field {name!r}", line=lineno)
    value = record[name]
    # bool is an int subclass; an is_named flag must not pass as a count
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = "dict" if type(value) is tuple else type(value).__name__
        raise SchemaError(f"field {name!r} must be {kind.__name__}, got {got}", line=lineno)
    return value


def _decode(raw: str, lineno: int) -> Optional[tuple[object, int]]:
    """A line's record with its line number; None for a blank line."""
    if not raw.strip():
        return None
    try:
        # Only json.loads rejects a leading BOM, so it reads such a line.
        return (json.loads if raw[0] == "\ufeff" else _DECODER.decode)(raw), lineno
    except (ValueError, RecursionError) as exc:
        # The decoder recurses once per nesting level.
        raise ParseError(f"invalid JSON: {exc}", line=lineno) from None


def _build(record, lineno: int, role: Role, seen: set) -> tuple[Document, Partition]:
    if not isinstance(record, (dict, tuple)):
        raise SchemaError("each record must be an object", line=lineno)
    doc_id = _field(record, "doc_id", str, lineno)
    num_tokens = _field(record, "num_tokens", int, lineno)
    raw_chains = _field(record, "chains", list, lineno)
    doc = DocumentBuilder(doc_id, lineno, num_tokens, seen)
    for raw_chain in raw_chains:
        if not isinstance(raw_chain, (dict, tuple)):
            raise SchemaError("each chain must be an object", line=lineno)
        chain_id = _field(raw_chain, "chain_id", str, lineno)
        doc.chain(chain_id, lineno)
        raw_mentions = _field(raw_chain, "mentions", list, lineno)
        if not raw_mentions:
            raise SchemaError(f"chain {chain_id!r} has no mentions", line=lineno)
        for mention in raw_mentions:
            if type(mention) is tuple:  # a plain {start, end} _mention decoded
                doc.add(chain_id, mention, lineno)
                continue
            if not isinstance(mention, dict):
                raise SchemaError("each mention must be an object", line=lineno)
            start = _field(mention, "start", int, lineno)
            end = _field(mention, "end", int, lineno)
            is_named = mention.get("is_named", False)
            if not isinstance(is_named, bool):
                raise SchemaError("field 'is_named' must be a boolean", line=lineno)
            surface = mention.get("surface")
            if surface is not None and not isinstance(surface, str):
                raise SchemaError("field 'surface' must be a string", line=lineno)
            span = start, start if end == start else end  # one int, as in _mention
            doc.add(chain_id, span, lineno, is_named, surface)
    return doc.finish(role)


def iter_jsonl(
    lines: Iterable[str], role: Role | str = Role.KEY
) -> Iterator[tuple[Document, Partition]]:
    """Yield one (Document, Partition) per JSON record; blank lines skipped."""
    build = functools.partial(_build, role=Role(role), seen=set())
    # Unlike a loop variable, map, filter and starmap keep no line, record or
    # document once it is passed on: a line is dropped once decoded, before
    # its document is built, and none is held while the next one is parsed.
    records = filter(None, map(_decode, lines, itertools.count(1)))
    yield from itertools.starmap(build, records)


def parse_jsonl(lines: Iterable[str], role: Role | str = Role.KEY) -> CorpusSource:
    """A whole jsonl stream as a corpus: ``iter_jsonl``'s documents, checked."""
    return CorpusSource("jsonl", iter_jsonl(lines, role))


def _record_of(doc: Document, part: Partition) -> dict:
    chains = []
    for chain_id, spans in zip(part.chain_ids, part.spans):
        mentions = []
        for span in spans:
            entry: dict = {"start": span[0], "end": span[1]}
            if span in part.named:
                entry["is_named"] = True
            if span in part.surfaces:
                entry["surface"] = part.surfaces[span]
            mentions.append(entry)
        chains.append({"chain_id": chain_id, "mentions": mentions})
    return {"doc_id": doc.doc_id, "num_tokens": doc.num_tokens, "chains": chains}


def emit_jsonl(documents: Iterable[tuple[Document, Partition]], stream: IO[str]) -> None:
    """Write one record per (Document, Partition) pair, as ``iter_jsonl`` reads
    them; a ``CorpusSource``'s are its ``documents``."""
    for doc, part in documents:
        stream.write(json.dumps(_record_of(doc, part), ensure_ascii=False))
        stream.write("\n")
