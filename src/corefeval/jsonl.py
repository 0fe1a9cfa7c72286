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
point up to field ordering.  Each mention goes straight into the
document's ``DocumentBuilder``, which checks it; no ``Mention`` is built.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import IO, Iterable, Iterator, Optional

from .errors import ParseError, SchemaError
from .model import CorpusSource, Document, DocumentBuilder, Partition, Role, SourceFormat


def _field(record: dict, name: str, kind: type, lineno: int):
    if name not in record:
        raise SchemaError(f"missing field {name!r}", line=lineno)
    value = record[name]
    # bool is an int subclass; an is_named flag must not pass as a count
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}",
            line=lineno,
        )
    return value


def _parse_record(
    raw: str, lineno: int, role: Role, seen: set[str]
) -> Optional[tuple[Document, Partition]]:
    if not raw.strip():
        return None
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # The decoder recurses once per nesting level.
        raise ParseError(f"invalid JSON: {exc}", line=lineno) from None
    if not isinstance(record, dict):
        raise SchemaError("each record must be an object", line=lineno)
    doc_id = _field(record, "doc_id", str, lineno)
    num_tokens = _field(record, "num_tokens", int, lineno)
    raw_chains = _field(record, "chains", list, lineno)
    doc = DocumentBuilder(doc_id, lineno, num_tokens, seen)
    for raw_chain in raw_chains:
        if not isinstance(raw_chain, dict):
            raise SchemaError("each chain must be an object", line=lineno)
        chain_id = _field(raw_chain, "chain_id", str, lineno)
        doc.chain(chain_id, lineno)
        raw_mentions = _field(raw_chain, "mentions", list, lineno)
        if not raw_mentions:
            raise SchemaError(f"chain {chain_id!r} has no mentions", line=lineno)
        for raw_mention in raw_mentions:
            if not isinstance(raw_mention, dict):
                raise SchemaError("each mention must be an object", line=lineno)
            start = _field(raw_mention, "start", int, lineno)
            end = _field(raw_mention, "end", int, lineno)
            is_named = raw_mention.get("is_named", False)
            if not isinstance(is_named, bool):
                raise SchemaError("field 'is_named' must be a boolean", line=lineno)
            surface = raw_mention.get("surface")
            if surface is not None and not isinstance(surface, str):
                raise SchemaError("field 'surface' must be a string", line=lineno)
            doc.add(chain_id, start, end, lineno, is_named, surface)
    return doc.finish(role)


def iter_jsonl(
    lines: Iterable[str], role: Role | str = Role.KEY
) -> Iterator[tuple[Document, Partition]]:
    """Yield one (Document, Partition) per JSON record; blank lines skipped."""
    parse = functools.partial(_parse_record, role=Role(role), seen=set())
    # Unlike a loop variable, map and filter keep no line, record or document
    # once it is passed on, so none is held while the next one is parsed.
    yield from filter(None, map(parse, lines, itertools.count(1)))


def parse_jsonl(lines: Iterable[str], role: Role | str = Role.KEY) -> CorpusSource:
    """Parse a whole jsonl stream into a validated corpus."""
    return CorpusSource.of_checked(SourceFormat.JSONL, iter_jsonl(lines, role))


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


def emit_jsonl(
    documents: CorpusSource | Iterable[tuple[Document, Partition]], stream: IO[str]
) -> None:
    """Write one record per document; inverse of parse_jsonl."""
    if isinstance(documents, CorpusSource):
        documents = documents.documents
    for doc, part in documents:
        stream.write(json.dumps(_record_of(doc, part), ensure_ascii=False))
        stream.write("\n")
