"""CoNLL-2012-style coreference column parsing.

Documents are delimited by ``#begin document <id>`` and ``#end document``
lines; the document id is the raw text after ``#begin document ``
(including any ``; part N`` suffix), so each part is an independent
document.  Token rows are non-blank, non-``#`` lines; blank lines are
sentence separators and do not consume a token index.  Only the final
whitespace-separated column is interpreted:

  ``-``      no coreference at this token
  ``(N``     chain N opens a mention at this token
  ``N)``     chain N closes its most recently opened mention here
  ``(N)``    a one-token mention of chain N
  ``a|b``    several of the above at one token

Closes bind to the most recent open of the same chain (per-chain stack),
which handles nested mentions.  Every open must be closed by the end of
the document.  One span may not belong to two different chains; the same
span repeated inside one chain collapses silently (set semantics).  Each
span goes straight into the document's ``DocumentBuilder``, which checks
it; no ``Mention`` is built.

Parsing is streaming: ``iter_conll`` holds one document at a time, and
only a line starting with ``#`` is tried as a ``#begin``/``#end`` line.
Other ``#`` lines are comments, allowed only inside a document: outside
one, any line but ``#begin document`` is an error naming its line.
``parse_conll`` collects what ``iter_conll`` yields into a ``CorpusSource``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .errors import ParseError, UnbalancedBracket
from .model import CorpusSource, Document, DocumentBuilder, Partition, Role

_BEGIN = re.compile(r"#begin document (.+)")
_END = "#end document"
_ITEM = re.compile(r"\((\d+)\)|\((\d+)|(\d+)\)")


def iter_conll(
    lines: Iterable[str], role: Role | str = Role.KEY
) -> Iterator[tuple[Document, Partition]]:
    """Yield one (Document, Partition) per ``#begin``/``#end`` block.

    A document id seen before is an error naming its ``#begin`` line.
    """
    role = Role(role)
    seen: set[str] = set()
    doc: DocumentBuilder | None = None
    stacks: dict[str, list[int]] = {}
    index = lineno = 0
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if doc is not None and line[0] != "#":
            coref = line.rsplit(None, 1)[-1]
            for item in () if coref == "-" else coref.split("|"):
                match = _ITEM.fullmatch(item)
                if match is None:
                    raise ParseError(f"bad coreference item {item!r}", line=lineno)
                unit, opened, closed = match.groups()
                if unit is not None:
                    doc.add(unit, (index, index), lineno)
                elif opened is not None:
                    stacks.setdefault(opened, []).append(index)
                elif stacks.get(closed):
                    doc.add(closed, (stacks[closed].pop(), index), lineno)
                else:
                    raise UnbalancedBracket(
                        f"close without open for chain {closed}", line=lineno
                    )
            index += 1
        elif doc is None:
            begin = _BEGIN.fullmatch(line)
            if begin is None:
                raise ParseError(f"expected #begin document, got {line!r}", line=lineno)
            doc = DocumentBuilder(begin.group(1), lineno, seen=seen)
            stacks, index = {}, 0
        elif line == _END:
            unclosed = sorted(cid for cid, stack in stacks.items() if stack)
            if unclosed:
                raise UnbalancedBracket(
                    f"chains never closed in document {doc.doc_id!r}: "
                    + ", ".join(unclosed),
                    line=lineno,
                )
            # Neither the builder and bracket stacks nor the document stay
            # referenced while the generator waits at its yield.
            finished, doc, stacks = [doc.finish(role, index)], None, {}
            yield finished.pop()
        elif _BEGIN.fullmatch(line):
            raise ParseError(
                f"#begin document inside document {doc.doc_id!r}", line=lineno
            )
    if doc is not None:
        raise ParseError(f"missing #end document for {doc.doc_id!r}", line=lineno)


def parse_conll(lines: Iterable[str], role: Role | str = Role.KEY) -> CorpusSource:
    """A whole CoNLL stream as a corpus: ``iter_conll``'s documents, checked."""
    return CorpusSource("conll", iter_conll(lines, role))
