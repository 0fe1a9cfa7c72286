"""Corpus-level pairing, scoring, stratification, and pathology runs.

Key and response corpora are paired by doc_id; a document present on one
side only, or with disagreeing token counts, raises DocMismatch rather
than silently distorting scores, and so does a ``DocPair`` whose two
sides name different documents, when ``metrics.overlap`` builds its table.

Both sides are streamed: ``read_corpus`` parses a file one document at a
time and ``pair_documents`` pairs each document as soon as its partner
arrives, so memory holds the pair being scored, documents still waiting
for a partner and small per-document counts, but no pair already scored
(``pair_corpora`` is the materialised form).

Each document pair gets exactly one overlap table (``metrics.overlap``),
built when the pair is reached and dropped once its counts are taken:
``score`` reads the metrics and tallies off it, ``stratify`` its
per-stratum projections, leakage, singleton detection and spurious count
off one walk of its labelled rows (``stratify.split_table``), and
``pathology`` scores it before and its projection onto every key row after
spurious-mention removal.  No partition is rebuilt on any of these paths.

Each document's counts are one flat record per report label (``score``;
``before`` and ``after``; each stratum present), each metric's fields then
the tallies (``_doc_counts``), kept as columns: per label a list of doc
ids and an array per field, 'q' for an int and 'd' for a float.  Each
column is read in doc-id order, so floats add in one order whatever the
order of the pairs, and summed left to right from 0 (``_ordered``).  The
tallies are those sums; micro averaging scores the triples of the summed
fields, macro averaging takes the mean of each document's triples as they
come (F1 too, not recomputed from the means), both through ``_mean``.
To score one document, pass a corpus of one pair, ``[DocPair(key,
response)]``, to ``score_corpus``, ``stratify_corpus`` or
``pathology_corpus``; the require_named degrade then reads that document.
"""

from __future__ import annotations

import itertools
import operator
import warnings
from array import array
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional

from .conll import iter_conll
from .errors import CorefEvalError, DocMismatch, ParseError
from .jsonl import iter_jsonl
from .metrics import (
    BlancCounts,
    MetricCounts,
    MetricId,
    MetricReport,
    Overlap,
    PathologyReport,
    PRCounts,
    TALLY_KEYS,
    _conll_avg,
    normalize_metrics,
    overlap,
    table_counts,
    table_tallies,
)
from .model import (
    CorpusSource,
    Document,
    Partition,
    Role,
    ScoreTriple,
    SourceFormat,
    ZERO_TRIPLE,
)
from .stats import StatsReport, stats_report
from .stratify import (
    NAMELESS_KEY,
    StratifiedReport,
    Stratum,
    StratumConfig,
    chain_strata,
    split_table,
)

# The partition-building counterparts of the table path, which bench/layers.py
# looks up on this module to time them; nothing here calls them.
from .metrics import partition_tallies, remove_spurious  # noqa: F401
from .stratify import stratum_pairs  # noqa: F401


class Averaging(str, Enum):
    MICRO = "micro"
    MACRO = "macro"


class DocPair(NamedTuple):
    """The key and response partitions of one document; ``metrics.overlap``,
    which every scoring path builds, checks that their doc ids agree.  A
    list of one pair is the corpus that scores one document."""

    key: Partition
    response: Partition


def read_corpus(
    path: str | Path, fmt: SourceFormat | str, role: Role | str
) -> Iterator[tuple[Document, Partition]]:
    """Stream one corpus file's documents; an error names ``path`` first."""
    parse = iter_conll if SourceFormat(fmt) is SourceFormat.CONLL else iter_jsonl
    try:
        # utf-8-sig skips a leading byte-order mark, as editors on Windows write.
        with open(path, encoding="utf-8-sig") as stream:
            try:
                yield from parse(stream, role)
            except UnicodeDecodeError as exc:
                line = _undecodable_line(path)
                raise ParseError(f"invalid UTF-8 ({exc.reason})", line=line) from None
    except CorefEvalError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def pair_documents(
    key_docs: Iterable[tuple[Document, Partition]],
    response_docs: Iterable[tuple[Document, Partition]],
) -> Iterator[DocPair]:
    """Pair the two sides by doc_id as they are read, one document from
    each in turn; only a document still waiting for its partner is held.

    Once both are read, unpaired ids raise DocMismatch, all of them named;
    failing that, the smallest id whose token counts disagree does.
    """
    waiting: tuple[dict, dict] = ({}, {})
    mismatch: Optional[DocMismatch] = None
    # Not zip_longest: its reused result tuple keeps the last pair referenced.
    streams = {0: iter(key_docs), 1: iter(response_docs)}
    while streams:
        for side in list(streams):
            item = next(streams[side], None)
            if item is None:
                del streams[side]
                continue
            doc_id = item[0].doc_id
            if doc_id not in waiting[1 - side]:
                waiting[side][doc_id] = item
                continue
            other = waiting[1 - side].pop(doc_id)
            (key_doc, key), (resp_doc, resp) = (other, item) if side else (item, other)
            same = key_doc.num_tokens == resp_doc.num_tokens
            pair = [DocPair(key, resp)] if same else []
            del item, other, key, resp  # popped as it is yielded: no name holds the pair
            if same:
                yield pair.pop()
            elif mismatch is None or doc_id < mismatch.doc_id:
                mismatch = DocMismatch(
                    f"document {doc_id!r} has {key_doc.num_tokens} tokens in the key "
                    f"but {resp_doc.num_tokens} in the response",
                    doc_id=doc_id,
                )
    unpaired = [
        f"only in {side}: " + ", ".join(sorted(ids))
        for side, ids in zip(("key", "response"), waiting)
        if ids
    ]
    if unpaired:
        raise DocMismatch(
            "unpaired documents (" + "; ".join(unpaired) + ")",
            doc_id=min(waiting[0] or waiting[1]),
        )
    if mismatch is not None:
        raise mismatch


def pair_corpora(
    key_source: CorpusSource, response_source: CorpusSource
) -> tuple[DocPair, ...]:
    """Align two corpora by doc_id, sorted; loud failure on any mismatch."""
    pairs = pair_documents(key_source.documents, response_source.documents)
    return tuple(sorted(pairs, key=lambda p: p.key.doc_id))


def _doc_counts(t: Overlap, wanted: tuple[MetricId, ...]) -> tuple:
    """A flat record: each metric's fields (BLANC's coref first), then tallies;
    ``_counts`` gives one metric's counts back from its slice."""
    fields = []
    for c in table_counts(t, wanted).values():
        fields += (*c.coref, *c.noncoref) if isinstance(c, BlancCounts) else c
    return (*fields, *operator.itemgetter(*TALLY_KEYS)(table_tallies(t)))


def _counts(metric: MetricId, fields: tuple) -> MetricCounts:
    if metric is MetricId.BLANC:
        return BlancCounts(PRCounts(*fields[:4]), PRCounts(*fields[4:]))
    return PRCounts(*fields)


def _append(columns: dict, doc_id: str, records: dict) -> None:
    """Add each ``{label: fields}`` record to that label's columns: the doc id
    to a list, each field to an array, 'd' for a float and 'q' for an int."""
    for label, fields in records.items():
        if label not in columns:
            columns[label] = [], [array("d" if type(v) is float else "q") for v in fields]
        ids, cols = columns[label]
        ids.append(doc_id)
        for column, v in zip(cols, fields):
            column.append(v)


def _ordered(columns: dict, label, width: int, micro: bool) -> list:
    """``label``'s columns (``width`` empty ones if none), each read once in
    doc-id order, or under ``micro`` its one sum, left to right from 0 (sum()
    compensates floats since 3.12): zipped, they give the rows to score."""
    ids, cols = columns.get(label) or ([], [array("q")] * width)
    order = sorted(range(len(ids)), key=ids.__getitem__)  # equal ids keep their order
    cols = [map(column.__getitem__, order) for column in cols]
    return [[reduce(operator.add, column, 0)] for column in cols] if micro else cols


def _mean(triples: Iterable[ScoreTriple]) -> ScoreTriple:
    """The mean of the triples, each component added left to right from 0
    (not as a running tuple: its resized copies fill the tuple free list)."""
    n = recall = precision = f1 = 0
    for r, p, f in triples:
        n, recall, precision, f1 = n + 1, recall + r, precision + p, f1 + f
    return ScoreTriple(recall / n, precision / n, f1 / n) if n else ZERO_TRIPLE


def _reduce(
    columns: dict, labels: Iterable, wanted: tuple[MetricId, ...], averaging: Averaging
) -> dict:
    """One report per label from its columns, over the documents that have
    it: micro scores the summed counts, macro takes the mean of each
    document's triples, in doc-id order; tallies always add up."""
    ends = [0, *itertools.accumulate(8 if m is MetricId.BLANC else 4 for m in wanted)]
    micro = averaging is Averaging.MICRO
    reports = {}
    for label in labels:
        cols = _ordered(columns, label, ends[-1] + len(TALLY_KEYS), micro)
        scores = {
            m: _mean(_counts(m, row).triple() for row in zip(*cols[a:b]))
            for m, a, b in zip(wanted, ends, ends[1:])
        }
        tallies = dict(zip(TALLY_KEYS, map(sum, cols[ends[-1]:])))
        reports[label] = MetricReport(scores, _conll_avg(scores), tallies)
    return reports


def score_corpus(
    pairs: Iterable[DocPair],
    metrics: Optional[Iterable[MetricId | str]] = None,
    averaging: Averaging | str = Averaging.MICRO,
) -> MetricReport:
    """One report for a whole corpus under the chosen averaging."""
    wanted = normalize_metrics(metrics)
    columns: dict = {}
    for p in pairs:
        doc_id, t = p.key.doc_id, overlap(*p)
        del p  # tabled: neither partition is held while the table is scored
        _append(columns, doc_id, {"score": _doc_counts(t, wanted)})
        del t  # not held while the next pair is read
    return _reduce(columns, ["score"], wanted, Averaging(averaging))["score"]


def stratify_corpus(
    pairs: Iterable[DocPair],
    config: StratumConfig = StratumConfig(),
    metrics: Optional[Iterable[MetricId | str]] = None,
    averaging: Averaging | str = Averaging.MICRO,
) -> StratifiedReport:
    """Corpus-wide stratified report; strata accumulate across documents,
    and macro averages each stratum over the documents that have it.  With
    no named key mention in the corpus, require_named degrades, with a
    warning, and the report's ``config`` says so."""
    wanted = normalize_metrics(metrics)
    averaging = Averaging(averaging)
    # Until a named key span turns up, label as if require_named degraded; a
    # document with a major chain keeps its secondary table and extra leakage
    # under ``config``, scored if a named span turns up and dropped if not.
    named = not config.require_named
    labelling = config._replace(require_named=False)
    pending: list[tuple[str, dict, Overlap, int]] = []
    columns: dict = {}  # each stratum's, and singleton detection's under None
    leakage = spurious = 0
    for p in pairs:
        if not named and p.key.named:
            named, labelling = True, config
            for doc_id, counts, secondary, extra_leakage in pending:
                del counts[Stratum.MAJOR]
                counts[Stratum.SECONDARY] = _doc_counts(secondary, wanted)
                _append(columns, doc_id, counts)
                leakage += extra_leakage
            pending = []
        doc_id, labels = p.key.doc_id, chain_strata(p.key, labelling)
        # Strict labels, which differ only for a major chain, read the key: now.
        strict = None
        if not named and Stratum.MAJOR in labels:
            strict = chain_strata(p.key, config)
        t = overlap(*p)
        del p  # tabled: neither partition is held while the table is scored
        tables, doc_leakage, detection, cells = split_table(t, labels)
        counts = {s: _doc_counts(u, wanted) for s, u in tables.items()}
        counts[None] = detection
        if strict is not None:
            tables, leaks = split_table(t, strict)[:2]
            extra = (tables[Stratum.SECONDARY], leaks - doc_leakage)
            pending.append((doc_id, counts, *extra))
        else:
            _append(columns, doc_id, counts)
        leakage += doc_leakage
        spurious += sum(t.response_sizes) - cells
        del t, tables  # not held while the next pair is read
    if not named:
        warnings.warn(NAMELESS_KEY, UserWarning, stacklevel=2)
    for doc_id, counts, *_ in pending:  # no name seen: the degraded records stand
        _append(columns, doc_id, counts)
    present = [s for s in Stratum if s in columns]
    detection = zip(*_ordered(columns, None, 4, averaging is Averaging.MICRO))
    return StratifiedReport(
        per_stratum=_reduce(columns, present, wanted, averaging),
        singleton_detection=_mean(PRCounts(*row).triple() for row in detection),
        leakage=leakage,
        config=labelling,
        spurious_mentions=spurious,
    )


def pathology_corpus(
    pairs: Iterable[DocPair],
    metrics: Optional[Iterable[MetricId | str]] = None,
    averaging: Averaging | str = Averaging.MICRO,
) -> PathologyReport:
    """Corpus-level before/after comparison around spurious-mention removal.

    "After" scores each table projected onto all its key rows, which is
    the table of the response with every non-key mention removed
    (``remove_spurious``).
    """
    wanted = normalize_metrics(metrics)
    averaging = Averaging(averaging)
    columns: dict = {}
    for p in pairs:
        doc_id, t = p.key.doc_id, overlap(*p)
        del p  # tabled: neither partition is held while the table is scored
        before = _doc_counts(t, wanted)
        t = split_table(t, [None] * len(t.rows))[0].get(None, Overlap((), (), ()))
        after = _doc_counts(t, wanted)
        _append(columns, doc_id, {"before": before, "after": after})
        del t  # not held while the next pair is read
    before, after = _reduce(columns, ["before", "after"], wanted, averaging).values()
    deltas = {m: after.scores[m].recall - before.scores[m].recall for m in wanted}
    return PathologyReport(before, after, deltas, before.counts["response_spurious"])


def corpus_stats_report(
    source: CorpusSource, exclude_singletons: bool = False
) -> StatsReport:
    return stats_report(source.documents, exclude_singletons)


def _undecodable_line(path: str | Path) -> Optional[int]:
    """The first line that is not valid UTF-8: the text reader decodes
    whole blocks, so its error does not say which line held the bad bytes."""
    with open(path, "rb") as stream:
        for lineno, raw in enumerate(stream, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None
