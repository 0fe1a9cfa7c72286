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
``score`` reads the metrics and tallies off it, ``stratify`` scores its
per-stratum row projections and reads leakage, singleton detection and
the spurious count off its cells (``stratify_corpus`` degrades
require_named when no key mention in the corpus is named), and
``pathology`` scores it before and its projection onto every key row
after spurious-mention removal.  No partition is rebuilt on any of these
paths.

Counts are kept as one record per document, ``(doc_id, {label: counts})``,
and one reduction sorts the records by doc id, so floats add in one order
whatever the order of the pairs, then reduces each label (``score``;
``before`` and ``after``; each stratum present) over the documents that
have it.  Micro averaging sums each metric's numerators and denominators
before dividing; macro averaging takes the component-wise mean of
per-document triples (F1 is averaged directly, not recomputed from the
averaged recall and precision).  To score one document, pass a corpus of
one pair, ``[DocPair(key, response)]``, to ``score_corpus``,
``stratify_corpus`` or ``pathology_corpus``; the require_named degrade
then reads that document.
"""

from __future__ import annotations

import functools
import operator
import warnings
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .conll import iter_conll
from .errors import CorefEvalError, DocMismatch, ParseError
from .jsonl import iter_jsonl
from .metrics import (
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
    recall_deltas,
    table_counts,
    table_tallies,
    zero_counts,
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
    StratifiedReport,
    Stratum,
    StratumConfig,
    chain_strata,
    stratum_tables,
    table_leakage,
    table_singleton_detection,
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
            if key_doc.num_tokens == resp_doc.num_tokens:
                yield DocPair(key, resp)
            elif mismatch is None or doc_id < mismatch.doc_id:
                mismatch = DocMismatch(
                    f"document {doc_id!r} has {key_doc.num_tokens} tokens in the key "
                    f"but {resp_doc.num_tokens} in the response",
                    doc_id=doc_id,
                )
            del item, other, key_doc, key, resp_doc, resp
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


DocCounts = tuple[dict[MetricId, MetricCounts], dict[str, int]]


def _doc_counts(t: Overlap, wanted: tuple[MetricId, ...]) -> DocCounts:
    return table_counts(t, wanted), table_tallies(t)


def _average(
    counts: Sequence[MetricCounts], zero: MetricCounts, averaging: Averaging
) -> ScoreTriple:
    """Micro: one triple from the summed counts.  Macro: the mean triple."""
    if averaging is Averaging.MICRO:
        return functools.reduce(operator.add, counts, zero).triple()
    if not counts:
        return ZERO_TRIPLE
    triples = [c.triple() for c in counts]
    return ScoreTriple(*(sum(column) / len(triples) for column in zip(*triples)))


def _reduce(
    docs: list[tuple], labels: Iterable, wanted: tuple[MetricId, ...], averaging: Averaging
) -> dict:
    """One report per label from per-document records ``(doc_id, {label:
    counts}, ...)``, each label over the documents that have it; tallies
    always add up.  The records are sorted in place by doc id (equal ids keep
    their order), so every float, here and in the caller's own averages
    over them, adds in the same order on every run."""
    docs.sort(key=operator.itemgetter(0))
    reports = {}
    for label in labels:
        counts = [doc[1][label] for doc in docs if label in doc[1]]
        scores = {
            m: _average([c[m] for c, _ in counts], zero_counts(m), averaging)
            for m in wanted
        }
        tallies = {k: sum(t[k] for _, t in counts) for k in TALLY_KEYS}
        reports[label] = MetricReport(scores, _conll_avg(scores), tallies)
    return reports


def score_corpus(
    pairs: Iterable[DocPair],
    metrics: Optional[Iterable[MetricId | str]] = None,
    averaging: Averaging | str = Averaging.MICRO,
) -> MetricReport:
    """One report for a whole corpus under the chosen averaging."""
    wanted = normalize_metrics(metrics)
    docs = []
    for p in pairs:
        docs.append((p.key.doc_id, {"score": _doc_counts(overlap(*p), wanted)}))
        del p  # not held while the next pair is read
    return _reduce(docs, ["score"], wanted, Averaging(averaging))["score"]


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
    pending: list[tuple[dict[Stratum, DocCounts], Overlap, int]] = []
    docs: list[tuple[str, dict[Stratum, DocCounts], PRCounts]] = []
    leakage = spurious = 0
    for p in pairs:
        if not named and p.key.named:
            named, labelling = True, config
            for counts, secondary, extra_leakage in pending:
                del counts[Stratum.MAJOR]
                counts[Stratum.SECONDARY] = _doc_counts(secondary, wanted)
                leakage += extra_leakage
            pending = []
        t = overlap(p.key, p.response)
        labels = chain_strata(p.key, labelling)
        counts = {s: _doc_counts(u, wanted) for s, u in stratum_tables(t, labels).items()}
        doc_leakage = table_leakage(t, labels)
        if not named and Stratum.MAJOR in labels:
            strict = chain_strata(p.key, config)
            secondary = stratum_tables(t, strict)[Stratum.SECONDARY]
            pending.append((counts, secondary, table_leakage(t, strict) - doc_leakage))
        docs.append((p.key.doc_id, counts, table_singleton_detection(t)))
        leakage += doc_leakage
        spurious += t.spurious()
        del p, t  # not held while the next pair is read
    if not named:
        warnings.warn(
            "no key mention carries is_named; require_named degraded to false "
            "for this corpus",
            UserWarning,
            stacklevel=2,
        )
    present = [s for s in Stratum if any(s in doc[1] for doc in docs)]
    return StratifiedReport(
        per_stratum=_reduce(docs, present, wanted, averaging),
        singleton_detection=_average([d for *_, d in docs], PRCounts(), averaging),
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
    docs = []
    for p in pairs:
        t = overlap(p.key, p.response)
        before = _doc_counts(t, wanted)
        t = t.project(range(len(t.rows)))
        docs.append((p.key.doc_id, {"before": before, "after": _doc_counts(t, wanted)}))
        del p, t  # not held while the next pair is read
    before, after = _reduce(docs, ["before", "after"], wanted, averaging).values()
    return PathologyReport(
        before, after, recall_deltas(before, after), before.counts["response_spurious"]
    )


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
