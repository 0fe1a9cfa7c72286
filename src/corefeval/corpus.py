"""Corpus-level pairing, scoring, stratification, and pathology runs.

Key and response corpora are paired by doc_id; a document present on one
side only, or with disagreeing token counts, raises DocMismatch rather
than silently distorting scores.  Pairs are processed in sorted doc_id
order, so float accumulation is reproducible run to run.

Each document pair gets exactly one overlap table (``metrics.overlap``),
built when the pair is reached and dropped once its counts are taken:
``score`` reads the metrics and tallies off it, ``stratify`` scores its
per-stratum row projections and reads leakage, singleton detection and
the spurious count off its cells, and ``pathology`` scores it before and
its projection onto every key row after spurious-mention removal.  No
partition is rebuilt on any of these paths.

Micro averaging sums each metric's numerators and denominators across
documents before dividing; macro averaging takes the component-wise
arithmetic mean of per-document triples (F1 is averaged directly, not
recomputed from the averaged recall and precision).  Both averagings go
through one reducer, for whole reports and for each stratum alike.
Scoring one document is scoring a corpus of one pair: ``score_all``,
``stratified_score`` and ``pathology`` are thin calls into this path.
Scoring functions are pure, so documents could be scored concurrently and
reduced; this module keeps the reduction sequential and deterministic.
"""

from __future__ import annotations

import functools
import operator
import warnings
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .conll import parse_conll
from .errors import DocMismatch, ParseError
from .jsonl import parse_jsonl
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
    Partition,
    Role,
    ScoreTriple,
    SourceFormat,
    ZERO_TRIPLE,
    check_same_doc,
    checked_tuple,
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


class DocPair(checked_tuple("DocPair", "key response")):
    """The key and response partitions of one document."""

    __slots__ = ()

    def __new__(cls, key: Partition, response: Partition):
        check_same_doc(key, response)
        return super().__new__(cls, key, response)


def pair_corpora(
    key_source: CorpusSource, response_source: CorpusSource
) -> tuple[DocPair, ...]:
    """Align two corpora by doc_id, sorted; loud failure on any mismatch."""
    key_docs = {doc.doc_id: (doc, part) for doc, part in key_source.documents}
    resp_docs = {doc.doc_id: (doc, part) for doc, part in response_source.documents}
    key_only = sorted(key_docs.keys() - resp_docs.keys())
    resp_only = sorted(resp_docs.keys() - key_docs.keys())
    if key_only or resp_only:
        parts = []
        if key_only:
            parts.append("only in key: " + ", ".join(key_only))
        if resp_only:
            parts.append("only in response: " + ", ".join(resp_only))
        raise DocMismatch(
            "unpaired documents (" + "; ".join(parts) + ")",
            doc_id=(key_only + resp_only)[0],
        )
    pairs = []
    for doc_id in sorted(key_docs):
        key_doc, key_part = key_docs[doc_id]
        resp_doc, resp_part = resp_docs[doc_id]
        if key_doc.num_tokens != resp_doc.num_tokens:
            raise DocMismatch(
                f"document {doc_id!r} has {key_doc.num_tokens} tokens in the key "
                f"but {resp_doc.num_tokens} in the response",
                doc_id=doc_id,
            )
        pairs.append(DocPair(key_part, resp_part))
    return tuple(pairs)


def _sorted(pairs: Iterable[DocPair]) -> list[DocPair]:
    return sorted(pairs, key=lambda p: p.key.doc_id)


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
    n = len(triples)
    return ScoreTriple(
        sum(t.recall for t in triples) / n,
        sum(t.precision for t in triples) / n,
        sum(t.f1 for t in triples) / n,
    )


def _reduce(
    docs: Sequence[DocCounts], wanted: tuple[MetricId, ...], averaging: Averaging
) -> MetricReport:
    """One report from per-document counts; tallies always add up."""
    scores = {
        m: _average([counts[m] for counts, _ in docs], zero_counts(m), averaging)
        for m in wanted
    }
    tallies = {k: sum(t[k] for _, t in docs) for k in TALLY_KEYS}
    return MetricReport(scores, _conll_avg(scores), tallies)


def score_corpus(
    pairs: Iterable[DocPair],
    metrics: Optional[Iterable[MetricId | str]] = None,
    averaging: Averaging | str = Averaging.MICRO,
) -> MetricReport:
    """One report for a whole corpus under the chosen averaging."""
    wanted = normalize_metrics(metrics)
    docs = [_doc_counts(overlap(p.key, p.response), wanted) for p in _sorted(pairs)]
    return _reduce(docs, wanted, Averaging(averaging))


def score_all(
    key: Partition,
    response: Partition,
    metrics: Optional[Iterable[MetricId | str]] = None,
) -> MetricReport:
    """All requested metrics side by side, plus the CoNLL average and counts."""
    return score_corpus([DocPair(key, response)], metrics)


def effective_stratum_config(
    pairs: Iterable[DocPair], config: StratumConfig
) -> StratumConfig:
    """Degrade require_named when no key mention in the corpus is named."""
    if not config.require_named:
        return config
    if any(p.key.named for p in pairs):
        return config
    warnings.warn(
        "no key mention carries is_named; require_named degraded to false "
        "for this corpus",
        UserWarning,
        stacklevel=2,
    )
    return config._replace(require_named=False)


def stratify_corpus(
    pairs: Iterable[DocPair],
    config: StratumConfig = StratumConfig(),
    metrics: Optional[Iterable[MetricId | str]] = None,
    averaging: Averaging | str = Averaging.MICRO,
) -> StratifiedReport:
    """Corpus-wide stratified report; strata accumulate across documents."""
    pairs = _sorted(pairs)
    config = effective_stratum_config(pairs, config)
    return _stratified(pairs, config, metrics, Averaging(averaging))


def _stratified(
    pairs: Sequence[DocPair],
    config: StratumConfig,
    metrics: Optional[Iterable[MetricId | str]],
    averaging: Averaging,
) -> StratifiedReport:
    """Stratified report under ``config`` as given; macro averages each
    stratum over the documents that have it."""
    wanted = normalize_metrics(metrics)
    strata: dict[Stratum, list[DocCounts]] = {}
    detection = []
    leakage = spurious = 0
    for p in pairs:
        t = overlap(p.key, p.response)
        labels = chain_strata(p.key, config)
        for stratum, projected in stratum_tables(t, labels).items():
            strata.setdefault(stratum, []).append(_doc_counts(projected, wanted))
        detection.append(table_singleton_detection(t))
        leakage += table_leakage(t, labels)
        spurious += t.spurious()
    return StratifiedReport(
        per_stratum={
            s: _reduce(strata[s], wanted, averaging) for s in Stratum if s in strata
        },
        singleton_detection=_average(detection, PRCounts(), averaging),
        leakage=leakage,
        config=config,
        spurious_mentions=spurious,
    )


def stratified_score(
    key: Partition,
    response: Partition,
    config: StratumConfig = StratumConfig(),
    metrics: Optional[Iterable[MetricId | str]] = None,
) -> StratifiedReport:
    """Score each stratum of one document; ``config`` applies as given,
    without the corpus-level require_named degrade."""
    return _stratified([DocPair(key, response)], config, metrics, Averaging.MICRO)


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
    docs_before, docs_after = [], []
    for p in _sorted(pairs):
        t = overlap(p.key, p.response)
        docs_before.append(_doc_counts(t, wanted))
        docs_after.append(_doc_counts(t.project(range(len(t.rows))), wanted))
    before = _reduce(docs_before, wanted, averaging)
    after = _reduce(docs_after, wanted, averaging)
    return PathologyReport(
        before, after, recall_deltas(before, after), before.counts["response_spurious"]
    )


def pathology(
    key: Partition,
    response: Partition,
    metrics: Optional[Iterable[MetricId | str]] = None,
) -> PathologyReport:
    """Score, strip spurious response mentions, rescore, and report deltas."""
    return pathology_corpus([DocPair(key, response)], metrics)


def corpus_stats_report(
    source: CorpusSource, exclude_singletons: bool = False
) -> StatsReport:
    return stats_report(source.documents, exclude_singletons)


def load_corpus(
    path: str | Path, fmt: SourceFormat | str, role: Role | str
) -> CorpusSource:
    """Read and parse one corpus file in the given format."""
    parse = parse_conll if SourceFormat(fmt) is SourceFormat.CONLL else parse_jsonl
    # utf-8-sig skips a leading byte-order mark, as editors on Windows write.
    with open(path, encoding="utf-8-sig") as stream:
        try:
            return parse(stream, role)
        except UnicodeDecodeError as exc:
            line = _undecodable_line(path)
            raise ParseError(f"invalid UTF-8 ({exc.reason})", line=line) from None


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
