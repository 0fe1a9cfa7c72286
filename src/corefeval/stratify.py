"""Stratified evaluation: major / secondary / singleton chain classes.

Key chains are classified by length and (optionally) the presence of a
named mention; the response is projected onto each stratum's mention set
and scored there.  Cross-stratum confusion that projection hides is
surfaced separately as the leakage count: response chains whose key
mentions straddle two or more strata.  Response mentions absent from the
key belong to no stratum; their count is reported alongside.

``chain_strata`` labels each key chain, in table row order, and
``split_table``, the package's only table projection (pathology gives all
rows one label), reads the rest off one walk of the rows, grouped by the
labels.  ``stratum_pairs`` cuts the same strata out of both partitions as
spans (``model._slice``), the reference the table path is tested against.
``corpus.stratify_corpus`` degrades require_named on an unnamed key, the CLI
up front on a CoNLL key, which carries no names; both warn ``NAMELESS_KEY``.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .errors import ModelError
from .metrics import MetricReport, Overlap, PRCounts
from .model import Partition, ScoreTriple, _slice, check_same_doc, checked_tuple

NAMELESS_KEY = (
    "no key mention carries is_named; require_named degraded to false for this corpus"
)


class Stratum(str, Enum):
    MAJOR = "major"
    SECONDARY = "secondary"
    SINGLETON = "singleton"


class StratumConfig(checked_tuple("StratumConfig", "long_threshold require_named")):
    """Classification knobs.

    A chain is major when its size reaches ``long_threshold`` and, if
    ``require_named`` is set, at least one mention carries is_named.
    """

    __slots__ = ()

    def __new__(cls, long_threshold: int = 10, require_named: bool = True):
        if long_threshold < 2:
            raise ModelError(f"long_threshold must be >= 2, got {long_threshold}")
        return super().__new__(cls, long_threshold, require_named)


def _stratum(size: int, named: bool, config: StratumConfig) -> Stratum:
    if size == 1:
        return Stratum.SINGLETON
    if size >= config.long_threshold and (not config.require_named or named):
        return Stratum.MAJOR
    return Stratum.SECONDARY


def chain_strata(key: Partition, config: StratumConfig) -> list[Stratum]:
    """The stratum of every key chain, in canonical chain (table row) order."""
    named = key.named
    return [
        _stratum(len(spans), bool(named) and not named.isdisjoint(spans), config)
        for spans in key.spans
    ]


class StratifiedReport(NamedTuple):
    """Per-stratum scores plus the cross-stratum diagnostics.

    ``per_stratum`` contains only strata with at least one key chain.
    ``config`` is the configuration actually applied (it may differ from
    the requested one when require_named degrades on an unnamed corpus).
    ``spurious_mentions`` counts response mentions outside every stratum.
    """

    per_stratum: Mapping[Stratum, MetricReport]
    singleton_detection: ScoreTriple
    leakage: int
    config: StratumConfig
    spurious_mentions: int


def stratum_pairs(
    key: Partition, response: Partition, config: StratumConfig
) -> dict[Stratum, tuple[Partition, Partition]]:
    """Per-stratum (key slice, projected response) pairs, non-empty strata only."""
    check_same_doc(key, response)
    labels = chain_strata(key, config)
    out: dict[Stratum, tuple[Partition, Partition]] = {}
    for stratum in Stratum:
        keep = set().union(*(s for s, label in zip(key.spans, labels) if label is stratum))
        if keep:
            out[stratum] = (_slice(key, keep), _slice(response, keep))
    return out


def split_table(t: Overlap, labels: Sequence) -> tuple[dict, int, PRCounts, int]:
    """One walk of the rows, row i labelled ``labels[i]``, gives the table's
    projection for each label that has rows (in first-row order; it scores
    as the ``stratum_pairs`` slice does), the leakage (columns with cells in
    rows of two or more labels), singleton detection (key singletons whose
    one cell lies in a response singleton, over both singleton counts) and
    the total of the cells.  A projection keeps its rows and the columns
    with cells in them, sized by those cells, all in table order."""
    groups: dict = {}  # label: (its rows, their column sums)
    found = 0
    for i, (label, n, row) in enumerate(zip(labels, t.key_sizes, t.rows)):
        if label not in groups:
            groups[label] = ([], [0] * len(t.response_sizes))
        rows, sums = groups[label]
        rows.append(i)
        for j, v in row.items():
            sums[j] += v
        if n == 1 and row:  # j is the one cell of a key singleton's row
            found += t.response_sizes[j] == 1
    tables = {}
    for label, (rows, sums) in groups.items():  # tuples from lists: see overlap()
        index = {j: k for k, j in enumerate(j for j, total in enumerate(sums) if total)}
        cut = tuple([{index[j]: v for j, v in t.rows[i].items()} for i in rows])
        keys = tuple([t.key_sizes[i] for i in rows])
        tables[label] = Overlap(keys, tuple([*filter(None, sums)]), cut)
    column_sums = [sums for _, sums in groups.values()]
    return (
        tables,
        sum(sum(map(bool, column)) >= 2 for column in zip(*column_sums)),
        PRCounts(found, t.key_sizes.count(1), found, t.response_sizes.count(1)),
        sum(map(sum, column_sums)),
    )
