"""Stratified evaluation: major / secondary / singleton chain classes.

Key chains are classified by length and (optionally) the presence of a
named mention; the response is projected onto each stratum's mention set
and scored there.  Cross-stratum confusion that projection hides is
surfaced separately as the leakage count: response chains whose key
mentions straddle two or more strata.  Response mentions absent from the
key belong to no stratum; their count is reported alongside.

Everything here derives from the document's one overlap table: a
stratum is the projection of the table onto its key rows
(``stratum_tables``), and leakage and singleton detection read the
table's cells.  ``stratum_pairs`` builds the same strata as partitions;
it is the reference the table path is tested against.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .errors import ModelError
from .metrics import MetricReport, Overlap, PRCounts
from .model import Chain, Partition, ScoreTriple, check_same_doc, checked_tuple
from .model import project


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


def stratify(
    key: Partition, config: StratumConfig
) -> dict[Stratum, frozenset[Chain]]:
    """Classify every key chain; the three sets partition key.chains."""
    labels = chain_strata(key, config)
    return {s: frozenset(c for c, x in zip(key.chains, labels) if x is s) for s in Stratum}


def table_singleton_detection(t: Overlap) -> PRCounts:
    """Key singletons whose one cell lands in a response singleton, over
    the key and the response singleton counts."""
    found = sum(
        1
        for n, row in zip(t.key_sizes, t.rows)
        if n == 1 and any(t.response_sizes[j] == 1 for j in row)
    )
    return PRCounts(found, t.key_sizes.count(1), found, t.response_sizes.count(1))


def table_leakage(t: Overlap, strata: Sequence[Stratum]) -> int:
    """Response columns with cells in rows of two or more strata.

    ``strata`` labels the table's rows.  Response-only mentions lie in no
    cell, so they carry no stratum label and are ignored here.
    """
    seen: list[set[Stratum]] = [set() for _ in t.response_sizes]
    for stratum, row in zip(strata, t.rows):
        for j in row:
            seen[j].add(stratum)
    return sum(len(labels) >= 2 for labels in seen)


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
    out: dict[Stratum, tuple[Partition, Partition]] = {}
    for stratum, chains in stratify(key, config).items():
        if not chains:
            continue
        key_slice = Partition(key.doc_id, chains, key.role)
        resp_slice = project(response, key_slice.mention_set)
        out[stratum] = (key_slice, resp_slice)
    return out


def stratum_tables(t: Overlap, strata: Sequence[Stratum]) -> dict[Stratum, Overlap]:
    """Per-stratum projections of the table, non-empty strata only.

    ``strata`` labels the table's rows; the result scores exactly as the
    ``stratum_pairs`` slices of the same document do.
    """
    out: dict[Stratum, Overlap] = {}
    for stratum in Stratum:
        rows = [i for i, s in enumerate(strata) if s is stratum]
        if rows:
            out[stratum] = t.project(rows)
    return out
