"""Corpus profile statistics and the rank-size Zipf diagnostic.

``num_chains`` counts non-singleton chains only; singletons are tallied
separately, and both mentions-per-chain ratios are emitted so either
reading of "chain" is inspectable.  The rank-size series lists every
chain (singletons included) by descending size, which is the
plottable-series path; ``zipf_fit`` measures log-log straightness with
ordinary least squares.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import EmptySeries, ModelError
from .model import Document, Partition


@dataclass(frozen=True)
class CorpusStats:
    """Aggregate counts over a corpus.

    Ratios are None when their denominator is zero.
    ``mentions_per_chain_incl``   = mentions / (chains + singletons)
    ``mentions_per_chain_excl``   = (mentions - singletons) / chains
    """

    num_mentions: int
    num_chains: int
    num_singletons: int
    num_tokens: int
    mentions_per_chain_incl: Optional[float]
    mentions_per_chain_excl: Optional[float]
    length_histogram: Mapping[int, int]
    rank_size: tuple[tuple[int, int], ...]


def compute_stats(docs: Iterable[tuple[Document, Partition]]) -> CorpusStats:
    """Aggregate counts over all documents; additive under concatenation."""
    entries: list[tuple[int, str, str]] = []
    histogram: Counter = Counter()
    num_tokens = 0
    for doc, part in sorted(docs, key=lambda pair: pair[0].doc_id):
        num_tokens += doc.num_tokens
        for chain in part.chains:
            histogram[len(chain)] += 1
            entries.append((len(chain), doc.doc_id, chain.chain_id))
    num_singletons = histogram.get(1, 0)
    total_chains = sum(histogram.values())
    num_nonsingleton = total_chains - num_singletons
    num_mentions = sum(size * count for size, count in histogram.items())
    incl = num_mentions / total_chains if total_chains else None
    excl = (num_mentions - num_singletons) / num_nonsingleton if num_nonsingleton else None
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    rank_size = tuple((rank, size) for rank, (size, _, _) in enumerate(entries, 1))
    return CorpusStats(
        num_mentions=num_mentions,
        num_chains=num_nonsingleton,
        num_singletons=num_singletons,
        num_tokens=num_tokens,
        mentions_per_chain_incl=incl,
        mentions_per_chain_excl=excl,
        length_histogram=dict(sorted(histogram.items())),
        rank_size=rank_size,
    )


def rank_size_series(stats: CorpusStats) -> list[tuple[int, int]]:
    """Chains by descending size with ranks from 1; ties broken by ids."""
    return list(stats.rank_size)


@dataclass(frozen=True)
class ZipfFit:
    """OLS fit of log(size) against log(rank).

    ``r_squared`` is None when it is undefined: a single point, or zero
    size variance (nothing to explain).
    """

    slope: float
    intercept: float
    r_squared: Optional[float]
    n_points: int


def zipf_fit(series: Sequence[tuple[float, float]]) -> ZipfFit:
    """Least-squares straightness diagnostic in log-log space.

    Sizes need not be integers (a generated law can be fitted before
    rounding), but every rank and size must be at least 1.
    """
    points = list(series)
    if not points:
        raise EmptySeries("zipf fit needs at least one (rank, size) point")
    for rank, size in points:
        if rank < 1 or size < 1:
            raise ModelError(f"rank and size must be >= 1, got ({rank}, {size})")
    if len(points) == 1:
        return ZipfFit(0.0, math.log(points[0][1]), None, 1)
    import numpy as np  # here only, so commands other than stats never load it

    x = np.log([rank for rank, _ in points])
    y = np.log([size for _, size in points])
    x_mean, y_mean = float(x.mean()), float(y.mean())
    sxx = float(((x - x_mean) ** 2).sum())
    sxy = float(((x - x_mean) * (y - y_mean)).sum())
    slope = sxy / sxx if sxx else 0.0
    intercept = y_mean - slope * x_mean
    ss_tot = float(((y - y_mean) ** 2).sum())
    if ss_tot == 0.0:
        return ZipfFit(slope, intercept, None, len(points))
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    r_squared = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return ZipfFit(slope, intercept, r_squared, len(points))


@dataclass(frozen=True)
class StatsReport:
    """Bundle emitted by the stats command.

    ``series`` is the rank-size series actually emitted and fitted; with
    ``exclude_singletons`` it is the non-singleton prefix of the full
    series (ranks are unchanged because singletons occupy the tail of the
    descending sort).  ``fit`` is None when the series is empty.
    """

    stats: CorpusStats
    series: tuple[tuple[int, int], ...]
    fit: Optional[ZipfFit]
    exclude_singletons: bool


def stats_report(
    docs: Iterable[tuple[Document, Partition]], exclude_singletons: bool = False
) -> StatsReport:
    stats = compute_stats(docs)
    series = stats.rank_size
    if exclude_singletons:
        series = tuple(p for p in series if p[1] > 1)
    fit = zipf_fit(series) if series else None
    return StatsReport(stats, series, fit, exclude_singletons)
