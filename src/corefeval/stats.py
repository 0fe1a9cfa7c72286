"""Corpus profile statistics and the rank-size Zipf diagnostic.

``stats_report`` builds the one record the stats command prints; its
fields are its JSON keys.  ``num_chains`` counts non-singleton chains
only; singletons are tallied separately, and both mentions-per-chain
ratios are emitted so either reading of "chain" is inspectable.  The
rank-size series lists every chain by descending size (without the
singletons, its tail, under ``exclude_singletons``), a view of the sorted
size histogram (``RankSize``); ``zipf_fit`` measures its log-log
straightness with ordinary least squares, every sum exactly rounded
(``math.fsum``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, groupby, repeat
from operator import add, eq, itemgetter, mul, sub
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import EmptySeries, ModelError
from .model import Document, Partition


class StatsReport(NamedTuple):
    """Aggregate counts over a corpus, as the stats command emits them.

    Ratios are None when their denominator is zero.
    ``mentions_per_chain_incl``   = mentions / (chains + singletons)
    ``mentions_per_chain_excl``   = (mentions - singletons) / chains

    ``rank_size`` is the series that is emitted and fitted; with
    ``exclude_singletons`` it stops before the singletons, and the other
    chains keep their ranks because singletons occupy the tail of the
    descending sort.  The counts still see every chain.  ``zipf_fit`` is
    None when the series is empty.
    """

    num_mentions: int
    num_chains: int
    num_singletons: int
    num_tokens: int
    mentions_per_chain_incl: Optional[float]
    mentions_per_chain_excl: Optional[float]
    length_histogram: Mapping[int, int]
    rank_size: RankSize
    zipf_fit: Optional[ZipfFit]
    exclude_singletons: bool


def stats_report(
    docs: Iterable[tuple[Document, Partition]], exclude_singletons: bool = False
) -> StatsReport:
    """Aggregate counts over all documents; additive under concatenation."""
    histogram: Counter = Counter()
    num_tokens = 0
    for doc, part in docs:
        num_tokens += doc.num_tokens
        histogram.update(map(len, part.spans))
        del doc, part  # not held while the next document is read
    num_singletons = histogram.get(1, 0)
    total_chains = sum(histogram.values())
    num_nonsingleton = total_chains - num_singletons
    num_mentions = sum(size * count for size, count in histogram.items())
    incl = num_mentions / total_chains if total_chains else None
    excl = (num_mentions - num_singletons) / num_nonsingleton if num_nonsingleton else None
    runs = sorted(histogram.items(), reverse=True)  # (size, chains); singletons last
    rank_size = RankSize(runs[:-1] if exclude_singletons and num_singletons else runs)
    return StatsReport(
        num_mentions=num_mentions,
        num_chains=num_nonsingleton,
        num_singletons=num_singletons,
        num_tokens=num_tokens,
        mentions_per_chain_incl=incl,
        mentions_per_chain_excl=excl,
        length_histogram=dict(sorted(histogram.items())),
        rank_size=rank_size,
        zipf_fit=zipf_fit(rank_size) if rank_size else None,
        exclude_singletons=exclude_singletons,
    )


class RankSize(Sequence):
    """A read-only view of ``runs``, (size, chains of that size) by descending
    size: ``len``, indexing and iteration give each chain's (rank, size) as
    it is read, and the view equals the tuple of those pairs."""

    def __init__(self, runs: Sequence[tuple[int, int]]):
        self._sizes = [size for size, _ in runs]
        self._ends = [0, *accumulate(count for _, count in runs)]

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, i: int) -> tuple[int, int]:
        i = range(len(self))[i]  # a negative index counts from the end
        return i + 1, self._sizes[bisect_right(self._ends, i) - 1]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        counts = map(sub, self._ends[1:], self._ends)
        return enumerate(chain.from_iterable(map(repeat, self._sizes, counts)), 1)

    def __eq__(self, other) -> bool:
        same = isinstance(other, (tuple, RankSize)) and len(self) == len(other)
        return same and all(map(eq, self, other))


class ZipfFit(NamedTuple):
    """OLS fit of log(size) against log(rank).

    ``r_squared`` is None when it is undefined: a single point, or every
    size equal (nothing to explain); the fit is then flat at log(size).
    """

    slope: float
    intercept: float
    r_squared: Optional[float]
    n_points: int


def zipf_fit(series: Sequence[tuple[float, float]]) -> ZipfFit:
    """Least-squares straightness diagnostic in log-log space.

    Sizes need not be integers (a generated law can be fitted before
    rounding), but every rank and size must be at least 1.  Each exact
    sum takes its logs afresh, one per rank and one per run of equal sizes.
    """
    if not series:
        raise EmptySeries("zipf fit needs at least one (rank, size) point")
    for rank, size in series:
        if rank < 1 or size < 1:
            raise ModelError(f"rank and size must be >= 1, got ({rank}, {size})")
    n = len(series)
    sizes = groupby(map(itemgetter(1), series))
    y, counts = zip(*((math.log(size), len(list(run))) for size, run in sizes))
    if len(set(y)) == 1:  # one point or one size: nothing to explain
        return ZipfFit(0.0, y[0], None, n)

    def x() -> Iterator[float]:
        return map(math.log, map(itemgetter(0), series))

    def per_point(run_terms: Iterable[float]) -> Iterator[float]:
        return chain.from_iterable(map(repeat, run_terms, counts))

    x_mean, y_mean = math.fsum(x()) / n, math.fsum(per_point(y)) / n
    sxx = math.fsum(map(pow, map(sub, x(), repeat(x_mean)), repeat(2)))
    y_dev = [b - y_mean for b in y]
    sxy = math.fsum(map(mul, map(sub, x(), repeat(x_mean)), per_point(y_dev)))
    slope = sxy / sxx if sxx else 0.0
    intercept = y_mean - slope * x_mean
    ss_tot = math.fsum(per_point([d**2 for d in y_dev]))
    fitted = map(add, map(mul, repeat(slope), x()), repeat(intercept))
    ss_res = math.fsum(map(pow, map(sub, per_point(y), fitted), repeat(2)))
    r_squared = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return ZipfFit(slope, intercept, r_squared, n)
