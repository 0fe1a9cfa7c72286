"""Coreference metrics: MUC, B3, CEAF, BLANC, LEA, and the CoNLL average.

Every metric is a function of one table per document, ``overlap(key,
response)``: the key and response chain sizes plus the non-zero cells
(i, j, |K_i ∩ R_j|) of the key × response contingency table, with rows
and columns in each partition's canonical chain order.  Every command
derives from that one table: ``score`` reads the six metrics and the
tallies off it, and the stratify strata and the pathology "after" pass
are row projections of it (``stratify.split_table``); no partition is rebuilt.
MUC, B3, LEA and BLANC read per-chain sums from one walk of the cells
(``_walk``); one function gives MUC, B3 and LEA recall from the row sums
and precision from the column sums, so precision(key, response) equals
recall(response, key) by construction.  CEAF aligns chains with an
in-package exact maximum-weight matching over the non-zero cells only
(successive shortest augmenting paths with row and column potentials, see
``_align``); chains sharing no mention add nothing to an alignment, so no
dense block is built.  ``remove_spurious`` is the pathology "after" pass on
partitions, a span slice (``model._slice``) the table path is tested against.

Each metric is expressed as addable recall and precision counts
(numerators and denominators) so multi-document corpora can be
micro-averaged by summing counts before dividing; the triples returned
here are the single-document case of the same reduction.

Conventions shared by all metrics:
  - 0/0 ratios evaluate to 0.
  - Recall and precision are role-dual: precision(key, response) equals
    recall(response, key) for MUC, B3, CEAF, and LEA.
  - Mention identity is the (doc_id, start, end) span; metadata never
    affects scores.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .model import Partition, ScoreTriple, ZERO_TRIPLE, _slice, check_same_doc


class MetricId(str, Enum):
    MUC = "muc"
    B3 = "b3"
    CEAF_M = "ceaf_m"
    CEAF_E = "ceaf_e"
    BLANC = "blanc"
    LEA = "lea"


ALL_METRICS: tuple[MetricId, ...] = tuple(MetricId)
CONLL_METRICS: tuple[MetricId, ...] = (MetricId.MUC, MetricId.B3, MetricId.CEAF_E)


class CeafVariant(str, Enum):
    MENTION = "mention"
    ENTITY = "entity"


class PRCounts(NamedTuple):
    """Addable numerators/denominators for one recall/precision pair."""

    r_num: float = 0.0
    r_den: float = 0.0
    p_num: float = 0.0
    p_den: float = 0.0

    def __add__(self, other: "PRCounts") -> "PRCounts":
        return PRCounts(*(a + b for a, b in zip(self, other)))

    @property
    def recall(self) -> float:
        return self.r_num / self.r_den if self.r_den else 0.0

    @property
    def precision(self) -> float:
        return self.p_num / self.p_den if self.p_den else 0.0

    @property
    def is_empty(self) -> bool:
        return self.r_den == 0 and self.p_den == 0

    def triple(self) -> ScoreTriple:
        return ScoreTriple.from_rp(self.recall, self.precision)


class BlancCounts(NamedTuple):
    """BLANC's two link categories; the fallback rule lives in triple()."""

    coref: PRCounts = PRCounts()
    noncoref: PRCounts = PRCounts()

    def __add__(self, other: "BlancCounts") -> "BlancCounts":
        return BlancCounts(self.coref + other.coref, self.noncoref + other.noncoref)

    def triple(self) -> ScoreTriple:
        # A category participates if either side has links of that kind.
        # When one category is empty on both sides the other stands alone.
        if self.coref.is_empty and self.noncoref.is_empty:
            return ZERO_TRIPLE
        if self.noncoref.is_empty:
            return self.coref.triple()
        if self.coref.is_empty:
            return self.noncoref.triple()
        c, n = self.coref.triple(), self.noncoref.triple()
        return ScoreTriple(
            (c.recall + n.recall) / 2.0,
            (c.precision + n.precision) / 2.0,
            (c.f1 + n.f1) / 2.0,
        )


MetricCounts = PRCounts | BlancCounts


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


class Overlap(NamedTuple):
    """Sparse key × response contingency table of one document.

    ``rows[i]`` maps response chain index j to |K_i ∩ R_j| and holds the
    non-zero cells only; chain indices follow each partition's canonical
    order.  A mention on one side only appears in no cell, so a row or
    column sum falls short of its chain size by the chain's unmatched
    mentions: a chain of size 1 has at most one cell.  Only rows are
    stored; ``_walk`` sums the columns while it reads the rows.
    """

    key_sizes: tuple[int, ...]
    response_sizes: tuple[int, ...]
    rows: tuple[dict[int, int], ...]


def overlap(key: Partition, response: Partition) -> Overlap:
    """The overlap table of two partitions of one document."""
    check_same_doc(key, response)
    chain_of = {span: j for j, spans in enumerate(response.spans) for span in spans}
    rows = []
    for spans in key.spans:
        row: dict[int, int] = {}
        for span in spans:
            j = chain_of.get(span)
            if j is not None:
                row[j] = row.get(j, 0) + 1
        rows.append(row)
    # Tuples from lists: one from an iterator is allocated at a guessed size
    # and resized, so its block moves to another size's free list, and the
    # free lists fill up (to 2,000 blocks a size) as documents are read.
    return Overlap(
        tuple([*map(len, key.spans)]), tuple([*map(len, response.spans)]), tuple(rows)
    )


_Side = namedtuple("_Side", "sizes sums squares cells resolved")


def _walk(t: Overlap) -> tuple[_Side, _Side]:
    """Per key chain (row) and response chain (column), in one cell walk:
    its size, the sum of its cells, of their squares, their number, and
    whether it is a singleton whose mention is a singleton opposite (one
    cell in a size-1 row and a size-1 column, which marks both)."""
    n_cols = len(t.response_sizes)
    rows = _Side(t.key_sizes, [], [], list(map(len, t.rows)), [])
    cols = _Side(t.response_sizes, *([0] * n_cols for _ in range(3)), [False] * n_cols)
    for n, row in zip(t.key_sizes, t.rows):
        total = squares = 0
        for j, v in row.items():
            total += v
            squares += v * v
            cols.sums[j] += v
            cols.squares[j] += v * v
            cols.cells[j] += 1
        resolved = False
        if n == 1 and row:
            (j,) = row
            resolved = cols.resolved[j] = t.response_sizes[j] == 1
        rows.sums.append(total)
        rows.squares.append(squares)
        rows.resolved.append(resolved)
    return rows, cols


def _link_side(side: _Side) -> tuple[tuple[int, int], ...]:
    """MUC, B3 and LEA (numerator, denominator): recall on the key side,
    precision on the response side.  A chain of size n with cells v keeps
    sum(v) - cells of its n - 1 MUC links (one block per cell, one per
    unmatched mention), adds sum(v^2) / n to B3, and resolves sum(C(v, 2))
    = sum(v^2 - v) / 2 of its C(n, 2) LEA links, weighted by n; a singleton
    is resolved only when ``side.resolved``."""
    muc_num = muc_den = den = 0
    b3_num = lea_num = 0.0
    for n, total, squares, cells, resolved in zip(*side):
        muc_num += total - cells
        muc_den += n - 1
        b3_num += squares / n
        den += n
        if n != 1:
            lea_num += n * ((squares - total) // 2 / _pairs(n))
        elif resolved:
            lea_num += 1.0
    return (muc_num, muc_den), (b3_num, den), (lea_num, den)


# MUC, B3 and LEA in the order _link_side returns them, then BLANC.
_LINK_METRICS = (MetricId.MUC, MetricId.B3, MetricId.LEA, MetricId.BLANC)


def _link_counts(t: Overlap) -> dict[MetricId, MetricCounts]:
    """MUC, B3, LEA and BLANC counts from one walk of the table.  BLANC's
    shared pairs neither side links are, by inclusion-exclusion, all shared
    pairs minus those either side links plus those both link."""
    rows, cols = _walk(t)
    counts: dict[MetricId, MetricCounts] = {
        m: PRCounts(*r, *p)
        for m, r, p in zip(_LINK_METRICS[:3], _link_side(rows), _link_side(cols))
    }
    shared = sum(rows.sums)
    both = (sum(rows.squares) - shared) // 2
    neither = _pairs(shared) - sum(map(_pairs, rows.sums + cols.sums)) + both
    coref = [sum(map(_pairs, s.sizes)) for s in (rows, cols)]
    noncoref = [_pairs(sum(s.sizes)) - c for s, c in zip((rows, cols), coref)]
    counts[MetricId.BLANC] = BlancCounts(
        PRCounts(both, coref[0], both, coref[1]),
        PRCounts(neither, noncoref[0], neither, noncoref[1]),
    )
    return counts


def _align(t: Overlap, variant: CeafVariant) -> tuple[list[tuple[int, int]], float]:
    """Maximum-total-similarity chain matching over the non-zero cells.

    phi3 (mention) similarity is |K ∩ R|, phi4 (entity) is
    2|K ∩ R| / (|K| + |R|).  Only non-zero cells are edges, and every key
    chain may instead stay unmatched at similarity 0 (a private dummy
    column), so the result is an exact maximum-weight matching.

    Successive shortest augmenting paths: key chains are added in
    canonical order, each by one Dijkstra search over the slacks
    u[i] + v[j] - phi(i, j) >= 0, which are 0 on matched cells.  Row
    potentials start at the row's largest phi; response and dummy
    potentials start at 0, and a column changes potential only once it
    is matched, so every free column shares potential 0 and the nearest
    free column ends a shortest path (seeding columns otherwise breaks
    optimality).  A search follows non-zero cells only, so it never leaves
    its connected component: chains sharing no mention add nothing to an
    alignment.  Returns the matched (key, response) index pairs, all of
    positive similarity, and the fsum of their similarities.

    Most searches end at their first pop, which needs no heap: it is the
    least (slack, column) over the row's cells and its dummy, with the
    heap's floats and tie-break.  If that column is free (a dummy, or no
    row owns it) the search would stop there, match it, lower u[s] by the
    slack and move no v (d - d = 0), so the shortcut does just that and
    changes no matching, potential or total.  Other rows run the search.
    """
    sizes_r = t.response_sizes
    if variant is CeafVariant.MENTION:
        rows = [{j: float(v) for j, v in row.items()} for row in t.rows]
    else:
        rows = [
            {j: 2.0 * v / (n + sizes_r[j]) for j, v in row.items()}
            for n, row in zip(t.key_sizes, t.rows)
        ]
    dummy = len(sizes_r)  # column dummy + i is key chain i's dummy
    u = [max(row.values(), default=0.0) for row in rows]
    v = [0.0] * dummy
    owner: dict[int, int] = {}  # response column -> key row
    mate: dict[int, int] = {}  # key row -> column, possibly its dummy
    for s, row in enumerate(rows):
        us = u[s]
        d, j = min([(us, dummy + s)] + [(us + v[c] - w, c) for c, w in row.items()])
        if j >= dummy or j not in owner:
            u[s], mate[s] = us - d, j
            if j < dummy:
                owner[j] = s
            continue
        reached, settled, best, via, heap = {s: 0.0}, {}, {}, {}, []
        i, d = s, 0.0
        while True:
            via[dummy + i] = i
            heapq.heappush(heap, (d + u[i], dummy + i))
            for j, w in rows[i].items():
                dj = d + u[i] + v[j] - w
                if j not in settled and dj < best.get(j, math.inf):
                    best[j], via[j] = dj, i
                    heapq.heappush(heap, (dj, j))
            d, j = heapq.heappop(heap)
            while j in settled:
                d, j = heapq.heappop(heap)
            settled[j] = d
            if j >= dummy or j not in owner:
                break
            i = owner[j]
            reached[i] = d
        for r, dr in reached.items():
            u[r] -= d - dr
        for c, dc in settled.items():
            if c < dummy:
                v[c] += d - dc
        while True:
            i = via[j]
            if j < dummy:
                owner[j] = i
            mate[i], j = j, mate.get(i)
            if i == s:
                break
    pairs = [(i, j) for i, j in mate.items() if j < dummy]
    return pairs, math.fsum(rows[i][j] for i, j in pairs)


class Alignment(NamedTuple):
    """A one-to-one chain matching and its total similarity.

    ``pairs`` holds min(|K|, |R|) (key chain id, response chain id) pairs:
    the optimal matching, with chains it leaves unmatched paired with
    zero similarity in canonical chain order, sorted by key chain.
    ``total_similarity`` is an exactly rounded sum (math.fsum), so
    equal-value optima on transposed inputs produce bitwise-equal totals.
    """

    pairs: tuple[tuple[str, str], ...]
    total_similarity: float


def optimal_alignment(
    key: Partition, response: Partition, variant: CeafVariant | str
) -> Alignment:
    """Maximum-total-similarity one-to-one alignment of chains."""
    pairs, total = _align(overlap(key, response), CeafVariant(variant))
    left = sorted(set(range(len(key))) - {i for i, _ in pairs})
    right = sorted(set(range(len(response))) - {j for _, j in pairs})
    return Alignment(
        tuple(
            (key.chain_ids[i], response.chain_ids[j])
            for i, j in sorted(pairs + list(zip(left, right)))
        ),
        total,
    )


def _ceaf(t: Overlap, variant: CeafVariant) -> PRCounts:
    total = _align(t, variant)[1]
    if variant is CeafVariant.MENTION:
        return PRCounts(total, sum(t.key_sizes), total, sum(t.response_sizes))
    return PRCounts(total, len(t.key_sizes), total, len(t.response_sizes))


_CEAF_VARIANTS = {
    MetricId.CEAF_M: CeafVariant.MENTION,
    MetricId.CEAF_E: CeafVariant.ENTITY,
}


def metric_counts(
    metric: MetricId | str, key: Partition, response: Partition
) -> MetricCounts:
    """One metric's addable counts, computed from the document's overlap table."""
    metric = MetricId(metric)
    return table_counts(overlap(key, response), (metric,))[metric]


def muc(key: Partition, response: Partition) -> ScoreTriple:
    """Link-based score counting the minimum missing/extra links."""
    return metric_counts(MetricId.MUC, key, response).triple()


def b_cubed(key: Partition, response: Partition) -> ScoreTriple:
    """Per-mention overlap score; correctly isolated singletons score 1."""
    return metric_counts(MetricId.B3, key, response).triple()


def ceaf(
    key: Partition, response: Partition, variant: CeafVariant | str
) -> ScoreTriple:
    """Entity-alignment score; ``variant`` selects phi3 (mention) or phi4 (entity)."""
    return _ceaf(overlap(key, response), CeafVariant(variant)).triple()


def blanc(key: Partition, response: Partition) -> ScoreTriple:
    """Rand-style average over coref and non-coref link categories."""
    return metric_counts(MetricId.BLANC, key, response).triple()


def lea(key: Partition, response: Partition) -> ScoreTriple:
    """Link-based entity-aware score weighting each entity by its size."""
    return metric_counts(MetricId.LEA, key, response).triple()


def normalize_metrics(metrics: Optional[Iterable[MetricId | str]]) -> tuple[MetricId, ...]:
    """Requested metrics in canonical order, defaulting to all six."""
    if metrics is None:
        return ALL_METRICS
    wanted = {MetricId(m) for m in metrics}
    return tuple(m for m in ALL_METRICS if m in wanted)


def table_counts(t: Overlap, metrics: Sequence[MetricId]) -> dict[MetricId, MetricCounts]:
    """The counts of ``metrics``, in the order given, from one table.

    MUC, B3, LEA and BLANC share one walk, made if any of them is asked for.
    """
    links = _link_counts(t) if any(m in _LINK_METRICS for m in metrics) else {}
    return {
        m: links[m] if m in links else _ceaf(t, _CEAF_VARIANTS[m]) for m in metrics
    }


TALLY_KEYS = (
    "key_mentions",
    "response_mentions",
    "key_chains",
    "response_chains",
    "key_singletons",
    "response_singletons",
    "response_spurious",
)


def table_tallies(t: Overlap) -> dict[str, int]:
    """Mention/chain/singleton counts, plus response mentions missing from the key."""
    return {
        "key_mentions": sum(t.key_sizes),
        "response_mentions": sum(t.response_sizes),
        "key_chains": len(t.key_sizes),
        "response_chains": len(t.response_sizes),
        "key_singletons": t.key_sizes.count(1),
        "response_singletons": t.response_sizes.count(1),
        "response_spurious": sum(t.response_sizes)
        - sum(sum(row.values()) for row in t.rows),
    }


def partition_tallies(key: Partition, response: Partition) -> dict[str, int]:
    """The tallies of one document pair, from its overlap table."""
    return table_tallies(overlap(key, response))


class MetricReport(NamedTuple):
    """Scores for the requested metrics plus corpus counts.

    ``conll_average`` is the mean F1 of muc, b3, and ceaf_e; it is None
    when any of those three was not computed.  ``counts['key_chains']``
    counts all chains including singletons.
    """

    scores: Mapping[MetricId, ScoreTriple]
    conll_average: Optional[float]
    counts: Mapping[str, int]


def _conll_avg(scores: Mapping[MetricId, ScoreTriple]) -> Optional[float]:
    if any(m not in scores for m in CONLL_METRICS):
        return None
    muc, b3, ceaf_e = (scores[m].f1 for m in CONLL_METRICS)
    return (muc + b3 + ceaf_e) / len(CONLL_METRICS)  # not sum(): corpus._ordered, _mean


def remove_spurious(response: Partition, key: Partition) -> Partition:
    """Delete response mentions absent from the key; drop emptied chains."""
    check_same_doc(key, response)
    return _slice(response, set().union(*key.spans))


class PathologyReport(NamedTuple):
    """Scores before and after spurious-mention removal.

    ``recall_deltas`` holds after-minus-before recall per metric; MUC's
    delta is exactly 0 on every input.  ``removed_mentions`` counts the
    response mentions deleted.
    """

    before: MetricReport
    after: MetricReport
    recall_deltas: Mapping[MetricId, float]
    removed_mentions: int
