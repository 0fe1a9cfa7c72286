"""Coreference metrics: MUC, B3, CEAF, BLANC, LEA, and the CoNLL average.

Every metric is a function of one table per document, ``overlap(key,
response)``: the key and response chain sizes plus the non-zero cells
(i, j, |K_i ∩ R_j|) of the key × response contingency table, with rows
and columns in each partition's canonical chain order.  MUC, B3 and LEA
compute recall from the table's rows; precision is the same function
applied to the transposed table, so precision(key, response) equals
recall(response, key) by construction.  BLANC combines the cells with the
row and column sums.  CEAF aligns chains with an in-package exact
maximum-weight matching over the non-zero cells only (successive shortest
augmenting paths with row and column potentials, see ``_align``); chains
sharing no mention add nothing to an alignment, so no dense block is built.

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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Optional

from .errors import MissingMetric
from .model import (
    Chain,
    Partition,
    ScoreTriple,
    ZERO_TRIPLE,
    check_same_doc,
    mentions_of,
)


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


@dataclass(frozen=True)
class PRCounts:
    """Addable numerators/denominators for one recall/precision pair."""

    r_num: float = 0.0
    r_den: float = 0.0
    p_num: float = 0.0
    p_den: float = 0.0

    def __add__(self, other: "PRCounts") -> "PRCounts":
        return PRCounts(
            self.r_num + other.r_num,
            self.r_den + other.r_den,
            self.p_num + other.p_num,
            self.p_den + other.p_den,
        )

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


@dataclass(frozen=True)
class BlancCounts:
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


@dataclass(frozen=True)
class Overlap:
    """Sparse key × response contingency table of one document.

    ``rows[i]`` maps response chain index j to |K_i ∩ R_j| and holds the
    non-zero cells only; chain indices follow each partition's canonical
    order.  A mention on one side only appears in no cell, so a row sum
    falls short of its chain size by the chain's unmatched mentions.
    """

    key_sizes: tuple[int, ...]
    response_sizes: tuple[int, ...]
    rows: tuple[dict[int, int], ...]

    def transpose(self) -> "Overlap":
        """The response × key table of the same document."""
        cols: tuple[dict[int, int], ...] = tuple({} for _ in self.response_sizes)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return Overlap(self.response_sizes, self.key_sizes, cols)

    def row_sums(self) -> list[int]:
        """|K_i ∩ response mentions| per key chain."""
        return [sum(row.values()) for row in self.rows]


def overlap(key: Partition, response: Partition) -> Overlap:
    """The overlap table of two partitions of one document."""
    check_same_doc(key, response)
    index = {chain.chain_id: j for j, chain in enumerate(response.chains)}
    by_mention = response.chain_by_mention
    rows = []
    for chain in key.chains:
        row: dict[int, int] = {}
        for m in chain.mentions:
            target = by_mention.get(m)
            if target is not None:
                j = index[target.chain_id]
                row[j] = row.get(j, 0) + 1
        rows.append(row)
    return Overlap(
        tuple(map(len, key.chains)), tuple(map(len, response.chains)), tuple(rows)
    )


def _dual(half: Callable[[Overlap], tuple], table: Overlap) -> PRCounts:
    """Recall counts from the table, precision counts from its transpose."""
    r_num, r_den = half(table)
    p_num, p_den = half(table.transpose())
    return PRCounts(r_num, r_den, p_num, p_den)


def _muc_half(t: Overlap) -> tuple[int, int]:
    """MUC recall counts: each key chain is partitioned by the response.

    A key chain of size n split into blocks (one per overlapping response
    chain, one per mention no response chain covers) keeps n - blocks of
    its n - 1 links; singletons contribute 0 to both counts.
    """
    num = den = 0
    for n, row in zip(t.key_sizes, t.rows):
        num += sum(row.values()) - len(row)
        den += n - 1
    return num, den


def _b3_half(t: Overlap) -> tuple[float, int]:
    """Sum over key mentions of |K(m) ∩ R(m)| / |K(m)|, and the mention count.

    Grouped per chain: mentions of K falling in the same response chain
    share the same term, so the per-chain sum is sum_j |K ∩ R_j|^2 / |K|.
    """
    num = 0.0
    den = 0
    for n, row in zip(t.key_sizes, t.rows):
        den += n
        num += sum(v * v for v in row.values()) / n
    return num, den


def _lea_half(t: Overlap) -> tuple[float, int]:
    """Size-weighted resolution of key entities, and the total weight.

    link(e) = C(|e|, 2) for |e| >= 2; a singleton is resolved (self-link)
    only if its mention forms a singleton chain in the response.
    """
    num = 0.0
    den = 0
    for n, row in zip(t.key_sizes, t.rows):
        den += n
        if n == 1:
            if any(t.response_sizes[j] == 1 for j in row):
                num += 1.0
            continue
        hits = sum(_pairs(v) for v in row.values())
        num += n * (hits / _pairs(n))
    return num, den


def _blanc(t: Overlap) -> BlancCounts:
    """Coref and non-coref link counts over each side's own mentions.

    The non-coref intersection is counted by inclusion-exclusion over the
    shared mentions: pairs neither side links = all shared pairs minus
    pairs linked in key minus pairs linked in response plus pairs linked
    in both.
    """
    coref_both = sum(_pairs(v) for row in t.rows for v in row.values())
    row_sums = t.row_sums()
    noncoref_both = (
        _pairs(sum(row_sums))
        - sum(map(_pairs, row_sums))
        - sum(map(_pairs, t.transpose().row_sums()))
        + coref_both
    )
    coref_key = sum(map(_pairs, t.key_sizes))
    coref_resp = sum(map(_pairs, t.response_sizes))
    noncoref_key = _pairs(sum(t.key_sizes)) - coref_key
    noncoref_resp = _pairs(sum(t.response_sizes)) - coref_resp
    return BlancCounts(
        coref=PRCounts(coref_both, coref_key, coref_both, coref_resp),
        noncoref=PRCounts(noncoref_both, noncoref_key, noncoref_both, noncoref_resp),
    )


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
    """
    sizes_k, sizes_r = t.key_sizes, t.response_sizes
    rows = [
        {
            j: float(v) if variant is CeafVariant.MENTION
            else 2.0 * v / (sizes_k[i] + sizes_r[j])
            for j, v in row.items()
        }
        for i, row in enumerate(t.rows)
    ]
    dummy = len(sizes_r)  # column dummy + i is key chain i's dummy
    u = [max(row.values(), default=0.0) for row in rows]
    v = [0.0] * dummy
    owner: dict[int, int] = {}  # response column -> key row
    mate: dict[int, int] = {}  # key row -> column, possibly its dummy
    for s in range(len(rows)):
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


@dataclass(frozen=True)
class Alignment:
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
    left = sorted(set(range(len(key.chains))) - {i for i, _ in pairs})
    right = sorted(set(range(len(response.chains))) - {j for _, j in pairs})
    return Alignment(
        tuple(
            (key.chains[i].chain_id, response.chains[j].chain_id)
            for i, j in sorted(pairs + list(zip(left, right)))
        ),
        total,
    )


def _ceaf(t: Overlap, variant: CeafVariant) -> PRCounts:
    total = _align(t, variant)[1]
    if variant is CeafVariant.MENTION:
        return PRCounts(total, sum(t.key_sizes), total, sum(t.response_sizes))
    return PRCounts(total, len(t.key_sizes), total, len(t.response_sizes))


_COUNTERS: dict[MetricId, Callable[[Overlap], MetricCounts]] = {
    MetricId.MUC: lambda t: _dual(_muc_half, t),
    MetricId.B3: lambda t: _dual(_b3_half, t),
    MetricId.CEAF_M: lambda t: _ceaf(t, CeafVariant.MENTION),
    MetricId.CEAF_E: lambda t: _ceaf(t, CeafVariant.ENTITY),
    MetricId.BLANC: _blanc,
    MetricId.LEA: lambda t: _dual(_lea_half, t),
}


def metric_counts(
    metric: MetricId | str, key: Partition, response: Partition
) -> MetricCounts:
    """One metric's addable counts, computed from the document's overlap table."""
    return _COUNTERS[MetricId(metric)](overlap(key, response))


def muc_counts(key: Partition, response: Partition) -> PRCounts:
    return metric_counts(MetricId.MUC, key, response)


def muc(key: Partition, response: Partition) -> ScoreTriple:
    """Link-based score counting the minimum missing/extra links."""
    return muc_counts(key, response).triple()


def b3_counts(key: Partition, response: Partition) -> PRCounts:
    return metric_counts(MetricId.B3, key, response)


def b_cubed(key: Partition, response: Partition) -> ScoreTriple:
    """Per-mention overlap score; correctly isolated singletons score 1."""
    return b3_counts(key, response).triple()


def ceaf_counts(
    key: Partition, response: Partition, variant: CeafVariant | str
) -> PRCounts:
    return _ceaf(overlap(key, response), CeafVariant(variant))


def ceaf(
    key: Partition, response: Partition, variant: CeafVariant | str
) -> ScoreTriple:
    """Entity-alignment score; ``variant`` selects phi3 (mention) or phi4 (entity)."""
    return ceaf_counts(key, response, variant).triple()


def blanc(key: Partition, response: Partition) -> ScoreTriple:
    """Rand-style average over coref and non-coref link categories."""
    return metric_counts(MetricId.BLANC, key, response).triple()


def lea(key: Partition, response: Partition) -> ScoreTriple:
    """Link-based entity-aware score weighting each entity by its size."""
    return metric_counts(MetricId.LEA, key, response).triple()


def zero_counts(metric: MetricId) -> MetricCounts:
    return BlancCounts() if metric is MetricId.BLANC else PRCounts()


def normalize_metrics(metrics: Optional[Iterable[MetricId | str]]) -> tuple[MetricId, ...]:
    """Requested metrics in canonical order, defaulting to all six."""
    if metrics is None:
        return ALL_METRICS
    wanted = {MetricId(m) for m in metrics}
    return tuple(m for m in ALL_METRICS if m in wanted)


def collect_counts(
    key: Partition,
    response: Partition,
    metrics: Optional[Iterable[MetricId | str]] = None,
) -> dict[MetricId, MetricCounts]:
    return {m: metric_counts(m, key, response) for m in normalize_metrics(metrics)}


def add_counts(
    acc: dict[MetricId, MetricCounts], new: Mapping[MetricId, MetricCounts]
) -> dict[MetricId, MetricCounts]:
    return {m: acc.get(m, zero_counts(m)) + c for m, c in new.items()}


TALLY_KEYS = (
    "key_mentions",
    "response_mentions",
    "key_chains",
    "response_chains",
    "key_singletons",
    "response_singletons",
    "response_spurious",
)


def partition_tallies(key: Partition, response: Partition) -> dict[str, int]:
    """Mention/chain/singleton counts, plus response mentions missing from the key."""
    t = overlap(key, response)
    response_mentions = sum(t.response_sizes)
    return {
        "key_mentions": sum(t.key_sizes),
        "response_mentions": response_mentions,
        "key_chains": len(t.key_sizes),
        "response_chains": len(t.response_sizes),
        "key_singletons": t.key_sizes.count(1),
        "response_singletons": t.response_sizes.count(1),
        "response_spurious": response_mentions - sum(t.row_sums()),
    }


@dataclass(frozen=True)
class MetricReport:
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
    return sum(scores[m].f1 for m in CONLL_METRICS) / len(CONLL_METRICS)


def conll_average(report: MetricReport) -> float:
    """Mean F1 of muc, b3, and ceaf_e; raises when any is absent."""
    missing = [m.value for m in CONLL_METRICS if m not in report.scores]
    if missing:
        raise MissingMetric(f"conll average needs {', '.join(missing)}")
    avg = _conll_avg(report.scores)
    assert avg is not None
    return avg


def remove_spurious(response: Partition, key: Partition) -> Partition:
    """Delete response mentions absent from the key; drop emptied chains.

    Chain ids are preserved; kept mentions are the response's own objects,
    so their metadata survives.
    """
    check_same_doc(key, response)
    keep = mentions_of(key)
    chains = []
    for chain in response.chains:
        kept = [m for m in chain.mentions if m in keep]
        if kept:
            chains.append(Chain(chain.chain_id, kept))
    return Partition(response.doc_id, chains, response.role)


@dataclass(frozen=True)
class PathologyReport:
    """Scores before and after spurious-mention removal.

    ``recall_deltas`` holds after-minus-before recall per metric; MUC's
    delta is exactly 0 on every input.  ``removed_mentions`` counts the
    response mentions deleted.
    """

    before: MetricReport
    after: MetricReport
    recall_deltas: Mapping[MetricId, float]
    removed_mentions: int


def recall_deltas(
    before: MetricReport, after: MetricReport
) -> dict[MetricId, float]:
    return {
        m: after.scores[m].recall - before.scores[m].recall
        for m in before.scores
        if m in after.scores
    }
