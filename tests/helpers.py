"""Shared test utilities: label-based instance builders and format writers.

Metric tests describe instances as plain dicts mapping chain id to a set
of hashable mention labels; these helpers turn label dicts into model
partitions (each distinct label becomes one single-token mention, with a
label-to-token mapping shared by both sides of a pair).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Optional

from hypothesis import strategies as st

from corefeval import (
    Chain,
    DocPair,
    Document,
    Mention,
    Partition,
    Role,
    Stratum,
    StratumConfig,
)
from corefeval.metrics import Overlap
from corefeval.stratify import chain_strata, split_table


def label_mapping(*chain_dicts: Mapping[str, frozenset]) -> dict:
    labels = sorted(
        {m for chains in chain_dicts for ms in chains.values() for m in ms},
        key=str,
    )
    return {label: index for index, label in enumerate(labels)}


def build_partition(
    chains: Mapping[str, Iterable],
    role: Role | str,
    doc: str = "d",
    mapping: Optional[dict] = None,
    named: frozenset = frozenset(),
) -> Partition:
    if mapping is None:
        mapping = label_mapping(chains)
    built = [
        Chain(
            cid,
            [Mention(doc, mapping[m], mapping[m], is_named=m in named) for m in ms],
        )
        for cid, ms in chains.items()
    ]
    return Partition(doc, built, role)


def build_pair(
    key_chains: Mapping[str, frozenset],
    resp_chains: Mapping[str, frozenset],
    doc: str = "d",
    named: frozenset = frozenset(),
) -> tuple[Partition, Partition]:
    """Key and response partitions over one shared label-to-token mapping."""
    mapping = label_mapping(key_chains, resp_chains)
    return (
        build_partition(key_chains, Role.KEY, doc, mapping, named),
        build_partition(resp_chains, Role.RESPONSE, doc, mapping, named),
    )


def chains_by_stratum(
    key: Partition, config: StratumConfig
) -> dict[Stratum, frozenset[Chain]]:
    """Every stratum, empty ones too, with the key chains ``chain_strata``
    puts in it."""
    labels = chain_strata(key, config)
    return {
        s: frozenset(c for c, x in zip(key.chains, labels) if x is s) for s in Stratum
    }


def doc_for(partition: Partition, extra_tokens: int = 0) -> Document:
    last = max((m.end for m in partition.mention_set), default=-1)
    return Document(partition.doc_id, last + 1 + extra_tokens)


def sized_corpus(doc_specs: Mapping[str, Iterable[int]]):
    """Documents holding single-token mention chains of the given sizes."""
    docs = []
    for doc_id, sizes in doc_specs.items():
        chains = []
        token = 0
        for i, size in enumerate(sizes):
            chains.append(
                Chain(
                    f"c{i}",
                    [Mention(doc_id, token + j, token + j) for j in range(size)],
                )
            )
            token += size
        docs.append((Document(doc_id, token), Partition(doc_id, chains, Role.KEY)))
    return docs


def conll_text(docs: Iterable[tuple[Document, Partition]]) -> str:
    """Serialize documents in the bracket column format.

    Per token, closes are written before unit mentions and opens, so a
    mention ending where a same-chain mention begins closes first.
    """
    lines = []
    for doc, part in docs:
        lines.append(f"#begin document {doc.doc_id}")
        opens = defaultdict(list)
        closes = defaultdict(list)
        units = defaultdict(list)
        for chain in part.chains:
            for m in chain.mentions:
                if m.start == m.end:
                    units[m.start].append(chain.chain_id)
                else:
                    opens[m.start].append(chain.chain_id)
                    closes[m.end].append(chain.chain_id)
        for i in range(doc.num_tokens):
            items = (
                [f"{cid})" for cid in closes.get(i, [])]
                + [f"({cid})" for cid in units.get(i, [])]
                + [f"({cid}" for cid in opens.get(i, [])]
            )
            coref = "|".join(items) if items else "-"
            lines.append(f"tok{i}\t{coref}")
        lines.append("#end document")
    return "\n".join(lines) + "\n"


def random_labels(
    rng,
    max_mentions: int = 12,
    max_chains: int = 5,
    max_spurious: int = 4,
) -> tuple[dict[str, frozenset], dict[str, frozenset]]:
    """A random (key, response) pair of label dicts over a shared universe.

    Key and response each cover a random subset of the mention universe;
    response-only labels (spurious) are drawn from a disjoint range.
    """
    n = rng.randrange(0, max_mentions + 1)
    key: dict[str, set] = {}
    resp: dict[str, set] = {}
    for label in range(n):
        k = rng.randrange(-1, max_chains)
        r = rng.randrange(-1, max_chains)
        if k >= 0:
            key.setdefault(f"k{k}", set()).add(label)
        if r >= 0:
            resp.setdefault(f"r{r}", set()).add(label)
    for extra in range(rng.randrange(0, max_spurious + 1)):
        r = rng.randrange(0, max_chains)
        resp.setdefault(f"r{r}", set()).add(1000 + extra)
    return (
        {cid: frozenset(ms) for cid, ms in key.items()},
        {cid: frozenset(ms) for cid, ms in resp.items()},
    )


def _group(assignment: list[int], prefix: str) -> dict[str, frozenset]:
    groups: dict[str, set] = {}
    for label, target in enumerate(assignment):
        if target >= 0:
            groups.setdefault(f"{prefix}{target}", set()).add(label)
    return {cid: frozenset(ms) for cid, ms in groups.items()}


@st.composite
def label_instances(draw, max_mentions: int = 10, max_chains: int = 5):
    """Hypothesis strategy for (key, response) label dict pairs."""
    n = draw(st.integers(0, max_mentions))
    key_assign = draw(st.lists(st.integers(-1, max_chains - 1), min_size=n, max_size=n))
    resp_assign = draw(st.lists(st.integers(-1, max_chains - 1), min_size=n, max_size=n))
    key = _group(key_assign, "k")
    resp = _group(resp_assign, "r")
    spurious = draw(st.lists(st.integers(0, max_chains - 1), max_size=3))
    for extra, target in enumerate(spurious):
        cid = f"r{target}"
        resp[cid] = resp.get(cid, frozenset()) | {1000 + extra}
    return key, resp


@st.composite
def corpora(draw):
    """1-3 documents of random key/response pairs, some with named mentions."""
    pairs = []
    for d in range(draw(st.integers(1, 3))):
        key, resp = draw(label_instances(max_mentions=14, max_chains=6))
        named = draw(st.frozensets(st.integers(0, 13), max_size=4))
        pairs.append(DocPair(*build_pair(key, resp, f"d{d}", named)))
    config = StratumConfig(draw(st.integers(2, 5)), draw(st.booleans()))
    return pairs, config


@st.composite
def label_partitions(draw, max_mentions: int = 10, max_chains: int = 5):
    """Hypothesis strategy for a single partition as a label dict."""
    n = draw(st.integers(0, max_mentions))
    assign = draw(st.lists(st.integers(-1, max_chains - 1), min_size=n, max_size=n))
    return _group(assign, "c")


def _crosses(a: tuple[int, int], b: tuple[int, int]) -> bool:
    (s1, e1), (s2, e2) = sorted((a, b))
    return s1 < s2 <= e1 < e2


@st.composite
def span_documents(draw, num_tokens: int = 10, max_chains: int = 4):
    """Hypothesis strategy for (Document, Partition) with multi-token,
    possibly nested mentions and digit chain ids.

    Two crossing spans never share a chain: the bracket column format
    binds closes to the most recent same-chain open, so a same-chain
    crossing pair is unrepresentable (it reads back as a nesting).
    Crossing spans in different chains are kept.
    """
    spans = draw(
        st.sets(
            st.tuples(
                st.integers(0, num_tokens - 1), st.integers(0, num_tokens - 1)
            ).map(lambda t: (min(t), max(t))),
            max_size=8,
        )
    )
    spans = sorted(spans)
    assign = draw(
        st.lists(
            st.integers(0, max_chains - 1),
            min_size=len(spans),
            max_size=len(spans),
        )
    )
    named_flags = draw(
        st.lists(st.booleans(), min_size=len(spans), max_size=len(spans))
    )
    doc_id = "doc"
    by_chain: dict[str, list[tuple[int, int]]] = {}
    chains: dict[str, list[Mention]] = {}
    overflow = 0
    for span, target, named in zip(spans, assign, named_flags):
        cid = str(target)
        if any(_crosses(span, other) for other in by_chain.get(cid, [])):
            cid = str(max_chains + overflow)
            overflow += 1
        by_chain.setdefault(cid, []).append(span)
        chains.setdefault(cid, []).append(
            Mention(doc_id, span[0], span[1], is_named=named)
        )
    part = Partition(
        doc_id, [Chain(cid, ms) for cid, ms in chains.items()], Role.KEY
    )
    return Document(doc_id, num_tokens), part


@st.composite
def overlap_tables(draw, max_chains=25, max_value=3, max_cells=150):
    """Hypothesis strategy for an ``Overlap`` table drawn cell by cell.

    Rectangular, up to ``max_chains`` rows and columns, cells 1..``max_value``
    (so weights tie often), and some rows and columns left empty.  Each
    chain's size is its cells' sum plus 0-2 mentions the other side lacks,
    and at least 1, as in a table built from two partitions.
    """
    n_rows = draw(st.integers(0, max_chains))
    n_cols = draw(st.integers(0, max_chains))
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    if n_rows and n_cols:
        cells = st.tuples(
            st.integers(0, n_rows - 1),
            st.integers(0, n_cols - 1),
            st.integers(1, max_value),
        )
        for i, j, v in draw(st.lists(cells, max_size=min(n_rows * n_cols, max_cells))):
            rows[i][j] = v
    col_sums = [0] * n_cols
    for row in rows:
        for j, v in row.items():
            col_sums[j] += v

    def sizes(sums):
        return tuple(s + draw(st.integers(0 if s else 1, 2)) for s in sums)

    return Overlap(
        sizes([sum(row.values()) for row in rows]), sizes(col_sums), tuple(rows)
    )


def projection(t: Overlap, rows: Iterable[int]) -> Overlap:
    """``split_table``'s projection of ``t`` on the rows ``rows``, in row
    order; no rows give the empty table."""
    kept = set(rows)
    tables = split_table(t, [i in kept for i in range(len(t.rows))])[0]
    return tables.get(True, Overlap((), (), ()))


@st.composite
def row_projections(draw, tables=overlap_tables()):
    """A table or, half the time, its projection on a row subset, as the
    stratify and pathology paths build them."""
    t = draw(tables)
    if t.rows and draw(st.booleans()):
        t = projection(t, draw(st.sets(st.integers(0, len(t.rows) - 1))))
    return t
