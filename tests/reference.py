"""References for the diagnostics and metric counts the table path computes.

Each partition-level function follows its definition directly over what
a partition stores: ``chain_ids``, ``spans`` (per-chain sorted span tuples)
and ``named`` (the spans flagged is_named).  Strata are returned as their
plain names.  The table-level functions at the end compute a row
projection, leakage and singleton detection from a labelled table, MUC,
B3, LEA and BLANC counts one metric at a time, with a transposed copy of
the table, and the CEAF matching with a full heap search for every key
chain.  ``jsonl_outcome`` reads jsonl lines by walking what plain
``json.loads`` decodes, one field check after another.
Like ``oracles.py``, this module imports no scoring code from the
package, so the checks against it are not self-comparisons.
"""

from __future__ import annotations

import heapq
import json
import math
from types import SimpleNamespace


def mentions(partition) -> set:
    """Every span of the partition."""
    return {span for spans in partition.spans for span in spans}


def stratum(spans, named, config) -> str:
    """The stratum of one key chain: a size-1 chain is a singleton; a chain
    of at least ``long_threshold`` spans is major when it holds a named span
    or ``require_named`` is off; every other chain is secondary."""
    if len(spans) == 1:
        return "singleton"
    has_name = any(span in named for span in spans)
    if len(spans) >= config.long_threshold and (has_name or not config.require_named):
        return "major"
    return "secondary"


def strata(key, config) -> list[str]:
    """The stratum of every key chain, in ``chain_ids`` order."""
    return [stratum(spans, key.named, config) for spans in key.spans]


def leakage(key, response, config) -> int:
    """Response chains whose key mentions lie in chains of two or more strata;
    response mentions that are no key mention carry no stratum."""
    label = {
        span: name
        for spans, name in zip(key.spans, strata(key, config))
        for span in spans
    }
    return sum(
        len({label[span] for span in spans if span in label}) >= 2
        for spans in response.spans
    )


def singletons(partition) -> set:
    """The spans that form a chain of their own."""
    return {spans[0] for spans in partition.spans if len(spans) == 1}


def singleton_detection(key, response) -> tuple[int, int, int, int]:
    """Recall and precision counts of singleton detection: a key singleton
    is found when its span is a singleton of the response too."""
    found = len(singletons(key) & singletons(response))
    return found, len(singletons(key)), found, len(singletons(response))


def spurious(key, response) -> int:
    """Response mentions that are no key mention."""
    return len(mentions(response) - mentions(key))


# Overlap-table references.  These read only a table's ``key_sizes``,
# ``response_sizes`` and ``rows`` (rows[i] maps a response chain index to
# the number of mentions key chain i shares with it).  Leakage and singleton
# detection each take a walk of their own, as ``stratify_corpus`` did before
# one walk of the labelled rows gave both with the projections.  The metric
# counts follow the metric code as it was before it derived MUC, B3, LEA
# and BLANC from one walk of the cells and before ``_align`` matched a row
# at its first pop without a heap.


def project(t, rows) -> tuple:
    """Key chains ``rows`` against the response chains they share a mention
    with, renumbered in column order, each sized by the mentions it shares
    with them: ``(key_sizes, response_sizes, rows)``."""
    columns = sorted({j for i in rows for j in t.rows[i]})
    renumbered = {j: k for k, j in enumerate(columns)}
    return (
        tuple(t.key_sizes[i] for i in rows),
        tuple(sum(t.rows[i].get(j, 0) for i in rows) for j in columns),
        tuple({renumbered[j]: v for j, v in t.rows[i].items()} for i in rows),
    )


def table_leakage(t, labels) -> int:
    """Response columns with cells in rows of two or more labels;
    ``labels[i]`` labels row i."""
    seen = [set() for _ in t.response_sizes]
    for label, row in zip(labels, t.rows):
        for j in row:
            seen[j].add(label)
    return sum(len(row_labels) >= 2 for row_labels in seen)


def table_singleton_detection(t) -> tuple[int, int, int, int]:
    """Key singletons whose one cell lands in a response singleton, over
    the key and the response singleton counts."""
    found = sum(
        1
        for n, row in zip(t.key_sizes, t.rows)
        if n == 1 and any(t.response_sizes[j] == 1 for j in row)
    )
    return found, t.key_sizes.count(1), found, t.response_sizes.count(1)


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def transposed(t) -> SimpleNamespace:
    """The response × key table of the same document."""
    cols = [{} for _ in t.response_sizes]
    for i, row in enumerate(t.rows):
        for j, v in row.items():
            cols[j][i] = v
    return SimpleNamespace(
        key_sizes=t.response_sizes, response_sizes=t.key_sizes, rows=cols
    )


def muc_half(t) -> tuple[int, int]:
    """MUC recall counts: a key chain of size n split into blocks (one per
    overlapping response chain, one per uncovered mention) keeps n - blocks
    of its n - 1 links."""
    num = den = 0
    for n, row in zip(t.key_sizes, t.rows):
        num += sum(row.values()) - len(row)
        den += n - 1
    return num, den


def b3_half(t) -> tuple[float, int]:
    """Sum over key mentions of |K(m) ∩ R(m)| / |K(m)|, and the mention count."""
    num = 0.0
    den = 0
    for n, row in zip(t.key_sizes, t.rows):
        den += n
        num += sum(v * v for v in row.values()) / n
    return num, den


def lea_half(t) -> tuple[float, int]:
    """Size-weighted resolution of key entities, and the total weight; a
    singleton is resolved only if its mention is a response singleton."""
    num = 0.0
    den = 0
    for n, row in zip(t.key_sizes, t.rows):
        den += n
        if n == 1:
            if any(t.response_sizes[j] == 1 for j in row):
                num += 1.0
            continue
        hits = sum(pairs(v) for v in row.values())
        num += n * (hits / pairs(n))
    return num, den


def blanc(t) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Coref and non-coref (r_num, r_den, p_num, p_den); shared pairs neither
    side links come by inclusion-exclusion from the row and column sums."""
    coref_both = sum(pairs(v) for row in t.rows for v in row.values())
    row_sums = [sum(row.values()) for row in t.rows]
    col_sums = [sum(col.values()) for col in transposed(t).rows]
    noncoref_both = (
        pairs(sum(row_sums))
        - sum(map(pairs, row_sums))
        - sum(map(pairs, col_sums))
        + coref_both
    )
    coref_key = sum(map(pairs, t.key_sizes))
    coref_resp = sum(map(pairs, t.response_sizes))
    return (
        (coref_both, coref_key, coref_both, coref_resp),
        (
            noncoref_both,
            pairs(sum(t.key_sizes)) - coref_key,
            noncoref_both,
            pairs(sum(t.response_sizes)) - coref_resp,
        ),
    )


def link_counts(t) -> dict:
    """MUC, B3 and LEA as (r_num, r_den, p_num, p_den), recall from the
    table and precision from its transpose, and BLANC, by metric name."""
    counts = {
        name: (*half(t), *half(transposed(t)))
        for name, half in (("muc", muc_half), ("b3", b3_half), ("lea", lea_half))
    }
    counts["blanc"] = blanc(t)
    return counts


def align(t, variant: str) -> tuple[list[tuple[int, int]], float]:
    """Maximum-weight matching by one heap Dijkstra per key chain.

    Successive shortest augmenting paths over the non-zero cells with row
    and column potentials; each key chain may instead take its private
    dummy column at similarity 0.  ``variant`` "mention" weighs a cell v by
    v, "entity" by 2v / (|K| + |R|).  Returns the matched (key, response)
    pairs and the fsum of their weights.
    """
    sizes_k, sizes_r = t.key_sizes, t.response_sizes
    rows = [
        {
            j: float(v) if variant == "mention"
            else 2.0 * v / (sizes_k[i] + sizes_r[j])
            for j, v in row.items()
        }
        for i, row in enumerate(t.rows)
    ]
    dummy = len(sizes_r)
    u = [max(row.values(), default=0.0) for row in rows]
    v = [0.0] * dummy
    owner: dict[int, int] = {}
    mate: dict[int, int] = {}
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
    matched = [(i, j) for i, j in mate.items() if j < dummy]
    return matched, math.fsum(rows[i][j] for i, j in matched)


class _Fault(Exception):
    """A reading error; ``jsonl_outcome`` puts the line in front."""


def _json_field(obj: dict, name: str, kind: type):
    """``obj[name]``, which must be present and of type ``kind`` exactly:
    ``json.loads`` gives no subclasses, and a bool is no int here."""
    if name not in obj:
        raise _Fault(f"missing field {name!r}")
    value = obj[name]
    if type(value) is not kind:
        raise _Fault(
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _jsonl_record(raw: str, seen: set) -> tuple:
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise _Fault(f"invalid JSON: {exc}") from None
    if type(record) is not dict:
        raise _Fault("each record must be an object")
    doc_id = _json_field(record, "doc_id", str)
    num_tokens = _json_field(record, "num_tokens", int)
    raw_chains = _json_field(record, "chains", list)
    if doc_id in seen:
        raise _Fault(f"duplicate document id {doc_id!r}")
    seen.add(doc_id)
    if num_tokens < 0:
        raise _Fault(f"num_tokens must be >= 0, got {num_tokens}")
    chains, owner, named, surfaces = {}, {}, set(), {}
    for chain in raw_chains:
        if type(chain) is not dict:
            raise _Fault("each chain must be an object")
        chain_id = _json_field(chain, "chain_id", str)
        if chain_id in chains:
            raise _Fault(f"duplicate chain id {chain_id!r} in document {doc_id!r}")
        chains[chain_id] = set()
        mentions = _json_field(chain, "mentions", list)
        if not mentions:
            raise _Fault(f"chain {chain_id!r} has no mentions")
        for mention in mentions:
            if type(mention) is not dict:
                raise _Fault("each mention must be an object")
            start = _json_field(mention, "start", int)
            end = _json_field(mention, "end", int)
            is_named = mention.get("is_named", False)
            if type(is_named) is not bool:
                raise _Fault("field 'is_named' must be a boolean")
            surface = mention.get("surface")
            if surface is not None and type(surface) is not str:
                raise _Fault("field 'surface' must be a string")
            if not 0 <= start <= end < num_tokens:
                raise _Fault(
                    f"mention ({start}, {end}) outside document {doc_id!r} "
                    f"with {num_tokens} tokens"
                )
            span = (start, end)
            if span in owner:  # a repeat in its own chain keeps the first
                if owner[span] != chain_id:
                    raise _Fault(
                        f"span {span} in chains {owner[span]!r} and {chain_id!r} "
                        f"of document {doc_id!r}"
                    )
                continue
            owner[span] = chain_id
            chains[chain_id].add(span)
            if is_named:
                named.add(span)
            if surface is not None:
                surfaces[span] = surface
    ids = sorted(chains)
    spans = tuple(tuple(sorted(chains[c])) for c in ids)
    return doc_id, num_tokens, tuple(ids), spans, named, surfaces


def jsonl_outcome(lines) -> str | list[tuple]:
    """What reading jsonl ``lines`` gives: the first error's text, as
    ``line N: message``, or for each non-blank line its doc id, token
    count, sorted chain ids, each chain's sorted spans, the named spans and
    the span -> surface map.  Document ids are unique across the lines."""
    seen: set = set()
    documents = []
    for lineno, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        try:
            documents.append(_jsonl_record(raw, seen))
        except _Fault as fault:
            return f"line {lineno}: {fault}"
    return documents
