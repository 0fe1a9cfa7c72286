"""Seeded synthetic corpora in three shapes, with the counts they must score to.

Each shape builds key partitions, derives a response by dropping,
misplacing and adding spurious mentions at exact rates, and writes both
sides as CoNLL or jsonl.  Every mention has its own token span, so the
files need no nesting.  Everything the output checks compare against
(tallies, strata, the rank-size series) is counted here from the
generated structures, never by corefeval itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

LONG_THRESHOLD = 10
TALLY_KEYS = ("key_mentions", "response_mentions", "key_chains", "response_chains",
              "key_singletons", "response_singletons", "response_spurious")


@dataclass
class Doc:
    """One generated document: mention ids index ``spans``.

    Key mentions are ``0 .. n_key - 1``; spurious mentions follow.
    """

    doc_id: str
    num_tokens: int
    spans: list[tuple[int, int]]
    named: frozenset[int]
    n_key: int
    key: list[list[int]]
    response: list[list[int]]


@dataclass(frozen=True)
class DocSpec:
    """Key chain sizes of one document and the error rates of its response."""

    sizes: tuple[int, ...]
    misplace: float = 0.20
    spurious: float = 0.05
    named_majors: bool = False


DROP = 0.10


@dataclass(frozen=True)
class Shape:
    name: str
    fmt: str
    averaging: str
    docs: tuple[DocSpec, ...]
    outputs: dict[str, str] = field(default_factory=lambda: dict.fromkeys(
        ("score", "stratify", "pathology", "stats"), "json"))


def _onto_sizes(doc: int) -> tuple[int, ...]:
    # OntoNotes annotates no singletons; chain sizes have a short heavy tail.
    # Sizes are fixed quantiles, so every seed gives the same amount of work.
    n = 8 + 7 * doc % 23
    quantiles = stats.zipf.ppf((np.arange(n) + 0.5) / n, 2.4)
    return tuple(1 + int(v) for v in np.minimum(quantiles, 30))


def _zipf_sizes(top: int, chains: int) -> tuple[int, ...]:
    return tuple(max(1, round(top / r**1.1)) for r in range(1, chains + 1))


def _singleton_sizes(chains: int) -> tuple[int, ...]:
    majors = chains // 10
    return tuple(2 + i % 4 for i in range(majors)) + (1,) * (chains - majors)


def shapes(quick: bool) -> dict[str, Shape]:
    """The benchmark's workloads; ``quick`` shrinks each to a smoke-test size."""
    return {
        "onto-short": Shape(
            "onto-short", "conll", "macro",
            tuple(DocSpec(_onto_sizes(d)) for d in range(30 if quick else 300)),
            outputs={"score": "csv", "stratify": "table", "pathology": "table",
                     "stats": "table"},
        ),
        "novel-singleton": Shape(
            "novel-singleton", "jsonl", "micro", (
                DocSpec(_zipf_sizes(*((150, 80) if quick else (850, 320))),
                        named_majors=True),
                DocSpec(_singleton_sizes(150 if quick else 700),
                        misplace=0.30, spurious=0.30),
            ),
        ),
    }


def _response(
    rng: np.random.Generator, spec: DocSpec, key: list[list[int]], n_key: int
) -> tuple[list[list[int]], int]:
    """Drop, misplace and add spurious mentions at the document's exact rates."""
    owner = np.empty(n_key, dtype=np.int64)
    for c, chain in enumerate(key):
        owner[chain] = c
    order = rng.permutation(n_key)
    n_drop = round(DROP * n_key)
    n_move = round(spec.misplace * n_key)
    moved = order[n_drop:n_drop + n_move]
    target = owner.copy()
    # Each moved mention joins a uniformly chosen other chain.
    shift = rng.integers(1, len(key), size=n_move) if len(key) > 1 else 0
    target[moved] = (owner[moved] + shift) % len(key)
    chains: list[list[int]] = [[] for _ in key]
    for m in sorted(order[n_drop:].tolist()):
        chains[target[m]].append(m)
    n_spurious = round(spec.spurious * n_key)
    joining = n_spurious // 2
    hosts = rng.integers(0, len(key), size=joining)
    for i, host in enumerate(hosts.tolist()):
        chains[host].append(n_key + i)
    chains = [c for c in chains if c]
    chains.extend([m] for m in range(n_key + joining, n_key + n_spurious))
    return chains, n_spurious


def _layout(rng: np.random.Generator, n: int) -> tuple[list[tuple[int, int]], int]:
    """Disjoint spans of 1-3 tokens in random order, with 0-2 token gaps."""
    lengths = rng.choice([1, 1, 1, 2, 3], size=n)
    gaps = rng.integers(0, 3, size=n)
    spans: list[tuple[int, int]] = [(0, 0)] * n
    pos = 0
    for slot, m in enumerate(rng.permutation(n).tolist()):
        pos += int(gaps[slot])
        spans[m] = (pos, pos + int(lengths[slot]) - 1)
        pos += int(lengths[slot])
    return spans, pos + 1


def generate(shape: Shape, seed: int) -> list[Doc]:
    rng = np.random.default_rng([seed, sum(map(ord, shape.name))])
    docs = []
    for d, spec in enumerate(shape.docs):
        key, start = [], 0
        for size in spec.sizes:
            key.append(list(range(start, start + size)))
            start += size
        n_key = start
        response, n_spurious = _response(rng, spec, key, n_key)
        spans, num_tokens = _layout(rng, n_key + n_spurious)
        named = frozenset()
        if spec.named_majors:
            named = frozenset(c[0] for c in key if len(c) >= LONG_THRESHOLD)
        doc_id = f"{shape.name}/{d:04d}; part 000"
        docs.append(Doc(doc_id, num_tokens, spans, named, n_key, key, response))
    return docs


# ---------------------------------------------------------------- writers


def _jsonl_record(doc: Doc, chains: list[list[int]], prefix: str, named: bool) -> str:
    out = []
    for c, chain in enumerate(chains):
        mentions = []
        for m in chain:
            start, end = doc.spans[m]
            entry: dict = {"start": start, "end": end}
            if named and m in doc.named:
                entry["is_named"] = True
            mentions.append(entry)
        out.append({"chain_id": f"{prefix}{c}", "mentions": mentions})
    record = {"doc_id": doc.doc_id, "num_tokens": doc.num_tokens, "chains": out}
    return json.dumps(record)


def _conll_block(doc: Doc, chains: list[list[int]]) -> str:
    cells = [[] for _ in range(doc.num_tokens)]
    for c, chain in enumerate(chains):
        for m in chain:
            start, end = doc.spans[m]
            if start == end:
                cells[start].append(f"({c})")
            else:
                cells[start].append(f"({c}")
                cells[end].append(f"{c})")
    lines = [f"#begin document {doc.doc_id}"]
    name = doc.doc_id.split(";")[0]
    for t, items in enumerate(cells):
        if t and t % 17 == 0:
            lines.append("")
        lines.append(f"{name}\t0\t{t}\tw{t}\t{'|'.join(items) or '-'}")
    lines.append("#end document")
    return "\n".join(lines) + "\n"


def write(docs: list[Doc], fmt: str, key_path: str, response_path: str) -> None:
    with open(key_path, "w", encoding="utf-8") as key, open(
        response_path, "w", encoding="utf-8"
    ) as response:
        for doc in docs:
            if fmt == "conll":
                key.write(_conll_block(doc, doc.key))
                response.write(_conll_block(doc, doc.response))
            else:
                key.write(_jsonl_record(doc, doc.key, "k", True) + "\n")
                response.write(_jsonl_record(doc, doc.response, "r", False) + "\n")


# ------------------------------------------------------- expected counts


def tallies(docs: list[Doc], remove_spurious: bool = False) -> dict[str, int]:
    """The ``counts`` block of a score report, before or after pathology."""
    out = dict.fromkeys(TALLY_KEYS, 0)
    for doc in docs:
        response = doc.response
        if remove_spurious:
            response = [[m for m in c if m < doc.n_key] for c in response]
            response = [c for c in response if c]
        out["key_mentions"] += doc.n_key
        out["response_mentions"] += sum(map(len, response))
        out["key_chains"] += len(doc.key)
        out["response_chains"] += len(response)
        out["key_singletons"] += sum(len(c) == 1 for c in doc.key)
        out["response_singletons"] += sum(len(c) == 1 for c in response)
        out["response_spurious"] += sum(m >= doc.n_key for c in response for m in c)
    return out


def stratum_of(doc: Doc, chain: list[int], require_named: bool) -> str:
    if len(chain) == 1:
        return "singleton"
    if len(chain) >= LONG_THRESHOLD and (
        not require_named or any(m in doc.named for m in chain)
    ):
        return "major"
    return "secondary"


def strata(docs: list[Doc], require_named: bool) -> dict:
    """Per-stratum tallies of the projected pairs, plus leakage."""
    per: dict[str, dict[str, int]] = {}
    leakage = 0
    for doc in docs:
        label: dict[int, str] = {}
        for chain in doc.key:
            s = stratum_of(doc, chain, require_named)
            label.update(dict.fromkeys(chain, s))
            t = per.setdefault(s, dict.fromkeys(TALLY_KEYS, 0))
            t["key_mentions"] += len(chain)
            t["key_chains"] += 1
            t["key_singletons"] += len(chain) == 1
        for chain in doc.response:
            seen: dict[str, int] = {}
            for m in chain:
                if m in label:
                    seen[label[m]] = seen.get(label[m], 0) + 1
            leakage += len(seen) >= 2
            for s, n in seen.items():
                per[s]["response_mentions"] += n
                per[s]["response_chains"] += 1
                per[s]["response_singletons"] += n == 1
    return {"per_stratum": per, "leakage": leakage}


def key_sizes(docs: list[Doc]) -> list[int]:
    return sorted((len(c) for doc in docs for c in doc.key), reverse=True)


def summary(docs: list[Doc]) -> dict:
    """Shape facts recorded beside each result."""
    t = tallies(docs)
    sizes = key_sizes(docs)
    slope = float(np.polyfit(np.log(np.arange(1, len(sizes) + 1)), np.log(sizes), 1)[0])
    return {
        "documents": len(docs),
        "key_mentions": t["key_mentions"],
        "key_chains": t["key_chains"],
        "response_mentions": t["response_mentions"],
        "response_chains": t["response_chains"],
        "key_singleton_share": round(t["key_singletons"] / t["key_chains"], 4),
        "response_singleton_share": round(
            t["response_singletons"] / t["response_chains"], 4),
        "spurious_share": round(t["response_spurious"] / t["response_mentions"], 4),
        "max_chain": sizes[0],
        "rank_size_slope": round(slope, 4),
    }
