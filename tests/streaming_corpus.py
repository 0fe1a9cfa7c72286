"""A small generated corpus for the streaming tests.

Document ``d`` has 40 key chains (or ``n_chains``) of one-token mentions,
sized ``1 + (c + d) % 12`` (so some reach the default major threshold of 10).
The response drops every seventh mention, moves every fifth into the
next chain and adds three spurious mentions in two chains.  The text is
built from integer arithmetic only, so it is the same on every platform.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional


def chains_of(d: int, side: str, n_chains: int = 40) -> tuple[list[list[int]], int]:
    """The token of every mention, per chain, and the document's length."""
    chains, token = [], 0
    for c in range(n_chains):
        size = 1 + (c + d) % 12
        chains.append(list(range(token, token + size)))
        token += size
    if side == "key":
        return chains, token + 5
    moved: list[list[int]] = [[] for _ in chains]
    for c, tokens in enumerate(chains):
        for k, t in enumerate(tokens):
            if k % 7 != 3:
                moved[(c + 1) % len(chains) if k % 5 == 4 else c].append(t)
    moved += [[token, token + 1], [token + 2]]
    return [tokens for tokens in moved if tokens], token + 5


def corpus_text(
    fmt: str,
    side: str,
    docs: Iterable[int],
    named: Optional[int] = None,
    extra_tokens: Optional[dict[int, int]] = None,
    n_chains: int = 40,
) -> str:
    """Documents ``doc<d>`` in the order given, in jsonl or CoNLL.

    On the key side, document ``named`` flags the first mention of its
    one chain of size 12 as named; ``extra_tokens`` lengthens documents,
    to make token counts disagree.
    """
    extra_tokens = extra_tokens or {}
    out = []
    for d in docs:
        chains, n = chains_of(d, side, n_chains)
        n += extra_tokens.get(d, 0)
        flagged = (named, (11 - d) % 12, 0) if side == "key" else None
        if fmt == "jsonl":
            record = {
                "doc_id": f"doc{d}",
                "num_tokens": n,
                "chains": [
                    {
                        "chain_id": str(c),
                        "mentions": [
                            {"start": t, "end": t}
                            | ({"is_named": True} if (d, c, k) == flagged else {})
                            for k, t in enumerate(tokens)
                        ],
                    }
                    for c, tokens in enumerate(chains)
                ],
            }
            out.append(json.dumps(record) + "\n")
        else:
            owner = {t: c for c, tokens in enumerate(chains) for t in tokens}
            out.append(f"#begin document doc{d}\n")
            out.extend(f"w\t({owner[t]})\n" if t in owner else "w\t-\n" for t in range(n))
            out.append("#end document\n")
    return "".join(out)


# Pairing cases: the documents of each side, in file order, and the
# response documents lengthened by some tokens.
PAIRING_CASES = {
    "reversed": ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], {}),
    "unpaired": ([0, 1, 2, 3, 9], [0, 1, 2, 3, 7, 8], {}),
    "unpaired_and_mismatch": ([0, 1, 2, 3, 9], [0, 1, 2, 3], {2: 1}),
    "two_mismatches": ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], {3: 1, 1: 2}),
}
# Stratify degrade cases, jsonl: the only named key mention is in the last
# document read, or there is none.
DEGRADE_CASES = {"named_last": 2, "unnamed": None}
DEGRADE_ORDER = [3, 1, 4, 2]


def pairing_run(tmp, fmt: str, case: str, command: str, *flags: str) -> list[str]:
    """Write one pairing case under ``tmp``; the CLI arguments that run
    ``command`` on it (``stats`` reads the key only), then ``flags``."""
    key_docs, response_docs, extra = PAIRING_CASES[case]
    key, response = tmp / f"key.{fmt}", tmp / f"response.{fmt}"
    key.write_text(corpus_text(fmt, "key", key_docs), encoding="utf-8")
    response.write_text(
        corpus_text(fmt, "response", response_docs, extra_tokens=extra),
        encoding="utf-8",
    )
    paths = ["--key", str(key)]
    if command != "stats":
        paths += ["--response", str(response)]
    return [command, *paths, *flags]


def degrade_run(tmp, case: str, output: str, averaging: str) -> list[str]:
    """Write one stratify degrade case under ``tmp``; its CLI arguments."""
    key, response = tmp / "key.jsonl", tmp / "response.jsonl"
    named = DEGRADE_CASES[case]
    key.write_text(corpus_text("jsonl", "key", DEGRADE_ORDER, named), encoding="utf-8")
    response.write_text(
        corpus_text("jsonl", "response", DEGRADE_ORDER), encoding="utf-8"
    )
    return [
        "stratify", "--key", str(key), "--response", str(response),
        "--output", output, "--averaging", averaging,
    ]


# The metric subset whose BLANC fields sit in the middle of a document's
# counts, not at the end as with all six metrics.
SUBSET = "ceaf_e,muc,blanc"


def flag_runs():
    """(name, format, command, flags) of the pinned runs with flags, all on
    the ``reversed`` case: both averagings with all metrics and with
    ``SUBSET``, a stratify labelling with no named mention needed, and
    ``stats`` without singletons."""
    for fmt in ("jsonl", "conll"):
        for command in ("score", "stratify", "pathology"):
            for averaging in ("micro", "macro"):
                for metrics in (None, SUBSET):
                    flags = ["--output", "json", "--averaging", averaging]
                    if metrics:
                        flags += ["--metrics", metrics]
                    name = f"{fmt}/reversed/{command}/json/{averaging}"
                    yield name + (f"/{metrics}" if metrics else ""), fmt, command, flags
        for output in ("json", "table"):
            flags = ["--output", output, "--no-require-named", "--long-threshold", "3"]
            yield f"{fmt}/reversed/stratify/{output}/long3", fmt, "stratify", flags
        for output in ("json", "csv", "table"):
            flags = ["--output", output, "--exclude-singletons"]
            yield f"{fmt}/reversed/stats/{output}/exclude-singletons", fmt, "stats", flags
    for command in ("score", "stratify", "pathology"):
        for output in ("table", "csv"):
            flags = ["--output", output, "--averaging", "macro", "--metrics", SUBSET]
            name = f"jsonl/reversed/{command}/{output}/macro/{SUBSET}"
            yield name, "jsonl", command, flags


def recorded_runs():
    """(name, writer) for every run whose output is pinned; each writer takes
    a directory and returns the CLI arguments."""
    for fmt in ("jsonl", "conll"):
        for case in PAIRING_CASES:
            commands = ["score", "stratify", "pathology"] if case == "reversed" else ["score"]
            for command in commands:
                yield f"{fmt}/{case}/{command}", (
                    lambda tmp, f=fmt, c=case, m=command: pairing_run(tmp, f, c, m)
                )
    for name, fmt, command, flags in flag_runs():
        yield name, (
            lambda tmp, f=fmt, m=command, a=flags: pairing_run(tmp, f, "reversed", m, *a)
        )
    for case in DEGRADE_CASES:
        for output in ("json", "csv", "table"):
            for averaging in ("micro", "macro"):
                yield f"jsonl/{case}/stratify/{output}/{averaging}", (
                    lambda tmp, c=case, o=output, a=averaging: degrade_run(tmp, c, o, a)
                )
