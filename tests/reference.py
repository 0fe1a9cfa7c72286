"""Partition-level references for the diagnostics the table path computes.

Each function follows its definition directly over what a partition
stores: ``chain_ids``, ``spans`` (per-chain sorted span tuples) and
``named`` (the spans flagged is_named).  Strata are returned as their
plain names.  Like ``oracles.py``, this module imports no scoring code
from the package, so the checks against it are not self-comparisons.
"""

from __future__ import annotations


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
