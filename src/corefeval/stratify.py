"""Stratified evaluation: major / secondary / singleton chain classes.

Key chains are classified by length and (optionally) the presence of a
named mention; the response is projected onto each stratum's mention set
and scored there.  Cross-stratum confusion that projection hides is
surfaced separately as the leakage count: response chains whose key
mentions straddle two or more strata.  Response mentions absent from the
key belong to no stratum; their count is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .errors import ModelError
from .metrics import MetricReport, PRCounts
from .model import (
    Chain,
    Mention,
    Partition,
    ScoreTriple,
    check_same_doc,
    mentions_of,
)


class Stratum(str, Enum):
    MAJOR = "major"
    SECONDARY = "secondary"
    SINGLETON = "singleton"


@dataclass(frozen=True)
class StratumConfig:
    """Classification knobs.

    A chain is major when its size reaches ``long_threshold`` and, if
    ``require_named`` is set, at least one mention carries is_named.
    """

    long_threshold: int = 10
    require_named: bool = True

    def __post_init__(self):
        if self.long_threshold < 2:
            raise ModelError(
                f"long_threshold must be >= 2, got {self.long_threshold}"
            )


def classify_chain(chain: Chain, config: StratumConfig) -> Stratum:
    if len(chain) == 1:
        return Stratum.SINGLETON
    if len(chain) >= config.long_threshold and (
        not config.require_named or any(m.is_named for m in chain.mentions)
    ):
        return Stratum.MAJOR
    return Stratum.SECONDARY


def stratify(
    key: Partition, config: StratumConfig
) -> dict[Stratum, frozenset[Chain]]:
    """Classify every key chain; the three sets partition key.chains."""
    out: dict[Stratum, set[Chain]] = {s: set() for s in Stratum}
    for chain in key.chains:
        out[classify_chain(chain, config)].add(chain)
    return {s: frozenset(chains) for s, chains in out.items()}


def project(p: Partition, keep: Iterable[Mention]) -> Partition:
    """Intersect every chain with ``keep``; drop emptied chains, keep ids."""
    keep = frozenset(keep)
    chains = []
    for chain in p.chains:
        kept = [m for m in chain.mentions if m in keep]
        if kept:
            chains.append(Chain(chain.chain_id, kept))
    return Partition(p.doc_id, chains, p.role)


def singleton_detection_counts(key: Partition, response: Partition) -> PRCounts:
    """A singleton is detected only when its span is a singleton on both sides."""
    check_same_doc(key, response)
    key_singles = key.singleton_mentions
    resp_singles = response.singleton_mentions
    found = len(key_singles & resp_singles)
    return PRCounts(found, len(key_singles), found, len(resp_singles))


def singleton_detection(key: Partition, response: Partition) -> ScoreTriple:
    return singleton_detection_counts(key, response).triple()


def leakage_count(key: Partition, response: Partition, config: StratumConfig) -> int:
    """Response chains whose key mentions span at least two strata.

    Response-only mentions carry no stratum label and are ignored here.
    """
    check_same_doc(key, response)
    label: dict[Mention, Stratum] = {}
    for chain in key.chains:
        stratum = classify_chain(chain, config)
        for m in chain.mentions:
            label[m] = stratum
    count = 0
    for chain in response.chains:
        strata = {label[m] for m in chain.mentions if m in label}
        if len(strata) >= 2:
            count += 1
    return count


@dataclass(frozen=True)
class StratifiedReport:
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
        resp_slice = project(response, mentions_of(key_slice))
        out[stratum] = (key_slice, resp_slice)
    return out

