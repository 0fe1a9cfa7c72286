"""The names the benchmark's traced run takes from the package still exist.

``bench/layers.py`` imports names from ``corefeval`` and calls them
positionally, and ``Tracer.patched`` swaps module attributes for timed
wrappers.  A change that drops or re-signs one of them shows only when
``bench/run.py --trace 1`` runs, 30 s into ``bench/tests/test_bench_quick.py``;
these tests fail at once and name it.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

# The parameters of everything the traced run calls or swaps, in order.
SIGNATURES = {
    "corefeval.Chain": ["chain_id", "mentions"],
    "corefeval.Mention": ["doc_id", "start", "end", "is_named", "surface"],
    "corefeval.Partition": ["doc_id", "chains", "role"],
    "corefeval.StratumConfig": ["long_threshold", "require_named"],
    "corefeval.ceaf": ["key", "response", "variant"],
    "corefeval.corpus_stats_report": ["source", "exclude_singletons"],
    "corefeval.emit_report": ["report", "fmt"],
    "corefeval.pair_corpora": ["key_source", "response_source"],
    "corefeval.parse_conll": ["lines", "role"],
    "corefeval.parse_jsonl": ["lines", "role"],
    "corefeval.pathology_corpus": ["pairs", "metrics", "averaging"],
    "corefeval.score_corpus": ["pairs", "metrics", "averaging"],
    "corefeval.stratify_corpus": ["pairs", "config", "metrics", "averaging"],
    "corefeval.corpus.score_corpus": ["pairs", "metrics", "averaging"],
    "corefeval.corpus.partition_tallies": ["key", "response"],
    "corefeval.metrics.partition_tallies": ["key", "response"],
    "corefeval.corpus.remove_spurious": ["response", "key"],
    "corefeval.corpus.stratum_pairs": ["key", "response", "config"],
    "corefeval.stratify.stratum_pairs": ["key", "response", "config"],
    "corefeval.corpus.stats_report": ["docs", "exclude_singletons"],
    "corefeval.metrics.metric_counts": ["metric", "key", "response"],
}


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


def test_tracer_swaps_every_hook_and_restores_it(layers):
    modules = [layers.corpus_mod, layers.metrics_mod, layers.stratify_mod]
    before = [dict(vars(m)) for m in modules]
    with layers.Tracer(True).patched():
        assert [dict(vars(m)) for m in modules] != before
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize("name", SIGNATURES)
def test_hook_keeps_its_signature(name):
    module, attr = name.rsplit(".", 1)
    target = getattr(importlib.import_module(module), attr)
    assert list(inspect.signature(target).parameters) == SIGNATURES[name]
