"""The traced in-process run: layer timings, memory and CEAF work counts.

The four CLI commands are replayed in this process through corefeval's
public functions, once untraced and once traced.  Spans are recorded
around the calls from outside the package: calls this file makes are
wrapped where they are made, and calls corefeval makes between its own
modules are wrapped by swapping the module attributes for the length of
the traced pass.  Nothing in corefeval is edited.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import statistics
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from corefeval import (
    Chain,
    Mention,
    Partition,
    Role,
    StratumConfig,
    ceaf,
    corpus_stats_report,
    emit_report,
    pair_corpora,
    parse_conll,
    parse_jsonl,
    pathology_corpus,
    score_corpus,
    stratify_corpus,
)

import corpora

# The package re-exports a function named ``stratify``, which hides the
# submodule of that name from attribute access; import_module finds it.
corpus_mod = importlib.import_module("corefeval.corpus")
metrics_mod = importlib.import_module("corefeval.metrics")
stratify_mod = importlib.import_module("corefeval.stratify")

COMMANDS = ("score", "stratify", "pathology", "stats")
SCORE_METRICS = ("muc", "b3", "ceaf_m", "ceaf_e", "blanc", "lea", "tallies")


class Tracer:
    """Spans kept in memory as (name, start, end, parent index)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack = [-1]

    def call(self, name: str, fn: Callable, *args):
        if not self.enabled:
            return fn(*args)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        return lambda *args: self.call(name, fn, *args)

    @contextmanager
    def patched(self):
        """Wrap the calls corefeval's modules make into one another."""
        swaps = [
            (corpus_mod, "score_corpus", "corpus.score_corpus"),
            (corpus_mod, "partition_tallies", "metrics.tallies"),
            (metrics_mod, "partition_tallies", "metrics.tallies"),
            (corpus_mod, "remove_spurious", "metrics.remove_spurious"),
            (corpus_mod, "stratum_pairs", "stratify.stratum_pairs"),
            (stratify_mod, "stratum_pairs", "stratify.stratum_pairs"),
            (corpus_mod, "stats_report", "stats.stats_report"),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
        metric_counts = metrics_mod.metric_counts
        try:
            for mod, attr, name in swaps:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            metrics_mod.metric_counts = lambda metric, key, response: self.call(
                f"metrics.{metrics_mod.MetricId(metric).value}",
                metric_counts, metric, key, response)
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            metrics_mod.metric_counts = metric_counts

    def write(self, path: str, workload: str, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "workload": workload,
                                      "run": run_id}) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
        """Total time, self time, and time as a direct child of score_corpus."""
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        under_score: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            took = end - start
            total[name] = total.get(name, 0.0) + took
            own[name] = own.get(name, 0.0) + took
            if parent >= 0:
                parent_name = self.spans[parent][0]
                own[parent_name] = own.get(parent_name, 0.0) - took
                if parent_name == "corpus.score_corpus":
                    under_score[name] = under_score.get(name, 0.0) + took
        return total, own, under_score


class Replay:
    """The CLI's four commands as in-process calls on one generated corpus."""

    def __init__(self, shape: corpora.Shape, key_path: str, response_path: str):
        self.shape = shape
        self.key_path = key_path
        self.response_path = response_path

    def _load(self, t: Tracer, path: str, role: Role):
        parse = parse_conll if self.shape.fmt == "conll" else parse_jsonl
        with open(path, encoding="utf-8") as stream:
            return t.call(f"{self.shape.fmt}.parse", parse, stream, role)

    def report(self, t: Tracer, command: str):
        key = self._load(t, self.key_path, Role.KEY)
        if command == "stats":
            return corpus_stats_report(key)
        response = self._load(t, self.response_path, Role.RESPONSE)
        pairs = t.call("corpus.pair", pair_corpora, key, response)
        averaging = self.shape.averaging
        if command == "score":
            return t.call("corpus.score_corpus", score_corpus, pairs, None, averaging)
        if command == "stratify":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return t.call("stratify.stratify_corpus", stratify_corpus,
                              pairs, StratumConfig(), None, averaging)
        return t.call("corpus.pathology_corpus", pathology_corpus, pairs, None, averaging)

    def run(self, t: Tracer, command: str, fmt: str) -> tuple[object, str]:
        report = self.report(t, command)
        return report, t.call("reports.emit", emit_report, report, fmt)

    def timed(self, t: Tracer, outputs: dict[str, str]) -> tuple[dict, dict]:
        """Each command once: (report, rendered text) and wall time per command."""
        results, seconds = {}, {}
        for command in COMMANDS:
            gc.collect()
            start = time.perf_counter()
            results[command] = t.call(f"cli.{command}", self.run, t, command,
                                      outputs[command])
            seconds[command] = time.perf_counter() - start
        return results, seconds

    def memory(self) -> dict[str, float]:
        """Bytes per mention held by both parsed sides with their indexes built."""
        gc.collect()
        tracemalloc.start()
        try:
            sides = [self._load(Tracer(False), path, role) for path, role in
                     ((self.key_path, Role.KEY), (self.response_path, Role.RESPONSE))]
            for side in sides:
                for _, part in side.documents:
                    part.mention_set, part.chain_by_mention
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counts = {}
        for side, role in zip(sides, ("key", "response")):
            parts = [part for _, part in side.documents]
            counts[f"model.{role}_mentions"] = sum(len(p.mention_set) for p in parts)
            counts[f"model.{role}_chains"] = sum(len(p.chains) for p in parts)
        mentions = counts["model.key_mentions"] + counts["model.response_mentions"]
        return {"model.bytes_per_mention": held / mentions, **counts}


def ceaf_work(docs: list[corpora.Doc]) -> dict[str, float]:
    """Dense and non-zero key x response cells and the largest component.

    Counted from the generated partitions: a cell is non-zero when the two
    chains share a mention, and a component is a connected set of chains
    (key and response) joined by non-zero cells.
    """
    dense = nonzero = largest = 0
    for doc in docs:
        n_key, n_resp = len(doc.key), len(doc.response)
        dense += n_key * n_resp
        owner = {m: i for i, chain in enumerate(doc.key) for m in chain}
        cells = {(owner[m], n_key + j) for j, chain in enumerate(doc.response)
                 for m in chain if m in owner}
        nonzero += len(cells)
        rows, cols = zip(*cells) if cells else ((), ())
        graph = coo_matrix((np.ones(len(cells)), (rows, cols)),
                           shape=(n_key + n_resp,) * 2)
        _, labels = connected_components(graph, directed=False)
        largest = max(largest, int(np.bincount(labels).max()))
    return {"metrics.ceaf_dense_cells": dense,
            "metrics.ceaf_nonzero_cells": nonzero,
            "metrics.ceaf_useful_frac": nonzero / dense,
            "metrics.ceaf_max_component": largest}


def _singleton_pair(rng: np.random.Generator, n: int) -> tuple[Partition, Partition]:
    """n singleton chains per side; 30% of the response spans are spurious."""
    doc = "probe"
    key = Partition(doc, [Chain(f"k{i}", [Mention(doc, i, i)]) for i in range(n)],
                    Role.KEY)
    kept = rng.permutation(n)[: n - round(0.3 * n)].tolist()
    spans = kept + list(range(n, n + round(0.3 * n)))
    response = Partition(
        doc, [Chain(f"r{i}", [Mention(doc, s, s)]) for i, s in enumerate(spans)],
        Role.RESPONSE)
    return key, response


def ceaf_e_scaling(seed: int, n: int, repeats: int = 3) -> float:
    """log2 of the ceaf_e time ratio between 2n and n singleton chains."""
    rng = np.random.default_rng([seed, n])
    times = []
    for size in (n, 2 * n):
        key, response = _singleton_pair(rng, size)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            ceaf(key, response, "entity")
            samples.append(time.perf_counter() - start)
        times.append(statistics.median(samples))
    return math.log2(times[1] / times[0])


def layer_metrics(t: Tracer, plain: dict[str, float], traced: dict[str, float],
                  cli: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one traced pass; see README.md for each one."""
    total, own, under_score = t.totals()
    out = {
        "conll.parse_s": total.get("conll.parse", 0.0),
        "jsonl.parse_s": total.get("jsonl.parse", 0.0),
        "corpus.pair_s": total.get("corpus.pair", 0.0),
    }
    for name in SCORE_METRICS:
        out[f"metrics.{name}_s"] = under_score.get(f"metrics.{name}", 0.0)
    out.update({
        "metrics.remove_spurious_s": total.get("metrics.remove_spurious", 0.0),
        "corpus.score_corpus_s": total.get("corpus.score_corpus", 0.0),
        "corpus.score_self_s": own.get("corpus.score_corpus", 0.0),
        "corpus.pathology_corpus_s": total.get("corpus.pathology_corpus", 0.0),
        "stratify.stratum_pairs_s": total.get("stratify.stratum_pairs", 0.0),
        "stratify.stratify_corpus_s": total.get("stratify.stratify_corpus", 0.0),
        "stats.stats_report_s": total.get("stats.stats_report", 0.0),
        "reports.emit_s": total.get("reports.emit", 0.0),
    })
    for command in COMMANDS:
        out[f"cli.{command}_overhead_s"] = cli[command] - plain[command]
    out["trace.overhead_frac"] = sum(traced.values()) / sum(plain.values()) - 1.0
    return out
