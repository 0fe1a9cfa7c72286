"""The table path against the partition-building reference.

Strata and the pathology "after" pass are row projections of one overlap
table per document (``split_table``); ``stratum_pairs`` and
``remove_spurious`` build the same inputs as partitions.  Both must give
equal tables, counts, reports and diagnostics, compared with ``==``, for
all six metrics under both averagings.  Strata, leakage, singleton
detection and the spurious count are checked against ``reference.py``,
which reads the partitions' spans; the one walk of a labelled table also
against ``reference.py``'s projection and separate walks of random tables
and their cell sums.
The MUC, B3, LEA and BLANC counts of one cell walk must equal, with
``==``, the per-metric walks over a transposed table in ``reference.py``.
"""

import warnings

from hypothesis import given, strategies as st

import helpers
import reference
from corefeval import (
    ALL_METRICS,
    Averaging,
    DocPair,
    MetricId,
    Stratum,
    partition_tallies,
    pathology_corpus,
    remove_spurious,
    score_corpus,
    stratify_corpus,
)
from corefeval.metrics import overlap, table_counts, table_tallies
from corefeval.stratify import chain_strata, split_table, stratum_pairs


def partition_counts(key, resp):
    return table_counts(overlap(key, resp), ALL_METRICS)


@given(helpers.corpora())
def test_document_projections_match_rebuilt_partitions(corpus):
    pairs, config = corpus
    for p in pairs:
        t = overlap(p.key, p.response)
        labels = chain_strata(p.key, config)
        assert labels == reference.strata(p.key, config)
        tables, leakage, detection, cells = split_table(t, labels)
        rebuilt = stratum_pairs(p.key, p.response, config)
        assert tables.keys() == rebuilt.keys()
        for stratum, (key, resp) in rebuilt.items():
            assert tables[stratum] == overlap(key, resp)
            assert table_counts(tables[stratum], ALL_METRICS) == partition_counts(
                key, resp
            )
            assert table_tallies(tables[stratum]) == partition_tallies(key, resp)
        assert leakage == reference.leakage(p.key, p.response, config)
        assert detection == reference.singleton_detection(p.key, p.response)
        spurious = reference.spurious(p.key, p.response)
        assert sum(t.response_sizes) - cells == spurious
        assert table_tallies(t)["response_spurious"] == spurious
        cleaned = remove_spurious(p.response, p.key)
        after = helpers.projection(t, range(len(t.rows)))
        assert after == overlap(p.key, cleaned)
        assert table_counts(after, ALL_METRICS) == partition_counts(p.key, cleaned)
        assert table_tallies(after) == partition_tallies(p.key, cleaned)


@given(st.data())
def test_one_walk_matches_separate_walks_on_random_tables(data):
    t = data.draw(helpers.overlap_tables())
    n = len(t.rows)
    labels = data.draw(st.lists(st.sampled_from(Stratum), min_size=n, max_size=n))
    tables, leakage, detection, cells = split_table(t, labels)
    assert list(tables) == list(dict.fromkeys(labels))
    for label, projected in tables.items():
        rows = [i for i in range(n) if labels[i] is label]
        assert projected == reference.project(t, rows)
        assert projected == helpers.projection(t, rows)
    assert leakage == reference.table_leakage(t, labels)
    assert detection == reference.table_singleton_detection(t)
    assert cells == sum(sum(row.values()) for row in t.rows)


@given(helpers.corpora())
def test_corpus_reports_match_rebuilt_partitions(corpus):
    pairs, config = corpus
    for averaging in Averaging:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = stratify_corpus(pairs, config, averaging=averaging)
        applied = report.config
        slices = [stratum_pairs(p.key, p.response, applied) for p in pairs]
        for stratum in Stratum:
            docs = [DocPair(*s[stratum]) for s in slices if stratum in s]
            if docs:
                assert report.per_stratum[stratum] == score_corpus(
                    docs, averaging=averaging
                )
            else:
                assert stratum not in report.per_stratum
        assert report.leakage == sum(
            reference.leakage(p.key, p.response, applied) for p in pairs
        )
        assert report.spurious_mentions == sum(
            reference.spurious(p.key, p.response) for p in pairs
        )

        path = pathology_corpus(pairs, averaging=averaging)
        cleaned = [DocPair(p.key, remove_spurious(p.response, p.key)) for p in pairs]
        assert path.before == score_corpus(pairs, averaging=averaging)
        assert path.after == score_corpus(cleaned, averaging=averaging)


LINK_METRICS = (MetricId.MUC, MetricId.B3, MetricId.LEA, MetricId.BLANC)


def assert_one_walk_matches_per_metric_walks(t):
    want = reference.link_counts(t)
    together = table_counts(t, ALL_METRICS)
    for m in LINK_METRICS:
        assert together[m] == want[m]
        assert table_counts(t, (m,))[m] == want[m]


@given(helpers.row_projections(helpers.overlap_tables(max_chains=10)))
def test_one_walk_matches_per_metric_walks_on_random_tables(t):
    assert_one_walk_matches_per_metric_walks(t)


@given(helpers.corpora())
def test_one_walk_matches_per_metric_walks_on_document_projections(corpus):
    pairs, config = corpus
    for p in pairs:
        t = overlap(p.key, p.response)
        assert_one_walk_matches_per_metric_walks(t)
        assert_one_walk_matches_per_metric_walks(helpers.projection(t, range(len(t.rows))))
        for projected in split_table(t, chain_strata(p.key, config))[0].values():
            assert_one_walk_matches_per_metric_walks(projected)
