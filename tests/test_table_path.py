"""The table path against the partition-building reference.

Strata and the pathology "after" pass are row projections of one overlap
table per document; ``stratum_pairs`` and ``remove_spurious`` build the
same inputs as partitions.  Both must give equal counts, reports and
diagnostics, compared with ``==``, for all six metrics under both
averagings.  Strata, leakage, singleton detection and the spurious count
are checked against ``reference.py``, which reads the partitions' spans.
The MUC, B3, LEA and BLANC counts of one cell walk must equal, with
``==``, the per-metric walks over a transposed table in ``reference.py``.
"""

import warnings

from hypothesis import given

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
from corefeval.stratify import (
    chain_strata,
    stratum_pairs,
    stratum_tables,
    table_leakage,
    table_singleton_detection,
)


def partition_counts(key, resp):
    return table_counts(overlap(key, resp), ALL_METRICS)


@given(helpers.corpora())
def test_document_projections_match_rebuilt_partitions(corpus):
    pairs, config = corpus
    for p in pairs:
        t = overlap(p.key, p.response)
        labels = chain_strata(p.key, config)
        assert labels == reference.strata(p.key, config)
        tables = stratum_tables(t, labels)
        rebuilt = stratum_pairs(p.key, p.response, config)
        assert tables.keys() == rebuilt.keys()
        for stratum, (key, resp) in rebuilt.items():
            assert table_counts(tables[stratum], ALL_METRICS) == partition_counts(
                key, resp
            )
            assert table_tallies(tables[stratum]) == partition_tallies(key, resp)
        assert table_leakage(t, labels) == reference.leakage(
            p.key, p.response, config
        )
        assert table_singleton_detection(t) == reference.singleton_detection(
            p.key, p.response
        )
        assert t.spurious() == reference.spurious(p.key, p.response)
        cleaned = remove_spurious(p.response, p.key)
        after = t.project(range(len(t.rows)))
        assert table_counts(after, ALL_METRICS) == partition_counts(p.key, cleaned)
        assert table_tallies(after) == partition_tallies(p.key, cleaned)


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
        assert_one_walk_matches_per_metric_walks(t.project(range(len(t.rows))))
        for projected in stratum_tables(t, chain_strata(p.key, config)).values():
            assert_one_walk_matches_per_metric_walks(projected)
