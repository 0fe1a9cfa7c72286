"""The table path against the partition-building reference.

Strata and the pathology "after" pass are row projections of one overlap
table per document; ``stratum_pairs`` and ``remove_spurious`` build the
same inputs as partitions.  Both must give equal counts, reports and
diagnostics, compared with ``==``, for all six metrics under both
averagings.
"""

import warnings

from hypothesis import given, strategies as st

import helpers
from corefeval import (
    ALL_METRICS,
    Averaging,
    DocPair,
    PRCounts,
    Stratum,
    StratumConfig,
    classify_chain,
    collect_counts,
    mentions_of,
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


@st.composite
def corpora(draw):
    """1-3 documents of random key/response pairs, some with named mentions."""
    pairs = []
    for d in range(draw(st.integers(1, 3))):
        key, resp = draw(helpers.label_instances(max_mentions=14, max_chains=6))
        named = draw(st.frozensets(st.integers(0, 13), max_size=4))
        pairs.append(DocPair(*helpers.build_pair(key, resp, f"d{d}", named)))
    config = StratumConfig(draw(st.integers(2, 5)), draw(st.booleans()))
    return pairs, config


def leakage_reference(key, resp, config):
    label = {m: classify_chain(c, config) for c in key.chains for m in c.mentions}
    return sum(
        len({label[m] for m in c.mentions if m in label}) >= 2 for c in resp.chains
    )


def detection_reference(key, resp):
    found = len(key.singleton_mentions & resp.singleton_mentions)
    return PRCounts(
        found, len(key.singleton_mentions), found, len(resp.singleton_mentions)
    )


@given(corpora())
def test_document_projections_match_rebuilt_partitions(corpus):
    pairs, config = corpus
    for p in pairs:
        t = overlap(p.key, p.response)
        labels = chain_strata(p.key, config)
        tables = stratum_tables(t, labels)
        rebuilt = stratum_pairs(p.key, p.response, config)
        assert tables.keys() == rebuilt.keys()
        for stratum, (key, resp) in rebuilt.items():
            assert table_counts(tables[stratum], ALL_METRICS) == collect_counts(
                key, resp
            )
            assert table_tallies(tables[stratum]) == partition_tallies(key, resp)
        assert table_leakage(t, labels) == leakage_reference(
            p.key, p.response, config
        )
        assert table_singleton_detection(t) == detection_reference(p.key, p.response)
        assert t.spurious() == len(mentions_of(p.response) - mentions_of(p.key))
        cleaned = remove_spurious(p.response, p.key)
        after = t.project(range(len(t.rows)))
        assert table_counts(after, ALL_METRICS) == collect_counts(p.key, cleaned)
        assert table_tallies(after) == partition_tallies(p.key, cleaned)


@given(corpora())
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
            leakage_reference(p.key, p.response, applied) for p in pairs
        )
        assert report.spurious_mentions == sum(
            len(mentions_of(p.response) - mentions_of(p.key)) for p in pairs
        )

        path = pathology_corpus(pairs, averaging=averaging)
        cleaned = [DocPair(p.key, remove_spurious(p.response, p.key)) for p in pairs]
        assert path.before == score_corpus(pairs, averaging=averaging)
        assert path.after == score_corpus(cleaned, averaging=averaging)
