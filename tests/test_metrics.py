import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

import helpers
import oracles
from corefeval import (
    ALL_METRICS,
    CeafVariant,
    Chain,
    DocMismatch,
    DocPair,
    MetricId,
    Partition,
    Role,
    b_cubed,
    blanc,
    ceaf,
    lea,
    Mention,
    metric_counts,
    muc,
    partition_tallies,
    pathology_corpus,
    remove_spurious,
    score_corpus,
)


def as_tuple(triple):
    return (triple.recall, triple.precision, triple.f1)


# Working pair used throughout: the key has one three-mention chain and
# one two-mention chain; the response splits the first and merges its
# remainder into the second.
KEY = {"k1": frozenset({1, 2, 3}), "k2": frozenset({4, 5})}
RESP = {"r1": frozenset({1, 2}), "r2": frozenset({3, 4, 5})}

SCORERS = {
    MetricId.MUC: muc,
    MetricId.B3: b_cubed,
    MetricId.CEAF_M: lambda k, r: ceaf(k, r, CeafVariant.MENTION),
    MetricId.CEAF_E: lambda k, r: ceaf(k, r, CeafVariant.ENTITY),
    MetricId.BLANC: blanc,
    MetricId.LEA: lea,
}


def assert_matches_oracle(key_labels, resp_labels, tol=1e-12):
    key, resp = helpers.build_pair(key_labels, resp_labels)
    for metric, scorer in SCORERS.items():
        got = scorer(key, resp)
        want = oracles.ORACLES[metric.value](key_labels, resp_labels)
        for value, exact in zip((got.recall, got.precision, got.f1), want):
            assert abs(value - float(exact)) <= tol, (
                f"{metric.value}: {value} vs {exact}"
            )


class TestWorkedExample:
    """Hand-derived fractions for the split-and-merge pair above."""

    @pytest.mark.parametrize(
        "metric, expected",
        [
            (MetricId.MUC, Fraction(2, 3)),
            (MetricId.B3, Fraction(11, 15)),
            (MetricId.CEAF_M, Fraction(4, 5)),
            (MetricId.CEAF_E, Fraction(4, 5)),
            (MetricId.BLANC, Fraction(7, 12)),
            (MetricId.LEA, Fraction(3, 5)),
        ],
    )
    def test_scores(self, metric, expected):
        key, resp = helpers.build_pair(KEY, RESP)
        triple = SCORERS[metric](key, resp)
        for value in (triple.recall, triple.precision, triple.f1):
            assert value == pytest.approx(float(expected), abs=1e-12)
        # the independent scorer lands on the same exact fraction
        assert oracles.ORACLES[metric.value](KEY, RESP)[2] == expected

    def test_conll_average(self):
        key, resp = helpers.build_pair(KEY, RESP)
        report = score_corpus([DocPair(key, resp)])
        assert report.conll_average == pytest.approx(11 / 15, abs=1e-12)

    def test_blanc_category_structure(self):
        key, resp = helpers.build_pair(KEY, RESP)
        counts = blanc(key, resp)
        assert counts.recall == pytest.approx(7 / 12, abs=1e-12)
        assert counts.f1 == pytest.approx((1 / 2 + 2 / 3) / 2, abs=1e-12)


class TestKnownReconstruction:
    """A published two-chain / three-chain contrast pair.

    Key entities {a,b,c} and {d,e,f,g}; the response finds {a,b}, {c,d},
    and {f,g,h,i} (h, i spurious; e missed).
    """

    KEY = {"k1": frozenset("abc"), "k2": frozenset("defg")}
    RESP = {"r1": frozenset("ab"), "r2": frozenset("cd"), "r3": frozenset("fghi")}

    @pytest.mark.parametrize(
        "metric, expected_f1",
        [
            (MetricId.MUC, Fraction(2, 5)),
            (MetricId.B3, Fraction(5, 11)),
            (MetricId.CEAF_M, Fraction(8, 15)),
            (MetricId.CEAF_E, Fraction(13, 25)),
            (MetricId.BLANC, Fraction(25, 68)),
            (MetricId.LEA, Fraction(5, 18)),
        ],
    )
    def test_f1(self, metric, expected_f1):
        key, resp = helpers.build_pair(self.KEY, self.RESP)
        assert SCORERS[metric](key, resp).f1 == pytest.approx(
            float(expected_f1), abs=1e-12
        )
        assert oracles.ORACLES[metric.value](self.KEY, self.RESP)[2] == expected_f1


class TestMucEdges:
    def test_identity_with_link(self):
        key, resp = helpers.build_pair({"k": frozenset({1, 2})}, {"r": frozenset({1, 2})})
        assert muc(key, resp).f1 == 1.0

    def test_fully_split_chain(self):
        key, resp = helpers.build_pair(
            {"k": frozenset({1, 2})}, {"r1": frozenset({1}), "r2": frozenset({2})}
        )
        assert as_tuple(muc(key, resp)) == (0.0, 0.0, 0.0)

    def test_all_singletons_score_zero(self):
        key, resp = helpers.build_pair(
            {"k1": frozenset({1}), "k2": frozenset({2})},
            {"r1": frozenset({1}), "r2": frozenset({2})},
        )
        triple = muc(key, resp)
        assert (triple.recall, triple.precision, triple.f1) == (0.0, 0.0, 0.0)

    def test_cross_document_pair_rejected(self):
        key = helpers.build_partition({"k": frozenset({1, 2})}, Role.KEY, doc="a")
        resp = helpers.build_partition({"r": frozenset({1, 2})}, Role.RESPONSE, doc="b")
        with pytest.raises(DocMismatch):
            muc(key, resp)


class TestB3Edges:
    def test_identity(self):
        key, resp = helpers.build_pair({"k": frozenset({1, 2, 3})}, {"r": frozenset({1, 2, 3})})
        assert b_cubed(key, resp).f1 == 1.0

    def test_isolated_singleton_scores_one(self):
        key, resp = helpers.build_pair({"k": frozenset({1})}, {"r": frozenset({1})})
        assert as_tuple(b_cubed(key, resp)) == (1.0, 1.0, 1.0)

    def test_empty_response(self):
        key, resp = helpers.build_pair({"k": frozenset({1, 2})}, {})
        triple = b_cubed(key, resp)
        assert triple.recall == 0.0
        assert triple.precision == 0.0


class TestCeafEdges:
    def test_zero_overlap_scores_zero(self):
        key, resp = helpers.build_pair({"k": frozenset({1, 2})}, {"r": frozenset({3, 4})})
        for variant in CeafVariant:
            triple = ceaf(key, resp, variant)
            assert (triple.recall, triple.precision, triple.f1) == (0.0, 0.0, 0.0)

    def test_variant_accepts_strings(self):
        key, resp = helpers.build_pair(KEY, RESP)
        assert ceaf(key, resp, "mention") == ceaf(key, resp, CeafVariant.MENTION)
        assert ceaf(key, resp, "entity") == ceaf(key, resp, CeafVariant.ENTITY)

    def test_entity_variant_counts_chains_in_denominator(self):
        # one of three key chains is matched perfectly
        key, resp = helpers.build_pair(
            {"k1": frozenset({1, 2}), "k2": frozenset({3}), "k3": frozenset({4})},
            {"r1": frozenset({1, 2})},
        )
        counts = metric_counts(MetricId.CEAF_E, key, resp)
        assert counts.r_den == 3
        assert counts.p_den == 1
        assert counts.recall == pytest.approx(1 / 3)


    def test_entity_alignment_is_sparse_on_singleton_chains(self):
        # 1,500 singleton chains per side, half the spans shared: a dense
        # 1,500 x 1,500 similarity matrix alone would take 18 MB.
        doc = "d"
        key = Partition(
            doc, [Chain(f"k{i}", [Mention(doc, i, i)]) for i in range(1500)], Role.KEY
        )
        resp = Partition(
            doc,
            [Chain(f"r{i}", [Mention(doc, 750 + i, 750 + i)]) for i in range(1500)],
            Role.RESPONSE,
        )
        tracemalloc.start()
        try:
            triple = ceaf(key, resp, "entity")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert as_tuple(triple) == (0.5, 0.5, 0.5)
        assert peak < 2 * 1024 * 1024

class TestBlancEdges:
    def test_single_chain_identity_uses_coref_category_alone(self):
        key, resp = helpers.build_pair({"k": frozenset({1, 2})}, {"r": frozenset({1, 2})})
        assert as_tuple(blanc(key, resp)) == (1.0, 1.0, 1.0)

    def test_all_singletons_identity_uses_noncoref_alone(self):
        labels = {f"c{i}": frozenset({i}) for i in range(3)}
        key, resp = helpers.build_pair(labels, labels)
        assert as_tuple(blanc(key, resp)) == (1.0, 1.0, 1.0)

    def test_single_mention_each_side_scores_zero(self):
        key, resp = helpers.build_pair({"k": frozenset({1})}, {"r": frozenset({1})})
        assert as_tuple(blanc(key, resp)) == (0.0, 0.0, 0.0)


class TestLeaEdges:
    def test_identity(self):
        key, resp = helpers.build_pair(KEY, KEY)
        assert as_tuple(lea(key, resp)) == (1.0, 1.0, 1.0)

    def test_absorbed_singleton_is_unresolved(self):
        # key singleton 3 is merged into a response chain
        key, resp = helpers.build_pair(
            {"k1": frozenset({1, 2}), "k2": frozenset({3})},
            {"r1": frozenset({1, 2, 3})},
        )
        want = oracles.lea(
            {"k1": frozenset({1, 2}), "k2": frozenset({3})},
            {"r1": frozenset({1, 2, 3})},
        )
        got = lea(key, resp)
        assert got.recall == pytest.approx(float(want[0]), abs=1e-12)
        # the singleton chain contributes 0 of its weight 1
        assert want[0] == Fraction(2, 3)

    def test_matched_singleton_is_resolved(self):
        key, resp = helpers.build_pair({"k": frozenset({1})}, {"r": frozenset({1})})
        assert as_tuple(lea(key, resp)) == (1.0, 1.0, 1.0)


class TestReportsAndTallies:
    def test_tallies(self):
        key, resp = helpers.build_pair(
            KEY, {**RESP, "r3": frozenset({9, 10})}
        )
        tallies = partition_tallies(key, resp)
        assert tallies == {
            "key_mentions": 5,
            "response_mentions": 7,
            "key_chains": 2,
            "response_chains": 3,
            "key_singletons": 0,
            "response_singletons": 0,
            "response_spurious": 2,
        }

    def test_subset_report_has_no_average(self):
        key, resp = helpers.build_pair(KEY, RESP)
        report = score_corpus(
            [DocPair(key, resp)], metrics=[MetricId.MUC, MetricId.LEA]
        )
        assert set(report.scores) == {MetricId.MUC, MetricId.LEA}
        assert report.conll_average is None

    def test_metrics_reported_in_canonical_order(self):
        key, resp = helpers.build_pair(KEY, RESP)
        report = score_corpus([DocPair(key, resp)], metrics=["lea", "muc", "b3"])
        assert list(report.scores) == [MetricId.MUC, MetricId.B3, MetricId.LEA]

    def test_string_metric_ids_accepted(self):
        key, resp = helpers.build_pair(KEY, RESP)
        report = score_corpus([DocPair(key, resp)], metrics=["muc"])
        assert report.scores[MetricId.MUC].f1 == pytest.approx(2 / 3, abs=1e-12)


class TestRemoveSpurious:
    def test_spurious_mentions_deleted(self):
        key, resp = helpers.build_pair(
            {"k": frozenset({1, 2})}, {"r": frozenset({1, 9})}
        )
        cleaned = remove_spurious(resp, key)
        assert cleaned.mention_set == resp.mention_set & key.mention_set
        assert [c.chain_id for c in cleaned.chains] == ["r"]

    def test_no_spurious_is_identity(self):
        key, resp = helpers.build_pair(KEY, RESP)
        assert remove_spurious(resp, key) == resp

    def test_fully_spurious_response_becomes_empty(self):
        key, resp = helpers.build_pair({"k": frozenset({1})}, {"r": frozenset({8, 9})})
        cleaned = remove_spurious(resp, key)
        assert len(cleaned) == 0
        assert cleaned.role is Role.RESPONSE

    def test_metadata_survives(self):
        key = helpers.build_partition({"k": frozenset({0})}, Role.KEY, mapping={0: 0})
        resp = helpers.build_partition(
            {"r": frozenset({0})}, Role.RESPONSE, mapping={0: 0}, named=frozenset({0})
        )
        cleaned = remove_spurious(resp, key)
        assert cleaned.chains[0].mentions[0].is_named is True


class TestPathology:
    def test_report_shape(self):
        key, resp = helpers.build_pair(
            {"k": frozenset({1, 2, 3})}, {"r": frozenset({1, 2, 9})}
        )
        report = pathology_corpus([DocPair(key, resp)])
        assert report.removed_mentions == 1
        assert report.after.counts["response_spurious"] == 0
        assert set(report.recall_deltas) == set(ALL_METRICS)
        assert report.recall_deltas[MetricId.MUC] == 0.0

    def test_respects_metric_selection(self):
        key, resp = helpers.build_pair(KEY, RESP)
        report = pathology_corpus([DocPair(key, resp)], metrics=["muc", "blanc"])
        assert set(report.recall_deltas) == {MetricId.MUC, MetricId.BLANC}


@settings(max_examples=150)
@given(helpers.label_instances())
def test_all_metrics_match_independent_scorers(instance):
    key_labels, resp_labels = instance
    assert_matches_oracle(key_labels, resp_labels)


@given(helpers.label_instances())
def test_scores_stay_in_unit_range(instance):
    key, resp = helpers.build_pair(*instance)
    for scorer in SCORERS.values():
        triple = scorer(key, resp)
        for value in (triple.recall, triple.precision, triple.f1):
            assert 0.0 <= value <= 1.0


@given(helpers.label_instances())
def test_role_duality(instance):
    key, resp = helpers.build_pair(*instance)
    for metric, scorer in SCORERS.items():
        forward = scorer(key, resp)
        backward = scorer(resp, key)
        if metric in (MetricId.CEAF_M, MetricId.CEAF_E):
            assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
            assert forward.recall == pytest.approx(backward.precision, abs=1e-12)
        else:
            assert forward.precision == backward.recall
            assert forward.recall == backward.precision


def test_ceaf_duality_is_exact_on_seeded_instances():
    """The alignment total is an exactly rounded sum, so swapping roles
    reproduces the same float, not merely a close one."""
    rng = random.Random(7)
    for _ in range(100):
        key_labels, resp_labels = helpers.random_labels(rng)
        key, resp = helpers.build_pair(key_labels, resp_labels)
        for variant in CeafVariant:
            forward = ceaf(key, resp, variant)
            backward = ceaf(resp, key, variant)
            assert forward.precision == backward.recall
            assert forward.recall == backward.precision


@given(helpers.label_partitions())
def test_identity_scores_one(chains):
    key = helpers.build_partition(chains, Role.KEY)
    resp = helpers.build_partition(chains, Role.RESPONSE)
    if chains:
        assert b_cubed(key, resp).f1 == 1.0
        assert ceaf(key, resp, "mention").f1 == 1.0
        assert ceaf(key, resp, "entity").f1 == 1.0
        assert lea(key, resp).f1 == 1.0
    if any(len(ms) > 1 for ms in chains.values()):
        assert muc(key, resp).f1 == 1.0
    if sum(len(ms) for ms in chains.values()) >= 2:
        assert blanc(key, resp).f1 == 1.0


@given(helpers.label_instances())
def test_muc_ignores_matched_singletons(instance):
    key_labels, resp_labels = instance
    before_k, before_r = helpers.build_pair(key_labels, resp_labels)
    extended_key = dict(key_labels)
    extended_resp = dict(resp_labels)
    for i in range(3):
        extended_key[f"ks{i}"] = frozenset({2000 + i})
        extended_resp[f"rs{i}"] = frozenset({2000 + i})
    after_k, after_r = helpers.build_pair(extended_key, extended_resp)
    assert metric_counts("muc", before_k, before_r) == metric_counts(
        "muc", after_k, after_r
    )


@given(helpers.label_instances())
def test_b3_grouped_form_equals_per_mention_loop(instance):
    key, resp = helpers.build_pair(*instance)

    def per_mention(a: Partition, b: Partition) -> float:
        total = 0.0
        for chain in a.chains:
            for m in chain.mentions:
                other = b.chain_by_mention.get(m)
                inter = len(chain.mention_set & other.mention_set) if other else 0
                total += inter / len(chain)
        return total

    counts = metric_counts(MetricId.B3, key, resp)
    assert counts.r_num == pytest.approx(per_mention(key, resp), abs=1e-12)
    assert counts.p_num == pytest.approx(per_mention(resp, key), abs=1e-12)


@given(helpers.label_instances())
def test_remove_spurious_properties(instance):
    key_labels, resp_labels = instance
    key, resp = helpers.build_pair(key_labels, resp_labels)
    cleaned = remove_spurious(resp, key)
    assert cleaned.mention_set == resp.mention_set & key.mention_set
    assert {c.chain_id for c in cleaned.chains} <= {c.chain_id for c in resp.chains}
    assert all(len(c) >= 1 for c in cleaned.chains)
    assert remove_spurious(cleaned, key) == cleaned
    expected = oracles.remove_spurious(resp_labels, key_labels)
    assert {c.chain_id for c in cleaned.chains} == set(expected)


@given(helpers.label_instances())
def test_recall_survives_spurious_removal_bitwise(instance):
    """Deleting response mentions that are not key mentions cannot change
    the recall of MUC, B3, or mention-based CEAF: every term of each
    recall sum depends only on how key mentions are grouped by the
    response, and that grouping is untouched by the removal."""
    key, resp = helpers.build_pair(*instance)
    cleaned = remove_spurious(resp, key)
    assert muc(key, cleaned).recall == muc(key, resp).recall
    assert b_cubed(key, cleaned).recall == b_cubed(key, resp).recall
    assert (
        ceaf(key, cleaned, "mention").recall == ceaf(key, resp, "mention").recall
    )
