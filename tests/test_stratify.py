import pytest
from hypothesis import given

import helpers
import oracles
from corefeval import (
    Chain,
    DocPair,
    Mention,
    ModelError,
    Partition,
    Role,
    Stratum,
    StratumConfig,
    remove_spurious,
    score_corpus,
    stratify_corpus,
)
from corefeval.stratify import chain_strata, stratum_pairs


def chain_of_size(n, named=False, start=0):
    mentions = [Mention("d", start + i, start + i) for i in range(n)]
    if named and mentions:
        mentions[0] = Mention("d", start, start, is_named=True)
    return Chain("c", mentions)


def classify_chain(chain, config):
    return chain_strata(Partition(chain.doc_id, [chain], Role.KEY), config)[0]


class TestClassify:
    def test_singleton(self):
        assert classify_chain(chain_of_size(1), StratumConfig()) is Stratum.SINGLETON

    def test_long_named_is_major(self):
        chain = chain_of_size(15, named=True)
        assert classify_chain(chain, StratumConfig()) is Stratum.MAJOR

    def test_long_unnamed_is_secondary_when_name_required(self):
        chain = chain_of_size(15, named=False)
        assert classify_chain(chain, StratumConfig()) is Stratum.SECONDARY

    def test_long_unnamed_is_major_when_name_not_required(self):
        chain = chain_of_size(15, named=False)
        config = StratumConfig(require_named=False)
        assert classify_chain(chain, config) is Stratum.MAJOR

    def test_short_named_is_secondary(self):
        chain = chain_of_size(9, named=True)
        assert classify_chain(chain, StratumConfig(long_threshold=10)) is Stratum.SECONDARY

    def test_threshold_is_inclusive(self):
        chain = chain_of_size(10, named=True)
        assert classify_chain(chain, StratumConfig(long_threshold=10)) is Stratum.MAJOR

    def test_threshold_below_two_rejected(self):
        with pytest.raises(ModelError):
            StratumConfig(long_threshold=1)

    def test_raising_threshold_never_promotes(self):
        for size in range(1, 16):
            chain = chain_of_size(size, named=True)
            for lo in range(2, 16):
                for hi in range(lo, 16):
                    hi_major = classify_chain(chain, StratumConfig(hi)) is Stratum.MAJOR
                    lo_major = classify_chain(chain, StratumConfig(lo)) is Stratum.MAJOR
                    if hi_major:
                        assert lo_major


class TestStratify:
    def test_example_split(self):
        chains = [
            Chain("a", [Mention("d", i, i) for i in range(83)]),
            Chain("b", [Mention("d", 100 + i, 100 + i) for i in range(12)]),
            Chain("c", [Mention("d", 200 + i, 200 + i) for i in range(3)]),
            Chain("d", [Mention("d", 300, 300)]),
            Chain("e", [Mention("d", 301, 301)]),
        ]
        part = Partition("d", chains, Role.KEY)
        config = StratumConfig(long_threshold=10, require_named=False)
        strata = helpers.chains_by_stratum(part, config)
        assert {c.chain_id for c in strata[Stratum.MAJOR]} == {"a", "b"}
        assert {c.chain_id for c in strata[Stratum.SECONDARY]} == {"c"}
        assert {c.chain_id for c in strata[Stratum.SINGLETON]} == {"d", "e"}

    def test_all_three_keys_always_present(self):
        empty = Partition("d", [], Role.KEY)
        strata = helpers.chains_by_stratum(empty, StratumConfig())
        assert set(strata) == set(Stratum)
        assert all(s == frozenset() for s in strata.values())

    @given(helpers.label_partitions())
    def test_strata_partition_the_chains(self, chains):
        part = helpers.build_partition(chains, Role.KEY)
        config = StratumConfig(require_named=False, long_threshold=3)
        strata = helpers.chains_by_stratum(part, config)
        seen = [c for group in strata.values() for c in group]
        assert len(seen) == len(part.chains)
        assert set(seen) == set(part.chains)
        assert sum(len(c) for c in seen) == len(part.mention_set)


def singleton_key(doc_id, mentions):
    """A key with one singleton chain per mention: its one stratum keeps them."""
    spans = [(m.start, m.end) for m in mentions]
    chains = [Chain(f"k{i}", [Mention(doc_id, *s)]) for i, s in enumerate(spans)]
    return Partition(doc_id, chains, Role.KEY)


def cut_by_remove_spurious(part, keep):
    return remove_spurious(part, singleton_key(part.doc_id, keep))


def cut_by_stratum_pairs(part, keep):
    strata = stratum_pairs(singleton_key(part.doc_id, keep), part, StratumConfig())
    assert set(strata) <= {Stratum.SINGLETON}
    return strata[Stratum.SINGLETON][1] if strata else Partition(part.doc_id, [], part.role)


@pytest.mark.parametrize("cut", [cut_by_remove_spurious, cut_by_stratum_pairs])
class TestSlice:
    """A response cut to the mentions a key holds, by either partition path."""

    def test_chains_intersected_and_emptied_dropped(self, cut):
        part = helpers.build_partition(
            {"a": frozenset({1, 2}), "b": frozenset({3})}, Role.RESPONSE
        )
        keep = [m for m in part.mention_set if m.start != 2]
        projected = cut(part, keep)
        by_id = {c.chain_id: {m.start for m in c} for c in projected.chains}
        assert set(by_id) <= {"a", "b"}
        assert all(starts for starts in by_id.values())

    def test_superset_keep_is_identity(self, cut):
        part = helpers.build_partition({"a": frozenset({1, 2})}, Role.RESPONSE)
        assert cut(part, [*part.mention_set, Mention("d", 99, 99)]) == part

    def test_disjoint_keep_empties(self, cut):
        part = helpers.build_partition({"a": frozenset({1, 2})}, Role.RESPONSE)
        assert len(cut(part, [Mention("d", 99, 99)])) == 0

    @given(instance=helpers.label_instances())
    def test_projection_properties(self, cut, instance):
        _, resp_labels = instance
        part = helpers.build_partition(resp_labels, Role.RESPONSE)
        keep = frozenset(m for m in part.mention_set if m.start % 2 == 0)
        projected = cut(part, keep)
        assert projected.mention_set == part.mention_set & keep
        assert {c.chain_id for c in projected.chains} <= {
            c.chain_id for c in part.chains
        }
        assert all(len(c) >= 1 for c in projected.chains)


class TestSingletonDetection:
    def test_half_found(self):
        key, resp = helpers.build_pair(
            {"a": frozenset({1, 2}), "s1": frozenset({5}), "s2": frozenset({6})},
            {"x": frozenset({1, 2}), "s1": frozenset({5}), "y": frozenset({6, 7})},
        )
        with pytest.warns(UserWarning, match="require_named degraded"):
            triple = stratify_corpus([DocPair(key, resp)]).singleton_detection
        assert triple.recall == pytest.approx(0.5)
        assert triple.precision == 1.0

    def test_no_singletons_scores_zero(self):
        key, resp = helpers.build_pair(
            {"a": frozenset({1, 2})}, {"x": frozenset({1, 2})}
        )
        with pytest.warns(UserWarning, match="require_named degraded"):
            triple = stratify_corpus([DocPair(key, resp)]).singleton_detection
        assert (triple.recall, triple.precision, triple.f1) == (0.0, 0.0, 0.0)

    def test_identity_detection(self):
        labels = {"a": frozenset({1, 2}), "s": frozenset({3})}
        key, resp = helpers.build_pair(labels, labels)
        with pytest.warns(UserWarning, match="require_named degraded"):
            report = stratify_corpus([DocPair(key, resp)])
        assert report.singleton_detection.f1 == 1.0


class TestLeakage:
    def test_merged_singleton_leaks(self):
        named = frozenset({0})
        key_labels = {"a": frozenset(range(12)), "s": frozenset({50})}
        resp_labels = {"x": frozenset(range(12)) | {50}}
        key, resp = helpers.build_pair(key_labels, resp_labels, named=named)
        assert stratify_corpus([DocPair(key, resp)], StratumConfig()).leakage == 1

    def test_spurious_mentions_do_not_leak(self):
        key, resp = helpers.build_pair(
            {"a": frozenset({1, 2})}, {"x": frozenset({1, 2, 99})}
        )
        with pytest.warns(UserWarning, match="require_named degraded"):
            report = stratify_corpus([DocPair(key, resp)], StratumConfig())
        assert report.leakage == 0

    def test_same_stratum_merge_does_not_leak(self):
        key, resp = helpers.build_pair(
            {"a": frozenset({1, 2}), "b": frozenset({3, 4})},
            {"x": frozenset({1, 2, 3, 4})},
        )
        with pytest.warns(UserWarning, match="require_named degraded"):
            report = stratify_corpus([DocPair(key, resp)], StratumConfig())
        assert report.leakage == 0


# A worked corpus slice: two major chains (12 and 10 mentions, each with
# one named mention), three secondary chains (4, 3, 2), four singletons.
# The response fragments the majors, merges across strata, absorbs one
# singleton, finds another, misses the rest, and adds three spurious
# mentions.
STRAT_KEY = {
    "A": frozenset(range(0, 12)),
    "B": frozenset(range(12, 22)),
    "C": frozenset({22, 23, 24, 25}),
    "D": frozenset({26, 27, 28}),
    "E": frozenset({29, 30}),
    "s1": frozenset({31}),
    "s2": frozenset({32}),
    "s3": frozenset({33}),
    "s4": frozenset({34}),
}
STRAT_RESP = {
    "ra1": frozenset(range(0, 6)) | {31},
    "ra2": frozenset(range(6, 12)),
    "rbc": frozenset(range(12, 18)) | {22, 23},
    "rb2": frozenset(range(18, 22)),
    "rc2": frozenset({24, 25}),
    "rd": frozenset({26, 27}),
    "re": frozenset({29, 30}),
    "rs2": frozenset({32}),
    "rsp": frozenset({100, 101}),
    "rx": frozenset({33, 102}),
}
STRAT_NAMED = frozenset({0, 12})
STRAT_LABELS = {
    Stratum.MAJOR: STRAT_KEY["A"] | STRAT_KEY["B"],
    Stratum.SECONDARY: STRAT_KEY["C"] | STRAT_KEY["D"] | STRAT_KEY["E"],
    Stratum.SINGLETON: frozenset({31, 32, 33, 34}),
}


class TestStratifiedScore:
    def report(self):
        key, resp = helpers.build_pair(STRAT_KEY, STRAT_RESP, named=STRAT_NAMED)
        return stratify_corpus([DocPair(key, resp)], StratumConfig(long_threshold=10))

    def test_all_strata_present(self):
        assert set(self.report().per_stratum) == set(Stratum)

    def test_leakage_and_spurious(self):
        report = self.report()
        assert report.leakage == 2
        assert report.spurious_mentions == 3

    def test_singleton_detection(self):
        triple = self.report().singleton_detection
        assert triple.recall == pytest.approx(0.25)
        assert triple.precision == 1.0
        assert triple.f1 == pytest.approx(0.4)

    def test_config_echoed(self):
        config = StratumConfig(long_threshold=10)
        key, resp = helpers.build_pair(STRAT_KEY, STRAT_RESP, named=STRAT_NAMED)
        assert stratify_corpus([DocPair(key, resp)], config).config == config

    def test_per_stratum_counts(self):
        report = self.report()
        major = report.per_stratum[Stratum.MAJOR]
        assert major.counts["key_mentions"] == 22
        assert major.counts["key_chains"] == 2
        assert major.counts["response_chains"] == 4
        assert major.counts["response_spurious"] == 0
        singleton = report.per_stratum[Stratum.SINGLETON]
        assert singleton.counts["key_mentions"] == 4
        assert singleton.counts["response_mentions"] == 3

    @pytest.mark.parametrize("stratum", list(Stratum))
    def test_each_stratum_matches_composed_oracle(self, stratum):
        """Per-stratum scores must equal: restrict the key to the stratum,
        intersect every response chain with its mentions, score that."""
        report = self.report()
        stratum_labels = STRAT_LABELS[stratum]
        key_slice = {
            cid: ms for cid, ms in STRAT_KEY.items() if ms <= stratum_labels
        }
        resp_slice = {
            cid: ms & stratum_labels
            for cid, ms in STRAT_RESP.items()
            if ms & stratum_labels
        }
        got = report.per_stratum[stratum]
        for metric, triple in got.scores.items():
            want = oracles.ORACLES[metric.value](key_slice, resp_slice)
            for value, exact in zip(
                (triple.recall, triple.precision, triple.f1), want
            ):
                assert abs(value - float(exact)) <= 1e-12, (stratum, metric)

    def test_identity_scores_one_per_stratum(self):
        key, resp = helpers.build_pair(STRAT_KEY, STRAT_KEY, named=STRAT_NAMED)
        report = stratify_corpus([DocPair(key, resp)], StratumConfig(long_threshold=10))
        for stratum, stratum_report in report.per_stratum.items():
            for metric, triple in stratum_report.scores.items():
                if stratum is Stratum.SINGLETON and metric.value == "muc":
                    # no links exist in an all-singleton stratum; 0/0 -> 0
                    assert triple.f1 == 0.0
                else:
                    assert triple.f1 == 1.0, (stratum, metric)
        assert report.leakage == 0
        assert report.singleton_detection.f1 == 1.0

    def test_metric_selection_respected(self):
        key, resp = helpers.build_pair(STRAT_KEY, STRAT_RESP, named=STRAT_NAMED)
        report = stratify_corpus(
            [DocPair(key, resp)], StratumConfig(), metrics=["muc", "lea"]
        )
        for stratum_report in report.per_stratum.values():
            assert {m.value for m in stratum_report.scores} == {"muc", "lea"}

    def test_empty_key_has_no_strata(self):
        key = Partition("d", [], Role.KEY)
        resp = helpers.build_partition({"r": frozenset({1, 2})}, Role.RESPONSE)
        with pytest.warns(UserWarning, match="require_named degraded"):
            report = stratify_corpus([DocPair(key, resp)], StratumConfig())
        assert report.per_stratum == {}
        assert report.spurious_mentions == 2
        assert report.leakage == 0

    def test_low_threshold_major_equals_all_nonsingletons(self):
        """With require_named off and the threshold at its floor, the major
        stratum is exactly the non-singleton key slice scored in place."""
        key, resp = helpers.build_pair(STRAT_KEY, STRAT_RESP, named=STRAT_NAMED)
        config = StratumConfig(long_threshold=2, require_named=False)
        report = stratify_corpus([DocPair(key, resp)], config)
        nonsingleton = Partition(
            key.doc_id, [c for c in key.chains if not c.is_singleton], key.role
        )
        expected = score_corpus(
            [DocPair(nonsingleton, remove_spurious(resp, nonsingleton))]
        )
        assert report.per_stratum[Stratum.MAJOR] == expected
        assert Stratum.SECONDARY not in report.per_stratum
