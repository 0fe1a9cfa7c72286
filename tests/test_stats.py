import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
import oracles
from corefeval import (
    EmptySeries,
    ModelError,
    ZipfFit,
    stats_report,
    zipf_fit,
)

corpus = helpers.sized_corpus


# chain-size profile of a long novel: 106 large chains around size 83,
# 37 around 82, and 56 singletons
NOVEL_SIZES = [83] * 106 + [82] * 37 + [1] * 56


class TestComputeStats:
    """The corpus counts of ``stats_report``."""

    def test_single_pair_chain(self):
        stats = stats_report(corpus({"d": [2]}))
        assert stats.num_mentions == 2
        assert stats.num_chains == 1
        assert stats.num_singletons == 0
        assert stats.mentions_per_chain_incl == 2.0
        assert stats.mentions_per_chain_excl == 2.0

    def test_empty_corpus(self):
        stats = stats_report([])
        assert stats.num_mentions == 0
        assert stats.num_chains == 0
        assert stats.num_singletons == 0
        assert stats.num_tokens == 0
        assert stats.mentions_per_chain_incl is None
        assert stats.mentions_per_chain_excl is None
        assert stats.rank_size == ()

    def test_all_singletons_has_no_exclusive_ratio(self):
        stats = stats_report(corpus({"d": [1, 1, 1]}))
        assert stats.num_chains == 0
        assert stats.num_singletons == 3
        assert stats.mentions_per_chain_incl == 1.0
        assert stats.mentions_per_chain_excl is None

    def test_novel_profile_counts(self):
        stats = stats_report(corpus({"novel": NOVEL_SIZES}))
        assert stats.num_mentions == 11888
        assert stats.num_chains == 143
        assert stats.num_singletons == 56
        assert stats.mentions_per_chain_incl == pytest.approx(
            float(Fraction(11888, 199)), abs=1e-12
        )
        assert stats.mentions_per_chain_excl == pytest.approx(
            float(Fraction(11832, 143)), abs=1e-12
        )
        # the two readings of mentions-per-chain land on 59 vs 83 after
        # display rounding, which is why both are reported
        assert math.floor(stats.mentions_per_chain_incl) == 59
        assert round(stats.mentions_per_chain_excl) == 83

    def test_histogram(self):
        stats = stats_report(corpus({"d": [3, 3, 2, 1]}))
        assert stats.length_histogram == {1: 1, 2: 1, 3: 2}
        assert stats.num_mentions == sum(
            size * count for size, count in stats.length_histogram.items()
        )
        assert stats.num_singletons == stats.length_histogram.get(1, 0)

    def test_token_totals_accumulate(self):
        docs = corpus({"a": [2], "b": [3]})
        assert stats_report(docs).num_tokens == 5

    def test_counts_are_additive_over_documents(self):
        both = stats_report(corpus({"a": [3, 1], "b": [2, 2]}))
        first = stats_report(corpus({"a": [3, 1]}))
        second = stats_report(corpus({"b": [2, 2]}))
        assert both.num_mentions == first.num_mentions + second.num_mentions
        assert both.num_chains == first.num_chains + second.num_chains
        assert both.num_singletons == first.num_singletons + second.num_singletons
        assert both.num_tokens == first.num_tokens + second.num_tokens

    def test_input_order_does_not_matter(self):
        docs = corpus({"a": [3, 1], "b": [2, 2]})
        assert stats_report(docs) == stats_report(list(reversed(docs)))


class TestRankSize:
    def test_descending_with_ranks_from_one(self):
        stats = stats_report(corpus({"d": [5, 3, 3, 1]}))
        assert list(stats.rank_size) == [(1, 5), (2, 3), (3, 3), (4, 1)]

    def test_ties_break_by_document_then_chain_id(self):
        docs = corpus({"b": [2], "a": [2]})
        stats = stats_report(docs)
        assert list(stats.rank_size) == [(1, 2), (2, 2)]

    def test_sizes_sum_to_mentions(self):
        stats = stats_report(corpus({"a": [4, 2, 1], "b": [3]}))
        assert sum(size for _, size in stats.rank_size) == stats.num_mentions
        assert [rank for rank, _ in stats.rank_size] == list(
            range(1, len(stats.rank_size) + 1)
        )

    @given(st.lists(st.lists(st.integers(1, 6), max_size=5), max_size=4))
    def test_series_is_sorted_descending(self, size_lists):
        docs = corpus({f"d{i}": sizes for i, sizes in enumerate(size_lists)})
        stats = stats_report(docs)
        sizes = [size for _, size in stats.rank_size]
        assert sizes == sorted(sizes, reverse=True)


    @given(
        st.dictionaries(st.integers(1, 20), st.integers(1, 6), max_size=8),
        st.booleans(),
    )
    def test_view_behaves_as_the_tuple_of_pairs(self, histogram, exclude):
        """The series is a view of the sorted size histogram.  Its length,
        indexing (negative indices included), iteration and equality, both
        ways, are those of the tuple of (rank, size) pairs, and the fit reads
        it as it reads that tuple."""
        sizes = [size for size, count in histogram.items() for _ in range(count)]
        report = stats_report(corpus({"d": sizes}), exclude_singletons=exclude)
        kept = [size for size in sizes if not (exclude and size == 1)]
        pairs = tuple(enumerate(sorted(kept, reverse=True), 1))
        view = report.rank_size
        assert len(view) == len(pairs)
        assert [view[i] for i in range(-len(pairs), len(pairs))] == [*pairs, *pairs]
        for i in (len(pairs), -len(pairs) - 1):
            with pytest.raises(IndexError):
                view[i]
        assert list(view) == list(pairs)
        assert view == pairs and pairs == view
        assert not (view != pairs or pairs != view)
        longer = pairs + ((len(pairs) + 1, 1),)
        assert view != longer and longer != view
        if pairs:
            changed = (*pairs[:-1], (len(pairs), pairs[-1][1] + 1))
            assert view != changed and changed != view
            assert report.zipf_fit == zipf_fit(pairs) == oracles.zipf_fit(pairs)
        assert report == report._replace(rank_size=pairs)


class TestRatioOrdering:
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    def test_inclusive_never_exceeds_exclusive(self, sizes):
        stats = stats_report(corpus({"d": sizes}))
        if stats.mentions_per_chain_excl is None:
            return
        assert stats.mentions_per_chain_incl <= stats.mentions_per_chain_excl
        if stats.num_singletons == 0:
            assert stats.mentions_per_chain_incl == stats.mentions_per_chain_excl
        else:
            assert stats.mentions_per_chain_incl < stats.mentions_per_chain_excl


class TestZipfFit:
    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeries):
            zipf_fit([])

    @pytest.mark.parametrize("point", [(0, 5), (1, 0), (2, -1)])
    def test_nonpositive_points_rejected(self, point):
        with pytest.raises(ModelError):
            zipf_fit([point])

    def test_single_point(self):
        fit = zipf_fit([(1, 7)])
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(math.log(7))
        assert fit.r_squared is None
        assert fit.n_points == 1

    def test_constant_sizes_have_undefined_r_squared(self):
        """Whether or not the mean of the equal logs rounds back to the log
        (it does for 4, not for 6), the fit is flat at log(size)."""
        for size in (4, 6, 6.5):
            fit = zipf_fit([(1, size), (2, size), (3, size)])
            assert fit == ZipfFit(0.0, math.log(size), None, 3)

    def test_exact_power_law_recovered(self):
        amplitude, exponent = 250.0, -1.2
        series = [(rank, amplitude * rank**exponent) for rank in range(1, 80)]
        fit = zipf_fit(series)
        assert fit.slope == pytest.approx(exponent, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(amplitude), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_polyfit(self):
        series = [(rank, max(1, round(1000 / rank))) for rank in range(1, 101)]
        fit = zipf_fit(series)
        x = np.log([rank for rank, _ in series])
        y = np.log([size for _, size in series])
        slope, intercept = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r_squared is not None and fit.r_squared >= 0.99

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10_000) | st.floats(1.0, 1e6),
                st.integers(1, 50) | st.floats(1.0, 1e6),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_matches_the_per_point_oracle_bit_for_bit(self, series):
        assert zipf_fit(series) == oracles.zipf_fit(series)

    @given(
        st.lists(st.integers(1, 12), max_size=80),
        st.booleans(),
        st.integers(1, 12),
        st.integers(1, 5),
    )
    def test_rank_size_fit_matches_the_oracle(self, sizes, exclude, flat_size, flat_count):
        """Histograms of random chains, with and without the singleton tail,
        one point, and all sizes equal (r_squared None for every size)."""
        for doc in (sizes, [flat_size], [flat_size] * flat_count):
            report = stats_report(corpus({"d": doc}), exclude_singletons=exclude)
            if report.rank_size:
                assert report.zipf_fit == oracles.zipf_fit(report.rank_size)

    def test_plateau_profile_is_less_straight_than_a_law(self):
        lawlike = zipf_fit([(r, max(1, round(1000 / r))) for r in range(1, 101)])
        plateau = stats_report(corpus({"novel": NOVEL_SIZES})).zipf_fit
        assert plateau is not None and plateau.r_squared is not None
        assert plateau.r_squared < lawlike.r_squared
        assert plateau.r_squared < 0.99


class TestStatsReport:
    def test_series_and_fit_present(self):
        report = stats_report(corpus({"d": [4, 2, 1]}))
        assert report.rank_size == ((1, 4), (2, 2), (3, 1))
        assert report.zipf_fit is not None
        assert report.exclude_singletons is False

    def test_exclude_singletons_drops_the_tail(self):
        report = stats_report(corpus({"d": [4, 2, 1, 1]}), exclude_singletons=True)
        assert report.rank_size == ((1, 4), (2, 2))
        assert report.zipf_fit is not None and report.zipf_fit.n_points == 2
        assert report.exclude_singletons is True
        # the counts still see every chain
        assert report.num_singletons == 2

    def test_exclude_on_all_singleton_corpus_leaves_nothing_to_fit(self):
        report = stats_report(corpus({"d": [1, 1]}), exclude_singletons=True)
        assert report.rank_size == ()
        assert report.zipf_fit is None

    def test_empty_corpus_has_no_fit(self):
        report = stats_report([])
        assert report.rank_size == ()
        assert report.zipf_fit is None
