import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import helpers
import oracles
from corefeval import (
    Averaging,
    CorpusSource,
    DocMismatch,
    DocPair,
    MetricId,
    Role,
    SourceFormat,
    Stratum,
    StratumConfig,
    corpus_stats_report,
    pair_corpora,
    pair_documents,
    pathology_corpus,
    read_corpus,
    score_corpus,
    stratify_corpus,
)
from corefeval.conll import parse_conll
from corefeval.jsonl import parse_jsonl
from corefeval.metrics import metric_counts, zero_counts

DOC1_KEY = {"k1": frozenset({1, 2, 3}), "k2": frozenset({4, 5})}
DOC1_RESP = {"r1": frozenset({1, 2}), "r2": frozenset({3, 4, 5})}
DOC2_KEY = {"k": frozenset({1, 2})}
DOC2_RESP = {"r": frozenset({1, 2})}


def make_pair(key_labels, resp_labels, doc="d", named=frozenset()):
    key, resp = helpers.build_pair(key_labels, resp_labels, doc=doc, named=named)
    return DocPair(key, resp)


def two_doc_pairs():
    return [
        make_pair(DOC1_KEY, DOC1_RESP, doc="a"),
        make_pair(DOC2_KEY, DOC2_RESP, doc="b"),
    ]


def source_of(label_docs, role):
    records = []
    for doc_id, labels in label_docs.items():
        part = helpers.build_partition(labels, role, doc=doc_id)
        records.append((helpers.doc_for(part, extra_tokens=1), part))
    from corefeval import CorpusSource

    return CorpusSource(SourceFormat.JSONL, records)


class TestPairing:
    def test_pairs_sorted_by_doc_id(self):
        key = source_of({"b": DOC2_KEY, "a": DOC1_KEY}, Role.KEY)
        resp = source_of({"a": DOC1_RESP, "b": DOC2_RESP}, Role.RESPONSE)
        pairs = pair_corpora(key, resp)
        assert [p.key.doc_id for p in pairs] == ["a", "b"]
        assert all(p.key.role is Role.KEY for p in pairs)

    def test_key_only_document_rejected(self):
        key = source_of({"a": DOC1_KEY, "z": DOC2_KEY}, Role.KEY)
        resp = source_of({"a": DOC1_RESP}, Role.RESPONSE)
        with pytest.raises(DocMismatch) as exc:
            pair_corpora(key, resp)
        assert "only in key: z" in str(exc.value)
        assert exc.value.doc_id == "z"

    def test_response_only_document_rejected(self):
        key = source_of({"a": DOC1_KEY}, Role.KEY)
        resp = source_of({"a": DOC1_RESP, "q": DOC2_RESP}, Role.RESPONSE)
        with pytest.raises(DocMismatch) as exc:
            pair_corpora(key, resp)
        assert "only in response: q" in str(exc.value)

    def test_token_count_disagreement_rejected(self):
        key_part = helpers.build_partition(DOC2_KEY, Role.KEY, doc="a")
        resp_part = helpers.build_partition(DOC2_RESP, Role.RESPONSE, doc="a")
        from corefeval import CorpusSource, Document

        key = CorpusSource(SourceFormat.JSONL, [(Document("a", 5), key_part)])
        resp = CorpusSource(SourceFormat.JSONL, [(Document("a", 6), resp_part)])
        with pytest.raises(DocMismatch) as exc:
            pair_corpora(key, resp)
        assert "5" in str(exc.value) and "6" in str(exc.value)
        assert exc.value.doc_id == "a"


class TestScoreCorpus:
    def test_micro_sums_counts_before_dividing(self):
        pairs = two_doc_pairs()
        report = score_corpus(pairs, averaging=Averaging.MICRO)
        expected = {m: zero_counts(m) for m in MetricId}
        for pair in pairs:
            for m in MetricId:
                expected[m] += metric_counts(m, pair.key, pair.response)
        for metric, counts in expected.items():
            assert report.scores[metric] == counts.triple()

    def test_micro_muc_matches_summed_oracle_fractions(self):
        report = score_corpus(two_doc_pairs(), metrics=["muc"])
        rn1, rd1 = oracles.muc_half(DOC1_KEY, DOC1_RESP)
        rn2, rd2 = oracles.muc_half(DOC2_KEY, DOC2_RESP)
        want = Fraction(rn1 + rn2, rd1 + rd2)
        assert report.scores[MetricId.MUC].recall == pytest.approx(
            float(want), abs=1e-12
        )
        assert want == Fraction(3, 4)

    def test_micro_b3_matches_summed_oracle_fractions(self):
        report = score_corpus(two_doc_pairs(), metrics=["b3"])
        n1, d1 = oracles.b3_half(DOC1_KEY, DOC1_RESP)
        n2, d2 = oracles.b3_half(DOC2_KEY, DOC2_RESP)
        want = (n1 + n2) / (d1 + d2)
        assert report.scores[MetricId.B3].recall == pytest.approx(
            float(want), abs=1e-12
        )

    def test_macro_averages_per_document_triples(self):
        pairs = two_doc_pairs()
        report = score_corpus(pairs, averaging="macro")
        # doc a scores 2/3 on muc, doc b scores 1
        assert report.scores[MetricId.MUC].f1 == pytest.approx(
            (2 / 3 + 1.0) / 2, abs=1e-12
        )
        assert report.scores[MetricId.MUC].recall == pytest.approx(5 / 6, abs=1e-12)

    def test_macro_f1_is_mean_of_f1s_not_harmonic(self):
        pairs = [
            make_pair({"k": frozenset({1, 2})}, {"r": frozenset({1, 2})}, doc="a"),
            make_pair(
                {"k": frozenset({1, 2})},
                {"r1": frozenset({1}), "r2": frozenset({2})},
                doc="b",
            ),
        ]
        report = score_corpus(pairs, metrics=["muc"], averaging="macro")
        triple = report.scores[MetricId.MUC]
        assert (triple.recall, triple.precision, triple.f1) == (0.5, 0.5, 0.5)

    def test_counts_accumulate_under_both_averagings(self):
        for averaging in Averaging:
            report = score_corpus(two_doc_pairs(), averaging=averaging)
            assert report.counts["key_mentions"] == 7
            assert report.counts["key_chains"] == 3

    def test_empty_corpus_scores_zero(self):
        report = score_corpus([])
        for triple in report.scores.values():
            assert (triple.recall, triple.precision, triple.f1) == (0.0, 0.0, 0.0)
        assert report.conll_average == 0.0
        assert report.counts["key_mentions"] == 0

    def test_metric_subset(self):
        report = score_corpus(two_doc_pairs(), metrics=["blanc"])
        assert set(report.scores) == {MetricId.BLANC}
        assert report.conll_average is None


@pytest.mark.parametrize("run", [score_corpus, stratify_corpus, pathology_corpus])
def test_pair_of_two_documents_is_rejected(run):
    key = make_pair(DOC1_KEY, DOC1_RESP, doc="a", named=frozenset({1})).key
    response = make_pair(DOC2_KEY, DOC2_RESP, doc="b").response
    with pytest.raises(DocMismatch) as exc:
        run([DocPair(key, response)])
    assert exc.value.doc_id == "a"


@given(helpers.corpora(), st.data())
def test_reports_do_not_depend_on_the_order_of_pairs(corpus, data):
    """Pairs in any order, and each side's documents in any order through
    pair_documents, give the report of doc-id order, floats bit for bit."""
    pairs, config = corpus
    pairs = sorted(pairs, key=lambda p: p.key.doc_id)
    shuffled = data.draw(st.permutations(pairs))
    key_docs, response_docs = (
        [(helpers.doc_for(p.key), p[side]) for p in data.draw(st.permutations(pairs))]
        for side in (0, 1)
    )
    runs = [
        lambda pairs, averaging: score_corpus(pairs, averaging=averaging),
        lambda pairs, averaging: stratify_corpus(pairs, config, averaging=averaging),
        lambda pairs, averaging: pathology_corpus(pairs, averaging=averaging),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for averaging in Averaging:
            for run in runs:
                expected = run(pairs, averaging)
                assert run(shuffled, averaging) == expected
                streamed = pair_documents(key_docs, response_docs)
                assert run(streamed, averaging) == expected


class TestEffectiveConfig:
    def test_unnamed_corpus_degrades_with_warning(self):
        pairs = two_doc_pairs()
        with pytest.warns(UserWarning, match="require_named degraded"):
            config = stratify_corpus(pairs, StratumConfig()).config
        assert config.require_named is False
        assert config.long_threshold == StratumConfig().long_threshold

    def test_named_corpus_is_untouched(self):
        pairs = [make_pair(DOC1_KEY, DOC1_RESP, named=frozenset({1}))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = stratify_corpus(pairs, StratumConfig()).config
        assert caught == []
        assert config == StratumConfig()

    def test_request_without_requirement_never_warns(self):
        pairs = two_doc_pairs()
        requested = StratumConfig(require_named=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = stratify_corpus(pairs, requested).config
        assert caught == []
        assert config == requested


class TestStratifyCorpus:
    def pairs(self):
        return [
            make_pair(
                {"a": frozenset(range(10)), "s": frozenset({30})},
                {"x": frozenset(range(10)), "s": frozenset({30})},
                doc="one",
                named=frozenset({0}),
            ),
            make_pair(
                {"b": frozenset(range(4))},
                {"y": frozenset(range(3)), "z": frozenset({3, 9})},
                doc="two",
                named=frozenset({0}),
            ),
        ]

    def test_micro_accumulates_per_stratum(self):
        report = stratify_corpus(self.pairs(), StratumConfig(long_threshold=10))
        assert set(report.per_stratum) == {
            Stratum.MAJOR,
            Stratum.SECONDARY,
            Stratum.SINGLETON,
        }
        assert report.per_stratum[Stratum.MAJOR].counts["key_mentions"] == 10
        assert report.per_stratum[Stratum.SECONDARY].counts["key_mentions"] == 4
        assert report.per_stratum[Stratum.MAJOR].scores[MetricId.MUC].f1 == 1.0
        assert report.config.require_named is True

    def test_micro_detection_and_diagnostics_accumulate(self):
        report = stratify_corpus(self.pairs(), StratumConfig(long_threshold=10))
        assert report.singleton_detection.recall == 1.0
        assert report.spurious_mentions == 1
        assert report.leakage == 0

    def test_macro_averages_only_documents_with_the_stratum(self):
        report = stratify_corpus(
            self.pairs(), StratumConfig(long_threshold=10), averaging="macro"
        )
        # the singleton stratum exists only in document "one", where the
        # single singleton is found exactly
        singleton = report.per_stratum[Stratum.SINGLETON]
        assert singleton.scores[MetricId.B3].f1 == 1.0
        secondary = report.per_stratum[Stratum.SECONDARY]
        assert secondary.counts["key_mentions"] == 4

    def test_degraded_config_is_echoed(self):
        pairs = two_doc_pairs()
        with pytest.warns(UserWarning):
            report = stratify_corpus(pairs, StratumConfig(long_threshold=3))
        assert report.config.require_named is False
        assert Stratum.MAJOR in report.per_stratum

    def test_empty_corpus(self):
        report = stratify_corpus([], StratumConfig(require_named=False))
        assert report.per_stratum == {}
        assert report.leakage == 0
        assert report.spurious_mentions == 0


class TestPathologyCorpus:
    def load_pairs(self, fixtures_dir):
        key = read_corpus(
            fixtures_dir / "pathology_key.jsonl", SourceFormat.JSONL, Role.KEY
        )
        resp = read_corpus(
            fixtures_dir / "pathology_response.jsonl", "jsonl", Role.RESPONSE
        )
        return pair_documents(key, resp)

    def test_fixture_recall_movements(self, fixtures_dir):
        """Corpus where deleting spurious response mentions moves recall
        for the entity-alignment and link-category metrics but not for
        the mention-grouping ones."""
        report = pathology_corpus(self.load_pairs(fixtures_dir))
        deltas = {m.value: d for m, d in report.recall_deltas.items()}
        assert deltas["muc"] == 0.0
        assert deltas["b3"] == 0.0
        assert deltas["ceaf_m"] == 0.0
        assert deltas["lea"] == 0.0
        assert deltas["ceaf_e"] == pytest.approx(0.1, abs=1e-12)
        assert deltas["blanc"] == pytest.approx(2 / 7, abs=1e-12)
        assert report.removed_mentions == 3

    def test_fixture_absolute_recalls(self, fixtures_dir):
        report = pathology_corpus(self.load_pairs(fixtures_dir))
        before = {m.value: t.recall for m, t in report.before.scores.items()}
        after = {m.value: t.recall for m, t in report.after.scores.items()}
        assert before["muc"] == after["muc"] == pytest.approx(3 / 4, abs=1e-12)
        assert before["b3"] == after["b3"] == pytest.approx(17 / 24, abs=1e-12)
        assert before["ceaf_m"] == after["ceaf_m"] == pytest.approx(5 / 6, abs=1e-12)
        assert before["lea"] == after["lea"] == pytest.approx(2 / 3, abs=1e-12)
        assert before["ceaf_e"] == pytest.approx(29 / 35, abs=1e-12)
        assert after["ceaf_e"] == pytest.approx(13 / 14, abs=1e-12)
        assert before["blanc"] == pytest.approx(2 / 7, abs=1e-12)
        assert after["blanc"] == pytest.approx(4 / 7, abs=1e-12)

    def test_after_side_has_no_spurious_mentions(self, fixtures_dir):
        report = pathology_corpus(self.load_pairs(fixtures_dir))
        assert report.before.counts["response_spurious"] == 3
        assert report.after.counts["response_spurious"] == 0

    def test_macro_averaging_supported(self, fixtures_dir):
        report = pathology_corpus(self.load_pairs(fixtures_dir), averaging="macro")
        assert report.recall_deltas[MetricId.MUC] == 0.0
        assert report.removed_mentions == 3


class TestLoading:
    def test_load_jsonl(self, fixtures_dir):
        path = fixtures_dir / "derived_key.jsonl"
        source = parse_jsonl(path.read_text(encoding="utf-8").splitlines(), Role.KEY)
        assert source.format is SourceFormat.JSONL
        assert len(source) == 1
        assert source.documents[0][1].role is Role.KEY
        documents = list(read_corpus(path, SourceFormat.JSONL, Role.KEY))
        assert len(documents) == 1
        assert documents[0][1].role is Role.KEY
        assert CorpusSource("jsonl", documents) == source

    def test_load_conll(self, tmp_path):
        path = tmp_path / "corpus.conll"
        path.write_text(
            "#begin document d\nw\t(0\nw\t0)\n#end document\n", encoding="utf-8"
        )
        source = parse_conll(path.read_text(encoding="utf-8").splitlines(), "response")
        assert source.format is SourceFormat.CONLL
        assert source.documents[0][1].role is Role.RESPONSE
        [(_, partition)] = read_corpus(path, "conll", Role.RESPONSE)
        assert partition.role is Role.RESPONSE

    def test_unknown_format_rejected(self, fixtures_dir):
        with pytest.raises(ValueError):
            next(read_corpus(fixtures_dir / "derived_key.jsonl", "xml", Role.KEY))

    def test_corpus_stats_report_forwards_flag(self, fixtures_dir):
        text = (fixtures_dir / "pathology_key.jsonl").read_text()
        source = parse_jsonl(text.splitlines())
        report = corpus_stats_report(source, exclude_singletons=True)
        assert report.exclude_singletons is True
        assert report.stats.num_mentions == 6
