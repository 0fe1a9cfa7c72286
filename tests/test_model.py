import pytest
from hypothesis import given

import helpers
from corefeval import (
    BlancCounts,
    Chain,
    CorpusSource,
    DocMismatch,
    DocPair,
    Document,
    DuplicateSpan,
    Mention,
    ModelError,
    Partition,
    PRCounts,
    RangeError,
    Role,
    ScoreTriple,
    StratumConfig,
    compute_stats,
    optimal_alignment,
    pathology_corpus,
    score_corpus,
    stats_report,
    stratify_corpus,
    zipf_fit,
)
from corefeval.metrics import overlap
from corefeval.model import ZERO_TRIPLE, check_same_doc


def mk(start, end=None, doc="d", **kw):
    return Mention(doc, start, start if end is None else end, **kw)


class TestMention:
    def test_identity_is_span_only(self):
        a = mk(0, 2, is_named=True, surface="Marfisa")
        b = mk(0, 2)
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_spans_differ(self):
        assert mk(0, 1) != mk(0, 2)
        assert mk(1, 1, doc="x") != mk(1, 1, doc="y")

    def test_invalid_spans_rejected(self):
        with pytest.raises(ModelError):
            Mention("d", 3, 1)
        with pytest.raises(ModelError):
            Mention("d", -1, 0)
        with pytest.raises(ModelError):
            mk(2)._replace(start=3)

    def test_span_property(self):
        assert mk(2, 5).span == (2, 5)

    def test_metadata_defaults(self):
        m = mk(0)
        assert m.is_named is False
        assert m.surface is None


class TestDocument:
    def test_zero_tokens_allowed(self):
        assert Document("d", 0).num_tokens == 0

    def test_negative_tokens_rejected(self):
        with pytest.raises(ModelError):
            Document("d", -1)


class TestChain:
    def test_canonical_order(self):
        a = Chain("c", [mk(3), mk(0, 1), mk(2)])
        b = Chain("c", [mk(2), mk(3), mk(0, 1)])
        assert a == b
        assert [m.span for m in a] == [(0, 1), (2, 2), (3, 3)]

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Chain("c", [])

    def test_mixed_documents_rejected(self):
        with pytest.raises(ModelError):
            Chain("c", [mk(0, doc="x"), mk(1, doc="y")])

    def test_repeated_span_rejected(self):
        with pytest.raises(DuplicateSpan):
            Chain("c", [mk(0, 1), mk(0, 1)])

    def test_len_and_singleton(self):
        assert len(Chain("c", [mk(0), mk(1)])) == 2
        assert Chain("c", [mk(0)]).is_singleton
        assert not Chain("c", [mk(0), mk(1)]).is_singleton

    def test_mention_set(self):
        c = Chain("c", [mk(0), mk(4)])
        assert c.mention_set == {mk(0), mk(4)}
        assert c.doc_id == "d"


class TestPartition:
    def test_chains_sorted_by_id(self):
        p = Partition("d", [Chain("b", [mk(1)]), Chain("a", [mk(0)])], Role.KEY)
        assert [c.chain_id for c in p.chains] == ["a", "b"]

    def test_role_coerced_from_string(self):
        p = Partition("d", [], "response")
        assert p.role is Role.RESPONSE

    def test_cross_chain_duplicate_span_rejected(self):
        with pytest.raises(DuplicateSpan):
            Partition(
                "d",
                [Chain("a", [mk(0), mk(1)]), Chain("b", [mk(1)])],
                Role.KEY,
            )

    def test_duplicate_chain_id_rejected(self):
        with pytest.raises(ModelError):
            Partition("d", [Chain("a", [mk(0)]), Chain("a", [mk(1)])], Role.KEY)

    def test_foreign_chain_rejected(self):
        with pytest.raises(ModelError):
            Partition("d", [Chain("a", [mk(0, doc="other")])], Role.KEY)

    def test_singleton_mentions(self):
        p = Partition(
            "d",
            [Chain("a", [mk(0), mk(1)]), Chain("b", [mk(5)])],
            Role.KEY,
        )
        assert {c.mentions[0] for c in p.chains if c.is_singleton} == {mk(5)}
        assert len(p) == 2


class TestAccessors:
    def test_mentions_of_counts_chain_sizes(self):
        p = Partition(
            "d", [Chain("a", [mk(0), mk(1)]), Chain("b", [mk(2)])], Role.KEY
        )
        assert len(p.mention_set) == 3

    def test_mentions_of_empty(self):
        assert Partition("d", [], Role.KEY).mention_set == frozenset()

    def test_mentions_of_single_chain(self):
        p = Partition("d", [Chain("a", [mk(i) for i in range(5)])], Role.KEY)
        assert len(p.mention_set) == 5

    def test_chain_of_present_and_absent(self):
        p = Partition(
            "d", [Chain("a", [mk(0), mk(1)]), Chain("b", [mk(2)])], Role.KEY
        )
        assert p.chain_by_mention.get(mk(1)).chain_id == "a"
        assert p.chain_by_mention.get(mk(2)).chain_id == "b"
        assert p.chain_by_mention.get(mk(9)) is None

    def test_chain_of_ignores_metadata(self):
        p = Partition("d", [Chain("a", [mk(0, is_named=True)])], Role.KEY)
        assert p.chain_by_mention.get(mk(0)).chain_id == "a"

    @given(helpers.label_partitions())
    def test_every_mention_maps_to_its_chain(self, chains):
        p = helpers.build_partition(chains, Role.KEY)
        for m in p.mention_set:
            c = p.chain_by_mention.get(m)
            assert c is not None
            assert m in c.mention_set

    def test_check_same_doc(self):
        k = Partition("a", [], Role.KEY)
        r = Partition("b", [], Role.RESPONSE)
        check_same_doc(k, Partition("a", [], Role.RESPONSE))
        with pytest.raises(DocMismatch) as exc:
            check_same_doc(k, r)
        assert exc.value.doc_id == "a"


class TestScoreTriple:
    def test_from_rp_harmonic(self):
        t = ScoreTriple.from_rp(0.5, 1.0)
        assert t.f1 == pytest.approx(2 / 3)

    def test_zero_zero_f1(self):
        assert ScoreTriple.from_rp(0.0, 0.0) == ZERO_TRIPLE

    def test_out_of_range_rejected(self):
        with pytest.raises(ModelError):
            ScoreTriple(1.2, 0.0, 0.0)
        with pytest.raises(ModelError):
            ScoreTriple(0.0, -0.1, 0.0)
        with pytest.raises(ModelError):
            ScoreTriple(0.0, 0.0, float("nan"))
        with pytest.raises(ModelError):
            ZERO_TRIPLE._replace(f1=1.5)

    def test_f1_of_convention(self):
        assert ScoreTriple.from_rp(0.0, 0.0).f1 == 0.0
        assert ScoreTriple.from_rp(1.0, 1.0).f1 == 1.0


class TestCorpusSource:
    def test_duplicate_doc_id_rejected(self):
        doc = Document("d", 3)
        part = Partition("d", [], Role.KEY)
        with pytest.raises(ModelError):
            CorpusSource("jsonl", [(doc, part), (doc, part)])

    def test_partition_document_id_mismatch_rejected(self):
        with pytest.raises(ModelError):
            CorpusSource("jsonl", [(Document("a", 3), Partition("b", [], Role.KEY))])

    def test_mention_beyond_token_count_rejected(self):
        part = Partition("d", [Chain("c", [mk(0), mk(5)])], Role.KEY)
        with pytest.raises(RangeError):
            CorpusSource("jsonl", [(Document("d", 5), part)])

    def test_valid_source(self):
        part = Partition("d", [Chain("c", [mk(0), mk(4)])], Role.KEY)
        src = CorpusSource("conll", [(Document("d", 5), part)])
        assert len(src) == 1


def _record_twins():
    """Two equal instances of every public record type, by type name; the
    Mention and Partition twins differ in their metadata only."""
    plain = Partition("d", [Chain("a", [mk(0, 1), mk(3)])], Role.KEY)
    response = Partition(
        "d", [Chain("x", [mk(0, 1)]), Chain("y", [mk(3), mk(4)])], Role.RESPONSE
    )
    doc = Document("d", 5)
    pairs = [DocPair(plain, response)]

    def build():
        with pytest.warns(UserWarning, match="require_named degraded"):
            stratified = stratify_corpus(pairs)
        return {
            "Document": Document("d", 5),
            "ScoreTriple": ScoreTriple(0.5, 0.25, 1 / 3),
            "Chain": Chain("a", [mk(3), mk(0, 1)]),
            "CorpusSource": CorpusSource("jsonl", [(doc, plain)]),
            "DocPair": DocPair(plain, response),
            "PRCounts": PRCounts(1, 2, 1, 4),
            "BlancCounts": BlancCounts(PRCounts(1, 2, 1, 4)),
            "Overlap": overlap(plain, response),
            "Alignment": optimal_alignment(plain, response, "entity"),
            "MetricReport": score_corpus(pairs),
            "PathologyReport": pathology_corpus(pairs),
            "StratifiedReport": stratified,
            "CorpusStats": compute_stats([(doc, plain)]),
            "ZipfFit": zipf_fit([(1, 3), (2, 1)]),
            "StatsReport": stats_report([(doc, plain)]),
            "StratumConfig": StratumConfig(),
        }

    first, second = build(), build()
    named = [mk(0, 1, is_named=True, surface="Ada"), mk(3, surface="she")]
    first.update(Mention=named[0], Partition=Partition("d", [Chain("a", named)], "key"))
    second.update(Mention=mk(0, 1), Partition=plain)
    return {name: (first[name], second[name]) for name in first}


RECORD_TWINS = _record_twins()
# A field of these holds a dict, so they compare by value but cannot hash.
UNHASHABLE = {
    "CorpusStats",
    "MetricReport",
    "Overlap",
    "PathologyReport",
    "StatsReport",
    "StratifiedReport",
}


@pytest.mark.parametrize("name", sorted(RECORD_TWINS))
def test_records_are_immutable_and_compare_by_value(name):
    record, twin = RECORD_TWINS[name]
    assert type(record).__name__ == name
    assert record == twin and not record != twin
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    attributes = [a for a in dir(record) if not a.startswith("_")]
    fields = [a for a in attributes if not callable(getattr(record, a))]
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == twin
