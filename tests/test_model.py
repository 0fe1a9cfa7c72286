import io

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
    Stratum,
    StratumConfig,
    emit_jsonl,
    optimal_alignment,
    parse_jsonl,
    pathology_corpus,
    remove_spurious,
    score_corpus,
    stats_report,
    stratify_corpus,
    zipf_fit,
)
from corefeval.metrics import overlap
from corefeval.model import ZERO_TRIPLE, check_same_doc
from corefeval.stratify import stratum_pairs


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
        with pytest.raises(ModelError, match="^duplicate document id 'd'$"):
            CorpusSource("jsonl", [(doc, part), (doc, part)])

    def test_partition_document_id_mismatch_rejected(self):
        message = "^partition for 'b' attached to document 'a'$"
        with pytest.raises(ModelError, match=message):
            CorpusSource("jsonl", [(Document("a", 3), Partition("b", [], Role.KEY))])

    def test_mention_beyond_token_count_rejected(self):
        chains = [Chain("c", [mk(0), mk(6), mk(5)]), Chain("e", [mk(7)])]
        part = Partition("d", chains, Role.KEY)
        message = r"^mention \(5, 5\) outside document 'd' with 5 tokens$"
        with pytest.raises(RangeError, match=message):
            CorpusSource("jsonl", [(Document("d", 5), part)])

    def test_valid_source(self):
        part = Partition("d", [Chain("c", [mk(0), mk(4)])], Role.KEY)
        src = CorpusSource("conll", [(Document("d", 5), part)])
        assert len(src) == 1


VIEWS = {"chains", "mention_set", "chain_by_mention"}


def metadata_pair():
    """A key and response whose mentions carry is_named and surface; the key
    has one chain per stratum under ``StratumConfig(3)``, and response chain
    r3 holds only spurious mentions."""
    ada = [mk(0, 1, is_named=True, surface="Ada"), mk(5, surface="she"), mk(9), mk(12)]
    bob = [mk(3, is_named=True, surface="Bob"), mk(7, surface="him")]
    x = [mk(14, surface="it")]
    key = Partition("d", [Chain("ada", ada), Chain("bob", bob), Chain("x", x)], "key")
    response = Partition(
        "d",
        [
            Chain("r1", [ada[0], bob[0], mk(20, surface="spurious")]),
            Chain("r2", [mk(5, surface="she"), mk(21)]),
            Chain("r3", [mk(22, is_named=True, surface="Nobody")]),
            Chain("r4", [mk(14, surface="it"), mk(12)]),
        ],
        "response",
    )
    return key, response


def assert_cut_from(out, source):
    """No view is cached on ``out`` or ``source``, and ``out`` keeps
    ``source``'s metadata on exactly the spans it kept."""
    assert not VIEWS & {*vars(out), *vars(source)}
    kept = {span for spans in out.spans for span in spans}
    assert out.named == source.named & kept
    assert dict(out.surfaces) == {s: v for s, v in source.surfaces.items() if s in kept}


class TestNoViewLeftBehind:
    """The partition paths cut spans: they build no ``Chain`` or ``Mention``,
    cache no view on their inputs or outputs, and keep each kept span's
    is_named and surface (which ``Partition`` equality ignores)."""

    @pytest.fixture
    def pair(self, monkeypatch):
        built = metadata_pair()

        def refuse(*args, **kwargs):
            raise AssertionError("a Chain or Mention was built")

        monkeypatch.setattr(Chain, "__init__", refuse)
        monkeypatch.setattr(Mention, "__new__", refuse)
        return built

    def test_remove_spurious(self, pair):
        key, response = pair
        out = remove_spurious(response, key)
        assert out.chain_ids == ("r1", "r2", "r4")
        assert out.named == {(0, 1), (3, 3)}
        assert dict(out.surfaces) == {
            (0, 1): "Ada", (3, 3): "Bob", (5, 5): "she", (14, 14): "it"
        }
        assert_cut_from(out, response)
        assert not VIEWS & vars(key).keys()

    def test_stratum_pairs(self, pair):
        key, response = pair
        strata = stratum_pairs(key, response, StratumConfig(3))
        assert list(strata) == [Stratum.MAJOR, Stratum.SECONDARY, Stratum.SINGLETON]
        assert strata[Stratum.MAJOR][1].surfaces == {(0, 1): "Ada", (5, 5): "she"}
        for key_slice, response_slice in strata.values():
            assert_cut_from(key_slice, key)
            assert_cut_from(response_slice, response)
        key_ids = [c for key_slice, _ in strata.values() for c in key_slice.chain_ids]
        assert key_ids == ["ada", "bob", "x"]

    def test_corpus_source_and_parse_jsonl(self, pair):
        for part in pair:
            doc = Document("d", 30)
            source = CorpusSource("jsonl", [(doc, part)])
            assert source.documents == ((doc, part),)
            assert_cut_from(part, part)
            text = io.StringIO()
            emit_jsonl(source.documents, text)
            lines = text.getvalue().splitlines()
            ((parsed_doc, parsed),) = parse_jsonl(lines, part.role).documents
            assert (parsed_doc, parsed) == (doc, part)
            assert_cut_from(parsed, part)


def _surfaced_partitions():
    """A partition with a surface, by how it was made."""
    key, response = metadata_pair()
    line = (
        '{"doc_id": "d", "num_tokens": 2, "chains": [{"chain_id": "a", '
        '"mentions": [{"start": 0, "end": 1, "surface": "Ada"}]}]}'
    )
    ((_, parsed),) = parse_jsonl([line], Role.KEY).documents
    return {
        "parse_jsonl": parsed,
        "remove_spurious": remove_spurious(response, key),
        "Partition": key,
    }


@pytest.mark.parametrize("made_by", sorted(_surfaced_partitions()))
def test_surfaces_cannot_be_assigned(made_by):
    part = _surfaced_partitions()[made_by]
    before = dict(part.surfaces)
    assert before
    with pytest.raises(TypeError):
        part.surfaces[(1, 1)] = "x"
    assert part.surfaces == before


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
