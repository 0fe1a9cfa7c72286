import io
import json

import pytest
from hypothesis import given

import helpers
from corefeval import (
    DuplicateSpan,
    ModelError,
    ParseError,
    RangeError,
    Role,
    SchemaError,
    SourceFormat,
    emit_jsonl,
    parse_jsonl,
)


def record(**overrides):
    base = {
        "doc_id": "d",
        "num_tokens": 5,
        "chains": [
            {"chain_id": "a", "mentions": [{"start": 0, "end": 0}, {"start": 2, "end": 3}]},
            {"chain_id": "b", "mentions": [{"start": 4, "end": 4}]},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def parse_one(text: str, role=Role.KEY):
    source = parse_jsonl(text.splitlines(), role)
    assert len(source) == 1
    return source.documents[0]


def emit_text(documents) -> str:
    out = io.StringIO()
    emit_jsonl(documents, out)
    return out.getvalue()


def test_basic_record():
    doc, part = parse_one(record())
    assert doc.num_tokens == 5
    assert {c.chain_id: len(c) for c in part.chains} == {"a": 2, "b": 1}
    assert part.role is Role.KEY


def test_metadata_carried():
    text = record(
        chains=[
            {
                "chain_id": "a",
                "mentions": [{"start": 0, "end": 1, "is_named": True, "surface": "Ms A"}],
            }
        ]
    )
    _, part = parse_one(text)
    m = part.chains[0].mentions[0]
    assert m.is_named is True
    assert m.surface == "Ms A"


def test_unknown_fields_tolerated():
    doc, _ = parse_one(record(genre="bc"))
    assert doc.doc_id == "d"


def test_blank_lines_skipped():
    source = parse_jsonl(["", record(), "   "])
    assert len(source) == 1
    assert source.format is SourceFormat.JSONL


@pytest.mark.parametrize("field", ["doc_id", "num_tokens", "chains"])
def test_missing_record_field(field):
    raw = json.loads(record())
    del raw[field]
    with pytest.raises(SchemaError) as exc:
        parse_one(json.dumps(raw))
    assert field in str(exc.value)


def test_bool_num_tokens_rejected():
    with pytest.raises(SchemaError):
        parse_one(record(num_tokens=True))


def test_non_string_chain_id_rejected():
    with pytest.raises(SchemaError):
        parse_one(record(chains=[{"chain_id": 7, "mentions": [{"start": 0, "end": 0}]}]))


def test_duplicate_chain_id_rejected():
    chain = {"chain_id": "a", "mentions": [{"start": 0, "end": 0}]}
    other = {"chain_id": "a", "mentions": [{"start": 1, "end": 1}]}
    with pytest.raises(ModelError) as exc:
        parse_one(record(chains=[chain, other]))
    assert exc.value.line == 1
    assert str(exc.value) == "line 1: duplicate chain id 'a' in document 'd'"


def test_empty_mention_list_rejected():
    with pytest.raises(SchemaError):
        parse_one(record(chains=[{"chain_id": "a", "mentions": []}]))


def test_mention_missing_start_rejected():
    with pytest.raises(SchemaError):
        parse_one(record(chains=[{"chain_id": "a", "mentions": [{"end": 0}]}]))


def test_end_must_stay_below_num_tokens():
    with pytest.raises(RangeError):
        parse_one(record(chains=[{"chain_id": "a", "mentions": [{"start": 4, "end": 5}]}]))


def test_negative_start_rejected():
    with pytest.raises(RangeError):
        parse_one(record(chains=[{"chain_id": "a", "mentions": [{"start": -1, "end": 0}]}]))


def test_inverted_span_rejected():
    with pytest.raises(RangeError):
        parse_one(record(chains=[{"chain_id": "a", "mentions": [{"start": 3, "end": 1}]}]))


def test_non_boolean_is_named_rejected():
    with pytest.raises(SchemaError):
        parse_one(
            record(chains=[{"chain_id": "a", "mentions": [{"start": 0, "end": 0, "is_named": 1}]}])
        )


def test_invalid_json_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_jsonl([record(), "{nope"])
    assert exc.value.line == 2


def test_non_object_record_rejected():
    with pytest.raises(SchemaError):
        parse_one("[1, 2]")


def test_duplicate_doc_id_across_records_rejected():
    with pytest.raises(ModelError):
        parse_jsonl([record(), record()])


def test_same_span_two_chains_rejected():
    chains = [
        {"chain_id": "a", "mentions": [{"start": 0, "end": 1}]},
        {"chain_id": "b", "mentions": [{"start": 0, "end": 1}]},
    ]
    with pytest.raises(DuplicateSpan):
        parse_one(record(chains=chains))


def test_same_span_same_chain_collapses():
    chains = [
        {
            "chain_id": "a",
            "mentions": [{"start": 0, "end": 1}, {"start": 0, "end": 1, "is_named": True}],
        }
    ]
    _, part = parse_one(record(chains=chains))
    assert len(part.chains[0]) == 1
    # first occurrence wins, including its metadata
    assert part.chains[0].mentions[0].is_named is False


def test_emit_omits_defaulted_metadata():
    text = emit_text(parse_jsonl([record()]).documents)
    assert "is_named" not in text
    assert "surface" not in text


def test_emit_keeps_set_metadata():
    raw = record(
        chains=[{"chain_id": "a", "mentions": [{"start": 0, "end": 0, "is_named": True}]}]
    )
    assert '"is_named": true' in emit_text(parse_jsonl([raw]).documents)


def test_parse_emit_parse_fixed_point():
    source = parse_jsonl([record()])
    emitted = emit_text(source.documents)
    again = emit_text(parse_jsonl(emitted.splitlines()).documents)
    assert again == emitted


@given(helpers.span_documents())
def test_emit_parse_round_trip_preserves_metadata(doc_part):
    doc, part = doc_part
    text = emit_text([(doc, part)])
    parsed_doc, parsed_part = parse_one(text)
    assert parsed_doc == doc
    assert parsed_part == part
    original = {
        (m.span, m.is_named, m.surface) for c in part.chains for m in c.mentions
    }
    parsed = {
        (m.span, m.is_named, m.surface)
        for c in parsed_part.chains
        for m in c.mentions
    }
    assert parsed == original


def test_metadata_record_is_an_emit_fixed_point():
    # Partition equality ignores ``named`` and ``surfaces``: compare bytes.
    mentions = [
        {"start": 0, "end": 1, "is_named": True, "surface": "Chloé Dupont"},
        {"start": 2, "end": 2, "surface": "she"},
    ]
    chains = [{"chain_id": "a", "mentions": mentions}]
    doc = {"doc_id": "d", "num_tokens": 3, "chains": chains}
    text = json.dumps(doc, ensure_ascii=False) + "\n"
    assert emit_text(parse_jsonl(text.splitlines()).documents) == text


def test_shipped_fixtures_are_emit_fixed_points(fixtures_dir):
    for name in (
        "derived_key.jsonl",
        "derived_response.jsonl",
        "pathology_key.jsonl",
        "pathology_response.jsonl",
    ):
        text = (fixtures_dir / name).read_text()
        assert emit_text(parse_jsonl(text.splitlines()).documents) == text
