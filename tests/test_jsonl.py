import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import reference
from corefeval import (
    CorefEvalError,
    DuplicateSpan,
    ModelError,
    ParseError,
    RangeError,
    Role,
    SchemaError,
    SourceFormat,
    emit_jsonl,
    iter_jsonl,
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


# A plain {start, end} object, which the reader decodes straight into a
# span, in each place where a mention does not belong.  A named one stays an
# object and gives the same messages; its surface is the field looked up in it.
MENTION = {"start": 0, "end": 0}


def _named(surface):
    return {"start": 0, "end": 1, "is_named": True, "surface": surface}


def _in_chain(**fields):
    return {"chains": [{"chain_id": "a", "mentions": [MENTION], **fields}]}


def _in_mention(**fields):
    return _in_chain(mentions=[{**MENTION, **fields}])


MISPLACED_MENTIONS = {
    "record": (MENTION, SchemaError, "missing field 'doc_id'"),
    "named record": (_named("doc_id"), SchemaError, "missing field 'doc_id'"),
    "chain": ({"chains": [MENTION]}, SchemaError, "missing field 'chain_id'"),
    "named chain": (
        {"chains": [_named("chain_id")]},
        SchemaError,
        "missing field 'chain_id'",
    ),
    "doc_id": ({"doc_id": MENTION}, SchemaError, "field 'doc_id' must be str, got dict"),
    "num_tokens": (
        {"num_tokens": MENTION},
        SchemaError,
        "field 'num_tokens' must be int, got dict",
    ),
    "chains": ({"chains": MENTION}, SchemaError, "field 'chains' must be list, got dict"),
    "chain_id": (
        _in_chain(chain_id=_named("a")),
        SchemaError,
        "field 'chain_id' must be str, got dict",
    ),
    "mentions": (
        _in_chain(mentions=MENTION),
        SchemaError,
        "field 'mentions' must be list, got dict",
    ),
    "start": (
        _in_mention(start=MENTION),
        SchemaError,
        "field 'start' must be int, got dict",
    ),
    "end": (_in_mention(end=MENTION), SchemaError, "field 'end' must be int, got dict"),
    "is_named": (
        _in_mention(is_named=MENTION),
        SchemaError,
        "field 'is_named' must be a boolean",
    ),
    "surface": (
        _in_mention(surface=_named("surface")),
        SchemaError,
        "field 'surface' must be a string",
    ),
    "mention with an unknown field": (
        _in_mention(start=4, end=5, note=MENTION),
        RangeError,
        "mention (4, 5) outside document 'd' with 5 tokens",
    ),
}


@pytest.mark.parametrize("place", MISPLACED_MENTIONS)
def test_a_mention_object_out_of_place_is_reported_as_an_object(place):
    fields, error, message = MISPLACED_MENTIONS[place]
    text = fields if "start" in fields else json.loads(record(**fields))
    with pytest.raises(error) as exc:
        parse_jsonl([record(doc_id="first"), json.dumps(text)])
    assert str(exc.value) == f"line 2: {message}"


def test_a_byte_order_mark_inside_the_stream_is_invalid_json():
    with pytest.raises(ParseError) as exc:
        parse_jsonl([record(doc_id="first"), "\ufeff" + record()])
    assert str(exc.value) == (
        "line 2: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)"
    )


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


@pytest.mark.parametrize("extra", [{}, {"is_named": True}], ids=["plain", "named"])
def test_a_one_token_span_holds_one_int(extra):
    """The decoder builds a new int object for every number past 256; a
    one-token span keeps one of them twice, as a CoNLL span does."""
    mention = {"start": 1000, "end": 1000, **extra}
    chains = [{"chain_id": "a", "mentions": [mention, {"start": 1000, "end": 1001}]}]
    _, part = parse_one(record(num_tokens=1002, chains=chains))
    (one_token, two_tokens), = part.spans
    assert one_token == (1000, 1000) and one_token[0] is one_token[1]
    assert two_tokens == (1000, 1001)
    assert (one_token in part.named) == bool(extra)


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


# Differential: mutated records read as the plain-json.loads walk of
# reference.jsonl_outcome reads them, error text included.
FIELD_NAMES = ["doc_id", "num_tokens", "chains", "chain_id", "mentions"]
FIELDS = [*FIELD_NAMES, "start", "end", "is_named", "surface"]
SCALARS = [None, False, True, -1, 0, 3, 1.5, "", "x"]
PREFIXES = [""] * 12 + [" "] * 7 + ["\ufeff"]  # a byte order mark, rarely
MENTION_OBJECTS = st.fixed_dictionaries(
    {"start": st.integers(-1, 6), "end": st.integers(-1, 6)},
    optional={
        "is_named": st.booleans(),
        "surface": st.none() | st.text(max_size=2) | st.sampled_from(FIELD_NAMES),
    },
)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "a", "d", "e", "start"])
    | MENTION_OBJECTS,
    lambda children: st.lists(children, max_size=2)
    | st.dictionaries(st.sampled_from(["start", "end", "is_named", "x"]), children),
    max_leaves=4,
)
VALID_MENTIONS = st.builds(
    lambda span, metadata: {"start": min(span), "end": max(span), **metadata},
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.fixed_dictionaries(
        {}, optional={"is_named": st.booleans(), "surface": st.none() | st.text(max_size=2)}
    ),
)


# A valid mention with one field set to a scalar, of any type.
RETYPED_MENTIONS = st.builds(
    lambda mention, name, value: {**mention, name: value},
    VALID_MENTIONS,
    st.sampled_from(["start", "end", "is_named", "surface", "x"]),
    st.sampled_from(SCALARS),
)


@st.composite
def records(draw) -> dict:
    """A record whose fields are valid, with spans two chains may share and
    some mentions with a field of the wrong type."""
    chain_ids = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    mentions = st.lists(VALID_MENTIONS | RETYPED_MENTIONS, min_size=1, max_size=3)
    chains = [{"chain_id": chain_id, "mentions": draw(mentions)} for chain_id in chain_ids]
    doc_id = draw(st.sampled_from(["d", "e", "f", "g"]))
    return {"doc_id": doc_id, "num_tokens": 8, "chains": chains}


def _objects(value):
    """Every object and array of a decoded record, innermost first:
    ``sampled_from`` leans to early items, and most mutations should land
    in mentions."""
    children = value.values() if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, (dict, list)):
            yield from _objects(child)
    yield value


@st.composite
def mutated_lines(draw) -> str:
    """A record with keys dropped, fields of the wrong type, a
    mention's fields added to any object and mention objects anywhere, or
    with the whole record replaced."""
    value = draw(records())
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(list(_objects(value))))
        junk = draw(st.sampled_from(SCALARS) | JSON_VALUES)
        if isinstance(target, list):
            spot = draw(st.integers(0, len(target)))
            target[spot:spot + draw(st.integers(0, 1))] = [junk]
            continue
        action = draw(st.sampled_from(["drop", "replace", "set", "merge"]))
        if action == "merge":
            target.update(draw(MENTION_OBJECTS))
        elif target and action != "set":
            key = draw(st.sampled_from(sorted(target)))
            if action == "drop":
                del target[key]
            else:
                target[key] = junk
        else:
            target[draw(st.sampled_from(FIELDS))] = junk
    if draw(st.integers(0, 9)) == 5:
        value = draw(JSON_VALUES)
    return draw(st.sampled_from(PREFIXES)) + json.dumps(value)


def _read(lines):
    try:
        return [
            (doc.doc_id, doc.num_tokens, part.chain_ids, part.spans, part.named,
             dict(part.surfaces))
            for doc, part in iter_jsonl(lines)
        ]
    except CorefEvalError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(mutated_lines(), min_size=1, max_size=3))
def test_mutated_records_read_as_a_plain_json_walk_reads_them(lines):
    assert _read(lines) == reference.jsonl_outcome(lines)
