import gc
import tracemalloc

import pytest
from hypothesis import given

import helpers
from corefeval import (
    DuplicateSpan,
    ParseError,
    Role,
    SourceFormat,
    UnbalancedBracket,
    iter_conll,
    parse_conll,
)


def parse_one(text: str, role=Role.KEY):
    source = parse_conll(text.splitlines(), role)
    assert len(source) == 1
    return source.documents[0]


def spans_by_chain(part):
    return {c.chain_id: {m.span for m in c} for c in part.chains}


def test_multi_token_and_unit_mentions():
    doc, part = parse_one(
        "#begin document d\n"
        "w0\t(0\n"
        "w1\t0)\n"
        "w2\t(0)\n"
        "#end document\n"
    )
    assert doc.num_tokens == 3
    assert spans_by_chain(part) == {"0": {(0, 1), (2, 2)}}


def test_dash_means_no_mention():
    doc, part = parse_one(
        "#begin document d\nw\t-\nw\t-\n#end document\n"
    )
    assert doc.num_tokens == 2
    assert len(part) == 0


def test_pipe_joined_items_on_one_token():
    doc, part = parse_one(
        "#begin document d\nw\t(0)|(1\nw\t1)\n#end document\n"
    )
    assert spans_by_chain(part) == {"0": {(0, 0)}, "1": {(0, 1)}}


def test_nested_same_chain_uses_stack():
    _, part = parse_one(
        "#begin document d\nw\t(0\nw\t(0\nw\t0)\nw\t0)\n#end document\n"
    )
    assert spans_by_chain(part) == {"0": {(1, 2), (0, 3)}}


def test_close_then_open_on_same_token():
    _, part = parse_one(
        "#begin document d\nw\t(0\nw\t0)|(0\nw\t0)\n#end document\n"
    )
    assert spans_by_chain(part) == {"0": {(0, 1), (1, 2)}}


def test_only_last_column_is_read():
    _, part = parse_one(
        "#begin document d\n"
        "The DT (0) extra (1)\n"
        "#end document\n"
    )
    assert spans_by_chain(part) == {"1": {(0, 0)}}


def test_blank_lines_separate_sentences_without_consuming_indices():
    doc, part = parse_one(
        "#begin document d\nw\t(0\nw\t0)\n\nw\t(0)\n#end document\n"
    )
    assert doc.num_tokens == 3
    assert spans_by_chain(part) == {"0": {(0, 1), (2, 2)}}


def test_comment_lines_inside_document_skipped():
    doc, part = parse_one(
        "#begin document d\n#speaker alice\nw\t(3)\n#end document\n"
    )
    assert doc.num_tokens == 1
    assert spans_by_chain(part) == {"3": {(0, 0)}}


def test_doc_id_is_raw_remainder_including_part():
    doc, _ = parse_one(
        "#begin document (bn/abc); part 000\nw\t-\n#end document\n"
    )
    assert doc.doc_id == "(bn/abc); part 000"


def test_parts_become_separate_documents():
    source = parse_conll(
        [
            "#begin document (x); part 000",
            "w\t(0)",
            "#end document",
            "#begin document (x); part 001",
            "w\t(0)",
            "#end document",
        ]
    )
    assert [doc.doc_id for doc, _ in source.documents] == [
        "(x); part 000",
        "(x); part 001",
    ]
    assert source.format is SourceFormat.CONLL


def test_empty_document_allowed():
    doc, part = parse_one("#begin document d\n#end document\n")
    assert doc.num_tokens == 0
    assert len(part) == 0


def test_role_is_applied():
    _, part = parse_one(
        "#begin document d\nw\t(0)\n#end document\n", role=Role.RESPONSE
    )
    assert part.role is Role.RESPONSE


def test_same_span_same_chain_collapses():
    _, part = parse_one(
        "#begin document d\nw\t(0)|(0)\n#end document\n"
    )
    assert spans_by_chain(part) == {"0": {(0, 0)}}


def test_same_span_two_chains_rejected():
    with pytest.raises(DuplicateSpan):
        parse_one("#begin document d\nw\t(0)|(1)\n#end document\n")


def test_close_without_open_reports_line():
    with pytest.raises(UnbalancedBracket) as exc:
        parse_one("#begin document d\nw\t0)\n#end document\n")
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2:")


def test_unclosed_open_rejected():
    with pytest.raises(UnbalancedBracket):
        parse_one("#begin document d\nw\t(0\n#end document\n")


def test_bad_item_rejected():
    with pytest.raises(ParseError) as exc:
        parse_one("#begin document d\nw\t(x)\n#end document\n")
    assert exc.value.line == 2


def test_token_line_outside_document_rejected():
    # A comment line is allowed only inside a document.
    between = ["#begin document a", "w\t-", "#end document", "", "# note",
               "#begin document b", "#end document"]
    for lines, line in ((["w\t-"], 1), (between, 5)):
        with pytest.raises(ParseError) as exc:
            parse_conll(lines)
        assert exc.value.line == line


def test_begin_inside_document_rejected():
    with pytest.raises(ParseError):
        parse_one("#begin document a\n#begin document b\n#end document\n")


def test_missing_end_rejected():
    with pytest.raises(ParseError) as exc:
        parse_conll(["#begin document d", "w\t-"])
    assert "missing #end" in str(exc.value)


def test_iter_conll_is_streaming():
    lines = iter(
        [
            "#begin document one",
            "w\t-",
            "#end document",
            "#begin document two",
            "#end document",
        ]
    )
    docs = iter_conll(lines)
    doc, _ = next(docs)
    assert doc.doc_id == "one"
    # the generator must not have read past the first document's end
    assert next(lines) == "#begin document two"


@given(helpers.span_documents())
def test_write_parse_round_trip(doc_part):
    doc, part = doc_part
    text = helpers.conll_text([(doc, part)])
    parsed_doc, parsed_part = parse_one(text)
    assert parsed_doc == doc
    assert parsed_part == part


@given(helpers.span_documents())
def test_emitted_brackets_balance(doc_part):
    text = helpers.conll_text([doc_part])
    assert text.count("(") == text.count(")")


def generated_corpus(docs: int = 60, chains: int = 12, size: int = 5) -> list[str]:
    """``docs`` documents of ``chains`` chains with ``size`` mentions each:
    every token opens a two-token mention or holds a one-token one."""
    lines = []
    for d in range(docs):
        lines.append(f"#begin document gen/{d:04d}; part 000")
        for c in range(chains):
            for _ in range(size):
                lines += [f"gen\t0\tw\t({c}", f"gen\t0\tw\t{c})", f"gen\t0\tw\t({c})"]
                lines.append("")
        lines.append("#end document")
    return lines


def test_parsed_corpus_holds_under_120_bytes_per_mention():
    """Parsing keeps per-chain spans only; the Chain/Mention views are
    built on access, and this test never touches them."""
    lines = generated_corpus()
    gc.collect()
    tracemalloc.start()
    try:
        source = parse_conll(lines)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(part) for _, part in source.documents) == 60 * 12
    assert held / (60 * 12 * 5 * 2) < 120
