"""Streaming: readers drop each document's working state, the two sides are
paired as they are read, and memory does not grow with the corpus: no
document stays referenced while the next one is parsed.

``fixtures/expected/streaming.json`` pins stdout, stderr and exit status
of the runs in ``streaming_corpus.recorded_runs``; they were recorded
with the implementation that parsed both corpora whole before pairing
them (``{key}`` and ``{response}`` stand for the two paths).
"""

from __future__ import annotations

import gc
import io
import json
import tracemalloc

import pytest

import corefeval.cli as cli
import corefeval.corpus as corpus_mod
from corefeval import (
    CorpusSource,
    Document,
    Partition,
    Role,
    Stratum,
    StratumConfig,
    iter_conll,
    iter_jsonl,
    pathology_corpus,
    score_corpus,
    stats_report,
    stratify_corpus,
)
from corefeval.cli import main
from corefeval.corpus import pair_documents, read_corpus
from corefeval.metrics import overlap
from corefeval.model import DocumentBuilder
from corefeval.stratify import chain_strata, stratum_tables

import streaming_corpus
from streaming_corpus import corpus_text, degrade_run, pairing_run

RUNS = dict(streaming_corpus.recorded_runs())


@pytest.fixture(scope="module")
def expected(fixtures_dir):
    path = fixtures_dir / "expected" / "streaming.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_the_materialising_pairing(name, expected, tmp_path, capsys):
    argv = RUNS[name](tmp_path)
    rc = main(argv)
    out, err = capsys.readouterr()
    pinned = expected[name]
    key, response = argv[2], argv[4]
    assert rc == pinned["rc"]
    assert out == pinned["out"]
    assert err == pinned["err"].replace("{key}", key).replace("{response}", response)


@pytest.mark.parametrize(
    "reader, text",
    [
        (iter_conll, corpus_text("conll", "key", [0, 1])),
        (iter_jsonl, corpus_text("jsonl", "key", [0, 1])),
    ],
    ids=["conll", "jsonl"],
)
def test_reader_keeps_no_working_state_across_its_yield(reader, text):
    documents = reader(io.StringIO(text))
    next(documents)
    held = documents.gi_frame.f_locals.values()
    assert not any(isinstance(value, DocumentBuilder) for value in held)
    # A decoded jsonl record is a dict; CoNLL's bracket stacks are one too.
    assert not any(isinstance(value, dict) and value for value in held)
    assert not any(isinstance(value, str) and "doc0" in value for value in held)
    # Nor the document itself, which the caller may already have dropped.
    assert not any(isinstance(value, (tuple, Document, Partition)) for value in held)


def _write(tmp_path, fmt, key_text, response_text):
    key, response = tmp_path / f"key.{fmt}", tmp_path / f"response.{fmt}"
    key.write_text(key_text, encoding="utf-8")
    response.write_text(response_text, encoding="utf-8")
    return key, response


def _last_document_line(text, fmt):
    """1-based line of the last document's record or first token row."""
    lines = text.splitlines()
    if fmt == "jsonl":
        return len(lines)
    return max(i for i, line in enumerate(lines, 1) if line.startswith("#begin")) + 1


@pytest.mark.parametrize("fmt", ["jsonl", "conll"])
@pytest.mark.parametrize("fault", ["utf8", "malformed"])
def test_fault_in_the_last_response_document_names_path_and_line(
    fmt, fault, tmp_path, capsys
):
    # Eight documents run past the text reader's first 8 KB block, so the
    # fault is met mid-stream, after documents have been paired and scored.
    docs = range(8)
    response_text = corpus_text(fmt, "response", docs)
    line = _last_document_line(response_text, fmt)
    lines = response_text.encode("utf-8").split(b"\n")
    if fault == "utf8":
        lines[line - 1] = b"\xff" + lines[line - 1]
        message = "invalid UTF-8 (invalid start byte)"
    elif fmt == "jsonl":
        lines[line - 1] = b'{"doc_id": "doc7"}'
        message = "missing field 'num_tokens'"
    else:
        lines[line - 1] = b"w\t(x"
        message = "bad coreference item '(x'"
    key, response = _write(tmp_path, fmt, corpus_text(fmt, "key", docs), "")
    response.write_bytes(b"\n".join(lines))
    for command in ("score", "stratify", "pathology"):
        rc = main([command, "--key", str(key), "--response", str(response)])
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err == f"error: {response}: line {line}: {message}\n"


BAD_SECOND_KEY_DOCUMENT = {
    "jsonl": corpus_text("jsonl", "key", [0]) + "[]\n",
    "conll": corpus_text("conll", "key", [0]) + "#begin document doc1\n",
}
BAD_FIRST_RESPONSE_DOCUMENT = {"jsonl": "{}\n", "conll": "#begin document doc0\nw\t0)\n"}


@pytest.mark.parametrize("fmt", ["jsonl", "conll"])
def test_response_fault_read_first_is_reported_first(fmt, tmp_path, capsys):
    """The two sides are read in step, so a fault in the response's first
    document, or a missing response file, is met before a fault in the
    key's second document (a whole key was once parsed before the
    response was opened)."""
    key, response = _write(
        tmp_path, fmt, BAD_SECOND_KEY_DOCUMENT[fmt], BAD_FIRST_RESPONSE_DOCUMENT[fmt]
    )
    argv = ["score", "--key", str(key), "--response", str(response)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {response}: line ")
    response.unlink()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{response}'\n"


COMMANDS = ["score", "stratify", "pathology", "stats"]


@pytest.mark.parametrize("fmt", ["jsonl", "conll"])
@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_materialises_a_corpus(fmt, command, tmp_path, monkeypatch, capsys):
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("a command materialised a corpus")

    monkeypatch.setattr(CorpusSource, "__init__", refuse)
    monkeypatch.setattr(CorpusSource, "of_checked", classmethod(refuse))
    for module in (corpus_mod, cli):
        monkeypatch.setattr(module, "pair_corpora", refuse, raising=False)
    argv = pairing_run(tmp_path, fmt, "reversed", command)
    if command == "stats":
        argv = argv[:3]
    assert main(argv) == 0
    capsys.readouterr()
    assert built == []


def _peak(run, *args) -> tuple[object, int]:
    """What ``run(*args)`` returns, and the peak of memory traced meanwhile."""
    tracemalloc.start()
    try:
        return run(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Per extra document: its counts, and for stats its rank-size entries and
# printed series.  A parsed document of this corpus, both sides, takes
# about 35 KB.
ALLOWANCE_PER_DOC = 6_000


@pytest.mark.parametrize("command", COMMANDS)
def test_peak_memory_does_not_grow_with_the_parsed_corpus(command, tmp_path, capsys):
    """A named mention in the first document keeps stratify from holding
    the tables a degrade decision would need."""
    peaks = {}
    for copies in (1, 8):
        docs = range(4 * copies)
        size = tmp_path / str(copies)
        size.mkdir()
        key, response = _write(
            size,
            "jsonl",
            corpus_text("jsonl", "key", docs, named=0),
            corpus_text("jsonl", "response", docs),
        )
        argv = [command, "--key", str(key)]
        if command != "stats":
            argv += ["--response", str(response)]
        if copies == 1:
            main(argv)  # first-call caches are not part of the comparison
        rc, peaks[copies] = _peak(main, argv)
        capsys.readouterr()
        assert rc == 0
    assert peaks[8] - peaks[1] <= 28 * ALLOWANCE_PER_DOC, peaks


LIBRARY_RUNS = {
    "score": score_corpus,
    "stratify": stratify_corpus,
    "pathology": pathology_corpus,
}


def _library_run(command, key, response):
    """The report a command prints, from the library calls it makes."""
    key_docs = read_corpus(key, "jsonl", Role.KEY)
    if command == "stats":
        return stats_report(key_docs)
    response_docs = read_corpus(response, "jsonl", Role.RESPONSE)
    return LIBRARY_RUNS[command](pair_documents(key_docs, response_docs))


@pytest.mark.parametrize("command", COMMANDS)
def test_previous_document_is_dropped_before_the_next_is_parsed(command, tmp_path):
    """Two copies of one long document peak within 10% of one copy.  Were
    the first copy still referenced while the second is parsed, by a
    reader, by the pairing or by a scoring loop, two copies would peak
    near the sum of both (about 1.5 times one copy)."""
    key, response = (
        corpus_text("jsonl", side, [0], named=0, n_chains=600)
        for side in ("key", "response")
    )
    paths = {}
    for copies, texts in (
        (1, (key, response)),
        (2, (text + text.replace('"doc0"', '"doc0-copy"') for text in (key, response))),
    ):
        folder = tmp_path / str(copies)
        folder.mkdir()
        paths[copies] = _write(folder, "jsonl", *texts)
    # Two effects of the interpreter, not of any document, are kept out of
    # the comparison.  Chain ids are interned (``Partition``), so the parsed
    # documents are kept: their ids stay in the table of interned strings,
    # which otherwise may grow by a step during one measured run and not the
    # other.  A full collection empties the free lists, whose blocks
    # tracemalloc counts as held until they are reused.
    kept = [
        list(read_corpus(path, "jsonl", role))
        for path, role in zip(paths[1], (Role.KEY, Role.RESPONSE))
    ]
    _library_run(command, *paths[1])  # first-call caches are not compared
    peaks = {}
    for copies in paths:
        gc.collect()
        peaks[copies] = _peak(_library_run, command, *paths[copies])[1]
    del kept
    assert peaks[2] <= 1.1 * peaks[1], peaks


def test_unnamed_conll_never_scores_a_non_degraded_table(tmp_path, monkeypatch, capsys):
    """CoNLL carries no names, so stratify buffers the tables a named span
    would need but never scores them."""
    docs = range(6)
    key, response = _write(
        tmp_path,
        "conll",
        corpus_text("conll", "key", docs),
        corpus_text("conll", "response", docs),
    )
    degraded = StratumConfig(require_named=False)
    pairs = list(
        pair_documents(
            read_corpus(key, "conll", Role.KEY),
            read_corpus(response, "conll", Role.RESPONSE),
        )
    )
    labels = [chain_strata(p.key, degraded) for p in pairs]
    assert any(Stratum.MAJOR in doc for doc in labels)
    tables = sum(
        len(stratum_tables(overlap(p.key, p.response), doc))
        for p, doc in zip(pairs, labels)
    )
    scored = []
    table_counts = corpus_mod.table_counts
    monkeypatch.setattr(
        corpus_mod, "table_counts", lambda t, m: scored.append(t) or table_counts(t, m)
    )
    assert main(["stratify", "--key", str(key), "--response", str(response)]) == 0
    assert "require_named degraded" in capsys.readouterr().err
    assert len(scored) == tables
