"""Streaming: readers drop each document's working state, the two sides are
paired as they are read, and memory does not grow with the corpus: no
document stays referenced while the next one is parsed.

``fixtures/expected/streaming.json`` pins stdout, stderr and exit status
of the runs in ``streaming_corpus.recorded_runs`` (``{key}`` and
``{response}`` stand for the two paths).  The runs without flags were
recorded with the implementation that parsed both corpora whole before
pairing them; those of ``streaming_corpus.flag_runs`` with the one that
projected tables by ``Overlap.project`` and added counts as objects.
"""

from __future__ import annotations

import gc
import io
import json
import tracemalloc
import weakref

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
from corefeval.reports import emit_report
from corefeval.stratify import chain_strata, split_table

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
    paths = dict(zip(argv[1:5:2], argv[2:5:2]))  # stats has no --response
    assert rc == pinned["rc"]
    assert out == pinned["out"]
    err_pinned = pinned["err"].replace("{key}", paths["--key"])
    assert err == err_pinned.replace("{response}", paths.get("--response", "{response}"))


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


# Per extra document, its count columns: one doc id reference per label and
# 8 bytes per field (35 per label with all six metrics), plus what the
# readers keep of it.  Measured at 64 documents against 4, Python 3.10 to
# 3.13: at most 0.95 KB per extra document in every table case but CoNLL
# stratify, which takes up to 1.35 KB, while stats JSON and CSV print every
# point of the rank-size series and take up to 3.6 and 1.7 KB.  The table
# allowance adds a 35% margin; the printed outputs keep their earlier
# 6.7 KB in all.  A parsed document of this corpus, both sides, takes
# about 35 KB.  Each case records what it measured.
ALLOWANCE_PER_DOC = 1_800
PRINTED_SERIES_PER_DOC = 4_900

# (command, input format, the key document with a named mention, output,
# extra flags): CoNLL carries no names, so its stratify run must not hold
# the tables a late named mention would need; macro averaging adds each
# document's triples as they come, so it holds no list of them.
MEMORY_CASES = {
    **{command: (command, "jsonl", 0, "table") for command in COMMANDS},
    "stratify-conll": ("stratify", "conll", None, "table"),
    "pathology-macro": ("pathology", "jsonl", 0, "table", "--averaging", "macro"),
    "stats-json": ("stats", "jsonl", 0, "json"),
    "stats-csv": ("stats", "jsonl", 0, "csv"),
}


@pytest.mark.parametrize("case", MEMORY_CASES)
def test_peak_memory_does_not_grow_with_the_parsed_corpus(
    case, tmp_path, capsys, record_testsuite_property
):
    command, fmt, named, output, *flags = MEMORY_CASES[case]
    peaks = {}
    for copies in (1, 16):
        docs = range(4 * copies)
        size = tmp_path / str(copies)
        size.mkdir()
        key, response = _write(
            size,
            fmt,
            corpus_text(fmt, "key", docs, named=named),
            corpus_text(fmt, "response", docs),
        )
        argv = [command, "--key", str(key), "--output", output, *flags]
        if command != "stats":
            argv += ["--response", str(response)]
        main(argv)  # first-call caches, at either size, are not compared
        rc, peaks[copies] = _peak(main, argv)
        capsys.readouterr()
        assert rc == 0
    per_doc = round((peaks[16] - peaks[1]) / 60)
    record_testsuite_property(f"bytes_per_extra_document[{case}]", per_doc)
    allowance = ALLOWANCE_PER_DOC + (PRINTED_SERIES_PER_DOC if output != "table" else 0)
    assert peaks[16] - peaks[1] <= 60 * allowance, peaks


@pytest.mark.parametrize("fmt", ["jsonl", "conll"])
def test_reading_and_tabling_documents_leaves_no_blocks_behind(fmt):
    """Parsing a document, building its table and splitting it by stratum,
    then dropping all of it, holds no more memory the more often it is done.
    A tuple built from an iterator is resized after allocation, so its block
    lands on another size's free list, where tracemalloc still counts it:
    those lists once grew with every document read."""
    # Few chains, so the tuples are short enough to have free lists.
    key_text, response_text = (
        corpus_text(fmt, side, [0], n_chains=6) for side in ("key", "response")
    )
    reader = iter_conll if fmt == "conll" else iter_jsonl

    def one_document():
        (_, key), = reader(io.StringIO(key_text), Role.KEY)
        (_, response), = reader(io.StringIO(response_text), Role.RESPONSE)
        split_table(overlap(key, response), chain_strata(key, StratumConfig()))

    gc.collect()  # a full collection empties the free lists
    tracemalloc.start()
    try:
        held = []
        for runs in (20, 100):  # the first runs fill the free lists once
            for _ in range(runs):
                one_document()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held[1] - held[0] < 5_000, held


# Parsing one jsonl record of 3,900 mentions in 600 chains from a list of
# lines, which holds the line throughout, peaks at 221 bytes per mention,
# the partition it returns included, on Python 3.11: each mention object of
# just start and end, all but one here, decodes straight into the span
# tuple the partition keeps, whose one-token spans keep one int.  With two
# ints per span it took 246 to 256 B on Python 3.10 to 3.13; decoded into
# a dict per mention, held until the document was built, 430 to 488 B.
# The bound, unchanged, adds a 35% margin to 256 B.
PARSE_BYTES_PER_MENTION = 345


def test_parsing_a_long_record_holds_no_object_per_mention(record_testsuite_property):
    text = corpus_text("jsonl", "key", [0], named=0, n_chains=600)

    def parse():
        return list(iter_jsonl([text]))

    parse()  # first-call caches are not measured
    gc.collect()
    documents, peak = _peak(parse)
    mentions = sum(map(len, documents[0][1].spans))
    assert mentions > 3_500
    record_testsuite_property("bytes_per_parsed_mention[jsonl]", round(peak / mentions))
    assert peak <= PARSE_BYTES_PER_MENTION * mentions, peak


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
    # An effect of the interpreter, not of any document, is kept out of the
    # comparison: a full collection empties the free lists, whose blocks
    # tracemalloc counts as held until they are reused.  Chain ids are not
    # interned (``Partition``), so no table of interned strings grows by a
    # step during one measured run and not the other.
    _library_run(command, *paths[1])  # first-call caches are not compared
    peaks = {}
    for copies in paths:
        gc.collect()
        peaks[copies] = _peak(_library_run, command, *paths[copies])[1]
    assert peaks[2] <= 1.1 * peaks[1], peaks


@pytest.mark.parametrize("command", LIBRARY_RUNS)
def test_a_pair_is_released_once_tabled(command, tmp_path, monkeypatch):
    """Neither partition of a pair is referenced, by the pairing or by the
    scoring loop, once its table is built, so a long document's spans are
    not held while its table is scored.  The key names a mention only in
    its third document, so stratify also scores the tables it held for the
    documents before it."""
    docs = range(4)
    paths = _write(
        tmp_path,
        "jsonl",
        corpus_text("jsonl", "key", docs, named=2),
        corpus_text("jsonl", "response", docs),
    )
    tabled, scored = [], []
    real_overlap, real_counts = corpus_mod.overlap, corpus_mod._doc_counts

    def spy_overlap(key, response):
        tabled.extend((weakref.ref(key), weakref.ref(response)))
        return real_overlap(key, response)

    def spy_counts(t, wanted):
        scored.append([ref() is not None for ref in tabled])
        return real_counts(t, wanted)

    monkeypatch.setattr(corpus_mod, "overlap", spy_overlap)
    monkeypatch.setattr(corpus_mod, "_doc_counts", spy_counts)
    _library_run(command, *paths)
    assert len(tabled) == 2 * len(docs)
    assert scored and not any(map(any, scored)), scored


# Read from a file, the 600-chain record's line is dropped once it is
# decoded, and each one-token span keeps one int: its parse peaks at 224
# bytes per mention and its partition keeps 112 B (Python 3.11).  Holding
# the line until the document was built and two ints per span, it took
# 285 and 138 B.  Each bound adds an 11% margin.
FILE_PARSE_BYTES_PER_MENTION = 250
KEPT_BYTES_PER_MENTION = 125


def test_reading_a_long_record_from_a_file_holds_no_line(
    tmp_path, record_testsuite_property
):
    path, _ = _write(
        tmp_path, "jsonl", corpus_text("jsonl", "key", [0], named=0, n_chains=600), ""
    )

    def parse():
        return list(read_corpus(path, "jsonl", Role.KEY))

    parse()  # first-call caches are not measured
    gc.collect()
    tracemalloc.start()
    try:
        documents = parse()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mentions = sum(map(len, documents[0][1].spans))
    assert mentions > 3_500
    record_testsuite_property("bytes_per_parsed_mention[jsonl-file]", round(peak / mentions))
    record_testsuite_property("bytes_per_kept_mention[jsonl]", round(kept / mentions))
    assert peak <= FILE_PARSE_BYTES_PER_MENTION * mentions, peak
    assert kept <= KEPT_BYTES_PER_MENTION * mentions, kept


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
        len(split_table(overlap(p.key, p.response), doc)[0])
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


def test_conll_stratify_labels_and_tables_each_document_once(
    tmp_path, monkeypatch, capsys
):
    """A CoNLL key carries no names, so stratify labels every document with
    the degraded config from the first pair: one labelling and one walk of
    its labelled table per document, and no walk under the strict
    labelling.  The warning and the report's config are as when the
    degrade is found at the end."""
    docs = range(6)
    key, response = _write(
        tmp_path,
        "conll",
        corpus_text("conll", "key", docs),
        corpus_text("conll", "response", docs),
    )
    calls = {"chain_strata": [], "split_table": []}
    for name, seen in calls.items():
        real = getattr(corpus_mod, name)
        spy = lambda *args, real=real, seen=seen: seen.append(args[1]) or real(*args)
        monkeypatch.setattr(corpus_mod, name, spy)
    assert main(["stratify", "--key", str(key), "--response", str(response)]) == 0
    out, err = capsys.readouterr()
    assert [len(seen) for seen in calls.values()] == [len(docs)] * 2
    assert not any(config.require_named for config in calls["chain_strata"])
    assert any(Stratum.MAJOR in labels for labels in calls["split_table"])
    assert err == (
        f"warning: {key}: no key mention carries is_named; require_named "
        "degraded to false for this corpus\n"
    )
    monkeypatch.undo()
    pairs = pair_documents(
        read_corpus(key, "conll", Role.KEY), read_corpus(response, "conll", Role.RESPONSE)
    )
    with pytest.warns(UserWarning, match="require_named degraded"):
        late = stratify_corpus(pairs)  # no format: the degrade is found at the end
    assert late.config == StratumConfig(require_named=False)
    assert out == emit_report(late, "table") + "\n"


def test_jsonl_stratify_walks_a_table_twice_only_until_a_name_is_seen(
    tmp_path, monkeypatch, capsys
):
    """A jsonl key may name a mention late.  Until one turns up, each
    document with a major chain is walked once more, under the strict
    labelling, which has no major chain; from the named document on, each
    document is walked once."""
    docs = range(6)
    key, response = _write(
        tmp_path,
        "jsonl",
        corpus_text("jsonl", "key", docs, named=3),
        corpus_text("jsonl", "response", docs),
    )
    walks = []
    real = corpus_mod.split_table
    monkeypatch.setattr(
        corpus_mod, "split_table", lambda t, labels: walks.append(labels) or real(t, labels)
    )
    assert main(["stratify", "--key", str(key), "--response", str(response)]) == 0
    assert capsys.readouterr().err == ""
    assert len(walks) == len(docs) + 3  # documents 0 to 2 twice
    assert [Stratum.MAJOR in labels for labels in walks[:6]] == [True, False] * 3
