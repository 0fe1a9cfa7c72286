"""Fuzzing the loaders: whatever the bytes, input errors stay input errors.

Two properties hold for both formats, on arbitrary bytes and on fixture
files whose lines are truncated, duplicated or have a byte flipped:
- only ``CorefEvalError`` escapes ``read_corpus``;
- the CLI's ``stats`` and ``score`` exit 0 or 1, never 2 (an internal
  fault).

Everything runs in process; each example writes one file into a
directory shared by the module.
"""

from __future__ import annotations

import io
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefeval import CorefEvalError, Role, read_corpus
from corefeval.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SOURCES = {
    "jsonl": [
        "derived_key.jsonl",
        "derived_response.jsonl",
        "pathology_key.jsonl",
        "pathology_response.jsonl",
    ],
    "conll": ["nested_key.conll", "nested_response.conll"],
}
RESPONSE = {"jsonl": "pathology_response.jsonl", "conll": "nested_response.conll"}
FUZZ = settings(max_examples=150, deadline=None)


@st.composite
def mutated_fixture(draw, fmt: str) -> bytes:
    """A fixture file with some lines truncated, duplicated or byte-flipped."""
    name = draw(st.sampled_from(SOURCES[fmt]))
    lines = (FIXTURES / name).read_bytes().splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        how = draw(st.sampled_from(["truncate", "duplicate", "flip"]))
        if how == "truncate":
            lines[i] = line[: draw(st.integers(0, len(line)))]
        elif how == "duplicate":
            lines.insert(i, line)
        elif line:
            at = draw(st.integers(0, len(line) - 1))
            flipped = line[at] ^ (1 << draw(st.integers(0, 7)))
            lines[i] = line[:at] + bytes([flipped]) + line[at + 1 :]
    return b"".join(lines)


def inputs(fmt: str):
    return st.one_of(st.binary(max_size=400), mutated_fixture(fmt))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> pathlib.Path:
    return tmp_path_factory.mktemp("fuzz")


def check(workdir: pathlib.Path, fmt: str, data: bytes) -> None:
    path = workdir / f"input.{fmt}"
    path.write_bytes(data)
    try:
        list(read_corpus(path, fmt, Role.KEY))
    except CorefEvalError:
        pass
    response = str(FIXTURES / RESPONSE[fmt])
    for args in (
        ["stats", "--key", str(path)],
        ["score", "--key", str(path), "--response", response],
        ["score", "--key", response, "--response", str(path)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(args)
        assert rc in (0, 1), err.getvalue()
        if rc == 1:
            assert err.getvalue().startswith("error: ")


@FUZZ
@given(data=inputs("jsonl"))
def test_jsonl_input_errors_stay_input_errors(workdir, data):
    check(workdir, "jsonl", data)


@FUZZ
@given(data=inputs("conll"))
def test_conll_input_errors_stay_input_errors(workdir, data):
    check(workdir, "conll", data)
