import json
import os
import subprocess
import sys

import pytest

from corefeval import Mention, Role, emit_jsonl, parse_conll
from corefeval.cli import main

SCORE_CSV = (
    "metric,recall,precision,f1\n"
    "muc,0.6667,0.6667,0.6667\n"
    "b3,0.7333,0.7333,0.7333\n"
    "ceaf_m,0.8000,0.8000,0.8000\n"
    "ceaf_e,0.8000,0.8000,0.8000\n"
    "blanc,0.5833,0.5833,0.5833\n"
    "lea,0.6000,0.6000,0.6000\n"
    "conll_avg,,,0.7333\n"
)


def derived_args(fixtures_dir, *extra):
    return [
        "score",
        "--key",
        str(fixtures_dir / "derived_key.jsonl"),
        "--response",
        str(fixtures_dir / "derived_response.jsonl"),
        *extra,
    ]


class TestScoreCommand:
    def test_csv_output_is_exact(self, fixtures_dir, capsys):
        rc = main(derived_args(fixtures_dir, "--output", "csv"))
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == SCORE_CSV
        assert captured.err == ""

    def test_table_output(self, fixtures_dir, capsys):
        rc = main(derived_args(fixtures_dir))
        out = capsys.readouterr().out
        assert rc == 0
        assert "conll_avg" in out
        assert "key_mentions" in out

    def test_json_output_parses(self, fixtures_dir, capsys):
        rc = main(derived_args(fixtures_dir, "--output", "json"))
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["scores"]["muc"]["f1"] == pytest.approx(2 / 3)
        assert data["counts"]["key_mentions"] == 5

    def test_metric_subset_and_macro(self, fixtures_dir, capsys):
        rc = main(
            derived_args(
                fixtures_dir,
                "--metrics",
                "muc,lea",
                "--averaging",
                "macro",
                "--output",
                "csv",
            )
        )
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines == [
            "metric,recall,precision,f1",
            "muc,0.6667,0.6667,0.6667",
            "lea,0.6000,0.6000,0.6000",
        ]

    def test_conll_input_inferred_from_extension(self, tmp_path, capsys):
        text = "#begin document d\nw\t(0\nw\t0)\n#end document\n"
        key = tmp_path / "key.conll"
        resp = tmp_path / "resp.conll"
        key.write_text(text, encoding="utf-8")
        resp.write_text(text, encoding="utf-8")
        rc = main(["score", "--key", str(key), "--response", str(resp)])
        assert rc == 0
        assert "muc" in capsys.readouterr().out

    def test_format_flag_overrides_odd_extension(self, fixtures_dir, tmp_path, capsys):
        copy = tmp_path / "key.txt"
        copy.write_text((fixtures_dir / "derived_key.jsonl").read_text())
        rc = main(
            [
                "score",
                "--key",
                str(copy),
                "--response",
                str(fixtures_dir / "derived_response.jsonl"),
                "--format",
                "jsonl",
            ]
        )
        assert rc == 0
        capsys.readouterr()


class TestInputErrors:
    def test_uninferable_extension(self, fixtures_dir, tmp_path, capsys):
        copy = tmp_path / "key.txt"
        copy.write_text((fixtures_dir / "derived_key.jsonl").read_text())
        rc = main(derived_args(fixtures_dir)[:3] + ["--response", str(copy)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert "pass --format" in err

    def test_missing_file(self, fixtures_dir, capsys):
        rc = main(
            [
                "score",
                "--key",
                str(fixtures_dir / "absent.jsonl"),
                "--response",
                str(fixtures_dir / "derived_response.jsonl"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reports_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "d"}\n', encoding="utf-8")
        rc = main(["stats", "--key", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(bad) in err
        assert "line 1" in err

    @pytest.mark.parametrize(
        "name, head",
        [
            ("bad.jsonl", '{"doc_id": "d", "num_tokens": 1, "chains": []}\n\n'),
            ("bad.conll", "#begin document d\nw\t-\n"),
        ],
        ids=["jsonl", "conll"],
    )
    def test_non_utf8_input_reports_path_and_line(self, tmp_path, capsys, name, head):
        bad = tmp_path / name
        bad.write_bytes(head.encode("utf-8") + b"w\t\xff\xfe\n")
        rc = main(["stats", "--key", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: line 3: invalid UTF-8")

    @pytest.mark.parametrize(
        "name", ["nested_key.conll", "pathology_key.jsonl"], ids=["conll", "jsonl"]
    )
    def test_utf8_byte_order_mark_is_skipped(
        self, fixtures_dir, tmp_path, capsys, name
    ):
        marked = tmp_path / name
        marked.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / name).read_bytes())
        printed = []
        for path in (fixtures_dir / name, marked):
            assert main(["stats", "--key", str(path), "--output", "json"]) == 0
            printed.append(capsys.readouterr())
        assert printed[1] == printed[0]
        assert printed[0].err == ""

    def test_deeply_nested_json_reports_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "deep.jsonl"
        record = '{"doc_id": "d", "num_tokens": 1, "chains": []}\n'
        bad.write_text(record + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        rc = main(["stats", "--key", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: line 2: invalid JSON")

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("two.conll", "#begin document d\nw\t(0)|(1)\n#end document\n", 2),
            (
                "two.jsonl",
                '{"doc_id": "d", "num_tokens": 1, "chains": ['
                '{"chain_id": "0", "mentions": [{"start": 0, "end": 0}]}, '
                '{"chain_id": "1", "mentions": [{"start": 0, "end": 0}]}]}\n',
                1,
            ),
        ],
        ids=["conll", "jsonl"],
    )
    def test_span_in_two_chains_reports_path_and_line(
        self, tmp_path, capsys, name, text, line
    ):
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        rc = main(["stats", "--key", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (
            f"error: {bad}: line {line}: span (0, 0) in chains '0' and '1' "
            "of document 'd'\n"
        )

    @pytest.mark.parametrize(
        "name, text, line",
        [
            (
                "dup.conll",
                "#begin document d\nw\t-\n#end document\n\n"
                "#begin document d\nw\t-\n#end document\n",
                5,
            ),
            (
                "dup.jsonl",
                '{"doc_id": "d", "num_tokens": 1, "chains": []}\n\n' * 2,
                3,
            ),
        ],
        ids=["conll", "jsonl"],
    )
    def test_duplicate_document_reports_path_and_line(
        self, tmp_path, capsys, name, text, line
    ):
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        rc = main(["stats", "--key", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {bad}: line {line}: duplicate document id 'd'\n"

    def test_negative_token_count_reports_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "negative.jsonl"
        bad.write_text(
            '{"doc_id": "d", "num_tokens": 1, "chains": []}\n'
            '{"doc_id": "e", "num_tokens": -1, "chains": []}\n',
            encoding="utf-8",
        )
        for args in (
            ["stats", "--key", str(bad)],
            ["score", "--key", str(bad), "--response", str(bad)],
        ):
            assert main(args) == 1
            assert capsys.readouterr().err == (
                f"error: {bad}: line 2: num_tokens must be >= 0, got -1\n"
            )

    def test_document_mismatch(self, fixtures_dir, tmp_path, capsys):
        key = fixtures_dir / "derived_key.jsonl"
        longer = tmp_path / "longer.jsonl"
        longer.write_text(
            key.read_text(encoding="utf-8").replace(
                '"num_tokens": 6', '"num_tokens": 7'
            ),
            encoding="utf-8",
        )
        for response, reason in (
            (fixtures_dir / "pathology_response.jsonl", "unpaired"),
            (longer, "document 'derived' has 6 tokens in the key but 7"),
        ):
            rc = main(["score", "--key", str(key), "--response", str(response)])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith(f"error: {key} and {response}: {reason}")

    def test_bad_threshold(self, fixtures_dir, capsys):
        rc = main(
            [
                "stratify",
                "--key",
                str(fixtures_dir / "derived_key.jsonl"),
                "--response",
                str(fixtures_dir / "derived_response.jsonl"),
                "--long-threshold",
                "1",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "long_threshold" in err

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("stratify", ["--long-threshold", "1"], "long_threshold must be >= 2"),
            ("score", ["--response", "response.txt"], "cannot infer format"),
        ],
        ids=["threshold", "format"],
    )
    def test_flags_are_checked_before_any_file_is_read(
        self, fixtures_dir, tmp_path, monkeypatch, capsys, command, extra, message
    ):
        monkeypatch.chdir(tmp_path)
        response = str(fixtures_dir / "derived_response.jsonl")
        args = [command, "--key", "absent.jsonl", "--response", response, *extra]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "chains, message",
        [
            ('["a"]', "each chain must be an object"),
            ('[{"chain_id": "a", "mentions": [0]}]', "each mention must be an object"),
            (
                '[{"chain_id": "a", "mentions": [{"start": 0, "end": 0, "surface": 7}]}]',
                "field 'surface' must be a string",
            ),
        ],
        ids=["chain", "mention", "surface"],
    )
    def test_malformed_jsonl_structure_reports_path_and_line(
        self, tmp_path, capsys, chains, message
    ):
        bad = tmp_path / "bad.jsonl"
        record = '{"doc_id": "d", "num_tokens": 1, "chains": ' + chains + "}\n"
        bad.write_text(record, encoding="utf-8")
        rc = main(["stats", "--key", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: line 1: {message}\n"

    def test_unknown_metric_is_a_usage_error(self, fixtures_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(derived_args(fixtures_dir, "--metrics", "muc,bogus"))
        assert exc.value.code == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_bad_choice_is_a_usage_error(self, fixtures_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(derived_args(fixtures_dir, "--averaging", "median"))
        assert exc.value.code == 1

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_internal_fault_exits_two(self, fixtures_dir, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("wedged")

        monkeypatch.setattr("corefeval.cli.score_corpus", boom)
        rc = main(derived_args(fixtures_dir))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("internal error: RuntimeError: wedged")


@pytest.mark.parametrize("command", ["score", "stratify", "pathology"])
def test_macro_averaging_of_an_empty_corpus_is_zero(tmp_path, capsys, command):
    def numbers(value):
        if isinstance(value, dict):
            for item in value.values():
                yield from numbers(item)
        else:
            yield value

    key, response = tmp_path / "key.jsonl", tmp_path / "response.jsonl"
    key.write_text("", encoding="utf-8")
    response.write_text("", encoding="utf-8")
    rc = main(
        [command, "--key", str(key), "--response", str(response)]
        + ["--averaging", "macro", "--output", "json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    data.pop("config", None)
    values = list(numbers(data))
    assert values
    assert all(value == 0 for value in values)


HELP_TEXT = {
    "score": ["--key PATH key corpus", "--response PATH response corpus"],
    "stratify": [
        "minimum size of a major chain (default: 10)",
        "--require-named, --no-require-named major chains must contain a named",
        "(default: on;",
    ],
    "stats": ["--exclude-singletons drop singletons", "(default: off)"],
    "pathology": ["--response PATH response corpus"],
}
SCORING_HELP = [
    "comma-separated subset of muc,b3,ceaf_m,ceaf_e,blanc,lea (default: all)",
    "corpus averaging (default: micro)",
]
COMMON_HELP = [
    "--key PATH key corpus",
    "input format (default: from each file name:",
    "report format (default: table)",
]


@pytest.mark.parametrize("command", sorted(HELP_TEXT))
def test_help_describes_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # argparse wraps to the terminal width; compare with the wrapping undone
    text = " ".join(capsys.readouterr().out.split())
    expected = HELP_TEXT[command] + COMMON_HELP
    if command != "stats":
        expected += SCORING_HELP
    for snippet in expected:
        assert snippet in text


class TestStratifyCommand:
    def test_degrade_warning_on_stderr(self, fixtures_dir, capsys):
        key = fixtures_dir / "derived_key.jsonl"
        rc = main(
            [
                "stratify",
                "--key",
                str(key),
                "--response",
                str(fixtures_dir / "derived_response.jsonl"),
                "--long-threshold",
                "3",
                "--output",
                "csv",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err.startswith(
            f"warning: {key}: no key mention carries is_named"
        )
        assert "require_named,false" in captured.out
        assert "major,muc" in captured.out

    def test_no_require_named_flag_suppresses_warning(self, fixtures_dir, capsys):
        rc = main(
            [
                "stratify",
                "--key",
                str(fixtures_dir / "derived_key.jsonl"),
                "--response",
                str(fixtures_dir / "derived_response.jsonl"),
                "--no-require-named",
                "--output",
                "csv",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""

    def test_conll_key_that_fails_to_pair_prints_no_warning(
        self, fixtures_dir, tmp_path, capsys
    ):
        """The degrade for a CoNLL key is decided before the first pair,
        but a run that fails reports only its error."""
        key = fixtures_dir / "nested_key.conll"
        response = tmp_path / "other.conll"
        response.write_text("#begin document other\nw\t-\n#end document\n")
        rc = main(["stratify", "--key", str(key), "--response", str(response)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key} and {response}: unpaired")
        assert "warning" not in captured.err


class TestStatsCommand:
    def test_table(self, fixtures_dir, capsys):
        rc = main(["stats", "--key", str(fixtures_dir / "pathology_key.jsonl")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "num_mentions" in out

    def test_exclude_singletons_flag(self, fixtures_dir, capsys):
        rc = main(
            [
                "stats",
                "--key",
                str(fixtures_dir / "pathology_key.jsonl"),
                "--exclude-singletons",
                "--output",
                "json",
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert data["exclude_singletons"] is True

    def test_equal_chain_sizes_print_no_r_squared(self, tmp_path, capsys):
        """Three chains of six mentions: the mean of their log sizes does
        not round back to log 6, and the fit still has nothing to explain."""
        chains = [
            {"chain_id": str(c), "mentions": [{"start": t, "end": t} for t in tokens]}
            for c, tokens in enumerate((range(0, 6), range(6, 12), range(12, 18)))
        ]
        key = tmp_path / "key.jsonl"
        record = {"doc_id": "d", "num_tokens": 18, "chains": chains}
        key.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["stats", "--key", str(key)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == [
            "zipf_slope               0.0000",
            "zipf_intercept           1.7918",
            "zipf_r_squared              n/a",
            "zipf_points                   3",
        ]


class TestPathologyCommand:
    def test_csv_shows_deltas_and_removals(self, fixtures_dir, capsys):
        rc = main(
            [
                "pathology",
                "--key",
                str(fixtures_dir / "pathology_key.jsonl"),
                "--response",
                str(fixtures_dir / "pathology_response.jsonl"),
                "--output",
                "csv",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.endswith("removed_mentions,3\n")
        ceaf_e_row = next(
            line for line in out.splitlines() if line.startswith("ceaf_e,")
        )
        assert ceaf_e_row.split(",")[3] == "0.1000"


def child_env(hashseed="0"):
    # The child sees the same import path as this process, so the suite
    # also runs from a checkout that is not installed.
    path = os.pathsep.join(sys.path)
    return {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": path}


def run_cli(args, hashseed):
    return subprocess.run(
        [sys.executable, "-m", "corefeval.cli", *args],
        capture_output=True,
        env=child_env(hashseed),
    )


def test_output_is_byte_identical_across_hash_seeds(fixtures_dir):
    args = [
        "score",
        "--key",
        str(fixtures_dir / "pathology_key.jsonl"),
        "--response",
        str(fixtures_dir / "pathology_response.jsonl"),
        "--output",
        "json",
    ]
    first = run_cli(args, "0")
    second = run_cli(args, "1")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


LOADED_AFTER_MAIN = (
    "import sys\n"
    "from corefeval.cli import main\n"
    "rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "heavy = {'numpy', 'scipy', 'dataclasses', 'inspect'}\n"
    "print('loaded:', *sorted(heavy & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


@pytest.mark.parametrize(
    "command",
    [None, "score", "stratify", "pathology", "stats"],
    ids=["import", "score", "stratify", "pathology", "stats"],
)
def test_scoring_never_imports_numpy_or_scipy(fixtures_dir, command):
    """Start-up stays light: no command, the stats Zipf fit included,
    loads numpy or scipy, and the record types need neither dataclasses
    nor the inspect module it imports."""
    args = []
    if command is not None:
        args = [command, "--key", str(fixtures_dir / "pathology_key.jsonl")]
    if command not in (None, "stats"):
        args += ["--response", str(fixtures_dir / "pathology_response.jsonl")]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_MAIN, *args],
        capture_output=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr.decode().splitlines()[-1] == "loaded:"


def test_reader_closing_the_pipe_early_exits_quietly(fixtures_dir):
    """As in `corefeval stats ... | head -1`, with the reader already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "corefeval.cli",
                "stats",
                "--key",
                str(fixtures_dir / "pathology_key.jsonl"),
                "--output",
                "json",
            ],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


INPUT_PAIRS = {
    "conll": ("nested_key.conll", "nested_response.conll"),
    "derived": ("derived_key.jsonl", "derived_response.jsonl"),
    "pathology": ("pathology_key.jsonl", "pathology_response.jsonl"),
}


@pytest.mark.parametrize("pair", sorted(INPUT_PAIRS))
@pytest.mark.parametrize("command", ["score", "stratify", "pathology", "stats"])
def test_no_command_builds_a_mention(fixtures_dir, monkeypatch, capsys, pair, command):
    """Commands read spans only: Mention objects are for API callers."""
    built = []
    new = Mention.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Mention, "__new__", counted)
    key, response = (str(fixtures_dir / name) for name in INPUT_PAIRS[pair])
    args = [command, "--key", key]
    if command != "stats":
        args += ["--response", response]
    assert main(args) == 0
    capsys.readouterr()
    assert built == []


SCORING_DEFAULTS = [
    "--output",
    "table",
    "--averaging",
    "micro",
    "--metrics",
    "muc,b3,ceaf_m,ceaf_e,blanc,lea",
]
SPELLED_DEFAULTS = {
    "score": SCORING_DEFAULTS,
    "stratify": [*SCORING_DEFAULTS, "--long-threshold", "10", "--require-named"],
    "pathology": SCORING_DEFAULTS,
    "stats": ["--output", "table"],
}


@pytest.mark.parametrize("pair", sorted(INPUT_PAIRS))
@pytest.mark.parametrize("command", sorted(SPELLED_DEFAULTS))
def test_omitted_flags_act_as_their_spelled_out_defaults(
    fixtures_dir, capsys, pair, command
):
    """The argument parser holds the only copy of each default: a run
    without optional flags prints what a run naming every default prints."""
    key, response = (str(fixtures_dir / name) for name in INPUT_PAIRS[pair])
    args = [command, "--key", key]
    if command != "stats":
        args += ["--response", response]
    runs = []
    for extra in ([], SPELLED_DEFAULTS[command]):
        rc = main(args + extra)
        runs.append((rc, *capsys.readouterr()))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("output", ["json", "csv", "table"])
@pytest.mark.parametrize(
    "command, extra",
    [
        ("score", []),
        ("score", ["--averaging", "macro"]),
        ("stratify", ["--long-threshold", "2"]),
        ("pathology", []),
        ("stats", []),
    ],
    ids=["score", "score-macro", "stratify", "pathology", "stats"],
)
def test_conll_and_its_jsonl_conversion_print_identical_reports(
    fixtures_dir, tmp_path, capsys, command, extra, output
):
    """Both parsers feed one builder, so a CoNLL corpus and its jsonl
    conversion give the same bytes on every command."""
    paths = {}
    for side, role in zip(INPUT_PAIRS["conll"], (Role.KEY, Role.RESPONSE)):
        conll = fixtures_dir / side
        jsonl = tmp_path / side.replace(".conll", ".jsonl")
        with open(conll, encoding="utf-8") as stream, open(
            jsonl, "w", encoding="utf-8"
        ) as out:
            emit_jsonl(parse_conll(stream, role).documents, out)
        paths[side] = (conll, jsonl)
    printed = []
    for i in (0, 1):
        key, response = (str(paths[side][i]) for side in INPUT_PAIRS["conll"])
        args = [command, "--key", key, "--output", output, *extra]
        if command != "stats":
            args += ["--response", response]
        assert main(args) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].strip()


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("pair", ["conll", "derived"])
@pytest.mark.parametrize("command", ["score", "stratify", "pathology", "stats"])
def test_line_endings_print_identical_reports(
    fixtures_dir, tmp_path, capsys, command, pair, ending
):
    """A file with CRLF or lone-CR line endings prints the bytes its LF
    original prints, on stdout and on stderr (with the file's directory)."""
    for name in INPUT_PAIRS[pair]:
        text = (fixtures_dir / name).read_bytes()
        assert b"\r" not in text
        (tmp_path / name).write_bytes(text.replace(b"\n", ending.encode()))
    printed = []
    for directory in (fixtures_dir, tmp_path):
        key, response = (str(directory / name) for name in INPUT_PAIRS[pair])
        args = [command, "--key", key]
        if command != "stats":
            args += ["--response", response]
        assert main(args) == 0
        out, err = capsys.readouterr()
        printed.append((out, err.replace(str(directory), "{dir}")))
    assert printed[0] == printed[1]
    assert printed[0][0].strip()
