import json
import os
import subprocess
import sys

import pytest

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

    def test_deeply_nested_json_reports_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "deep.jsonl"
        record = '{"doc_id": "d", "num_tokens": 1, "chains": []}\n'
        bad.write_text(record + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
        rc = main(["stats", "--key", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: line 2: invalid JSON")

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


class TestStratifyCommand:
    def test_degrade_warning_on_stderr(self, fixtures_dir, capsys):
        rc = main(
            [
                "stratify",
                "--key",
                str(fixtures_dir / "derived_key.jsonl"),
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
        assert "warning: no key mention carries is_named" in captured.err
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
    "print('loaded:', *sorted({'numpy', 'scipy'} & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


@pytest.mark.parametrize(
    "command",
    [None, "score", "stratify", "pathology"],
    ids=["import", "score", "stratify", "pathology"],
)
def test_scoring_never_imports_numpy_or_scipy(fixtures_dir, command):
    """Start-up stays light: only the stats command's Zipf fit loads numpy."""
    args = []
    if command is not None:
        args = [
            command,
            "--key",
            str(fixtures_dir / "pathology_key.jsonl"),
            "--response",
            str(fixtures_dir / "pathology_response.jsonl"),
        ]
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
