import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from corefeval import (
    DocPair,
    MetricId,
    MetricReport,
    OutputFormat,
    Partition,
    Role,
    ScoreTriple,
    StratifiedReport,
    StratumConfig,
    emit_report,
    pathology_corpus,
    score_corpus,
    stats_report,
    stratify_corpus,
)
from corefeval.cli import main
from corefeval.reports import _json, _plain

KEY = {"k1": frozenset({1, 2, 3}), "k2": frozenset({4, 5})}
RESP = {"r1": frozenset({1, 2}), "r2": frozenset({3, 4, 5})}


@pytest.fixture
def metric_report():
    key, resp = helpers.build_pair(KEY, RESP)
    return score_corpus([DocPair(key, resp)])


def csv_triple(triple):
    """The CSV data row of ``triple`` in a one-metric report, metric name cut."""
    report = MetricReport({MetricId.MUC: triple}, None, {})
    return emit_report(report, OutputFormat.CSV).splitlines()[1].removeprefix("muc,")


class TestCsvTriple:
    def test_four_decimals(self):
        triple = ScoreTriple(2 / 3, 2 / 3, 2 / 3)
        assert csv_triple(triple) == "0.6667,0.6667,0.6667"

    def test_whole_numbers_keep_places(self):
        assert csv_triple(ScoreTriple(1.0, 0.0, 0.5)) == "1.0000,0.0000,0.5000"


class TestMetricReportRendering:
    def test_csv_layout(self, metric_report):
        lines = emit_report(metric_report, OutputFormat.CSV).splitlines()
        assert lines[0] == "metric,recall,precision,f1"
        assert lines[1] == "muc,0.6667,0.6667,0.6667"
        assert lines[2] == "b3,0.7333,0.7333,0.7333"
        assert lines[3] == "ceaf_m,0.8000,0.8000,0.8000"
        assert lines[4] == "ceaf_e,0.8000,0.8000,0.8000"
        assert lines[5] == "blanc,0.5833,0.5833,0.5833"
        assert lines[6] == "lea,0.6000,0.6000,0.6000"
        assert lines[7] == "conll_avg,,,0.7333"
        assert len(lines) == 8

    def test_csv_without_full_conll_set_has_no_average_row(self):
        key, resp = helpers.build_pair(KEY, RESP)
        report = score_corpus([DocPair(key, resp)], metrics=["muc"])
        lines = emit_report(report, "csv").splitlines()
        assert lines == ["metric,recall,precision,f1", "muc,0.6667,0.6667,0.6667"]

    def test_table_has_scores_then_counts(self, metric_report):
        text = emit_report(metric_report, OutputFormat.TABLE)
        blocks = text.split("\n\n")
        assert len(blocks) == 2
        header = blocks[0].splitlines()[0].split()
        assert header == ["metric", "recall", "precision", "f1"]
        muc_row = next(
            line for line in blocks[0].splitlines() if line.startswith("muc")
        )
        assert muc_row.split() == ["muc", "0.6667", "0.6667", "0.6667"]
        assert "key_mentions" in blocks[1]
        assert "response_spurious" in blocks[1]

    def test_json_round_trips_numerically(self, metric_report):
        data = json.loads(emit_report(metric_report, OutputFormat.JSON))
        for metric, triple in metric_report.scores.items():
            got = data["scores"][metric.value]
            assert got["recall"] == triple.recall
            assert got["precision"] == triple.precision
            assert got["f1"] == triple.f1
        assert data["conll_average"] == metric_report.conll_average
        assert data["counts"] == dict(metric_report.counts)

    def test_rendering_is_deterministic(self, metric_report):
        for fmt in OutputFormat:
            assert emit_report(metric_report, fmt) == emit_report(metric_report, fmt)

    def test_report_without_counts(self):
        # The counts section has no rows, so neither format prints a block
        # for it, not even the blank line that would separate it.
        report = MetricReport({MetricId.MUC: ScoreTriple(1.0, 1.0, 1.0)}, None, {})
        assert emit_report(report, OutputFormat.TABLE) == "\n".join([
            "metric  recall  precision      f1",
            "muc     1.0000     1.0000  1.0000",
        ])
        assert emit_report(report, OutputFormat.CSV) == "\n".join([
            "metric,recall,precision,f1",
            "muc,1.0000,1.0000,1.0000",
        ])


class TestStratifiedRendering:
    def report(self):
        key, resp = helpers.build_pair(
            {"a": frozenset(range(10)), "s": frozenset({20})},
            {"x": frozenset(range(10)), "s": frozenset({20})},
            named=frozenset({0}),
        )
        return stratify_corpus([DocPair(key, resp)], StratumConfig(long_threshold=10))

    def test_csv_sections(self):
        lines = emit_report(self.report(), OutputFormat.CSV).splitlines()
        assert lines[0] == "stratum,metric,recall,precision,f1"
        major_rows = [line for line in lines if line.startswith("major,")]
        assert "major,muc,1.0000,1.0000,1.0000" in major_rows
        split_at = lines.index("")
        assert lines[split_at + 1] == "field,value"
        summary = dict(
            line.split(",", 1) for line in lines[split_at + 2 :] if line
        )
        assert summary["leakage"] == "0"
        assert summary["spurious_mentions"] == "0"
        assert summary["long_threshold"] == "10"
        assert summary["require_named"] == "true"
        assert summary["singleton_detection_f1"] == "1.0000"

    def test_table_sections(self):
        text = emit_report(self.report(), OutputFormat.TABLE)
        head, summary = text.split("\n\n")
        assert head.splitlines()[0].split() == [
            "stratum",
            "metric",
            "recall",
            "precision",
            "f1",
        ]
        assert "require_named" in summary

    def test_empty_report_renders_headers_only(self):
        key = Partition("d", [], Role.KEY)
        resp = Partition("d", [], Role.RESPONSE)
        with pytest.warns(UserWarning, match="require_named degraded"):
            report = stratify_corpus([DocPair(key, resp)], StratumConfig())
        lines = emit_report(report, OutputFormat.CSV).splitlines()
        assert lines[0] == "stratum,metric,recall,precision,f1"
        assert lines[1] == ""
        assert lines[2] == "field,value"
        text = emit_report(report, OutputFormat.TABLE)
        assert "stratum" in text.splitlines()[0]

    def test_empty_report_bytes(self):
        report = StratifiedReport(
            per_stratum={},
            singleton_detection=ScoreTriple(0.0, 0.0, 0.0),
            leakage=0,
            config=StratumConfig(),
            spurious_mentions=0,
        )
        assert emit_report(report, OutputFormat.TABLE) == "\n".join([
            "stratum  metric  recall  precision  f1",
            "",
            "singleton_detection_recall     0.0000",
            "singleton_detection_precision  0.0000",
            "singleton_detection_f1         0.0000",
            "leakage                             0",
            "spurious_mentions                   0",
            "long_threshold                     10",
            "require_named                    true",
        ])
        assert emit_report(report, OutputFormat.CSV) == "\n".join([
            "stratum,metric,recall,precision,f1",
            "",
            "field,value",
            "singleton_detection_recall,0.0000",
            "singleton_detection_precision,0.0000",
            "singleton_detection_f1,0.0000",
            "leakage,0",
            "spurious_mentions,0",
            "long_threshold,10",
            "require_named,true",
        ])

    def test_json_structure(self):
        data = json.loads(emit_report(self.report(), OutputFormat.JSON))
        assert set(data) == {
            "per_stratum",
            "singleton_detection",
            "leakage",
            "spurious_mentions",
            "config",
        }
        assert data["config"] == {"long_threshold": 10, "require_named": True}
        assert data["per_stratum"]["major"]["scores"]["muc"]["f1"] == 1.0


class TestPathologyRendering:
    def report(self):
        key, resp = helpers.build_pair(
            {"k": frozenset({1, 2, 3})}, {"r": frozenset({1, 2, 9})}
        )
        return pathology_corpus([DocPair(key, resp)])

    def test_table_layout(self):
        lines = emit_report(self.report(), OutputFormat.TABLE).splitlines()
        assert lines[0].split() == [
            "metric",
            "recall_before",
            "recall_after",
            "recall_delta",
            "precision_before",
            "precision_after",
            "f1_before",
            "f1_after",
        ]
        assert lines[-1].split() == ["removed_mentions", "1"]

    def test_csv_rows(self):
        lines = emit_report(self.report(), OutputFormat.CSV).splitlines()
        assert lines[0].startswith("metric,recall_before")
        assert len([line for line in lines if line and "," in line]) >= 7
        assert lines[-1] == "removed_mentions,1"

    def test_json_keys(self):
        data = json.loads(emit_report(self.report(), OutputFormat.JSON))
        assert set(data) == {"before", "after", "recall_deltas", "removed_mentions"}
        assert data["removed_mentions"] == 1
        assert data["recall_deltas"]["muc"] == 0.0


class TestStatsRendering:
    def test_table_shows_display_rounded_ratios(self):
        report = stats_report(
            helpers.sized_corpus({"novel": [83] * 106 + [82] * 37 + [1] * 56})
        )
        lines = emit_report(report, OutputFormat.TABLE).splitlines()
        cells = dict(line.split(None, 1) for line in lines)
        assert cells["num_mentions"] == "11888"
        assert cells["num_chains"] == "143"
        assert cells["num_singletons"] == "56"
        # inclusive ratio truncates, exclusive rounds to nearest
        assert cells["mentions_per_chain_incl"] == "59"
        assert cells["mentions_per_chain_excl"] == "83"
        assert "zipf_slope" in cells

    def test_table_handles_missing_ratios_and_fit(self):
        report = stats_report([])
        lines = emit_report(report, OutputFormat.TABLE).splitlines()
        cells = dict(line.split(None, 1) for line in lines)
        assert cells["mentions_per_chain_incl"] == "n/a"
        assert cells["mentions_per_chain_excl"] == "n/a"
        assert cells["zipf_fit"] == "n/a"

    def test_csv_keeps_full_precision_and_series(self):
        report = stats_report(helpers.sized_corpus({"d": [4, 2, 1]}))
        lines = emit_report(report, OutputFormat.CSV).splitlines()
        assert lines[0] == "field,value"
        fields = dict(
            line.split(",", 1) for line in lines[: lines.index("")]
        )
        assert float(fields["mentions_per_chain_incl"]) == 7 / 3
        assert fields["num_tokens"] == "7"
        tail = lines[lines.index("") + 1 :]
        assert tail[0] == "rank,size"
        assert tail[1:] == ["1,4", "2,2", "3,1"]

    def test_json_round_trips(self):
        report = stats_report(helpers.sized_corpus({"d": [4, 2, 1]}))
        data = json.loads(emit_report(report, OutputFormat.JSON))
        assert data["num_mentions"] == 7
        assert data["mentions_per_chain_incl"] == report.mentions_per_chain_incl
        assert data["rank_size"] == [[1, 4], [2, 2], [3, 1]]
        assert data["zipf_fit"]["slope"] == report.zipf_fit.slope
        assert data["exclude_singletons"] is False

    def test_json_bytes_sort_histogram_keys_as_strings(self):
        report = stats_report(helpers.sized_corpus({"d": [12, 2, 1]}))
        assert emit_report(report, OutputFormat.JSON) == (
            '{\n  "exclude_singletons": false,\n  "length_histogram": {\n'
            '    "1": 1,\n    "12": 1,\n    "2": 1\n  },\n'
            '  "mentions_per_chain_excl": 7.0,\n  "mentions_per_chain_incl": 5.0,\n'
            '  "num_chains": 2,\n  "num_mentions": 15,\n  "num_singletons": 1,\n'
            '  "num_tokens": 15,\n  "rank_size": [\n'
            '    [\n      1,\n      12\n    ],\n'
            '    [\n      2,\n      2\n    ],\n'
            '    [\n      3,\n      1\n    ]\n  ],\n'
            '  "zipf_fit": {\n    "intercept": 2.431033870453004,\n'
            '    "n_points": 3,\n    "r_squared": 0.9900591428258517,\n'
            '    "slope": -2.2966518953484067\n  }\n}'
        )

    @given(
        st.dictionaries(st.integers(1, 12), st.integers(1, 4), max_size=6),
        st.booleans(),
    )
    def test_json_writes_the_series_view_as_json_dumps_writes_its_tuple(
        self, histogram, exclude
    ):
        """The series view is written a pair at a time, with the bytes the
        stock encoder gives the tuple of its pairs, an empty series too."""
        sizes = [size for size, count in histogram.items() for _ in range(count)]
        report = stats_report(helpers.sized_corpus({"d": sizes}), exclude)
        pairs = report._replace(rank_size=tuple(report.rank_size))
        expected = json.dumps(
            _plain(pairs), indent=2, sort_keys=True, ensure_ascii=False
        )
        assert emit_report(report, OutputFormat.JSON) == expected

    def test_json_fit_is_nullable(self):
        data = json.loads(emit_report(stats_report([]), OutputFormat.JSON))
        assert data["zipf_fit"] is None
        assert data["mentions_per_chain_incl"] is None


class TestTripleAndDispatch:
    def test_string_format_names_accepted(self, metric_report):
        assert emit_report(metric_report, "csv") == emit_report(
            metric_report, OutputFormat.CSV
        )

    def test_unknown_report_type_rejected(self):
        with pytest.raises(TypeError):
            emit_report(object(), OutputFormat.TABLE)

    def test_unknown_format_rejected(self, metric_report):
        with pytest.raises(ValueError):
            emit_report(metric_report, "yaml")


REPORTS = {
    "metric": lambda: score_corpus([DocPair(*helpers.build_pair(KEY, RESP))]),
    "stratified": TestStratifiedRendering().report,
    "pathology": TestPathologyRendering().report,
    "stats": lambda: stats_report(helpers.sized_corpus({"d": [4, 2, 1]})),
    "stats-without-fit": lambda: stats_report([]),
}


@pytest.mark.parametrize("kind", REPORTS)
def test_json_keys_are_the_report_fields(kind):
    """A report kind is one record whose fields are its JSON keys."""
    report = REPORTS[kind]()
    assert set(json.loads(emit_report(report, "json"))) == set(report._fields)


@pytest.mark.parametrize("fmt", [f.value for f in OutputFormat])
@pytest.mark.parametrize("command", ["score", "stratify", "pathology", "stats"])
def test_cli_report_bytes_match_expected_files(fixtures_dir, capsys, command, fmt):
    """The whole stdout of every report kind in every format, pinned."""
    args = [command, "--key", str(fixtures_dir / "derived_key.jsonl"), "--output", fmt]
    if command != "stats":
        args += ["--response", str(fixtures_dir / "derived_response.jsonl")]
    assert main(args) == 0
    expected = fixtures_dir / "expected" / f"derived.{command}.{fmt}"
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


REPORT_DATA = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children)
    # a rank-size series of more encoder chunks than one joined block
    | st.integers(2_000, 3_000).map(lambda n: [(r, 1 + 5_000 // r) for r in range(1, n)]),
    max_leaves=20,
)


# A 2,000-3,000-point series takes about the default 200 ms deadline to
# render and to dump, so the deadline is off, as in test_fuzz.FUZZ.
@settings(deadline=None)
@given(REPORT_DATA)
def test_json_equals_json_dumps(data):
    """The block-joined rendering is json.dumps' text, non-ASCII included."""
    assert _json(data) == json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)


def test_json_keeps_non_ascii_text():
    assert _json({"b": "Ångström", "a": [None, 1.5]}) == (
        '{\n  "a": [\n    null,\n    1.5\n  ],\n  "b": "Ångström"\n}'
    )
