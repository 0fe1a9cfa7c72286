"""Report rendering: aligned text tables, JSON, and CSV.

Formatting contracts:
  - CSV scores use 4 decimal places, ``,`` separators, ``.`` decimal
    points; the score header is ``metric,recall,precision,f1``.
  - JSON carries full float precision with sorted keys and round-trips
    numerically.
  - Tables are for human reading; the two mentions-per-chain ratios are
    shown as whole numbers there (the inclusive ratio truncated, the
    exclusive one rounded to nearest) while JSON and CSV keep full
    precision.
  - All output is deterministic: identical reports render byte-identically.

Every report goes through one of two writers.  JSON is ``_plain`` of the
report: a record becomes an object of its fields and a mapping gets string
keys (an enum's value, ``str`` of an int), so a report's JSON keys are its
fields; only a stats report lifts its ``CorpusStats`` fields to the top.
CSV and tables are ``_text`` of the report's layout, a list of
``(header, rows, align_left)`` sections one blank line apart; a section
without a header is a field/value list.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from enum import Enum
from typing import Optional

from .metrics import MetricReport, PathologyReport
from .stats import StatsReport
from .stratify import StratifiedReport


class OutputFormat(str, Enum):
    TABLE = "table"
    JSON = "json"
    CSV = "csv"


AVERAGE_LABEL = "conll_avg"
SCORE_HEADER = ("metric", "recall", "precision", "f1")

Section = tuple[Optional[tuple[str, ...]], list[tuple[str, ...]], int]


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _na(value: Optional[float], show) -> str:
    return "n/a" if value is None else str(show(value))


def _plain(value):
    """JSON data of a report: records as objects of their fields, mapping
    keys as strings; any other value as it is."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, Mapping):
        return {
            k.value if isinstance(k, Enum) else str(k): _plain(v)
            for k, v in value.items()
        }
    return value


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _table(rows: list[tuple[str, ...]], align_left: int = 1) -> list[str]:
    """Align columns; the first ``align_left`` columns are left-justified.
    No rows give no lines."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = []
    for row in rows:
        cells = [
            cell.ljust(widths[i]) if i < align_left else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _text(sections: list[Section], fmt: OutputFormat) -> str:
    """CSV or table blocks, one per section, separated by a blank line.  A
    field/value section has no header: CSV heads it ``field,value`` and the
    table prints no header line; with no rows either, it prints nothing."""
    blocks = []
    for header, rows, align_left in sections:
        if not (header or rows):
            continue
        if fmt is OutputFormat.CSV:
            lines = [",".join(header or ("field", "value"))]
            lines.extend(",".join(row) for row in rows)
        else:
            lines = _table(([header] if header else []) + rows, align_left)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _metric_rows(report: MetricReport) -> list[tuple[str, ...]]:
    rows = [
        (metric.value, _fmt(t.recall), _fmt(t.precision), _fmt(t.f1))
        for metric, t in report.scores.items()
    ]
    if report.conll_average is not None:
        rows.append((AVERAGE_LABEL, "", "", _fmt(report.conll_average)))
    return rows


def _metric_layout(report: MetricReport, fmt: OutputFormat) -> list[Section]:
    sections = [(SCORE_HEADER, _metric_rows(report), 1)]
    if fmt is OutputFormat.TABLE:
        sections.append((None, [(k, str(v)) for k, v in report.counts.items()], 1))
    return sections


def _stratified_layout(report: StratifiedReport, fmt: OutputFormat) -> list[Section]:
    rows = [
        (stratum.value, *row)
        for stratum, stratum_report in report.per_stratum.items()
        for row in _metric_rows(stratum_report)
    ]
    detection = report.singleton_detection
    summary = [
        ("singleton_detection_recall", _fmt(detection.recall)),
        ("singleton_detection_precision", _fmt(detection.precision)),
        ("singleton_detection_f1", _fmt(detection.f1)),
        ("leakage", str(report.leakage)),
        ("spurious_mentions", str(report.spurious_mentions)),
        ("long_threshold", str(report.config.long_threshold)),
        ("require_named", "true" if report.config.require_named else "false"),
    ]
    return [(("stratum", *SCORE_HEADER), rows, 2), (None, summary, 1)]


PATHOLOGY_HEADER = (
    "metric",
    "recall_before",
    "recall_after",
    "recall_delta",
    "precision_before",
    "precision_after",
    "f1_before",
    "f1_after",
)


def _pathology_layout(report: PathologyReport, fmt: OutputFormat) -> list[Section]:
    rows = []
    for metric, before in report.before.scores.items():
        after = report.after.scores[metric]
        rows.append(
            (
                metric.value,
                _fmt(before.recall),
                _fmt(after.recall),
                _fmt(report.recall_deltas[metric]),
                _fmt(before.precision),
                _fmt(after.precision),
                _fmt(before.f1),
                _fmt(after.f1),
            )
        )
    removed = [("removed_mentions", str(report.removed_mentions))]
    return [(PATHOLOGY_HEADER, rows, 1), (None, removed, 1)]


def _stats_layout(report: StatsReport, fmt: OutputFormat) -> list[Section]:
    stats, fit = report.stats, report.fit
    csv = fmt is OutputFormat.CSV
    # CSV keeps full precision; the table shows the fit to 4 places and the
    # ratios as whole numbers (see the module docstring for the rule).
    number = repr if csv else _fmt
    incl, excl = (repr, repr) if csv else (math.trunc, round)
    rows = [
        ("num_tokens", str(stats.num_tokens)),
        ("num_mentions", str(stats.num_mentions)),
        ("num_chains", str(stats.num_chains)),
        ("num_singletons", str(stats.num_singletons)),
        ("mentions_per_chain_incl", _na(stats.mentions_per_chain_incl, incl)),
        ("mentions_per_chain_excl", _na(stats.mentions_per_chain_excl, excl)),
    ]
    if fit is None:
        rows.append(("zipf_fit", "n/a"))
    else:
        rows += [
            ("zipf_slope", number(fit.slope)),
            ("zipf_intercept", number(fit.intercept)),
            ("zipf_r_squared", _na(fit.r_squared, number)),
            ("zipf_points", str(fit.n_points)),
        ]
    sections = [(None, rows, 1)]
    if csv:
        series = [(str(rank), str(size)) for rank, size in report.series]
        sections.append((("rank", "size"), series, 1))
    return sections


def emit_report(
    report: MetricReport | StratifiedReport | PathologyReport | StatsReport,
    fmt: OutputFormat | str,
) -> str:
    """Serialize any report deterministically in the requested format."""
    fmt = OutputFormat(fmt)
    data = report
    if isinstance(report, MetricReport):
        layout = _metric_layout
    elif isinstance(report, StratifiedReport):
        layout = _stratified_layout
    elif isinstance(report, PathologyReport):
        layout = _pathology_layout
    elif isinstance(report, StatsReport):
        layout = _stats_layout
        data = {
            **report.stats._asdict(),
            "rank_size": report.series,
            "zipf_fit": report.fit,
            "exclude_singletons": report.exclude_singletons,
        }
    else:
        raise TypeError(f"cannot render {type(report).__name__}")
    if fmt is OutputFormat.JSON:
        return _json(_plain(data))
    return _text(layout(report, fmt), fmt)
