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
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import Optional

from .metrics import MetricReport, PathologyReport
from .model import ScoreTriple
from .stats import StatsReport, ZipfFit
from .stratify import StratifiedReport


class OutputFormat(str, Enum):
    TABLE = "table"
    JSON = "json"
    CSV = "csv"


AVERAGE_LABEL = "conll_avg"
SCORE_HEADER = ("metric", "recall", "precision", "f1")


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _triple_cells(triple: ScoreTriple) -> tuple[str, str, str]:
    return (_fmt(triple.recall), _fmt(triple.precision), _fmt(triple.f1))


def _table(rows: list[tuple[str, ...]], align_left: int = 1) -> list[str]:
    """Align columns; the first ``align_left`` columns are left-justified."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [
            cell.ljust(widths[i]) if i < align_left else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _triple_json(triple: ScoreTriple) -> dict:
    return {
        "recall": triple.recall,
        "precision": triple.precision,
        "f1": triple.f1,
    }


def _metric_rows(report: MetricReport) -> list[tuple[str, str, str, str]]:
    rows = [
        (metric.value, *_triple_cells(triple))
        for metric, triple in report.scores.items()
    ]
    if report.conll_average is not None:
        rows.append((AVERAGE_LABEL, "", "", _fmt(report.conll_average)))
    return rows


def _metric_report_json(report: MetricReport) -> dict:
    return {
        "scores": {m.value: _triple_json(t) for m, t in report.scores.items()},
        "conll_average": report.conll_average,
        "counts": dict(report.counts),
    }


def _render_metric_report(report: MetricReport, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.JSON:
        return _json(_metric_report_json(report))
    rows = _metric_rows(report)
    if fmt is OutputFormat.CSV:
        return "\n".join([",".join(SCORE_HEADER)] + [",".join(r) for r in rows])
    lines = _table([SCORE_HEADER] + rows)
    lines.append("")
    lines.extend(_table([(k, str(v)) for k, v in report.counts.items()]))
    return "\n".join(lines)


def _config_rows(report: StratifiedReport) -> list[tuple[str, str]]:
    detection = report.singleton_detection
    return [
        ("singleton_detection_recall", _fmt(detection.recall)),
        ("singleton_detection_precision", _fmt(detection.precision)),
        ("singleton_detection_f1", _fmt(detection.f1)),
        ("leakage", str(report.leakage)),
        ("spurious_mentions", str(report.spurious_mentions)),
        ("long_threshold", str(report.config.long_threshold)),
        ("require_named", _bool(report.config.require_named)),
    ]


def _render_stratified(report: StratifiedReport, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.JSON:
        return _json(
            {
                "per_stratum": {
                    s.value: _metric_report_json(r)
                    for s, r in report.per_stratum.items()
                },
                "singleton_detection": _triple_json(report.singleton_detection),
                "leakage": report.leakage,
                "spurious_mentions": report.spurious_mentions,
                "config": {
                    "long_threshold": report.config.long_threshold,
                    "require_named": report.config.require_named,
                },
            }
        )
    score_rows = [
        (stratum.value, *row)
        for stratum, stratum_report in report.per_stratum.items()
        for row in _metric_rows(stratum_report)
    ]
    summary = _config_rows(report)
    header = ("stratum", *SCORE_HEADER)
    if fmt is OutputFormat.CSV:
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in score_rows)
        lines.append("")
        lines.append("field,value")
        lines.extend(f"{k},{v}" for k, v in summary)
        return "\n".join(lines)
    lines = _table([header] + score_rows, align_left=2) if score_rows else [
        "  ".join(header)
    ]
    lines.append("")
    lines.extend(_table(summary))
    return "\n".join(lines)


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


def _render_pathology(report: PathologyReport, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.JSON:
        return _json(
            {
                "before": _metric_report_json(report.before),
                "after": _metric_report_json(report.after),
                "recall_deltas": {
                    m.value: d for m, d in report.recall_deltas.items()
                },
                "removed_mentions": report.removed_mentions,
            }
        )
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
    if fmt is OutputFormat.CSV:
        lines = [",".join(PATHOLOGY_HEADER)]
        lines.extend(",".join(row) for row in rows)
        lines.append("")
        lines.append("field,value")
        lines.append(f"removed_mentions,{report.removed_mentions}")
        return "\n".join(lines)
    lines = _table([PATHOLOGY_HEADER] + rows)
    lines.append("")
    lines.extend(_table([("removed_mentions", str(report.removed_mentions))]))
    return "\n".join(lines)


def _ratio_table_cell(value: Optional[float], truncate: bool) -> str:
    # Table view shows whole numbers; see the module docstring for the rule.
    if value is None:
        return "n/a"
    return str(math.trunc(value)) if truncate else str(round(value))


def _fit_rows(fit: Optional[ZipfFit], precise: bool) -> list[tuple[str, str]]:
    if fit is None:
        return [("zipf_fit", "n/a")]
    fmt = repr if precise else _fmt
    r2 = "n/a" if fit.r_squared is None else fmt(fit.r_squared)
    return [
        ("zipf_slope", fmt(fit.slope)),
        ("zipf_intercept", fmt(fit.intercept)),
        ("zipf_r_squared", r2),
        ("zipf_points", str(fit.n_points)),
    ]


def _render_stats(report: StatsReport, fmt: OutputFormat) -> str:
    stats = report.stats
    if fmt is OutputFormat.JSON:
        fit = report.fit
        return _json(
            {
                "num_mentions": stats.num_mentions,
                "num_chains": stats.num_chains,
                "num_singletons": stats.num_singletons,
                "num_tokens": stats.num_tokens,
                "mentions_per_chain_incl": stats.mentions_per_chain_incl,
                "mentions_per_chain_excl": stats.mentions_per_chain_excl,
                "length_histogram": {
                    str(size): count
                    for size, count in stats.length_histogram.items()
                },
                "rank_size": [list(p) for p in report.series],
                "zipf_fit": None
                if fit is None
                else {
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                    "n_points": fit.n_points,
                },
                "exclude_singletons": report.exclude_singletons,
            }
        )
    count_rows = [
        ("num_tokens", str(stats.num_tokens)),
        ("num_mentions", str(stats.num_mentions)),
        ("num_chains", str(stats.num_chains)),
        ("num_singletons", str(stats.num_singletons)),
    ]
    if fmt is OutputFormat.CSV:
        def ratio(v):
            return "n/a" if v is None else repr(v)

        lines = ["field,value"]
        lines.extend(f"{k},{v}" for k, v in count_rows)
        lines.append(f"mentions_per_chain_incl,{ratio(stats.mentions_per_chain_incl)}")
        lines.append(f"mentions_per_chain_excl,{ratio(stats.mentions_per_chain_excl)}")
        lines.extend(f"{k},{v}" for k, v in _fit_rows(report.fit, precise=True))
        lines.append("")
        lines.append("rank,size")
        lines.extend(f"{rank},{size}" for rank, size in report.series)
        return "\n".join(lines)
    rows = count_rows + [
        (
            "mentions_per_chain_incl",
            _ratio_table_cell(stats.mentions_per_chain_incl, truncate=True),
        ),
        (
            "mentions_per_chain_excl",
            _ratio_table_cell(stats.mentions_per_chain_excl, truncate=False),
        ),
    ]
    rows.extend(_fit_rows(report.fit, precise=False))
    return "\n".join(_table(rows))


def emit_report(
    report: MetricReport | StratifiedReport | PathologyReport | StatsReport,
    fmt: OutputFormat | str,
) -> str:
    """Serialize any report deterministically in the requested format."""
    fmt = OutputFormat(fmt)
    if isinstance(report, MetricReport):
        return _render_metric_report(report, fmt)
    if isinstance(report, StratifiedReport):
        return _render_stratified(report, fmt)
    if isinstance(report, PathologyReport):
        return _render_pathology(report, fmt)
    if isinstance(report, StatsReport):
        return _render_stats(report, fmt)
    raise TypeError(f"cannot render {type(report).__name__}")
