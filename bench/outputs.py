"""Checks on every report the CLI prints.

A json report is checked against the counts the generator knows, the
range of every score, the CoNLL average, the pathology invariants and,
for the default seed, the scores recorded in ``reference.json``.  A
table or csv report is rebuilt row by row from the json report of the
same command (scores rounded to 4 places) and must match it exactly,
ignoring column alignment.
"""

from __future__ import annotations

import math
from collections import Counter

import corpora

METRICS = ("muc", "b3", "ceaf_m", "ceaf_e", "blanc", "lea")
REFERENCE_TOLERANCE = 1e-9


class Expected:
    """What each command must report for one generated corpus."""

    def __init__(self, docs: list[corpora.Doc], reference: dict | None):
        self.tallies = corpora.tallies(docs)
        self.after = corpora.tallies(docs, remove_spurious=True)
        self.require_named = any(doc.named for doc in docs)
        self.strata = corpora.strata(docs, self.require_named)
        self.sizes = corpora.key_sizes(docs)
        self.num_tokens = sum(doc.num_tokens for doc in docs)
        self.reference = reference


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _metric_report(report: dict, counts: dict, where: str) -> list[str]:
    problems = []
    if report["counts"] != counts:
        problems.append(f"{where}: counts {report['counts']} != expected {counts}")
    scores = report["scores"]
    if sorted(scores) != sorted(METRICS):
        problems.append(f"{where}: metrics {sorted(scores)}")
        return problems
    for metric, triple in scores.items():
        for name, value in triple.items():
            if not 0.0 <= value <= 1.0:
                problems.append(f"{where}: {metric}.{name} = {value} outside [0, 1]")
    mean = sum(scores[m]["f1"] for m in ("muc", "b3", "ceaf_e")) / 3
    if not math.isclose(report["conll_average"], mean, rel_tol=0, abs_tol=1e-12):
        problems.append(f"{where}: conll_average {report['conll_average']} != {mean}")
    return problems


def _score(data: dict, exp: Expected) -> list[str]:
    return _metric_report(data, exp.tallies, "score")


def _stratify(data: dict, exp: Expected) -> list[str]:
    problems = []
    per = exp.strata["per_stratum"]
    if sorted(data["per_stratum"]) != sorted(per):
        return [f"stratify: strata {sorted(data['per_stratum'])} != {sorted(per)}"]
    for stratum, report in data["per_stratum"].items():
        problems += _metric_report(report, per[stratum], f"stratify.{stratum}")
    for name, value in data["singleton_detection"].items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"stratify: singleton_detection.{name} = {value}")
    wanted = {
        "leakage": exp.strata["leakage"],
        "spurious_mentions": exp.tallies["response_spurious"],
        "config": {"long_threshold": corpora.LONG_THRESHOLD,
                   "require_named": exp.require_named},
    }
    for name, value in wanted.items():
        if data[name] != value:
            problems.append(f"stratify: {name} {data[name]} != {value}")
    return problems


def _pathology(data: dict, exp: Expected) -> list[str]:
    problems = _metric_report(data["before"], exp.tallies, "pathology.before")
    problems += _metric_report(data["after"], exp.after, "pathology.after")
    if data["removed_mentions"] != exp.tallies["response_spurious"]:
        problems.append(f"pathology: removed_mentions {data['removed_mentions']}")
    for metric, delta in data["recall_deltas"].items():
        moved = (data["after"]["scores"][metric]["recall"]
                 - data["before"]["scores"][metric]["recall"])
        if delta != moved:
            problems.append(f"pathology: {metric} delta {delta} != {moved}")
        if metric in ("muc", "b3", "ceaf_m") and delta != 0.0:
            problems.append(f"pathology: {metric} recall moved by {delta}")
    return problems


def _stats(data: dict, exp: Expected) -> list[str]:
    singletons = exp.sizes.count(1)
    wanted = {
        "num_mentions": sum(exp.sizes),
        "num_chains": len(exp.sizes) - singletons,
        "num_singletons": singletons,
        "num_tokens": exp.num_tokens,
        "rank_size": [[r, s] for r, s in enumerate(exp.sizes, 1)],
        "length_histogram": {str(k): v for k, v in sorted(Counter(exp.sizes).items())},
    }
    problems = [f"stats: {k} differs" for k, v in wanted.items() if data[k] != v]
    r2 = data["zipf_fit"]["r_squared"]
    if r2 is not None and not 0.0 <= r2 <= 1.0:
        problems.append(f"stats: zipf r_squared {r2}")
    return problems


CHECKS = {"score": _score, "stratify": _stratify,
          "pathology": _pathology, "stats": _stats}


def floats(data, path: str = "") -> dict[str, float]:
    """Every float leaf of a json report, keyed by its dotted path."""
    if isinstance(data, dict):
        out = {}
        for key, value in data.items():
            out.update(floats(value, f"{path}{key}."))
        return out
    return {path.rstrip("."): data} if isinstance(data, float) else {}


def check_json(command: str, data: dict, exp: Expected) -> list[str]:
    problems = CHECKS[command](data, exp)
    if exp.reference is not None:
        want = exp.reference.get(command)
        got = floats(data)
        if want is None:
            problems.append(f"{command}: no reference recorded for the default seed")
        elif sorted(got) != sorted(want):
            problems.append(f"{command}: score fields differ from reference")
        for key in sorted(set(got) & set(want or {})):
            if abs(got[key] - want[key]) > REFERENCE_TOLERANCE:
                problems.append(f"{command}: {key} {got[key]!r} != reference {want[key]!r}")
    return problems


# ----------------------------------------------------- table and csv rows


def _metric_rows(report: dict, prefix: tuple = ()) -> list[tuple]:
    rows = [(*prefix, m, *(_fmt(report["scores"][m][k])
                           for k in ("recall", "precision", "f1"))) for m in METRICS]
    return rows + [(*prefix, "conll_avg", _fmt(report["conll_average"]))]


def _score_rows(data: dict) -> list[tuple]:
    rows = [("metric", "recall", "precision", "f1")] + _metric_rows(data)
    return rows + [(k, str(data["counts"][k])) for k in corpora.TALLY_KEYS]


def _stratify_rows(data: dict) -> list[tuple]:
    rows = [("stratum", "metric", "recall", "precision", "f1")]
    for stratum, report in data["per_stratum"].items():
        rows += _metric_rows(report, (stratum,))
    detection = data["singleton_detection"]
    rows += [(f"singleton_detection_{k}", _fmt(detection[k]))
             for k in ("recall", "precision", "f1")]
    rows += [("leakage", str(data["leakage"])),
             ("spurious_mentions", str(data["spurious_mentions"])),
             ("long_threshold", str(data["config"]["long_threshold"])),
             ("require_named", str(data["config"]["require_named"]).lower())]
    return rows


def _pathology_rows(data: dict) -> list[tuple]:
    rows = [("metric", "recall_before", "recall_after", "recall_delta",
             "precision_before", "precision_after", "f1_before", "f1_after")]
    before, after = data["before"]["scores"], data["after"]["scores"]
    for m in METRICS:
        rows.append((m, _fmt(before[m]["recall"]), _fmt(after[m]["recall"]),
                     _fmt(data["recall_deltas"][m]),
                     _fmt(before[m]["precision"]), _fmt(after[m]["precision"]),
                     _fmt(before[m]["f1"]), _fmt(after[m]["f1"])))
    return rows + [("removed_mentions", str(data["removed_mentions"]))]


def _stats_rows(data: dict) -> list[tuple]:
    fit = data["zipf_fit"]
    rows = [(k, str(data[k])) for k in
            ("num_tokens", "num_mentions", "num_chains", "num_singletons")]
    rows += [("mentions_per_chain_incl", str(math.trunc(data["mentions_per_chain_incl"]))),
             ("mentions_per_chain_excl", str(round(data["mentions_per_chain_excl"]))),
             ("zipf_slope", _fmt(fit["slope"])),
             ("zipf_intercept", _fmt(fit["intercept"])),
             ("zipf_r_squared", "n/a" if fit["r_squared"] is None
              else _fmt(fit["r_squared"])),
             ("zipf_points", str(fit["n_points"]))]
    return rows


TABLES = {"score": _score_rows, "stratify": _stratify_rows,
          "pathology": _pathology_rows, "stats": _stats_rows}


def check_text(command: str, fmt: str, text: str, data: dict) -> list[str]:
    """A table or csv report against the json report of the same run."""
    if fmt == "csv":
        if command != "score":
            return [f"{command}: no csv check"]
        want = ["metric,recall,precision,f1"]
        want += [",".join(row) for row in _metric_rows(data)[:-1]]
        want.append(f"conll_avg,,,{_fmt(data['conll_average'])}")
        got = text.splitlines()
    else:
        want = [" ".join(r) for r in TABLES[command](data)]
        got = [" ".join(line.split()) for line in text.splitlines() if line.strip()]
    if got != want:
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                     min(len(got), len(want)))
        return [f"{command} {fmt}: row {first} differs from the json report"]
    return []
