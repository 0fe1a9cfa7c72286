"""Command-line front end for coreference evaluation.

Usage:
  corefeval score     --key KEY --response RESP [options]
  corefeval stratify  --key KEY --response RESP [options]
  corefeval stats     --key KEY [--exclude-singletons] [options]
  corefeval pathology --key KEY --response RESP [options]

Common options:
  --format {conll,jsonl}     input format; inferred from the file
                             extension (.conll / .jsonl) when omitted
  --output {table,json,csv}  report format (default: table)
  --metrics LIST             comma-separated subset of
                             muc,b3,ceaf_m,ceaf_e,blanc,lea (default: all)
  --averaging {micro,macro}  corpus averaging (default: micro)

Stratify options:
  --long-threshold N              minimum size of a major chain (default: 10)
  --require-named/--no-require-named
                                  major chains must contain a named mention
                                  (default: on; degrades automatically with a
                                  warning when the corpus carries no named
                                  flags, as CoNLL input never does)

Stats options:
  --exclude-singletons       drop singletons from the rank-size series
                             and the Zipf fit

Exit status: 0 on success, 1 on input errors (unreadable files, parse
failures, document mismatches, bad flags), 2 on internal errors.  Errors
are one-line diagnostics on stderr; reports go to stdout and are
byte-identical across repeated runs on the same input.  A reader closing
stdout early (``| head``) is not an error: the run exits 0 quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from .corpus import (
    Averaging,
    corpus_stats_report,
    load_corpus,
    pair_corpora,
    pathology_corpus,
    score_corpus,
    stratify_corpus,
)
from .errors import CorefEvalError, DocMismatch
from .metrics import ALL_METRICS, MetricId
from .model import CorpusSource, Role, SourceFormat
from .reports import OutputFormat, emit_report
from .stratify import StratumConfig


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved CLI invocation."""

    command: str
    key_path: str
    response_path: Optional[str] = None
    format: Optional[SourceFormat] = None
    output: OutputFormat = OutputFormat.TABLE
    long_threshold: int = 10
    require_named: bool = True
    averaging: Averaging = Averaging.MICRO
    metrics: tuple[MetricId, ...] = ALL_METRICS
    exclude_singletons: bool = False


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, leaving 2 for internal faults.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _metric_list(text: str) -> tuple[MetricId, ...]:
    wanted = []
    for name in text.split(","):
        name = name.strip()
        try:
            wanted.append(MetricId(name))
        except ValueError:
            choices = ",".join(m.value for m in ALL_METRICS)
            raise argparse.ArgumentTypeError(
                f"unknown metric {name!r} (choose from {choices})"
            ) from None
    return tuple(wanted)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corefeval", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, response: bool) -> None:
        sub.add_argument("--key", required=True, dest="key_path", metavar="PATH")
        if response:
            sub.add_argument(
                "--response", required=True, dest="response_path", metavar="PATH"
            )
        sub.add_argument(
            "--format", choices=[f.value for f in SourceFormat], default=None
        )
        sub.add_argument(
            "--output",
            choices=[f.value for f in OutputFormat],
            default=OutputFormat.TABLE.value,
        )

    def scoring(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--metrics", type=_metric_list, default=ALL_METRICS)
        sub.add_argument(
            "--averaging",
            choices=[a.value for a in Averaging],
            default=Averaging.MICRO.value,
        )

    score = commands.add_parser("score", help="score all metrics side by side")
    common(score, response=True)
    scoring(score)

    stratify = commands.add_parser(
        "stratify", help="score major/secondary/singleton strata separately"
    )
    common(stratify, response=True)
    scoring(stratify)
    stratify.add_argument("--long-threshold", type=int, default=10)
    stratify.add_argument(
        "--require-named", action=argparse.BooleanOptionalAction, default=True
    )

    stats = commands.add_parser(
        "stats", help="corpus counts, ratios, and the rank-size series"
    )
    common(stats, response=False)
    stats.add_argument("--exclude-singletons", action="store_true")

    pathology = commands.add_parser(
        "pathology", help="rescore after removing spurious response mentions"
    )
    common(pathology, response=True)
    scoring(pathology)

    return parser


def config_from_args(namespace: argparse.Namespace) -> RunConfig:
    fmt = namespace.format
    return RunConfig(
        command=namespace.command,
        key_path=namespace.key_path,
        response_path=getattr(namespace, "response_path", None),
        format=None if fmt is None else SourceFormat(fmt),
        output=OutputFormat(namespace.output),
        long_threshold=getattr(namespace, "long_threshold", 10),
        require_named=getattr(namespace, "require_named", True),
        averaging=Averaging(getattr(namespace, "averaging", "micro")),
        metrics=tuple(getattr(namespace, "metrics", ALL_METRICS)),
        exclude_singletons=getattr(namespace, "exclude_singletons", False),
    )


def _infer_format(path: str) -> SourceFormat:
    if path.endswith((".jsonl", ".jl")):
        return SourceFormat.JSONL
    if path.endswith(".conll") or path.endswith("conll"):
        return SourceFormat.CONLL
    raise CorefEvalError(
        f"cannot infer format of {path!r} from its extension; pass --format"
    )


def _load(path: str, config: RunConfig, role: Role) -> CorpusSource:
    fmt = config.format or _infer_format(path)
    try:
        return load_corpus(path, fmt, role)
    except CorefEvalError as exc:
        raise CorefEvalError(f"{path}: {exc}") from None


def _execute(config: RunConfig) -> str:
    key = _load(config.key_path, config, Role.KEY)
    if config.command == "stats":
        report = corpus_stats_report(key, config.exclude_singletons)
        return emit_report(report, config.output)
    assert config.response_path is not None
    response = _load(config.response_path, config, Role.RESPONSE)
    try:
        pairs = pair_corpora(key, response)
    except DocMismatch as exc:
        raise CorefEvalError(
            f"{config.key_path} and {config.response_path}: {exc}"
        ) from None
    if config.command == "score":
        report = score_corpus(pairs, config.metrics, config.averaging)
    elif config.command == "stratify":
        stratum_config = StratumConfig(config.long_threshold, config.require_named)
        report = stratify_corpus(
            pairs, stratum_config, config.metrics, config.averaging
        )
    else:
        report = pathology_corpus(pairs, config.metrics, config.averaging)
    return emit_report(report, config.output)


def run(config: RunConfig) -> int:
    """Execute one invocation; report goes to stdout, diagnostics to stderr."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            output = _execute(config)
        # The one warning the library raises, the require_named degrade,
        # is about the key corpus, so it names the key file.
        for warning in caught:
            print(f"warning: {config.key_path}: {warning.message}", file=sys.stderr)
        try:
            print(output)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left early (`| head`), which is not an error.  Point
            # stdout at devnull so the interpreter's final flush stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CorefEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    return run(config_from_args(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
