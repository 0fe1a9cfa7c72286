"""Command-line front end for coreference evaluation.

Subcommands: score, stratify, stats and pathology; ``corefeval COMMAND
--help`` describes each one's flags.  Every flag is checked before any
file is read.

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
from typing import Optional, Sequence

from .corpus import (
    Averaging,
    pair_documents,
    pathology_corpus,
    read_corpus,
    score_corpus,
    stratify_corpus,
)
from .errors import CorefEvalError, DocMismatch
from .metrics import ALL_METRICS, MetricId
from .model import Role, SourceFormat
from .reports import OutputFormat, emit_report
from .stats import stats_report
from .stratify import NAMELESS_KEY, StratumConfig


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


COMMANDS = {
    "score": "score all metrics side by side",
    "stratify": "score major/secondary/singleton strata separately",
    "stats": "corpus counts, ratios, and the rank-size series",
    "pathology": "rescore after removing spurious response mentions",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corefeval", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary in COMMANDS.items():
        sub = commands.add_parser(name, help=summary)
        sub.add_argument(
            "--key", required=True, dest="key_path", metavar="PATH", help="key corpus"
        )
        if name != "stats":
            sub.add_argument(
                "--response",
                required=True,
                dest="response_path",
                metavar="PATH",
                help="response corpus",
            )
        sub.add_argument(
            "--format",
            choices=[f.value for f in SourceFormat],
            default=None,
            help="input format (default: from each file name: .jsonl or .jl "
            "is jsonl, a name ending in conll is CoNLL)",
        )
        sub.add_argument(
            "--output",
            choices=[f.value for f in OutputFormat],
            default=OutputFormat.TABLE.value,
            help="report format (default: table)",
        )
        if name == "stats":
            sub.add_argument(
                "--exclude-singletons",
                action="store_true",
                help="drop singletons from the rank-size series and the Zipf "
                "fit (default: off)",
            )
            continue
        sub.add_argument(
            "--metrics",
            type=_metric_list,
            default=ALL_METRICS,
            help="comma-separated subset of "
            f"{','.join(m.value for m in ALL_METRICS)} (default: all)",
        )
        sub.add_argument(
            "--averaging",
            choices=[a.value for a in Averaging],
            default=Averaging.MICRO.value,
            help="corpus averaging (default: micro)",
        )
        if name == "stratify":
            sub.add_argument(
                "--long-threshold",
                type=int,
                default=10,
                help="minimum size of a major chain (default: 10)",
            )
            sub.add_argument(
                "--require-named",
                action=argparse.BooleanOptionalAction,
                default=True,
                help="major chains must contain a named mention (default: on; "
                "degrades with a warning when no key mention is named, as in "
                "CoNLL input)",
            )
    return parser


def _infer_format(path: str) -> SourceFormat:
    if path.endswith((".jsonl", ".jl")):
        return SourceFormat.JSONL
    if path.endswith("conll"):
        return SourceFormat.CONLL
    raise CorefEvalError(
        f"cannot infer format of {path!r} from its extension; pass --format"
    )


def _execute(args: argparse.Namespace) -> str:
    # The library coerces the string flags to their enums; each command reads
    # only the flags its subparser defines, so every default lives there.
    # Every flag is checked before the first file is opened.
    key_fmt = args.format or _infer_format(args.key_path)
    if args.command == "stats":
        key = read_corpus(args.key_path, key_fmt, Role.KEY)
        return emit_report(stats_report(key, args.exclude_singletons), args.output)
    response_fmt = args.format or _infer_format(args.response_path)
    if args.command == "stratify":
        stratum_config = StratumConfig(args.long_threshold, args.require_named)
        if args.require_named and SourceFormat(key_fmt) is SourceFormat.CONLL:
            warnings.warn(NAMELESS_KEY, UserWarning)  # CoNLL carries no names
            stratum_config = stratum_config._replace(require_named=False)
    pairs = pair_documents(
        read_corpus(args.key_path, key_fmt, Role.KEY),
        read_corpus(args.response_path, response_fmt, Role.RESPONSE),
    )
    try:
        if args.command == "score":
            report = score_corpus(pairs, args.metrics, args.averaging)
        elif args.command == "stratify":
            report = stratify_corpus(pairs, stratum_config, args.metrics, args.averaging)
        else:
            report = pathology_corpus(pairs, args.metrics, args.averaging)
    except DocMismatch as exc:
        exc.args = (f"{args.key_path} and {args.response_path}: {exc}",)
        raise
    return emit_report(report, args.output)


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; report goes to stdout, diagnostics to stderr."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            output = _execute(args)
        # The one warning, the require_named degrade that _execute or the
        # library raises, is about the key corpus, so it names the key file.
        for warning in caught:
            print(f"warning: {args.key_path}: {warning.message}", file=sys.stderr)
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
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
