"""Coreference resolution evaluation.

Scoring engine for MUC, B3, CEAF (mention and entity), BLANC, LEA, and
the CoNLL average, with CoNLL-2012 and jsonl corpus parsing, stratified
evaluation of major/secondary/singleton chains, corpus statistics with a
rank-size Zipf diagnostic, and a spurious-mention pathology experiment.
The ``corefeval`` command exposes all of it from the shell.
"""

from .corpus import (
    Averaging,
    DocPair,
    corpus_stats_report,
    pair_corpora,
    pair_documents,
    pathology_corpus,
    read_corpus,
    score_corpus,
    stratify_corpus,
)
from .conll import iter_conll, parse_conll
from .errors import (
    CorefEvalError,
    DocMismatch,
    DuplicateSpan,
    EmptySeries,
    ModelError,
    ParseError,
    RangeError,
    SchemaError,
    UnbalancedBracket,
)
from .jsonl import emit_jsonl, iter_jsonl, parse_jsonl
from .metrics import (
    ALL_METRICS,
    Alignment,
    BlancCounts,
    CONLL_METRICS,
    CeafVariant,
    MetricId,
    MetricReport,
    PRCounts,
    PathologyReport,
    b_cubed,
    blanc,
    ceaf,
    lea,
    metric_counts,
    muc,
    optimal_alignment,
    partition_tallies,
    remove_spurious,
)
from .model import (
    Chain,
    CorpusSource,
    Document,
    Mention,
    Partition,
    Role,
    ScoreTriple,
    SourceFormat,
)
from .reports import OutputFormat, emit_report
from .stats import (
    StatsReport,
    ZipfFit,
    stats_report,
    zipf_fit,
)
from .stratify import StratifiedReport, Stratum, StratumConfig

__version__ = "0.1.0"

__all__ = [
    "ALL_METRICS",
    "Alignment",
    "Averaging",
    "BlancCounts",
    "CONLL_METRICS",
    "CeafVariant",
    "Chain",
    "CorefEvalError",
    "CorpusSource",
    "DocMismatch",
    "DocPair",
    "Document",
    "DuplicateSpan",
    "EmptySeries",
    "Mention",
    "MetricId",
    "MetricReport",
    "ModelError",
    "OutputFormat",
    "PRCounts",
    "ParseError",
    "Partition",
    "PathologyReport",
    "RangeError",
    "Role",
    "SchemaError",
    "ScoreTriple",
    "SourceFormat",
    "StatsReport",
    "StratifiedReport",
    "Stratum",
    "StratumConfig",
    "UnbalancedBracket",
    "ZipfFit",
    "b_cubed",
    "blanc",
    "ceaf",
    "corpus_stats_report",
    "emit_jsonl",
    "emit_report",
    "iter_conll",
    "iter_jsonl",
    "lea",
    "metric_counts",
    "muc",
    "optimal_alignment",
    "pair_corpora",
    "pair_documents",
    "parse_conll",
    "parse_jsonl",
    "partition_tallies",
    "pathology_corpus",
    "read_corpus",
    "remove_spurious",
    "score_corpus",
    "stats_report",
    "stratify_corpus",
    "zipf_fit",
]
