"""Acceptance gate: one test per numbered criterion of the release checklist.

Each test prints an ``ACCEPTANCE n: PASS/FAIL`` verdict through the report
hook in conftest.py.  Criteria with a stated runtime budget assert it with a
wall-clock check.  Criterion 4 ends with an assertion that is expected to
fail; see its docstring for the argument.  Randomized criteria use seeded
generators so every run exercises the same instances.
"""

import io
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import helpers
import oracles
from corefeval import (
    CeafVariant,
    Chain,
    DocPair,
    Document,
    Mention,
    MetricId,
    Partition,
    Role,
    SourceFormat,
    Stratum,
    StratumConfig,
    ceaf,
    emit_jsonl,
    muc,
    pair_documents,
    parse_jsonl,
    pathology_corpus,
    read_corpus,
    remove_spurious,
    score_corpus,
    stratify_corpus,
    zipf_fit,
)
from corefeval.cli import main

DERIVED_KEY = {"k1": frozenset({1, 2, 3}), "k2": frozenset({4, 5})}
DERIVED_RESP = {"r1": frozenset({1, 2}), "r2": frozenset({3, 4, 5})}

DERIVED_F1 = {
    MetricId.MUC: Fraction(2, 3),
    MetricId.B3: Fraction(11, 15),
    MetricId.CEAF_M: Fraction(4, 5),
    MetricId.CEAF_E: Fraction(4, 5),
    MetricId.BLANC: Fraction(7, 12),
    MetricId.LEA: Fraction(3, 5),
}
DERIVED_AVG = Fraction(11, 15)


def check_derived_instance():
    key, resp = helpers.build_pair(DERIVED_KEY, DERIVED_RESP)
    report = score_corpus([DocPair(key, resp)])
    for metric, expected in DERIVED_F1.items():
        assert abs(report.scores[metric].f1 - float(expected)) <= 1e-9
        recomputed = oracles.ORACLES[metric.value](DERIVED_KEY, DERIVED_RESP)
        assert recomputed[2] == expected
    assert report.conll_average is not None
    assert abs(report.conll_average - float(DERIVED_AVG)) <= 1e-9


def test_criterion_1_derived_instance_oracle_suite():
    """Key {m1,m2,m3},{m4,m5} vs response {m1,m2},{m3,m4,m5}: every metric
    F1 and the CoNLL average match the exact hand-oracle fractions within
    1e-9, with the fractions recomputed at test time from the independent
    formula-level oracles."""
    start = time.perf_counter()
    check_derived_instance()
    assert time.perf_counter() - start < 1.0


def test_criterion_2_two_decimal_anchor_instance():
    """A second fixed instance whose MUC and entity-CEAF F1 land on the
    frozen two-decimal anchors 0.40 and 0.52, checked at the two-decimal
    tolerance (+-0.005), alongside a re-run of the criterion-1 suite.

    The fuller anchor set this instance approximates is not exactly
    recoverable, so these two anchors plus criterion 1 stand in for it;
    the exact fractions here are 2/5 and 13/25 (see also the frozen
    reconstruction in tests/test_metrics.py).
    """
    anchor_key = {"k1": frozenset("abc"), "k2": frozenset("defg")}
    anchor_resp = {
        "r1": frozenset("ab"),
        "r2": frozenset("cd"),
        "r3": frozenset("fghi"),
    }
    key, resp = helpers.build_pair(anchor_key, anchor_resp)
    report = score_corpus([DocPair(key, resp)])
    assert abs(report.scores[MetricId.MUC].f1 - 0.40) <= 0.005
    assert abs(report.scores[MetricId.CEAF_E].f1 - 0.52) <= 0.005
    check_derived_instance()


def test_criterion_3_corpus_ratio_display(tmp_path, capsys):
    """A synthetic one-document corpus with 11,888 mentions in 143
    non-singleton chains plus 56 singletons, run through the real stats
    CLI, prints mentions-per-chain ratios 59 (singletons included,
    truncated) and 83 (singletons excluded, rounded)."""
    start = time.perf_counter()
    sizes = [83] * 106 + [82] * 37 + [1] * 56
    docs = [
        (Document(doc.doc_id, 77232), part)
        for doc, part in helpers.sized_corpus({"novel": sizes})
    ]
    path = tmp_path / "novel.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        emit_jsonl(docs, stream)

    assert main(["stats", "--key", str(path)]) == 0
    out = capsys.readouterr().out
    for row in (
        r"^num_tokens\s+77232$",
        r"^num_mentions\s+11888$",
        r"^num_chains\s+143$",
        r"^num_singletons\s+56$",
        r"^mentions_per_chain_incl\s+59$",
        r"^mentions_per_chain_excl\s+83$",
    ):
        assert re.search(row, out, re.MULTILINE), row
    assert time.perf_counter() - start < 5.0


def test_criterion_4_spurious_mention_recall(fixtures_dir):
    """MUC recall is bit-identical before and after spurious-mention
    removal on 1,000 seeded random pairs (at most 30 response mentions),
    and the shipped fixture corpus moves recall for entity-CEAF and BLANC.

    The closing assertion demands a nonzero B-cubed recall delta on the
    fixture and is EXPECTED TO FAIL: B-cubed recall is invariant under
    remove_spurious, because each key mention's recall term
    |K(m) & R(m)| / |K(m)| sees only response mentions that are also key
    mentions, and deleting non-key mentions never regroups those (the
    same argument covers MUC and mention-CEAF; see the recall-invariance
    properties in tests/test_metrics.py, which verify it across random
    instances).  The assertion is kept verbatim rather than weakened so
    the checklist line stays an honest record of the disagreement.
    """
    start = time.perf_counter()
    rng = random.Random(20260823)
    for _ in range(1000):
        key_labels, resp_labels = helpers.random_labels(
            rng, max_mentions=26, max_chains=6, max_spurious=4
        )
        key, resp = helpers.build_pair(key_labels, resp_labels)
        assert len(resp.mention_set) <= 30
        cleaned = remove_spurious(resp, key)
        assert muc(key, resp).recall == muc(key, cleaned).recall
    assert time.perf_counter() - start < 10.0

    key_docs = read_corpus(
        fixtures_dir / "pathology_key.jsonl", SourceFormat.JSONL, Role.KEY
    )
    resp_docs = read_corpus(
        fixtures_dir / "pathology_response.jsonl", SourceFormat.JSONL, Role.RESPONSE
    )
    report = pathology_corpus(pair_documents(key_docs, resp_docs))
    assert report.removed_mentions > 0
    assert report.recall_deltas[MetricId.MUC] == 0.0
    assert report.recall_deltas[MetricId.CEAF_E] != 0.0
    assert report.recall_deltas[MetricId.BLANC] != 0.0
    assert report.recall_deltas[MetricId.B3] != 0.0, (
        "unattainable by design: B-cubed recall is invariant under "
        "spurious-mention removal on every input"
    )


def test_criterion_5_metric_property_sweep():
    """200 seeded random pairs with at most six chains per side: all
    scores lie in [0, 1]; swapping key and response swaps precision and
    recall exactly; scoring a partition against itself yields F1 = 1
    wherever the metric has any links or mentions to agree on; both CEAF
    alignments match a brute-force permutation search within 1e-12."""
    start = time.perf_counter()
    rng = random.Random(5)
    for _ in range(200):
        key_labels, resp_labels = helpers.random_labels(
            rng, max_mentions=14, max_chains=6, max_spurious=3
        )
        key, resp = helpers.build_pair(key_labels, resp_labels)
        assert len(key.chains) <= 6 and len(resp.chains) <= 6

        forward = score_corpus([DocPair(key, resp)])
        for triple in forward.scores.values():
            for value in (triple.recall, triple.precision, triple.f1):
                assert 0.0 <= value <= 1.0

        backward = score_corpus([DocPair(resp, key)])
        for metric, fwd in forward.scores.items():
            bwd = backward.scores[metric]
            assert fwd.precision == bwd.recall
            assert fwd.recall == bwd.precision

        identity = score_corpus(
            [DocPair(key, Partition(key.doc_id, key.chains, Role.RESPONSE))]
        )
        mentions = len(key.mention_set)
        has_link = any(len(c.mentions) > 1 for c in key.chains)
        for metric, triple in identity.scores.items():
            if metric is MetricId.MUC:
                assert triple.f1 == (1.0 if has_link else 0.0)
            elif metric is MetricId.BLANC:
                assert triple.f1 == (1.0 if mentions >= 2 else 0.0)
            else:
                assert triple.f1 == (1.0 if mentions >= 1 else 0.0)

        for variant in CeafVariant:
            got = ceaf(key, resp, variant)
            want = oracles.ceaf(key_labels, resp_labels, variant.value)
            for got_value, want_value in zip(
                (got.recall, got.precision, got.f1), want
            ):
                assert abs(got_value - float(want_value)) <= 1e-12
    assert time.perf_counter() - start < 30.0


def test_criterion_6_stratification_properties():
    """Seeded random chain profiles and configs: strata partition the key
    chains with mention counts summing exactly; raising the size threshold
    only ever shrinks the major stratum; an identity response scores F1 = 1
    on every stratum where the metric is defined (MUC is 0 on all-singleton
    strata, where no links exist) with zero leakage."""
    start = time.perf_counter()
    rng = random.Random(6)
    for _ in range(60):
        chains = []
        token = 0
        for i in range(rng.randrange(1, 13)):
            size = rng.randrange(1, 21)
            mentions = [
                Mention("d", token + j, token + j, is_named=rng.random() < 0.5)
                for j in range(size)
            ]
            chains.append(Chain(f"c{i}", mentions))
            token += size
        key = Partition("d", chains, Role.KEY)
        config = StratumConfig(rng.randrange(2, 16), rng.random() < 0.5)

        strata = helpers.chains_by_stratum(key, config)
        assigned = sorted(c.chain_id for group in strata.values() for c in group)
        assert assigned == sorted(c.chain_id for c in key.chains)
        total = sum(
            len(c.mentions) for group in strata.values() for c in group
        )
        assert total == len(key.mention_set)

        wider = StratumConfig(
            config.long_threshold + rng.randrange(1, 5), config.require_named
        )
        major_now = {c.chain_id for c in strata[Stratum.MAJOR]}
        wider_strata = helpers.chains_by_stratum(key, wider)
        major_wider = {c.chain_id for c in wider_strata[Stratum.MAJOR]}
        assert major_wider <= major_now

        response = Partition("d", chains, Role.RESPONSE)
        report = stratify_corpus([DocPair(key, response)], config)
        # the strata above are drawn under ``config``, so it must apply as given
        assert report.config == config
        assert report.leakage == 0
        for stratum, group in strata.items():
            if not group:
                assert stratum not in report.per_stratum
                continue
            scores = report.per_stratum[stratum].scores
            here = sum(len(c.mentions) for c in group)
            has_link = any(len(c.mentions) > 1 for c in group)
            for metric, triple in scores.items():
                if metric is MetricId.MUC:
                    assert triple.f1 == (1.0 if has_link else 0.0)
                elif metric is MetricId.BLANC:
                    assert triple.f1 == (1.0 if here >= 2 else 0.0)
                else:
                    assert triple.f1 == (1.0 if here >= 1 else 0.0)
    assert time.perf_counter() - start < 10.0


def test_criterion_7_rank_size_diagnostics():
    """An exact power law recovers its exponent within 1e-6 before
    rounding; the rounded rank-1..50 harmonic fixture fits with r-squared
    at least 0.99; the plateau-shaped profile (two large near-equal size
    tiers plus a singleton tail) scores strictly lower."""
    start = time.perf_counter()
    exact = [(float(rank), 250.0 * rank**-1.2) for rank in range(1, 51)]
    assert abs(zipf_fit(exact).slope - (-1.2)) <= 1e-6

    rounded = [(rank, round(1000 / rank)) for rank in range(1, 51)]
    fit_rounded = zipf_fit(rounded)
    assert fit_rounded.r_squared is not None
    assert fit_rounded.r_squared >= 0.99

    plateau_sizes = sorted([83] * 106 + [82] * 37 + [1] * 56, reverse=True)
    fit_plateau = zipf_fit(list(enumerate(plateau_sizes, start=1)))
    assert fit_plateau.r_squared is not None
    assert fit_plateau.r_squared < 0.99
    assert fit_plateau.r_squared < fit_rounded.r_squared
    assert time.perf_counter() - start < 1.0


def run_cli_process(args, hashseed):
    import os

    # The child sees the same import path as this process, so the suite
    # also runs from a checkout that is not installed.
    path = os.pathsep.join(sys.path)
    env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "corefeval.cli", *args],
        capture_output=True,
        env=env,
    )


def test_criterion_8_round_trip_and_determinism(fixtures_dir):
    """Every shipped jsonl fixture is a parse-then-emit fixed point, and
    repeated CLI runs are byte-identical across differing hash seeds."""
    for name, role in (
        ("derived_key", Role.KEY),
        ("derived_response", Role.RESPONSE),
        ("pathology_key", Role.KEY),
        ("pathology_response", Role.RESPONSE),
    ):
        text = (fixtures_dir / f"{name}.jsonl").read_text(encoding="utf-8")
        source = parse_jsonl(text.splitlines(), role)
        buffer = io.StringIO()
        emit_jsonl(source, buffer)
        assert buffer.getvalue() == text

    score_args = [
        "score",
        "--key",
        str(fixtures_dir / "pathology_key.jsonl"),
        "--response",
        str(fixtures_dir / "pathology_response.jsonl"),
        "--output",
        "json",
    ]
    runs = [run_cli_process(score_args, seed) for seed in ("0", "1", "2")]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout

    stats_args = ["stats", "--key", str(fixtures_dir / "pathology_key.jsonl")]
    first = run_cli_process(stats_args, "0")
    second = run_cli_process(stats_args, "1")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
