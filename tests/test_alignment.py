import math
import random
from itertools import permutations

from hypothesis import given

import helpers
from corefeval import CeafVariant, optimal_alignment


def phi3(k, r) -> float:
    """Reference CEAF mention similarity: size of the span intersection."""
    return float(len(k.mention_set & r.mention_set))


def phi4(k, r) -> float:
    """Reference CEAF entity similarity: 2|K∩R| / (|K|+|R|)."""
    return 2.0 * len(k.mention_set & r.mention_set) / (len(k) + len(r))


VARIANTS = ((CeafVariant.MENTION, phi3), (CeafVariant.ENTITY, phi4))


def brute_force_total(key, resp, phi) -> float:
    """Exhaustive maximum over all one-to-one chain matchings."""
    kc, rc = key.chains, resp.chains
    if not kc or not rc:
        return 0.0
    if len(kc) <= len(rc):
        totals = (
            math.fsum(phi(k, rc[j]) for k, j in zip(kc, perm))
            for perm in permutations(range(len(rc)), len(kc))
        )
    else:
        totals = (
            math.fsum(phi(kc[i], r) for i, r in zip(perm, rc))
            for perm in permutations(range(len(kc)), len(rc))
        )
    return max(totals)


def test_empty_side_yields_empty_alignment():
    key, resp = helpers.build_pair({"k": frozenset({1})}, {})
    alignment = optimal_alignment(key, resp, CeafVariant.MENTION)
    assert alignment.pairs == ()
    assert alignment.total_similarity == 0.0


def test_single_pair():
    key, resp = helpers.build_pair({"k": frozenset({1, 2})}, {"r": frozenset({1, 2})})
    alignment = optimal_alignment(key, resp, CeafVariant.MENTION)
    assert alignment.pairs == (("k", "r"),)
    assert alignment.total_similarity == 2.0


def test_zero_similarity_pairs_are_retained():
    key, resp = helpers.build_pair({"k": frozenset({1})}, {"r": frozenset({2})})
    alignment = optimal_alignment(key, resp, CeafVariant.MENTION)
    assert len(alignment.pairs) == 1
    assert alignment.total_similarity == 0.0


def test_rectangular_alignments_pair_the_smaller_side():
    key, resp = helpers.build_pair(
        {"k1": frozenset({1, 2}), "k2": frozenset({3}), "k3": frozenset({4})},
        {"r1": frozenset({1, 2}), "r2": frozenset({3})},
    )
    forward = optimal_alignment(key, resp, CeafVariant.MENTION)
    assert len(forward.pairs) == 2
    assert ("k1", "r1") in forward.pairs
    assert ("k2", "r2") in forward.pairs
    backward = optimal_alignment(resp, key, CeafVariant.MENTION)
    assert len(backward.pairs) == 2


def test_alignment_is_one_to_one():
    rng = random.Random(11)
    for _ in range(50):
        key, resp = helpers.build_pair(*helpers.random_labels(rng))
        for variant, _ in VARIANTS:
            alignment = optimal_alignment(key, resp, variant)
            lefts = [a for a, _ in alignment.pairs]
            rights = [b for _, b in alignment.pairs]
            assert len(set(lefts)) == len(lefts)
            assert len(set(rights)) == len(rights)
            assert len(alignment.pairs) == min(len(key.chains), len(resp.chains))


def test_total_equals_sum_over_returned_pairs():
    rng = random.Random(12)
    for _ in range(50):
        key, resp = helpers.build_pair(*helpers.random_labels(rng))
        key_by_id = {c.chain_id: c for c in key.chains}
        resp_by_id = {c.chain_id: c for c in resp.chains}
        for variant, phi in VARIANTS:
            alignment = optimal_alignment(key, resp, variant)
            recomputed = math.fsum(
                phi(key_by_id[a], resp_by_id[b]) for a, b in alignment.pairs
            )
            assert alignment.total_similarity == recomputed


def test_deterministic_across_calls():
    key, resp = helpers.build_pair(
        {"k1": frozenset({1}), "k2": frozenset({2})},
        {"r1": frozenset({3}), "r2": frozenset({4})},
    )
    first = optimal_alignment(key, resp, CeafVariant.MENTION)
    second = optimal_alignment(key, resp, CeafVariant.MENTION)
    assert first == second


@given(helpers.label_instances(max_mentions=8, max_chains=4))
def test_matches_brute_force_maximum(instance):
    key, resp = helpers.build_pair(*instance)
    for variant, phi in VARIANTS:
        got = optimal_alignment(key, resp, variant).total_similarity
        want = brute_force_total(key, resp, phi)
        assert got == want or abs(got - want) <= 1e-12
