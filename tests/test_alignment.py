import math
import random
from itertools import permutations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import helpers
import reference
from corefeval import CeafVariant, optimal_alignment
from corefeval.metrics import Overlap, _align


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


def scipy_total(key, resp, variant) -> float:
    """The optimum of scipy's assignment solver on the dense similarity block."""
    if not key.chains or not resp.chains:
        return 0.0
    column = {m: j for j, chain in enumerate(resp.chains) for m in chain.mentions}
    shared = np.zeros((len(key.chains), len(resp.chains)))
    for i, chain in enumerate(key.chains):
        for m in chain.mentions:
            if m in column:
                shared[i, column[m]] += 1
    if variant is CeafVariant.MENTION:
        block = shared
    else:
        sizes = np.add.outer(
            [len(c) for c in key.chains], [len(c) for c in resp.chains]
        )
        block = 2.0 * shared / sizes
    rows, cols = linear_sum_assignment(block, maximize=True)
    return math.fsum(block[rows, cols].tolist())


def assert_matches_scipy(key, resp):
    for variant in CeafVariant:
        got = optimal_alignment(key, resp, variant).total_similarity
        want = scipy_total(key, resp, variant)
        if variant is CeafVariant.MENTION:
            assert got == want
        else:
            assert abs(got - want) <= 1e-12


@st.composite
def sparse_components(draw, max_chains: int = 25):
    """Key and response chains over few mentions, so most cells are zero."""
    n_key = draw(st.integers(1, max_chains))
    n_resp = n_key if draw(st.booleans()) else draw(st.integers(1, max_chains))
    n = draw(st.integers(0, 2 * max_chains))

    def side(chains):
        return st.lists(st.integers(-1, chains - 1), min_size=n, max_size=n)

    return (
        helpers._group(draw(side(n_key)), "k"),
        helpers._group(draw(side(n_resp)), "r"),
    )


@given(sparse_components())
def test_matches_scipy_on_sparse_components(instance):
    assert_matches_scipy(*helpers.build_pair(*instance))


def test_matches_scipy_on_uniformly_random_long_document():
    """12,000 mentions in 500 key chains, each sent to a random response chain."""
    rng = random.Random(4)
    key: dict[str, set] = {}
    resp: dict[str, set] = {}
    for m in range(12_000):
        key.setdefault(f"k{m % 500}", set()).add(m)
        resp.setdefault(f"r{rng.randrange(500)}", set()).add(m)
    assert len(key) == len(resp) == 500
    assert_matches_scipy(
        *helpers.build_pair(
            {c: frozenset(ms) for c, ms in key.items()},
            {c: frozenset(ms) for c, ms in resp.items()},
        )
    )


@given(helpers.row_projections())
def test_first_pop_shortcut_leaves_every_matching_unchanged(t):
    """A row matched at its first pop without a heap gets the pairs and the
    total the full search per row (``reference.align``) gives."""
    for variant in CeafVariant:
        pairs, total = _align(t, variant)
        want_pairs, want_total = reference.align(t, variant)
        assert set(pairs) == set(want_pairs)
        assert total == want_total


@st.composite
def tie_tables(draw, max_chains: int = 6):
    """Tables whose non-zero cells are all equal and whose key chains, and
    response chains, all have one size, so many matchings tie."""
    n_rows, n_cols = draw(st.integers(1, max_chains)), draw(st.integers(1, max_chains))
    value = draw(st.integers(1, 3))
    n_cells = n_rows * n_cols
    grid = draw(st.lists(st.booleans(), min_size=n_cells, max_size=n_cells))
    rows = tuple(
        {j: value for j in range(n_cols) if grid[i * n_cols + j]} for i in range(n_rows)
    )
    cols = [sum(row.get(j, 0) for row in rows) for j in range(n_cols)]
    key_size = max(max(sum(row.values()) for row in rows), 1) + draw(st.integers(0, 2))
    resp_size = max(max(cols), 1) + draw(st.integers(0, 2))
    return Overlap((key_size,) * n_rows, (resp_size,) * n_cols, rows)


def brute_force_table_total(t, variant) -> float:
    """Exhaustive maximum over all one-to-one matchings of the table's chains."""
    def weight(i, j):
        v = t.rows[i].get(j, 0)
        if variant is CeafVariant.MENTION:
            return float(v)
        return 2.0 * v / (t.key_sizes[i] + t.response_sizes[j])

    n_rows, n_cols = len(t.key_sizes), len(t.response_sizes)
    if n_rows <= n_cols:
        matchings = (list(enumerate(p)) for p in permutations(range(n_cols), n_rows))
    else:
        matchings = (
            [(i, j) for j, i in enumerate(p)]
            for p in permutations(range(n_rows), n_cols)
        )
    return max(math.fsum(weight(i, j) for i, j in m) for m in matchings)


@given(tie_tables())
def test_matches_brute_force_on_ties(t):
    for variant in CeafVariant:
        got = _align(t, variant)[1]
        want = brute_force_table_total(t, variant)
        if variant is CeafVariant.MENTION:
            assert got == want
        else:
            assert abs(got - want) <= 1e-12


def random_table(rng, max_chains: int = 8, max_value: int = 3):
    """A dense random table with tie-heavy cells, sized like ``overlap_tables``."""
    n_rows, n_cols = rng.randint(1, max_chains), rng.randint(1, max_chains)
    rows = [{} for _ in range(n_rows)]
    for _ in range(rng.randint(0, n_rows * n_cols)):
        rows[rng.randrange(n_rows)][rng.randrange(n_cols)] = rng.randint(1, max_value)
    col_sums = [0] * n_cols
    for row in rows:
        for j, v in row.items():
            col_sums[j] += v
    return Overlap(
        tuple(sum(row.values()) + rng.randint(0 if row else 1, 2) for row in rows),
        tuple(s + rng.randint(0 if s else 1, 2) for s in col_sums),
        tuple(rows),
    )


def test_first_pop_shortcut_on_seeded_dense_tables():
    """Many small dense tables.  A shortcut that matched a row but left its
    potential too high would mislead a later search on six of these."""
    rng = random.Random(9)
    for _ in range(2000):
        t = random_table(rng)
        for variant in CeafVariant:
            pairs, total = _align(t, variant)
            want_pairs, want_total = reference.align(t, variant)
            assert set(pairs) == set(want_pairs)
            assert total == want_total
