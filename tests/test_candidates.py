"""The columnar candidate table: its order, its growth and its subtables.

The references are the tuple-key sort and the scan growth the table
replaced: sort every row (``conftest.candidate_rows``) by
(−w, cluster, base, vertex) or (ω, cluster, base, vertex), then accept,
step by step, the first candidate in that order the tree admits.
"""

import math
import tracemalloc
from contextlib import nullcontext
from itertools import combinations

import numpy as np
import pytest

from conftest import candidate_rows, random_table, random_tree
from tcherry import (
    CandidateTable,
    ConsistencyError,
    JointTable,
    MarginalCache,
    add_hypercherry,
    enumerate_candidates,
    find_parent_cluster,
    fit_exhaustive,
    fit_malvestuto,
    fit_sk,
    generate_tcherry_distribution,
    make_scheme,
    new_parent,
)
from tcherry.distribution import _check_mass
from tcherry.learner import _lex_ranks


def sk_key(c):
    return (-c.w, c.cluster, c.base, c.new_vertex)


def malvestuto_key(c):
    return (c.omega, c.cluster, c.base, c.new_vertex)


def scan_grow(d, tree, order):
    """Reference growth: rescan ``order`` from the top at every step."""
    steps = []
    while len(tree.vertices) < d:
        cand = next(c for c in order if tree.admits(c.new_vertex, c.base))
        tree = add_hypercherry(tree, cand.new_vertex, cand.base)
        steps.append((cand.cluster, cand.base))
    return tree, steps


def _random_tables():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        d = int(rng.integers(3, 8))
        yield random_table(rng, rng.integers(2, 5, size=d),
                           zero_fraction=float(rng.choice([0.0, 0.3])))


def _tie_tables():
    """Tables whose candidate weights tie exactly."""
    uniform, _ = generate_tcherry_distribution(9, 6, 3, (2, 3, 2, 2, 3, 2), 0.0)
    rng = np.random.default_rng(5)
    factors = [rng.dirichlet(np.ones(c)) for c in (2, 3, 2, 2)]
    product = JointTable(make_scheme([2, 3, 2, 2]),
                         np.einsum("a,b,c,d->abcd", *factors))
    order3, _ = generate_tcherry_distribution(4, 7, 3, 2, 1.5)
    return [(uniform, range(2, 7)), (product, range(2, 5)), (order3, [4])]


CASES = [pytest.param(t, range(2, t.d + 1), id=f"random-{i}")
         for i, t in enumerate(_random_tables())]
TIES = [pytest.param(t, ks, id=name)
        for (t, ks), name in zip(_tie_tables(), ["uniform", "product", "order3-at-k4"])]


@pytest.mark.parametrize("table, orders", CASES + TIES)
def test_lexsort_order_equals_tuple_key_sort(table, orders):
    cache = MarginalCache(table)
    rng = np.random.default_rng(table.d)
    for k in orders:
        cands = enumerate_candidates(table, k, cache)
        plain = candidate_rows(cands)
        assert candidate_rows(cands.by_w()) == sorted(plain, key=sk_key)
        assert candidate_rows(cands.by_omega()) == sorted(plain, key=malvestuto_key)
        assert find_parent_cluster(table, k, cache) == min(plain, key=sk_key).cluster
        # A shuffled table, and a shuffled half of it, order as their rows
        # sort, whatever order they hold them in.
        n = len(cands)
        for rows in (rng.permutation(n), rng.permutation(n)[:max(1, n // 2)]):
            taken = cands.take(rows)
            plain = candidate_rows(taken)
            assert candidate_rows(taken.by_w()) == sorted(plain, key=sk_key)
            assert candidate_rows(taken.by_omega()) == sorted(plain, key=malvestuto_key)


@pytest.mark.parametrize("table, orders", TIES)
def test_tie_tables_have_exact_ties(table, orders):
    for k in orders:
        w = enumerate_candidates(table, k).w
        assert len(set(w.tolist())) < len(w)


@pytest.mark.parametrize("table, orders", CASES + TIES)
def test_heap_growth_equals_scan_growth(table, orders):
    cache = MarginalCache(table)
    for k in orders:
        plain = candidate_rows(enumerate_candidates(table, k, cache))
        for fit, key in ((fit_sk, sk_key), (fit_malvestuto, malvestuto_key)):
            fr = fit(table, k, cache)
            tree, steps = scan_grow(table.d, new_parent(k, fr.tree.parent),
                                    sorted(plain, key=key))
            assert fr.tree == tree
            assert [(s.cluster, s.separator) for s in fr.trace[1:]] == steps
            assert candidate_rows(fr.candidate_table) == sorted(plain, key=key)
        assert fit_sk(table, k, cache).tree.parent == min(plain, key=sk_key).cluster


def test_exhaustive_table_is_the_sk_order():
    t = random_table(np.random.default_rng(17), (2, 3, 2, 2, 3))
    cache = MarginalCache(t)
    fr = fit_exhaustive(t, 3, cache=cache)
    assert candidate_rows(fr.candidate_table) == sorted(
        candidate_rows(enumerate_candidates(t, 3, cache)), key=sk_key)


def scan_masks(table, parent):
    """Reference masks of ``table.growth(parent)``: at each step the rows
    ``tree.admits``, accepting the first, until the tree covers every
    variable or no row is admitted."""
    cands = candidate_rows(table)
    tree, masks = new_parent(len(parent), parent), []
    while len(tree.vertices) < table.d:
        masks.append([tree.admits(c.new_vertex, c.base) for c in cands])
        if not any(masks[-1]):
            break
        c = cands[masks[-1].index(True)]
        tree = add_hypercherry(tree, c.new_vertex, c.base)
    return masks


def test_growth_masks_match_a_scan():
    rng = np.random.default_rng(29)
    t = random_table(rng, (2, 3, 2, 2, 3, 2, 2))
    stuck = 0
    for k in (2, 3, 4, 7):
        full = fit_malvestuto(t, k).candidate_table
        cands = candidate_rows(full)
        assert full.bases().tolist() == [list(c.base) for c in cands]
        assert full.new_vertices().tolist() == [c.new_vertex for c in cands]
        n = len(full)
        # Shuffled orders, and tables thinned to a half and a quarter of
        # their rows, where growth may find no admissible row.
        for rows in (rng.permutation(n), rng.permutation(n),
                     np.sort(rng.permutation(n)[:n // 2]), rng.permutation(n)[:n // 4]):
            table = full.take(rows)
            for _ in range(3):
                parent = random_tree(rng, 7, k).parent
                want = scan_masks(table, parent)
                ends_stuck = bool(want) and not any(want[-1])
                stuck += ends_stuck
                got = []
                with pytest.raises(ConsistencyError) if ends_stuck else nullcontext():
                    for row, admitted in table.growth(parent):
                        assert row == np.flatnonzero(admitted)[0]
                        got.append(admitted.tolist())
                assert got == want[:len(want) - ends_stuck]
    assert stuck


def test_table_memory_is_row_ids_over_per_rank_arrays():
    # d=40, k=4: 91,390 clusters, 365,560 rows. The table holds an 8-byte
    # id a row and about 12 bytes a row of per-rank arrays (k 8-byte base
    # ranks, k 1-byte members and I and H per cluster); ordering and
    # growing it gather a few 8-byte columns at once. Storing each row's
    # cluster, base, position, w and ω would take 40 bytes a row before
    # any sort or copy of them.
    d, k = 40, 4
    rng = np.random.default_rng(40)
    tracemalloc.start()
    try:
        members = np.array(list(combinations(range(1, d + 1), k)), dtype=np.uint8)
        base_ranks = np.stack([_lex_ranks(np.delete(members, j, axis=1), d)
                               for j in reversed(range(k))], axis=1)
        clusters, bases = len(members), math.comb(d, k - 1)
        table = CandidateTable(d, members, base_ranks, rng.random(clusters),
                               rng.random(clusters) * 4, rng.random(bases), rng.random(bases) * 4)
        order = table.by_w()
        parent = tuple(order.members[order.cluster_rank[0]].tolist())
        rows = [row for row, _ in order.growth(parent)]
        w = order.take(rows).w
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 365_560 and len(w) == d - k
    assert peak <= 64 * len(table)


def test_lex_ranks_follow_combinations():
    for d, m in ((1, 1), (5, 1), (6, 3), (7, 6), (9, 4)):
        subsets = np.array(list(combinations(range(1, d + 1), m)))
        assert _lex_ranks(subsets, d).tolist() == list(range(len(subsets)))


def test_tree_covers_exactly_its_vertices():
    rng = np.random.default_rng(37)
    for d, k in ((6, 2), (8, 3), (9, 5)):
        tree = random_tree(rng, d, k)
        assert [v for v in range(-1, d + 3) if tree.covers(v)] == list(range(1, d + 1))


def test_derived_tables_check_mass_once_and_name_the_first_bad_subset():
    good, bad = np.array([0.25, 0.75]), np.array([0.5, 0.5 - 1e-9])
    _check_mass([(1,), (2,)], np.stack([good, good]), 4)
    with pytest.raises(ConsistencyError, match=r"over \(3,\) entries sum to"):
        _check_mass([(1,), (3,), (2,)], np.stack([good, bad, bad]), 4)
    with pytest.raises(ConsistencyError, match=r"over \(2,\) entries sum to nan"):
        _check_mass([(2,)], np.array([[np.nan, 1.0]]), 4)
    # The tolerance grows with the cells summed.
    _check_mass([(1,)], bad[np.newaxis], 2**24)
    # What the cache stacks is frozen.
    cache = MarginalCache(random_table(np.random.default_rng(19), (2, 3, 2)))
    cache.prefetch(2)
    cache.fill([(1,)])
    for key, shape in (((1, 2), (2, 3)), ((2, 3), (3, 2)), ((1,), (2,))):
        assert cache.marginal(key).shape == shape
        stack, _ = cache._marginals[key]
        assert not stack.flags.writeable
