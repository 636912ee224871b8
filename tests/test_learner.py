"""Greedy learners, exhaustive oracle, structure enumeration, generator."""

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import tcherry.distribution
import tcherry.learner
from conftest import candidate_rows, random_table
from test_candidates import CASES, TIES
from tcherry import (
    CapacityError,
    ConsistencyError,
    DomainError,
    JointTable,
    MarginalCache,
    add_hypercherry,
    enumerate_candidates,
    find_parent_cluster,
    fit_chow_liu,
    fit_exhaustive,
    fit_malvestuto,
    fit_sk,
    generate_tcherry_distribution,
    iter_structures,
    kl_exact,
    make_scheme,
    new_parent,
)
from tcherry.cli import main
from tcherry.learner import EXHAUSTIVE_LIMIT, structure_count

SK4_KL = 0.013091417653743331
M4_KL = 0.022440270192606082
SK3_KL = 0.03554169919866901
M3_KL = 0.03750767394648147
EX3_KL = 0.034355645042951855
SK2_WEIGHT = 0.12767045508000296
BEST_W4 = 0.08368016907134557


# -- candidate enumeration --------------------------------------------------

def test_candidate_count_and_values(lizard, lizard_cache):
    cands = candidate_rows(enumerate_candidates(lizard, 2, lizard_cache))
    assert len(cands) == 20  # C(5,2) * 2 orientations
    assert len({round(c.w, 12) for c in cands}) == 10  # w ignores orientation at k=2
    for c in cands:
        assert c.w >= -1e-12
        assert c.omega >= -1e-12
        assert c.cluster == tuple(sorted(c.base + (c.new_vertex,)))


def test_candidates_are_scored_once_per_subset(monkeypatch):
    t = random_table(np.random.default_rng(71), (2, 3, 2, 2, 3, 2))
    cache = MarginalCache(t)
    first = candidate_rows(enumerate_candidates(t, 3, cache))
    calls = Counter()
    for name in ("canonical_subset", "entropy", "marginalize"):
        real = getattr(tcherry.distribution, name)
        monkeypatch.setattr(tcherry.distribution, name,
                            lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    # A second pass only reads memoized I and H by their exact tuples.
    assert candidate_rows(enumerate_candidates(t, 3, cache)) == first
    assert calls == Counter()
    assert cache.info([3, 1, 2]) == cache.info((3, 1, 2)) == cache.info((1, 2, 3))


def _order(fr):
    return [(c.cluster, c.base, c.new_vertex) for c in candidate_rows(fr.candidate_table)]


@pytest.mark.parametrize("fit", [fit_sk, fit_malvestuto])
@pytest.mark.parametrize("seed", range(4))
def test_prefetch_keeps_trees_and_candidate_order(fit, seed, monkeypatch):
    rng = np.random.default_rng(400 + seed)
    d = 5 + seed
    p = random_table(rng, rng.integers(2, 5, size=d))
    for k in range(2, d):
        fast = fit(p, k)
        with monkeypatch.context() as m:
            m.setattr(MarginalCache, "prefetch", lambda self, k: None)
            slow = fit(p, k)
        assert fast.tree.clusters == slow.tree.clusters
        assert fast.tree.nu == slow.tree.nu
        assert _order(fast) == _order(slow)
        for a, b in zip(candidate_rows(fast.candidate_table),
                        candidate_rows(slow.candidate_table)):
            assert a.w == pytest.approx(b.w, abs=1e-12)
            assert a.omega == pytest.approx(b.omega, abs=1e-12)
        assert fast.score.weight == pytest.approx(slow.score.weight, abs=1e-12)



def test_best_candidate_weight(lizard, lizard_cache):
    best = max(candidate_rows(enumerate_candidates(lizard, 4, lizard_cache)),
               key=lambda c: c.w)
    assert best.cluster == (1, 3, 4, 5)
    assert best.base == (1, 3, 5)
    assert best.w == pytest.approx(BEST_W4, abs=1e-12)


def test_find_parent_cluster_across_orders(lizard, lizard_cache):
    assert find_parent_cluster(lizard, 2, lizard_cache) == (3, 4)
    assert find_parent_cluster(lizard, 3, lizard_cache) == (3, 4, 5)
    assert find_parent_cluster(lizard, 4, lizard_cache) == (1, 3, 4, 5)
    assert find_parent_cluster(lizard, 5, lizard_cache) == (1, 2, 3, 4, 5)


def test_order_out_of_range_rejected(lizard):
    with pytest.raises(DomainError, match="2\\.\\."):
        fit_sk(lizard, 1)
    with pytest.raises(DomainError):
        fit_sk(lizard, 6)


# -- greedy fits on the lizard table ----------------------------------------

def test_sk_k4_structure_and_divergence(lizard, lizard_cache):
    fr = fit_sk(lizard, 4, lizard_cache)
    assert fr.tree.clusters == ((1, 3, 4, 5), (1, 2, 4, 5))
    assert fr.tree.separators == ((1, 4, 5),)
    assert fr.score.kl == pytest.approx(SK4_KL, abs=1e-12)
    steps = [(s.cluster, s.separator) for s in fr.trace]
    assert steps == [((1, 3, 4, 5), None), ((1, 2, 4, 5), (1, 4, 5))]


def test_malvestuto_k4_structure_and_divergence(lizard, lizard_cache):
    fr = fit_malvestuto(lizard, 4, lizard_cache)
    assert set(fr.tree.clusters) == {(1, 2, 3, 5), (1, 3, 4, 5)}
    assert fr.tree.parent == (1, 2, 3, 5)  # the entropy-minimal 4-set
    assert fr.tree.separators == ((1, 3, 5),)
    assert fr.score.kl == pytest.approx(M4_KL, abs=1e-12)


def test_sk_k3_structure_and_growth_order(lizard, lizard_cache):
    fr = fit_sk(lizard, 3, lizard_cache)
    assert set(fr.tree.clusters) == {(3, 4, 5), (1, 4, 5), (1, 2, 5)}
    assert sorted(fr.tree.separators) == [(1, 5), (4, 5)]
    assert fr.score.kl == pytest.approx(SK3_KL, abs=1e-12)
    steps = [(s.cluster, s.separator) for s in fr.trace]
    assert steps == [((3, 4, 5), None), ((1, 4, 5), (4, 5)), ((1, 2, 5), (1, 5))]


def test_malvestuto_k3_structure_and_growth_order(lizard, lizard_cache):
    fr = fit_malvestuto(lizard, 3, lizard_cache)
    assert fr.tree.parent == (1, 3, 5)
    assert set(fr.tree.clusters) == {(1, 3, 5), (1, 2, 5), (3, 4, 5)}
    assert sorted(fr.tree.separators) == [(1, 5), (3, 5)]
    assert fr.score.kl == pytest.approx(M3_KL, abs=1e-12)
    steps = [(s.cluster, s.separator) for s in fr.trace]
    assert steps == [((1, 3, 5), None), ((1, 2, 5), (1, 5)), ((3, 4, 5), (3, 5))]


def test_sk_never_loses_to_malvestuto_on_lizard(lizard, lizard_cache):
    for k in (2, 3, 4):
        sk = fit_sk(lizard, k, lizard_cache).score.kl
        mv = fit_malvestuto(lizard, k, lizard_cache).score.kl
        assert sk <= mv + 1e-12


def test_trace_replay_rebuilds_the_tree(lizard, lizard_cache):
    fits = [(fit, k) for fit in (fit_sk, fit_malvestuto, fit_exhaustive) for k in (2, 3, 4, 5)]
    # k = 5 is d = k on lizards: a tree of the parent alone, grown by no rows.
    for fit, k in fits + [(lambda p, k, cache: fit_chow_liu(p, cache), 2)]:
        fr = fit(lizard, k, cache=lizard_cache)
        assert fr.trace[0].cluster == fr.tree.parent and fr.trace[0].separator is None
        assert ([(s.cluster, s.separator) for s in fr.trace[1:]]
                == list(zip(fr.tree.clusters[1:], fr.tree.separators)))
        # The rows the tree grew by replay the trace, bit for bit.
        table, rows = fr.candidate_table, list(fr.rows)
        assert len(rows) == len(fr.trace) - 1 == lizard.d - k
        replayed = zip(table.new_vertices()[rows].tolist(), table.bases()[rows].tolist(),
                       table.w[rows].tolist(), table.omega[rows].tolist())
        assert [(v, tuple(b), w.hex(), o.hex()) for v, b, w, o in replayed] == [
            ((set(s.cluster) - set(s.separator)).pop(), s.separator, s.w.hex(), s.omega.hex())
            for s in fr.trace[1:]]
        # Those are the bits the cache's I and H give.
        cache = lizard_cache
        assert [(s.w.hex(), s.omega.hex()) for s in fr.trace[1:]] == [
            ((cache.info(s.cluster) - cache.info(s.separator)).hex(),
             (cache.h(s.cluster) - cache.h(s.separator)).hex()) for s in fr.trace[1:]]
        if fr.algorithm != "exhaustive":
            assert fr.rows == tuple(row for row, _ in table.growth(fr.tree.parent))


def test_trace_weights_sum_to_score(lizard, lizard_cache):
    for k in (2, 3, 4, 5):
        fr = fit_sk(lizard, k, lizard_cache)
        total = math.fsum(s.w for s in fr.trace)  # head step carries I(parent)
        assert total == pytest.approx(fr.score.weight, abs=1e-9)


def test_candidate_table_is_sorted(lizard, lizard_cache):
    sk = fit_sk(lizard, 3, lizard_cache)
    ws = [c.w for c in candidate_rows(sk.candidate_table)]
    assert ws == sorted(ws, reverse=True)
    mv = fit_malvestuto(lizard, 3, lizard_cache)
    os_ = [c.omega for c in candidate_rows(mv.candidate_table)]
    assert os_ == sorted(os_)


# -- spanning-tree equivalence ----------------------------------------------

class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_tree(p, cache):
    """Reference: Kruskal's maximum-MI spanning tree under the order
    (−I, edge), its edges then reordered so that each adds one new vertex
    (the first remaining edge that touches the tree goes next)."""
    ranked = sorted(combinations(p.variables, 2), key=lambda e: (-cache.info(e), e))
    uf = UnionFind(p.variables)
    chosen = [e for e in ranked if uf.union(*e)]
    tree, remaining = new_parent(2, chosen[0]), chosen[1:]
    while remaining:
        u, v = next(e for e in remaining if tree.covers(e[0]) != tree.covers(e[1]))
        tree = add_hypercherry(tree, *((v, (u,)) if tree.covers(u) else (u, (v,))))
        remaining.remove((u, v))
    return tree


def assert_chow_liu_is_kruskal(p):
    cache = MarginalCache(p)
    cl, sk = fit_chow_liu(p, cache), fit_sk(p, 2, cache)
    assert cl.tree == sk.tree == kruskal_tree(p, cache)
    assert cl.trace == sk.trace
    assert cl.score == sk.score
    assert (cl.algorithm, candidate_rows(cl.candidate_table)) == \
        ("chow_liu", candidate_rows(sk.candidate_table))


def test_chow_liu_equals_sk_at_order_two(lizard):
    assert_chow_liu_is_kruskal(lizard)
    assert fit_chow_liu(lizard).score.weight == pytest.approx(SK2_WEIGHT, abs=1e-12)


def test_chow_liu_equivalence_on_random_tables():
    # The random tables of test_candidates, then its tables with exact ties.
    for case in CASES + TIES:
        assert_chow_liu_is_kruskal(case.values[0])


def test_chow_liu_needs_two_variables(tmp_path, capsys):
    with pytest.raises(DomainError, match="^chow_liu needs at least two variables$"):
        fit_chow_liu(JointTable(make_scheme([2]), [0.3, 0.7]))
    (tmp_path / "one.csv").write_text("x1\n1\n2\n2\n")
    assert main(["fit", "--algorithm", "chow_liu", str(tmp_path / "one.csv")]) == 2
    assert capsys.readouterr().err == "error: chow_liu needs at least two variables\n"


# -- the shared accumulator check --------------------------------------------

def test_every_fit_checks_its_weight_accumulator(lizard, monkeypatch, capsys):
    real = tcherry.learner.tree_weight

    def shifted(*args):
        sb = real(*args)
        return sb._replace(weight=sb.weight + 1e-6)

    monkeypatch.setattr(tcherry.learner, "tree_weight", shifted)
    for fit in (lambda: fit_sk(lizard, 3), lambda: fit_malvestuto(lizard, 3),
                lambda: fit_chow_liu(lizard), lambda: fit_exhaustive(lizard, 3)):
        with pytest.raises(ConsistencyError, match="accumulator"):
            fit()
    assert main(["fit", "--k", "3", "lizards.csv"]) == 4
    assert capsys.readouterr().out == ""


# -- exhaustive oracle ------------------------------------------------------

def test_structure_counts_small_cases():
    assert sum(1 for _ in iter_structures(5, 4)) == 10
    assert sum(1 for _ in iter_structures(5, 3)) == 70
    assert sum(1 for _ in iter_structures(6, 3)) == 1215
    assert sum(1 for _ in iter_structures(3, 2)) == 3
    assert sum(1 for _ in iter_structures(4, 4)) == 1


def test_structures_are_unique_and_valid():
    seen = set()
    for clusters, seps, witness in iter_structures(5, 3):
        key = (clusters, seps)
        assert key not in seen
        seen.add(key)
        assert len(clusters) == 3
        parent, steps = witness
        assert len(steps) == 2


def test_exhaustive_k4_matches_greedy_on_lizard(lizard, lizard_cache):
    ex = fit_exhaustive(lizard, 4, cache=lizard_cache)
    sk = fit_sk(lizard, 4, lizard_cache)
    assert set(ex.tree.clusters) == set(sk.tree.clusters)
    assert ex.score.kl == pytest.approx(SK4_KL, abs=1e-12)


def test_exhaustive_k3_beats_both_greedies_on_lizard(lizard, lizard_cache):
    ex = fit_exhaustive(lizard, 3, cache=lizard_cache)
    assert set(ex.tree.clusters) == {(1, 2, 5), (2, 4, 5), (3, 4, 5)}
    assert ex.score.kl == pytest.approx(EX3_KL, abs=1e-12)
    assert ex.score.kl <= SK3_KL and ex.score.kl <= M3_KL


def test_exhaustive_refuses_large_vertex_counts():
    t = random_table(np.random.default_rng(79), (2,) * 8)
    with pytest.raises(CapacityError, match=r"d=8, k=3: 799708 structures"):
        fit_exhaustive(t, 3)
    fr = fit_exhaustive(t, 7)  # 28 structures
    assert len(fr.tree.clusters) == 2


def test_structure_count_is_what_iter_structures_yields():
    # The labeled (k-1)-trees; the limit is the largest count at d <= 7.
    counts = {(d, k): sum(1 for _ in iter_structures(d, k))
              for d in range(2, 8) for k in range(2, d + 1)}
    assert counts == {(d, k): structure_count(d, k) for d, k in counts}
    assert max(counts.values()) == counts[7, 3] == EXHAUSTIVE_LIMIT


@pytest.mark.parametrize("d, k", [(8, 5), (8, 7), (9, 8)])
def test_exhaustive_runs_past_d7_where_structures_are_few(d, k):
    t = random_table(np.random.default_rng(d * 10 + k), (2,) * d)
    cache = MarginalCache(t)
    ex, sk = fit_exhaustive(t, k, cache), fit_sk(t, k, cache)
    assert structure_count(d, k) <= EXHAUSTIVE_LIMIT
    # Separator terms are summed per link in the search and as (nu - 1)·I
    # in the score, so equal weights may differ in the last bits.
    assert ex.score.weight >= sk.score.weight - 1e-12


# -- generator --------------------------------------------------------------

def test_generated_distribution_factorizes_over_its_tree():
    for seed in (0, 1, 2):
        table, tree = generate_tcherry_distribution(seed, 6, 3, 2, 2.0)
        assert kl_exact(table, tree) == pytest.approx(0.0, abs=1e-10)
        assert len(tree.clusters) == 4


def test_generator_is_deterministic_per_seed():
    a1, t1 = generate_tcherry_distribution(11, 5, 3, (2, 3, 2, 2, 3), 1.5)
    a2, t2 = generate_tcherry_distribution(11, 5, 3, (2, 3, 2, 2, 3), 1.5)
    assert t1 == t2
    assert np.array_equal(a1.probs, a2.probs)
    b, tb = generate_tcherry_distribution(12, 5, 3, (2, 3, 2, 2, 3), 1.5)
    assert tb != t1 or not np.array_equal(b.probs, a1.probs)


def test_generator_strength_zero_gives_independence():
    table, tree = generate_tcherry_distribution(5, 5, 3, 2, 0.0)
    assert MarginalCache(table).info((1, 2, 3, 4, 5)) == pytest.approx(0.0, abs=1e-12)
    assert fit_sk(table, 3).score.weight == pytest.approx(0.0, abs=1e-12)


def test_generator_validates_schedule_lengths():
    with pytest.raises(DomainError, match="cardinalities"):
        generate_tcherry_distribution(0, 4, 2, (2, 2), 1.0)
    with pytest.raises(DomainError, match="strength"):
        generate_tcherry_distribution(0, 5, 3, 2, (1.0, 2.0))
    with pytest.raises(DomainError, match="2\\.\\."):
        generate_tcherry_distribution(0, 4, 5, 2, 1.0)


def test_generator_checks_the_cap_before_allocating():
    # 2^40 cells could not be allocated: the cap must refuse them first.
    with pytest.raises(CapacityError) as err:
        generate_tcherry_distribution(0, 40, 2, 2, 1.0)
    assert str(err.value).startswith(
        "product state space exceeds cap: >100000000 cells for cardinalities (2, 2, 2,")
    with pytest.raises(CapacityError, match=r"cap: >10 cells"):
        generate_tcherry_distribution(0, 4, 2, 2, 1.0, cap=10)


def test_generator_strength_schedule_accepted():
    table, tree = generate_tcherry_distribution(3, 5, 3, 2, (3.0, 1.5, 0.75))
    assert kl_exact(table, tree) == pytest.approx(0.0, abs=1e-10)


# -- greedy beats nothing it should not -------------------------------------

def test_exhaustive_dominates_greedy_on_random_tables():
    rng = np.random.default_rng(83)
    for _ in range(8):
        d = int(rng.integers(4, 7))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=d))
        t = random_table(rng, cards)
        cache = MarginalCache(t)
        ex = fit_exhaustive(t, 3, cache=cache).score.kl
        assert ex <= fit_sk(t, 3, cache).score.kl + 1e-10
        assert ex <= fit_malvestuto(t, 3, cache).score.kl + 1e-10
