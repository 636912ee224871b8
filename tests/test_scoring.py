"""Weight, divergence forms, tree distributions, recovery conditions."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import tcherry.distribution
import tcherry.scoring
from conftest import random_table, random_tree
from tcherry import (
    DomainError,
    JointTable,
    MarginalCache,
    PuzzleNumbering,
    check_recovery_conditions,
    entropy,
    fit_malvestuto,
    fit_sk,
    generate_tcherry_distribution,
    kl_entropy_form,
    kl_exact,
    make_scheme,
    marginalize,
    new_parent,
    add_hypercherry,
    puzzle_numbering,
    score_to_dict,
    tree_weight,
)
from test_distribution import cells_of, oracle_info


def pair_tree():
    t = new_parent(2, (1, 2))
    return add_hypercherry(t, 3, (2,))


# -- weight -----------------------------------------------------------------


def test_weight_matches_oracle_sums():
    rng = np.random.default_rng(53)
    for _ in range(10):
        t = random_table(rng, (2, 3, 2))
        tree = pair_tree()
        cells = cells_of(t)
        want = (oracle_info(cells, (1, 2)) + oracle_info(cells, (2, 3))
                - oracle_info(cells, (2,)))
        sb = tree_weight(t, tree)
        assert sb.weight == pytest.approx(want, abs=1e-10)
        assert sb.total_information == pytest.approx(
            oracle_info(cells, (1, 2, 3)), abs=1e-10
        )
        assert sb.kl == pytest.approx(sb.total_information - sb.weight, abs=1e-15)


def test_weight_zero_for_independent_variables():
    a, b, c = np.array([0.3, 0.7]), np.array([0.5, 0.5]), np.array([0.2, 0.8])
    probs = np.einsum("i,j,k->ijk", a, b, c)
    t = JointTable(make_scheme([2, 2, 2]), probs)
    sb = tree_weight(t, pair_tree())
    assert sb.weight == pytest.approx(0.0, abs=1e-12)
    assert sb.kl == pytest.approx(0.0, abs=1e-12)


def test_score_breakdown_itemizes_lizard_fit(lizard, lizard_cache):
    sb = fit_sk(lizard, 4, lizard_cache).score
    assert dict(sb.per_cluster)[(1, 3, 4, 5)] == pytest.approx(0.129381, abs=1e-5)
    assert dict(sb.per_cluster)[(1, 2, 4, 5)] == pytest.approx(0.100251, abs=1e-5)
    ((sep, nu, info),) = sb.per_separator
    assert (sep, nu) == ((1, 4, 5), 2)
    assert info == pytest.approx(0.047533, abs=1e-5)


def test_cache_must_belong_to_the_scored_table(lizard, lizard_cache):
    other = random_table(np.random.default_rng(59), (2, 2, 2, 3, 2))
    with pytest.raises(DomainError, match="different table"):
        tree_weight(other, pair_tree(), lizard_cache)


def test_every_route_rejects_a_tree_that_leaves_variables_uncovered(lizard, lizard_cache):
    # Scored anyway, weight and entropy routes disagree: 0.16936 against −2.07760.
    tree = pair_tree()
    routes = (tree_weight, kl_entropy_form, kl_exact,
              lambda p, t, c: check_recovery_conditions(p, t, puzzle_numbering(t, t.parent), c))
    for route in routes:
        with pytest.raises(DomainError, match=r"leaves variables \[4, 5\] of the table"):
            route(lizard, tree, lizard_cache)


# -- divergence forms -------------------------------------------------------


def test_three_divergence_paths_agree_on_random_pairs():
    rng = np.random.default_rng(61)
    for trial in range(60):
        d = int(rng.integers(3, 7))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=d))
        zero = 0.3 if trial % 3 == 0 else 0.0
        t = random_table(rng, cards, zero_fraction=zero)
        tree = random_tree(rng, d, int(rng.integers(2, min(d, 4) + 1)))
        sb = tree_weight(t, tree)
        via_weight = sb.kl
        via_entropy = kl_entropy_form(t, tree)
        via_cells = kl_exact(t, tree)
        assert via_weight == pytest.approx(via_entropy, abs=1e-9)
        assert via_weight == pytest.approx(via_cells, abs=1e-9)
        assert via_cells >= -1e-12


def test_divergence_identity_on_lizard_fits(lizard, lizard_cache):
    i_total = oracle_info(cells_of(lizard), (1, 2, 3, 4, 5))
    for k in (2, 3, 4):
        for fit in (fit_sk, fit_malvestuto):
            sb = fit(lizard, k, lizard_cache).score
            assert sb.kl == pytest.approx(i_total - sb.weight, abs=1e-12)
            assert sb.kl == pytest.approx(kl_exact(lizard, fit(lizard, k, lizard_cache).tree, lizard_cache), abs=1e-9)


# -- tree distribution ------------------------------------------------------


def pointwise_tree_pd(tree, state, cache):
    """q(x) as a product of cluster marginals over separator marginals, each
    read at one full state; 0 where a separator marginal vanishes."""
    num = math.prod(cache.point(c, state) for c in tree.clusters)
    den = math.prod(cache.point(s, state) ** (n - 1) for s, n in tree.nu.items())
    return num / den if den > 0.0 else 0.0


def oracle_tree_pd(p, tree, cache):
    """The tree distribution at every cell of ``p``, by ``pointwise_tree_pd``."""
    q = np.zeros(p.probs.shape)
    for cell in np.ndindex(q.shape):
        q[cell] = pointwise_tree_pd(tree, tuple(s + 1 for s in cell), cache)
    return q


def test_tree_distribution_is_a_distribution():
    rng = np.random.default_rng(67)
    for trial in range(20):
        d = int(rng.integers(3, 6))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=d))
        t = random_table(rng, cards, zero_fraction=0.25 if trial % 2 else 0.0)
        tree = random_tree(rng, d, int(rng.integers(2, d)))
        q = oracle_tree_pd(t, tree, MarginalCache(t))
        assert np.all(q >= 0)
        assert float(q.sum()) == pytest.approx(1.0, abs=1e-9)


def test_kl_exact_matches_the_pointwise_oracle():
    rng = np.random.default_rng(71)
    for trial in range(30):
        d = int(rng.integers(2, 6))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=d))
        t = random_table(rng, cards, zero_fraction=0.3 if trial % 2 else 0.0)
        tree = random_tree(rng, d, int(rng.integers(2, min(d, 4) + 1)))
        cache = MarginalCache(t)
        q = oracle_tree_pd(t, tree, cache)
        support = t.probs > 0.0
        pm = t.probs[support]
        want = float(np.sum(pm * np.log2(pm / q[support])))
        assert kl_exact(t, tree, cache) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("block", [1, 4, 7, 30])
def test_kl_exact_is_the_same_sum_in_small_blocks(monkeypatch, block):
    rng = np.random.default_rng(73 + block)
    for trial in range(15):
        d = int(rng.integers(2, 6))
        cards = tuple(int(c) for c in rng.integers(2, 5, size=d))
        t = random_table(rng, cards, zero_fraction=0.3 if trial % 2 else 0.0)
        tree = random_tree(rng, d, int(rng.integers(2, min(d, 4) + 1)))
        cache = MarginalCache(t)
        whole = kl_exact(t, tree, cache)
        monkeypatch.setattr(tcherry.scoring, "KL_BLOCK_CELLS", block)
        blocked = kl_exact(t, tree, cache)
        monkeypatch.undo()
        assert blocked == pytest.approx(whole, abs=1e-12)
        assert blocked == pytest.approx(tree_weight(t, tree, cache).kl, abs=1e-12)


def test_kl_exact_allocates_less_than_the_joint():
    # d=20 binary: an 8 MiB joint, and blocks of 2^16 cells.
    p, tree = generate_tcherry_distribution(3, 20, 3, 2, 1.0)[:2]
    cache = MarginalCache(p)
    kl_exact(p, tree, cache)  # fill every marginal it reads beforehand
    tracemalloc.start()
    try:
        kl = kl_exact(p, tree, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.probs.nbytes
    assert kl == pytest.approx(tree_weight(p, tree, cache).kl, abs=1e-9)


def test_tree_pd_reproduces_its_own_marginal_structure(lizard, lizard_cache):
    # The tree distribution agrees with p on every cluster marginal.
    tree = fit_sk(lizard, 4, lizard_cache).tree
    q = JointTable(lizard.scheme, oracle_tree_pd(lizard, tree, lizard_cache))
    qc = MarginalCache(q)
    for cluster in tree.clusters:
        assert np.allclose(
            qc.marginal(cluster),
            lizard_cache.marginal(cluster),
            atol=1e-12,
        )


def test_full_order_tree_reproduces_p_exactly(lizard, lizard_cache):
    tree = new_parent(5, (1, 2, 3, 4, 5))
    assert kl_exact(lizard, tree, lizard_cache) == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(oracle_tree_pd(lizard, tree, lizard_cache), lizard.probs)


# -- recovery conditions ----------------------------------------------------


def test_recovery_conditions_on_lizard_greedy_tree(lizard, lizard_cache):
    fr = fit_sk(lizard, 3, lizard_cache)
    numbering = puzzle_numbering(fr.tree, fr.tree.parent)
    report = check_recovery_conditions(lizard, fr.tree, numbering, lizard_cache)
    assert report.holds
    assert (len(report.violations), len(report.ties), report.checked) == (0, 0, 3)


def test_recovery_conditions_flag_entropy_style_tree(lizard, lizard_cache):
    fr = fit_malvestuto(lizard, 3, lizard_cache)
    numbering = puzzle_numbering(fr.tree, fr.tree.parent)
    report = check_recovery_conditions(lizard, fr.tree, numbering, lizard_cache)
    assert not report.holds
    assert (len(report.violations), len(report.ties), report.checked) == (2, 0, 3)
    worst = report.violations[0]
    assert worst.later_gain > worst.earlier_gain


def test_recovery_single_cluster_tree_has_nothing_to_check(lizard, lizard_cache):
    tree = new_parent(5, (1, 2, 3, 4, 5))
    report = check_recovery_conditions(
        lizard, tree, puzzle_numbering(tree, tree.parent), lizard_cache
    )
    assert report.holds and report.checked == 0


def test_recovery_validates_numbering_against_tree(lizard, lizard_cache):
    fr = fit_sk(lizard, 3, lizard_cache)
    bad_k = PuzzleNumbering(2, (1, 2, 3, 4, 5), ((2,), (3,), (4,)))
    with pytest.raises(DomainError, match="k="):
        check_recovery_conditions(lizard, fr.tree, bad_k, lizard_cache)
    not_cluster = PuzzleNumbering(3, (1, 2, 3, 4, 5), ((2, 3), (3, 4)))
    with pytest.raises(DomainError):
        check_recovery_conditions(lizard, fr.tree, not_cluster, lizard_cache)
    numbering = puzzle_numbering(fr.tree, fr.tree.parent)
    for seps in (numbering.attach_separators[:1], numbering.attach_separators + ((1, 2),)):
        with pytest.raises(DomainError, match="attachment separators for 2 grown"):
            check_recovery_conditions(
                lizard, fr.tree, PuzzleNumbering(3, numbering.order, seps), lizard_cache)


def _reference_sweep(p, t, numbering, tol=1e-12):
    """Violations, ties and count of the recovery sweep with every entropy
    taken straight from the joint, no cache."""
    def h(subset):
        return entropy(marginalize(p, subset))

    def gain(v, sep):
        return h((v,)) + h(sep) - h(tuple(sorted(sep + (v,))))

    order, k = numbering.order, t.k
    pool = set(combinations(sorted(order[:k]), k - 1))
    violations, ties, checked = [], [], 0
    for r in range(k, len(order)):
        own_sep = numbering.attach_separators[r - k]
        own = gain(order[r], own_sep)
        for s in range(r + 1, len(order)):
            for sep in sorted(pool):
                if order[s] in sep:
                    continue
                checked += 1
                later = gain(order[s], sep)
                row = (r + 1, order[r], s + 1, order[s], sep, later, own)
                if later > own + tol:
                    violations.append(row)
                elif later > own - tol:
                    ties.append(row)
        pool.update(combinations(sorted(own_sep + (order[r],)), k - 1))
    return violations, ties, checked


def _recovery_cases():
    rng = np.random.default_rng(71)
    cases = []
    for d, k in ((7, 3), (8, 2), (8, 4)):
        cases.append((random_table(rng, rng.integers(2, 4, size=d)), random_tree(rng, d, k)))
    # Independent variables: every gain is 0 up to rounding, so all are ties.
    marginals = [rng.dirichlet(np.ones(c)) for c in (2, 3, 2, 2, 3, 2)]
    probs = marginals[0]
    for m in marginals[1:]:
        probs = np.multiply.outer(probs, m)
    cases.append((JointTable(make_scheme(probs.shape), probs), random_tree(rng, 6, 3)))
    return cases


def test_recovery_sweep_equals_the_cache_free_sweep(lizard, lizard_cache):
    fits = [fit_sk(lizard, 3, lizard_cache).tree, fit_malvestuto(lizard, 3, lizard_cache).tree]
    cases = [(lizard, tree) for tree in fits] + _recovery_cases()
    seen_ties = 0
    for p, tree in cases:
        numbering = puzzle_numbering(tree, tree.parent)
        report = check_recovery_conditions(p, tree, numbering)
        violations, ties, checked = _reference_sweep(p, tree, numbering)
        assert report.checked == checked
        for got, want in ((report.violations, violations), (report.ties, ties)):
            assert [(c.earlier_pos, c.earlier, c.later_pos, c.later, c.separator)
                    for c in got] == [row[:5] for row in want]
            for c, row in zip(got, want):
                assert c.later_gain == pytest.approx(row[5], rel=0, abs=1e-12)
                assert c.earlier_gain == pytest.approx(row[6], rel=0, abs=1e-12)
        seen_ties += len(ties)
    assert seen_ties > 0


def test_recovery_sweep_reads_the_joint_at_most_once(monkeypatch):
    rng = np.random.default_rng(73)
    p = random_table(rng, (2,) * 10)
    tree = random_tree(rng, 10, 3)
    numbering = puzzle_numbering(tree, tree.parent)
    calls = []
    original = tcherry.distribution.marginalize

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(tcherry.distribution, "marginalize", counted)
    report = check_recovery_conditions(p, tree, numbering)
    assert len(calls) <= 1 and report.checked > 100


# -- serialization ----------------------------------------------------------


def test_score_to_dict_schema(lizard, lizard_cache):
    sb = fit_sk(lizard, 4, lizard_cache).score
    doc = score_to_dict(sb)
    assert set(doc) == {"weight", "kl", "i_total", "clusters", "separators"}
    assert doc["clusters"][0] == {"set": [1, 3, 4, 5], "i": pytest.approx(0.129381, abs=1e-5)}
    assert doc["separators"][0]["nu"] == 2
