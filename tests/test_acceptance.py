"""End-to-end acceptance checks.

Each test prints one summary line (PASS or FAIL) so a plain pytest run
shows the eleven criteria at a glance.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import candidate_rows, random_table, random_tree
from tcherry import (
    MarginalCache,
    check_recovery_conditions,
    find_parent_cluster,
    fit_chow_liu,
    fit_exhaustive,
    fit_malvestuto,
    fit_sk,
    generate_tcherry_distribution,
    kl_entropy_form,
    kl_exact,
    puzzle_numbering,
    tree_weight,
)


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE C{num:02d}: FAIL - {desc}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE C{num:02d}: PASS - {desc}")


# (cluster, separator, I(C), I(S), w), descending w
K4_CANDIDATE_ROWS = [
    ((1, 3, 4, 5), (1, 3, 5), 0.129381, 0.045701, 0.083680),
    ((1, 3, 4, 5), (1, 4, 5), 0.129381, 0.047533, 0.081848),
    ((2, 3, 4, 5), (2, 3, 5), 0.116608, 0.035137, 0.081470),
    ((1, 2, 3, 4), (1, 2, 3), 0.105531, 0.026624, 0.078907),
    ((2, 3, 4, 5), (2, 4, 5), 0.116608, 0.038063, 0.078544),
    ((1, 2, 3, 4), (1, 2, 4), 0.105531, 0.029315, 0.076216),
    ((1, 2, 4, 5), (1, 2, 4), 0.100251, 0.029315, 0.070936),
    ((1, 3, 4, 5), (1, 3, 4), 0.129381, 0.066088, 0.063294),
    ((1, 2, 3, 5), (1, 2, 3), 0.089070, 0.026624, 0.062446),
    ((1, 2, 4, 5), (2, 4, 5), 0.100251, 0.038063, 0.062187),
    ((1, 2, 3, 5), (2, 3, 5), 0.089070, 0.035137, 0.053933),
    ((1, 2, 4, 5), (1, 4, 5), 0.100251, 0.047533, 0.052718),
]


def test_c01_candidate_table_values(capsys, lizard, lizard_cache):
    with criterion(capsys, 1, "k=4 candidate table information contents within 1e-5"):
        table = candidate_rows(fit_sk(lizard, 4, lizard_cache).candidate_table)[:12]
        assert len(table) == 12
        for cand, (cluster, sep, ic, isep, w) in zip(table, K4_CANDIDATE_ROWS):
            assert cand.cluster == cluster and cand.base == sep
            assert lizard_cache.info(cluster) == pytest.approx(ic, abs=1e-5)
            assert lizard_cache.info(sep) == pytest.approx(isep, abs=1e-5)
            assert cand.w == pytest.approx(w, abs=1e-5)


def test_c02_entropies(capsys, lizard_cache):
    with criterion(capsys, 2, "marginal and joint entropies within 1e-4"):
        assert lizard_cache.h((1, 2, 3, 5)) == pytest.approx(3.288813, abs=1e-4)
        assert lizard_cache.h((1, 3, 4, 5)) == pytest.approx(3.743757, abs=1e-4)
        assert lizard_cache.h((1, 3, 5)) == pytest.approx(2.36849, abs=1e-4)
        assert lizard_cache.h((1, 2, 3, 4, 5)) == pytest.approx(4.64164, abs=1e-4)


def test_c03_sk_order_four(capsys, lizard, lizard_cache):
    with criterion(capsys, 3, "sk k=4 clusters, separator, and divergence"):
        fit = fit_sk(lizard, 4, lizard_cache)
        assert frozenset(fit.tree.clusters) == {(1, 3, 4, 5), (1, 2, 4, 5)}
        assert dict(fit.tree.nu) == {(1, 4, 5): 2}
        assert fit.score.kl == pytest.approx(0.013091, abs=1e-5)


def test_c04_malvestuto_order_four(capsys, lizard, lizard_cache):
    with criterion(capsys, 4, "malvestuto k=4 clusters, separator, and divergence"):
        fit = fit_malvestuto(lizard, 4, lizard_cache)
        assert frozenset(fit.tree.clusters) == {(1, 2, 3, 5), (1, 3, 4, 5)}
        assert dict(fit.tree.nu) == {(1, 3, 5): 2}
        assert fit.score.kl == pytest.approx(0.02244, abs=1e-4)


def test_c05_order_three_fits(capsys, lizard, lizard_cache):
    with criterion(capsys, 5, "k=3 cluster sets and divergences for both greedy fits"):
        sk = fit_sk(lizard, 3, lizard_cache)
        assert frozenset(sk.tree.clusters) == {(3, 4, 5), (1, 4, 5), (1, 2, 5)}
        assert sk.score.kl == pytest.approx(0.0355415, abs=1e-5)
        mv = fit_malvestuto(lizard, 3, lizard_cache)
        assert frozenset(mv.tree.clusters) == {(1, 3, 5), (1, 2, 5), (3, 4, 5)}
        assert mv.score.kl == pytest.approx(0.0375077, abs=1e-5)


def test_c06_divergence_identity(capsys, lizard, lizard_cache):
    with criterion(capsys, 6, "total information and the divergence identity on all fits"):
        total = lizard_cache.info((1, 2, 3, 4, 5))
        assert total == pytest.approx(0.19519, abs=1e-5)
        fits = [fit_chow_liu(lizard, lizard_cache)]
        for k in (2, 3, 4):
            fits.append(fit_sk(lizard, k, lizard_cache))
            fits.append(fit_malvestuto(lizard, k, lizard_cache))
        for fit in fits:
            weight = tree_weight(lizard, fit.tree, lizard_cache).weight
            kl = kl_entropy_form(lizard, fit.tree, lizard_cache)
            assert abs(kl - (total - weight)) <= 1e-9


def test_c07_divergence_triple_path(capsys):
    with criterion(capsys, 7, "three divergence computations agree to 1e-9 on 200 random pairs"):
        rng = np.random.default_rng(7)
        for trial in range(200):
            d = 3 + trial % 4
            cards = tuple(int(rng.integers(2, 4)) for _ in range(d))
            zf = 0.3 if trial % 4 == 0 else 0.0
            p = random_table(rng, cards, zero_fraction=zf)
            k = 2 + trial % (min(4, d) - 1)
            t = random_tree(rng, d, k)
            cache = MarginalCache(p)
            sb = tree_weight(p, t, cache)
            kl_weight_form = sb.total_information - sb.weight
            kl_entropies = kl_entropy_form(p, t, cache)
            kl_pointwise = kl_exact(p, t, cache)
            assert abs(kl_weight_form - kl_entropies) <= 1e-9
            assert abs(kl_entropies - kl_pointwise) <= 1e-9
            assert abs(kl_weight_form - kl_pointwise) <= 1e-9


def test_c08_exhaustive_dominance(capsys, lizard, lizard_cache):
    with criterion(capsys, 8, "exhaustive optimum dominates both greedy fits"):
        start = time.monotonic()
        rng = np.random.default_rng(8)
        for trial in range(50):
            d = 4 + trial % 3
            cards = (2,) * d if d == 6 else tuple(int(rng.integers(2, 4))
                                                 for _ in range(d))
            p = random_table(rng, cards)
            cache = MarginalCache(p)
            best = fit_exhaustive(p, 3, cache=cache).score.kl
            assert best <= fit_sk(p, 3, cache).score.kl + 1e-10
            assert best <= fit_malvestuto(p, 3, cache).score.kl + 1e-10
        lizard_best = fit_exhaustive(lizard, 4, cache=lizard_cache).score.kl
        # the quoted bound is rounded to 1e-6, so give it that much headroom
        assert lizard_best <= 0.013091 + 1e-6
        assert lizard_best <= fit_sk(lizard, 4, lizard_cache).score.kl + 1e-9
        assert time.monotonic() - start < 120.0


def test_c09_greedy_recovery(capsys):
    desc = "greedy fit recovers generating trees under the gain-ordering conditions"
    with criterion(capsys, 9, desc):
        accepted = 0
        for seed in range(400):
            if accepted >= 50:
                break
            d = 4 + seed % 3
            k = 3
            schedule = [4.0 * 0.55 ** i for i in range(d - k + 1)]
            table, truth = generate_tcherry_distribution(seed, d, k, 2, schedule)
            parent = find_parent_cluster(table, k)
            if parent not in truth.clusters:
                continue
            report = check_recovery_conditions(
                table, truth, puzzle_numbering(truth, parent))
            if report.violations or report.ties:
                continue
            accepted += 1
            fit = fit_sk(table, k)
            assert frozenset(fit.tree.clusters) == frozenset(truth.clusters)
            assert kl_entropy_form(table, fit.tree) <= 1e-9
        assert accepted >= 50


def _rip_holds(clusters):
    for j in range(1, len(clusters)):
        seen = set().union(*(clusters[i] for i in range(j)))
        overlap = set(clusters[j]) & seen
        if not any(overlap <= set(c) for c in clusters[:j]):
            return False
    return True


def _graham_empties(clusters):
    edges = [set(c) for c in clusters]
    changed = True
    while changed:
        changed = False
        for e in edges:
            lone = {v for v in e if sum(v in f for f in edges) == 1}
            if lone:
                e -= lone
                changed = True
        for i, e in enumerate(edges):
            if any(i != j and e <= f for j, f in enumerate(edges)):
                del edges[i]
                changed = True
                break
    return all(not e for e in edges)


def test_c10_structural_invariants(capsys):
    with criterion(capsys, 10, "structural invariants hold on 100 random trees"):
        rng = np.random.default_rng(10)
        for trial in range(100):
            d = 3 + trial % 10
            k = min(2 + trial % 3, d)
            t = random_tree(rng, d, k)
            assert _rip_holds(t.clusters)
            assert _graham_empties(t.clusters)
            for sep, n in t.nu.items():
                assert n == 1 + sum(l.separator == sep for l in t.links)
            numbering = puzzle_numbering(t, t.parent)
            order = numbering.order
            assert sorted(order) == sorted(t.vertices)
            assert tuple(sorted(order[:k])) == t.parent
            for pos in range(k, len(order)):
                v = order[pos]
                sep = numbering.separator_for(v)
                assert len(sep) == k - 1
                assert set(sep) <= set(order[:pos])
                assert tuple(sorted(sep + (v,))) in t.clusters


def test_c11_spanning_tree_equivalence(capsys):
    with criterion(capsys, 11, "k=2 fit matches the max-MI spanning tree weight"):
        rng = np.random.default_rng(11)
        for trial in range(50):
            d = 3 + trial % 4
            cards = tuple(int(rng.integers(2, 4)) for _ in range(d))
            p = random_table(rng, cards)
            cache = MarginalCache(p)
            sk = fit_sk(p, 2, cache)
            cl = fit_chow_liu(p, cache)
            assert abs(sk.score.weight - cl.score.weight) <= 1e-10
