"""Distribution container, marginals, and entropy measures.

Numeric checks run against a dict-based oracle written from scratch:
no shared code with the library paths under test.
"""

import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

import tcherry.distribution
from conftest import random_table
from tcherry import (
    CapacityError,
    ConsistencyError,
    DomainError,
    JointTable,
    MarginalCache,
    MarginalTable,
    VariableSpec,
    entropy,
    fit_sk,
    from_counts,
    generate_tcherry_distribution,
    kl_entropy_form,
    make_scheme,
    marginalize,
    with_additive_smoothing,
)


# -- oracle -----------------------------------------------------------------


def cells_of(table) -> dict[tuple[int, ...], float]:
    out = {}
    for state in product(*(range(1, c + 1) for c in table.cardinalities)):
        value = table.prob(state)
        if value:
            out[state] = value
    return out


def oracle_marginal(cells, subset) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for state, value in cells.items():
        key = tuple(state[i - 1] for i in subset)
        out[key] = out.get(key, 0.0) + value
    return out


def oracle_entropy(dist) -> float:
    return -sum(v * math.log2(v) for v in dist.values() if v > 0.0)


def oracle_info(cells, subset) -> float:
    singles = sum(oracle_entropy(oracle_marginal(cells, (i,))) for i in subset)
    return singles - oracle_entropy(oracle_marginal(cells, subset))


# -- construction -----------------------------------------------------------


def test_scheme_must_be_ascending_from_one():
    with pytest.raises(DomainError, match="indices"):
        JointTable((VariableSpec(2, 2), VariableSpec(3, 2)), np.full((2, 2), 0.25))


def test_variable_spec_rejects_unit_cardinality():
    with pytest.raises(DomainError, match="cardinality"):
        VariableSpec(1, 1)


def test_probs_must_sum_to_one():
    with pytest.raises(DomainError, match="sum"):
        JointTable(make_scheme([2, 2]), np.full((2, 2), 0.3))


def test_negative_mass_rejected():
    probs = np.array([[0.6, 0.5], [-0.1, 0.0]])
    with pytest.raises(DomainError):
        JointTable(make_scheme([2, 2]), probs)


def test_cell_cap_guards_dense_allocation():
    with pytest.raises(CapacityError, match="cap"):
        JointTable(make_scheme([10] * 12), np.zeros(1), cap=10**6)


def test_table_is_immutable():
    t = JointTable(make_scheme([2, 2]), np.full((2, 2), 0.25))
    with pytest.raises(AttributeError):
        t.probs = np.zeros((2, 2))
    with pytest.raises(ValueError):
        t.probs[0, 0] = 1.0


def test_prob_accessor_round_trips_states():
    rng = np.random.default_rng(7)
    t = random_table(rng, (2, 3, 2))
    assert t.prob((1, 1, 1)) == pytest.approx(float(t.probs[0, 0, 0]))
    assert t.prob((2, 3, 1)) == pytest.approx(float(t.probs[1, 2, 0]))
    with pytest.raises(DomainError):
        t.prob((1, 4, 1))
    with pytest.raises(DomainError):
        t.prob((1, 1))


# -- from_counts ------------------------------------------------------------


def test_from_counts_normalizes_and_keeps_total():
    rows = [((1, 1), 3.0), ((2, 2), 1.0)]
    t = from_counts(rows, make_scheme([2, 2]))
    assert t.total_count == 4.0
    assert t.prob((1, 1)) == 0.75
    assert t.prob((2, 1)) == 0.0


def test_from_counts_accumulates_duplicate_cells():
    rows = [((1, 1), 1.0), ((1, 1), 2.0), ((2, 1), 1.0)]
    t = from_counts(rows, make_scheme([2, 2]))
    assert t.prob((1, 1)) == 0.75


def test_from_counts_names_the_offending_cell():
    with pytest.raises(DomainError, match=r"\(1, 3\)"):
        from_counts([((1, 3), 1.0)], make_scheme([2, 2]))
    with pytest.raises(DomainError, match="negative"):
        from_counts([((1, 1), -2.0)], make_scheme([2, 2]))
    # The first bad cell in order is named, whatever is wrong with a later
    # one, and a state beyond int64 is out of range like any other.
    for cells, message in [
        ([((1, 3), 1.0), ((1,), 1.0)],
         "cell (1, 3): state 3 out of range for variable 2 (cardinality 2)"),
        ([((1, 1), 1.0), ((2, 1), -1.0), ((3, 1), 1.0)],
         "cell (2, 1): count -1.0 is not a non-negative real"),
        ([((1, 1), 1.0), ((1,), 1.0), ((1, 1), math.nan)],
         "cell (1,): has 1 states, expected 2"),
        ([((1, 2**70), 1.0)],
         f"cell (1, {2**70}): state {2**70} out of range for variable 2 (cardinality 2)"),
    ]:
        with pytest.raises(DomainError) as exc:
            from_counts(cells, make_scheme([2, 2]))
        assert str(exc.value) == message


def test_from_counts_rejects_all_zero():
    with pytest.raises(DomainError, match="zero"):
        from_counts([((1, 1), 0.0)], make_scheme([2, 2]))


# -- marginals vs oracle ----------------------------------------------------


def test_marginalize_matches_oracle_on_random_tables():
    rng = np.random.default_rng(11)
    for _ in range(20):
        cards = tuple(rng.integers(2, 4, size=int(rng.integers(2, 5))))
        t = random_table(rng, cards)
        cells = cells_of(t)
        d = t.d
        size = int(rng.integers(1, d + 1))
        subset = tuple(sorted(
            int(v) for v in rng.choice(np.arange(1, d + 1), size=size, replace=False)
        ))
        m = marginalize(t, subset)
        want = oracle_marginal(cells, subset)
        for state in product(*(range(1, t.cardinalities[i - 1] + 1) for i in subset)):
            assert m.prob(state) == pytest.approx(want.get(state, 0.0), abs=1e-12)


def test_marginalize_composes():
    rng = np.random.default_rng(13)
    t = random_table(rng, (2, 3, 2, 2))
    once = marginalize(t, (1, 3, 4))
    # Marginalizing the marginal over a sub-subset equals direct marginalization.
    sub = once.probs.sum(axis=1)
    direct = marginalize(t, (1, 4))
    assert np.allclose(sub, direct.probs, atol=1e-15)


def test_marginal_subset_must_be_sorted_unique_in_range():
    t = random_table(np.random.default_rng(1), (2, 2, 2))
    assert marginalize(t, (3, 1)).subset == (1, 3)
    with pytest.raises(DomainError):
        marginalize(t, (1, 1))
    with pytest.raises(DomainError):
        marginalize(t, (0, 1))
    with pytest.raises(DomainError):
        marginalize(t, (1, 4))


# -- entropy and information ------------------------------------------------


def test_entropy_uniform_is_log2_of_cells():
    t = JointTable(make_scheme([2, 4]), np.full((2, 4), 1 / 8))
    assert entropy(t) == pytest.approx(3.0, abs=1e-12)


def test_entropy_point_mass_is_zero():
    probs = np.zeros((2, 2))
    probs[0, 1] = 1.0
    assert entropy(JointTable(make_scheme([2, 2]), probs)) == 0.0


def test_entropy_matches_oracle_with_zero_cells():
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = random_table(rng, (2, 3, 2), zero_fraction=0.3)
        assert entropy(t) == pytest.approx(oracle_entropy(cells_of(t)), abs=1e-12)


def test_information_content_matches_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = random_table(rng, (2, 2, 3, 2))
        cache = MarginalCache(t)
        for subset in ((1,), (2, 4), (1, 3, 4), (1, 2, 3, 4)):
            assert cache.info(subset) == pytest.approx(
                oracle_info(cells_of(t), subset), abs=1e-10
            )


def test_information_content_singleton_is_exactly_zero():
    t = random_table(np.random.default_rng(23), (2, 3, 2))
    assert MarginalCache(t).info((2,)) == 0.0


def test_information_content_nonnegative_and_monotone_under_refinement():
    rng = np.random.default_rng(29)
    for _ in range(20):
        cache = MarginalCache(random_table(rng, (2, 2, 2, 2), zero_fraction=0.2))
        assert cache.info((1, 2)) >= -1e-12
        # Adding a variable never lowers information content.
        assert cache.info((1, 2, 3)) >= cache.info((1, 2)) - 1e-12


def test_independent_variables_carry_zero_information():
    a = np.array([0.3, 0.7])
    b = np.array([0.2, 0.5, 0.3])
    t = JointTable(make_scheme([2, 3]), np.outer(a, b))
    assert MarginalCache(t).info((1, 2)) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_identities():
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = random_table(rng, (2, 3, 2))
        cache = MarginalCache(t)
        h1 = cache.h((1, 2, 3)) - cache.h((2, 3))
        # H(1 | rest) = H(1) − (I(full) − I(rest)).
        expect = cache.h((1,)) - (cache.info((1, 2, 3)) - cache.info((2, 3)))
        assert h1 == pytest.approx(expect, abs=1e-10)
        cells = cells_of(t)
        assert h1 == pytest.approx(oracle_entropy(oracle_marginal(cells, (1, 2, 3)))
                                   - oracle_entropy(oracle_marginal(cells, (2, 3))), abs=1e-10)


def test_conditioning_cannot_raise_entropy():
    rng = np.random.default_rng(37)
    for _ in range(20):
        cache = MarginalCache(random_table(rng, (2, 2, 3), zero_fraction=0.25))
        assert cache.h((1, 2, 3)) - cache.h((2, 3)) <= cache.h((1,)) + 1e-12


# -- cache ------------------------------------------------------------------


def test_cache_agrees_with_direct_calls(lizard, lizard_cache):
    assert lizard_cache.h((1, 3, 5)) == entropy(marginalize(lizard, (1, 3, 5)))
    assert lizard_cache.info((2, 4)) == (
        math.fsum(entropy(marginalize(lizard, (i,))) for i in (2, 4))
        - entropy(marginalize(lizard, (2, 4))))
    assert lizard_cache.h((2,)) is lizard_cache.h((2,)) or True  # memo hit path
    assert lizard_cache.marginal((1, 2)) is lizard_cache.marginal((1, 2))


def test_cache_point_restricts_full_states():
    rng = np.random.default_rng(41)
    t = random_table(rng, (2, 3, 2))
    cache = MarginalCache(t)
    m = marginalize(t, (2, 3))
    assert cache.point((2, 3), (1, 2, 2)) == pytest.approx(m.prob((2, 2)))
    assert cache.point((1,), (2, 1, 1)) == pytest.approx(
        marginalize(t, (1,)).prob((2,))
    )


# -- marginal lattice -------------------------------------------------------


def _refuse_full_table(p, subset):
    raise AssertionError(f"marginal over {subset} went back to the full table")


@pytest.mark.parametrize("d", range(3, 10))
def test_prefetch_and_superset_reductions_match_marginalize(d, monkeypatch):
    rng = np.random.default_rng(300 + d)
    t = random_table(rng, rng.integers(2, 5, size=d), zero_fraction=0.2)
    for k in range(2, d):
        cache = MarginalCache(t)
        cache.prefetch(k)
        with monkeypatch.context() as m:
            # Every subset of size <= k must come from the lattice or from a
            # cached k-superset, never from the joint.
            m.setattr(tcherry.distribution, "marginalize", _refuse_full_table)
            got = {s: cache.marginal(s)
                   for r in range(1, k + 1) for s in combinations(t.variables, r)}
        for s, marginal in got.items():
            assert marginal.subset == s
            np.testing.assert_allclose(marginal.probs, marginalize(t, s).probs,
                                       rtol=0, atol=1e-12)


def test_prefetch_is_idempotent_and_covered_by_higher_orders():
    t = random_table(np.random.default_rng(53), (2, 3, 2, 4, 2))
    cache = MarginalCache(t)
    cache.prefetch(3)
    first = cache.marginal((1, 2, 4))
    cache.prefetch(3)
    cache.prefetch(2)
    assert cache.marginal((1, 2, 4)) is first
    with pytest.raises(DomainError, match="order"):
        cache.prefetch(6)


@pytest.mark.parametrize("k", [2, 3])
def test_prefetch_partial_sums_stay_below_one_joint_table(k):
    t = random_table(np.random.default_rng(59), (2,) * 16)
    cache = MarginalCache(t)
    tracemalloc.start()
    try:
        cache.prefetch(k)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # What is still held at the end is the cache itself; the rest of the
    # peak is the chain of live partial sums.
    assert peak - current < t.probs.nbytes


def _reference_prefetch(table, k):
    """The k-subset walk ``prefetch`` ran before ``fill`` generalized it:
    children in index order, one axis summed out between consecutive ones."""
    d, out = table.d, {}

    def walk(prefix, probs, first):
        j = len(prefix)
        last = d - k + j + 1
        for b in range(first, last + 1):
            key = prefix + (b,)
            if j + 1 < k:
                walk(key, probs, b + 1)
            else:
                out[key] = probs.sum(axis=tuple(range(k, probs.ndim)))
            if b < last:
                probs = probs.sum(axis=j)

    walk((), table.probs, 1)
    return out


@pytest.mark.parametrize("d", [3, 6, 9])
def test_prefetch_equals_the_reference_walk(d):
    rng = np.random.default_rng(500 + d)
    t = random_table(rng, rng.integers(2, 5, size=d), zero_fraction=0.2)
    for k in range(1, d + 1):
        cache = MarginalCache(t)
        cache.prefetch(k)
        want = _reference_prefetch(t, k)
        assert sorted(cache._marginals) == sorted(want)
        for key, probs in want.items():
            assert np.array_equal(cache.marginal(key).probs, probs)


def _mixed_keys(rng, d, n):
    """``n`` random subsets of sizes 1..4, some extended by a later index so
    that a key is also a prefix of another key."""
    keys = set()
    for _ in range(n):
        size = int(rng.integers(1, min(4, d) + 1))
        key = tuple(sorted(rng.choice(np.arange(1, d + 1), size=size, replace=False).tolist()))
        keys.add(key)
        if key[-1] < d and rng.random() < 0.5:
            keys.add(key + (int(rng.integers(key[-1] + 1, d + 1)),))
    return keys


@pytest.mark.parametrize("seed", range(6))
def test_fill_matches_marginalize_on_mixed_key_sets(seed, monkeypatch):
    rng = np.random.default_rng(400 + seed)
    d = int(rng.integers(4, 9))
    t = random_table(rng, rng.integers(2, 5, size=d), zero_fraction=0.2)
    mixed = _mixed_keys(rng, d, 12)
    assert any(a != b and b[:len(a)] == a for a in mixed for b in mixed)
    for keys in (mixed, {(d,)}, {(1, d)}, {t.variables}):
        cache = MarginalCache(t)
        with monkeypatch.context() as m:
            m.setattr(tcherry.distribution, "marginalize", _refuse_full_table)
            cache.fill(keys)
            got = {s: cache.marginal(s) for s in keys}
        assert sorted(cache._marginals) == sorted(keys)
        for s, marginal in got.items():
            assert marginal.subset == s
            np.testing.assert_allclose(marginal.probs, marginalize(t, s).probs,
                                       rtol=0, atol=1e-12)


def test_fill_canonicalizes_and_keeps_cached_values():
    t = random_table(np.random.default_rng(57), (2, 3, 2, 4, 2))
    cache = MarginalCache(t)
    cache.prefetch(3)
    first = cache.marginal((1, 2, 4))
    cache.fill([(4, 2, 1), [5, 3], (1,)])
    assert cache.marginal((1, 2, 4)) is first
    assert cache.marginal((3, 5)).subset == (3, 5)
    with pytest.raises(DomainError, match="duplicate"):
        cache.fill([(1, 1)])


def test_fill_partial_sums_stay_below_one_joint_table():
    rng = np.random.default_rng(61)
    t = random_table(rng, (2,) * 16)
    keys = _mixed_keys(rng, 16, 200)
    cache = MarginalCache(t)
    tracemalloc.start()
    try:
        cache.fill(keys)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < t.probs.nbytes


def test_derived_marginal_tolerance_scales_with_cells_summed():
    drifted = np.array([0.5, 0.5 - 1.5e-12])
    with pytest.raises(DomainError, match="sum"):
        MarginalTable((1,), drifted)
    assert MarginalTable((1,), drifted, 2**22).subset == (1,)
    with pytest.raises(ConsistencyError, match="sum"):
        MarginalTable((1,), drifted, 2)
    with pytest.raises(ConsistencyError, match="negative"):
        MarginalTable((1,), np.array([1.5, -0.5]), 2**22)


def test_reduction_drift_on_a_large_table_is_not_an_input_error():
    # Summed to x22, this 2^22-cell table came to 1 - 1.45e-12, past the
    # absolute MASS_TOL, and fit_sk reported float drift as bad input.
    p, _ = generate_tcherry_distribution(1, 22, 3, 2, 2.0)
    assert float(marginalize(p, (22,)).probs.sum()) == pytest.approx(1.0, abs=1e-9)
    fr = fit_sk(p, 3)
    assert fr.score.kl == pytest.approx(kl_entropy_form(p, fr.tree), abs=1e-9)


# -- smoothing --------------------------------------------------------------


def test_smoothing_zero_returns_same_table():
    t = random_table(np.random.default_rng(43), (2, 2))
    assert with_additive_smoothing(t, 0.0) is t


def test_smoothing_fills_empty_cells_and_normalizes():
    rows = [((1, 1), 3.0), ((2, 2), 1.0)]
    t = from_counts(rows, make_scheme([2, 2]))
    s = with_additive_smoothing(t, 1.0)
    assert s.prob((2, 1)) == pytest.approx(1 / 8)
    assert s.prob((1, 1)) == pytest.approx(4 / 8)
    assert float(s.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_smoothing_rejects_negative_alpha():
    t = random_table(np.random.default_rng(47), (2, 2))
    with pytest.raises(DomainError, match="non-negative"):
        with_additive_smoothing(t, -0.5)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_smoothing_rejects_alpha_that_is_not_finite(alpha):
    t = random_table(np.random.default_rng(47), (2, 2))
    with pytest.raises(DomainError, match="finite and non-negative"):
        with_additive_smoothing(t, alpha)
