"""Scoring junction trees against a joint distribution.

The tree distribution is the product of cluster marginals over the
product of separator marginals (each separator raised to its
multiplicity minus one). Its divergence from the true table can be
written three ways, which must agree: I(X) minus the tree's information
weight, the entropy form over cluster/separator entropies, and the
cell-by-cell sum p·log2(p/q), which reads log q from the log-marginals
one block of cells at a time and builds no table of q. Units are bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distribution import JointTable, MarginalCache, cache_for, expand_marginal
from .errors import DomainError
from .junction_tree import IndexSet, PuzzleNumbering, TCherryJunctionTree

#: Gains that ``check_recovery_conditions`` finds this close are ties.
RECOVERY_TIE_TOL = 1e-12

#: Cells of the joint that ``kl_exact`` reads log q over at once.
KL_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ScoreBreakdown:
    """Weight, total information and divergence of one tree, itemized."""

    weight: float
    total_information: float
    kl: float
    per_cluster: tuple[tuple[IndexSet, float], ...]
    per_separator: tuple[tuple[IndexSet, int, float], ...]


def _check_tree(p: JointTable, t: TCherryJunctionTree):
    # I(X) − weight, the entropy form and the cell-by-cell sum are one
    # divergence only for a tree over exactly the table's variables.
    if not set(t.vertices) <= set(p.variables):
        raise DomainError(
            f"tree vertices {t.vertices} are not all variables of the table (d={p.d})"
        )
    missing = sorted(set(p.variables) - set(t.vertices))
    if missing:
        raise DomainError(f"tree leaves variables {missing} of the table (d={p.d}) uncovered")


def tree_weight(p: JointTable, t: TCherryJunctionTree,
                cache: MarginalCache | None = None) -> ScoreBreakdown:
    """Information weight Σ_C I(X_C) − Σ_S (ν_S−1)·I(X_S), itemized.

    ``kl`` is I(X) − weight, the divergence of the tree distribution;
    the tree must cover exactly the table's variables.
    """
    cache = cache_for(p, cache)
    _check_tree(p, t)
    cache.fill(t.clusters + tuple(t.nu))  # the tree's marginals, in one walk
    per_cluster = tuple((c, cache.info(c)) for c in t.clusters)
    per_separator = tuple((s, n, cache.info(s)) for s, n in t.nu.items())
    weight = math.fsum(i for _, i in per_cluster) - math.fsum(
        (n - 1) * i for _, n, i in per_separator
    )
    total = cache.info(p.variables)
    return ScoreBreakdown(weight, total, total - weight, per_cluster, per_separator)


def kl_entropy_form(p: JointTable, t: TCherryJunctionTree,
                    cache: MarginalCache | None = None) -> float:
    """Divergence as −H(X) + Σ_C H(X_C) − Σ_S (ν_S−1)·H(X_S)."""
    cache = cache_for(p, cache)
    _check_tree(p, t)
    cache.fill(t.clusters + tuple(t.nu))  # the tree's marginals, in one walk
    return (
        -cache.h(p.variables)
        + math.fsum(cache.h(c) for c in t.clusters)
        - math.fsum((n - 1) * cache.h(s) for s, n in t.nu.items())
    )


def kl_exact(p: JointTable, t: TCherryJunctionTree,
             cache: MarginalCache | None = None) -> float:
    """Σ_x p(x)·log2(p(x)/q(x)) over cells with p(x) > 0, with log2 q(x) =
    Σ_C log2 p_C(x) − Σ_S (ν_S−1)·log2 p_S(x) summed from the log-marginals
    one block of leading-axis states at a time. Each marginal at such an x
    sums cells that include p(x), so its logarithm is finite."""
    cache = cache_for(p, cache)
    _check_tree(p, t)
    cache.fill(t.clusters + tuple(t.nu))  # the tree's marginals, in one walk
    logs = []
    for subset, power in [(c, 1) for c in t.clusters] + [(s, 1 - n) for s, n in t.nu.items()]:
        m = cache.marginal(subset)
        log_m = np.log2(m, out=np.zeros(m.shape), where=m > 0.0)
        logs.append((power, expand_marginal(log_m, subset, p.d)))
    # A block is one state of the leading axes. The trailing axes, the last
    # always among them, hold at most KL_BLOCK_CELLS cells where they can.
    shape = p.probs.shape
    lead = len(shape) - 1
    while lead and math.prod(shape[lead - 1:]) <= KL_BLOCK_CELLS:
        lead -= 1
    total = 0.0
    for state in np.ndindex(shape[:lead]):
        block = p.probs[state]
        log_q = np.zeros(block.shape)
        for power, log_m in logs:
            # An axis the marginal does not span broadcasts from its one state.
            log_q += power * log_m[tuple(s if n > 1 else 0 for s, n in zip(state, log_m.shape))]
        support = block > 0.0
        pb = block[support]
        total += float(np.sum(pb * (np.log2(pb) - log_q[support])))
    return total


@dataclass(frozen=True)
class ConditionComparison:
    """One inequality instance from the recovery-condition sweep.

    Vertex ``later`` (numbered at position ``later_pos``) is compared
    across separator ``separator`` against vertex ``earlier`` and its
    own attachment gain: recovery needs ``later_gain < earlier_gain``.
    """

    earlier_pos: int
    earlier: int
    later_pos: int
    later: int
    separator: IndexSet
    later_gain: float
    earlier_gain: float


@dataclass(frozen=True)
class ConditionReport:
    violations: tuple[ConditionComparison, ...]
    ties: tuple[ConditionComparison, ...]
    checked: int

    @property
    def holds(self) -> bool:
        return not self.violations


def check_recovery_conditions(p: JointTable, t: TCherryJunctionTree,
                              numbering: PuzzleNumbering,
                              cache: MarginalCache | None = None) -> ConditionReport:
    """Sweep the inequality chain that guarantees greedy recovery.

    For every grown position r and every later position s, each
    separator S already available when vertex i_r was numbered must give
    the later vertex strictly less gain than i_r took from its own
    attachment: H(X_{i_s}) − H(X_{i_s}|X_S) < H(X_{i_r}) − H(X_{i_r}|X_{S_r}).
    Comparisons within ``RECOVERY_TIE_TOL`` are reported as ties, not violations;
    separators containing the later vertex are skipped (no candidate
    attaches a vertex across a set containing it).
    """
    cache = cache_for(p, cache)
    _check_tree(p, t)
    k = t.k
    order = numbering.order
    if k != numbering.k:
        raise DomainError(f"numbering has k={numbering.k}, tree has k={k}")
    if tuple(sorted(order[:k])) not in t.clusters:
        raise DomainError("numbering does not start at a cluster of the tree")
    if sorted(order) != list(t.vertices):
        raise DomainError("numbering does not cover the tree's vertices exactly")
    if len(numbering.attach_separators) != len(order) - k:
        raise DomainError(
            f"numbering has {len(numbering.attach_separators)} attachment separators "
            f"for {len(order) - k} grown vertices"
        )

    def cluster(vertex: int, sep: IndexSet) -> IndexSet:
        return tuple(sorted(sep + (vertex,)))

    def gain(vertex: int, sep: IndexSet) -> float:
        # H(v) − H(v | sep) = H(v) + H(sep) − H(sep ∪ {v})
        return cache.h((vertex,)) + cache.h(sep) - cache.h(cluster(vertex, sep))

    # Each grown vertex with its attachment separator, in numbering order.
    grown = list(zip(order[k:], numbering.attach_separators))
    pool: set[IndexSet] = set(combinations(tuple(sorted(order[:k])), k - 1))
    pools: list[list[IndexSet]] = []
    for vertex, sep in grown:
        if sep not in pool:
            raise DomainError(
                f"numbering separator {sep} for vertex {vertex} was not available "
                f"at its step"
            )
        pools.append(sorted(pool))
        pool.update(combinations(cluster(vertex, sep), k - 1))

    comparisons = [
        (r, s, sep)
        for r in range(k, len(order))
        for s in range(r + 1, len(order))
        for sep in pools[r - k]
        if order[s] not in sep
    ]
    # Fill every marginal the gains below take in one walk.
    needed = grown + [(order[s], sep) for _, s, sep in comparisons]
    cache.fill({x for v, sep in needed for x in ((v,), sep, cluster(v, sep))})

    own = [gain(v, sep) for v, sep in grown]
    violations: list[ConditionComparison] = []
    ties: list[ConditionComparison] = []
    for r, s, sep in comparisons:
        earlier_gain = own[r - k]
        later = order[s]
        later_gain = gain(later, sep)
        if later_gain > earlier_gain + RECOVERY_TIE_TOL:
            record = violations
        elif later_gain > earlier_gain - RECOVERY_TIE_TOL:
            record = ties
        else:
            continue
        record.append(ConditionComparison(
            r + 1, order[r], s + 1, later, sep, later_gain, earlier_gain
        ))
    return ConditionReport(tuple(violations), tuple(ties), len(comparisons))


def score_to_dict(sb: ScoreBreakdown) -> dict:
    """Plain-dict form matching the on-disk score JSON schema."""
    return {
        "weight": sb.weight,
        "kl": sb.kl,
        "i_total": sb.total_information,
        "clusters": [{"set": list(c), "i": i} for c, i in sb.per_cluster],
        "separators": [
            {"set": list(s), "nu": n, "i": i} for s, n, i in sb.per_separator
        ],
    }
