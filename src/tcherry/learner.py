"""Fitting t-cherry junction trees to a joint distribution.

Two greedy algorithms drive growth from a scored candidate list: ``sk``
accepts candidates by decreasing information weight w = I(cluster) −
I(base), ``malvestuto`` by increasing entropy weight ω = H(cluster) −
H(base). ``chow_liu`` is the k = 2 spanning-tree special case and
``exhaustive`` enumerates every structure as an oracle for small d.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .distribution import (
    DEFAULT_CELL_CAP,
    JointTable,
    MarginalCache,
    cache_for,
    check_cap,
    check_scheme,
    expand_marginal,
    make_scheme,
)
from .errors import CapacityError, ConsistencyError, DomainError
from .junction_tree import (
    IndexSet,
    TCherryJunctionTree,
    add_hypercherry,
    eligible_separators,
    new_parent,
)
from .scoring import ScoreBreakdown, tree_weight

#: Agreement demanded between a greedy accumulator and the itemized score.
WEIGHT_CHECK_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Candidate:
    """One scored extension: attach ``new_vertex`` across ``base``.

    ``cluster``, their sorted union, is computed once at construction:
    sorting and the JSON writer read it for every candidate.
    """

    new_vertex: int
    base: IndexSet
    w: float
    omega: float
    cluster: IndexSet = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cluster", tuple(sorted(self.base + (self.new_vertex,))))


@dataclass(frozen=True)
class TraceStep:
    """One accepted growth step; the first step records the parent pick."""

    cluster: IndexSet
    separator: IndexSet | None
    w: float
    omega: float


@dataclass(frozen=True)
class FitResult:
    algorithm: str
    tree: TCherryJunctionTree
    trace: tuple[TraceStep, ...]
    score: ScoreBreakdown
    candidate_table: tuple[Candidate, ...]


def _validate_k(p: JointTable, k: int) -> int:
    k = int(k)
    if not 2 <= k <= p.d:
        raise DomainError(f"order k must be in 2..{p.d}, got {k}")
    return k


def enumerate_candidates(p: JointTable, k: int,
                         cache: MarginalCache | None = None) -> list[Candidate]:
    """Score every (k-subset, distinguished vertex) pair: C(d,k)·k candidates."""
    k = _validate_k(p, k)
    cache = cache_for(p, cache)
    cache.prefetch(k)
    info, h = cache.info, cache.h
    bases = {b: (info(b), h(b)) for b in combinations(p.variables, k - 1)}
    out: list[Candidate] = []
    for cluster in combinations(p.variables, k):
        i_cluster, h_cluster = info(cluster), h(cluster)
        for j, vertex in enumerate(cluster):
            base = cluster[:j] + cluster[j + 1:]
            i_base, h_base = bases[base]
            out.append(Candidate(vertex, base, i_cluster - i_base, h_cluster - h_base))
    return out


def _sk_key(c: Candidate):
    return (-c.w, c.cluster, c.base, c.new_vertex)


def _malvestuto_key(c: Candidate):
    return (c.omega, c.cluster, c.base, c.new_vertex)


def find_parent_cluster(p: JointTable, k: int,
                        cache: MarginalCache | None = None) -> IndexSet:
    """Cluster of the best candidate: argmax over K of max_v I(K) − I(K∖{v})."""
    cache = cache_for(p, cache)
    return min(enumerate_candidates(p, k, cache), key=_sk_key).cluster


def _grow(p, tree, order, trace, cache):
    """Repeatedly accept the best admissible candidate until every variable is covered."""
    accepted = 0.0
    while len(tree.vertices) < p.d:
        for cand in order:
            if tree.admits(cand.new_vertex, cand.base):
                tree = add_hypercherry(tree, cand.new_vertex, cand.base)
                trace.append(TraceStep(cand.cluster, cand.base, cand.w, cand.omega))
                accepted += cand.w
                break
        else:
            raise ConsistencyError("no admissible candidate although vertices remain")
    return tree, accepted


def fit_sk(p: JointTable, k: int, cache: MarginalCache | None = None) -> FitResult:
    """Greedy fit by decreasing information weight.

    The first pick is the cluster of the argmax-w candidate (its
    orientation is discarded); afterwards the scan accepts the best
    admissible candidate until every variable is covered.
    """
    k = _validate_k(p, k)
    cache = cache_for(p, cache)
    order = tuple(sorted(enumerate_candidates(p, k, cache), key=_sk_key))
    parent = order[0].cluster
    tree = new_parent(k, parent)
    trace = [TraceStep(parent, None, cache.info(parent), cache.h(parent))]
    tree, accepted = _grow(p, tree, order, trace, cache)
    score = tree_weight(p, tree, cache)
    if abs(cache.info(parent) + accepted - score.weight) > WEIGHT_CHECK_TOL:
        raise ConsistencyError("greedy weight accumulator disagrees with itemized score")
    return FitResult("sk", tree, tuple(trace), score, order)


def fit_malvestuto(p: JointTable, k: int,
                   cache: MarginalCache | None = None) -> FitResult:
    """Greedy fit by increasing entropy weight, seeded at the min-entropy cluster."""
    k = _validate_k(p, k)
    cache = cache_for(p, cache)
    order = tuple(sorted(enumerate_candidates(p, k, cache), key=_malvestuto_key))
    parent = min(combinations(p.variables, k), key=lambda c: (cache.h(c), c))
    tree = new_parent(k, parent)
    trace = [TraceStep(parent, None, cache.info(parent), cache.h(parent))]
    tree, _ = _grow(p, tree, order, trace, cache)
    score = tree_weight(p, tree, cache)
    entropy_weight = cache.h(parent) + math.fsum(s.omega for s in trace[1:])
    itemized = (
        math.fsum(cache.h(c) for c in tree.clusters)
        - math.fsum((n - 1) * cache.h(s) for s, n in tree.nu.items())
    )
    if abs(entropy_weight - itemized) > WEIGHT_CHECK_TOL:
        raise ConsistencyError("entropy accumulator disagrees with itemized sum")
    return FitResult("malvestuto", tree, tuple(trace), score, order)


class _UnionFind:
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


def fit_chow_liu(p: JointTable, cache: MarginalCache | None = None) -> FitResult:
    """Maximum-mutual-information spanning tree (Kruskal), as a k = 2 tree."""
    if p.d < 2:
        raise DomainError("chow_liu needs at least two variables")
    cache = cache_for(p, cache)
    table = tuple(sorted(enumerate_candidates(p, 2, cache), key=_sk_key))
    ranked = sorted(
        combinations(p.variables, 2),
        key=lambda e: (-cache.info(e), e),
    )
    uf = _UnionFind(p.variables)
    chosen = [e for e in ranked if uf.union(*e)]
    # Order the spanning edges so each one after the first adds one new vertex.
    tree = new_parent(2, chosen[0])
    trace = [TraceStep(chosen[0], None, cache.info(chosen[0]), cache.h(chosen[0]))]
    remaining = chosen[1:]
    while remaining:
        for pos, (u, v) in enumerate(remaining):
            covered_u, covered_v = tree.covers(u), tree.covers(v)
            if covered_u == covered_v:
                continue
            fresh, base = (v, (u,)) if covered_u else (u, (v,))
            tree = add_hypercherry(tree, fresh, base)
            cand = Candidate(fresh, base, cache.info((u, v)), cache.h((u, v)) - cache.h(base))
            trace.append(TraceStep(cand.cluster, cand.base, cand.w, cand.omega))
            del remaining[pos]
            break
        else:
            raise ConsistencyError("spanning edges do not connect the variables")
    score = tree_weight(p, tree, cache)
    return FitResult("chow_liu", tree, tuple(trace), score, table)


def _sequence_bound(d: int, k: int) -> int:
    bound = math.comb(d, k)
    clusters = 1
    for uncovered in range(d - k, 0, -1):
        bound *= uncovered * clusters * k
        clusters += 1
    return bound


def iter_structures(d: int, k: int):
    """Every t-cherry structure over 1..d, deduplicated.

    Yields (clusters, separators, witness) where clusters is a sorted
    tuple of clusters, separators the sorted separator multiset, and
    witness one growth order: (parent, ((vertex, separator), ...)).
    Two growths with the same cluster set and separator multiset are the
    same structure.
    """
    d, k = int(d), int(k)
    if not 2 <= k <= d:
        raise DomainError(f"order k must be in 2..{d}, got {k}")
    variables = tuple(range(1, d + 1))
    seen: set = set()
    queue: deque = deque()
    for parent in combinations(variables, k):
        key = (frozenset((parent,)), ())
        if key not in seen:
            seen.add(key)
            queue.append((key, (parent, ())))
    while queue:
        (clusters, seps), witness = queue.popleft()
        covered = set()
        for c in clusters:
            covered.update(c)
        if len(covered) == d:
            yield tuple(sorted(clusters)), seps, witness
            continue
        bases = sorted({b for c in clusters for b in combinations(c, k - 1)})
        for vertex in sorted(set(variables) - covered):
            for base in bases:
                cluster = tuple(sorted(base + (vertex,)))
                key = (clusters | {cluster}, tuple(sorted(seps + (base,))))
                if key not in seen:
                    seen.add(key)
                    queue.append((key, (witness[0], witness[1] + ((vertex, base),))))


def fit_exhaustive(p: JointTable, k: int, max_vertices: int = 7,
                   cache: MarginalCache | None = None) -> FitResult:
    """Score every structure and return the best; guarded for small d only.

    Ties on weight resolve to the lexicographically smallest cluster
    set, then separator multiset.
    """
    k = _validate_k(p, k)
    if p.d > max_vertices:
        raise CapacityError(
            f"exhaustive search refused for d={p.d} > {max_vertices}: "
            f"up to {_sequence_bound(p.d, k)} growth sequences"
        )
    cache = cache_for(p, cache)
    best = None
    for clusters, seps, witness in iter_structures(p.d, k):
        weight = math.fsum(cache.info(c) for c in clusters) - math.fsum(
            cache.info(s) for s in seps
        )
        key = (-weight, clusters, seps)
        if best is None or key < best[0]:
            best = (key, witness)
    parent, steps = best[1]
    tree = new_parent(k, parent)
    trace = [TraceStep(parent, None, cache.info(parent), cache.h(parent))]
    for vertex, base in steps:
        tree = add_hypercherry(tree, vertex, base)
        cluster = tuple(sorted(base + (vertex,)))
        trace.append(TraceStep(
            cluster, base,
            cache.info(cluster) - cache.info(base),
            cache.h(cluster) - cache.h(base),
        ))
    score = tree_weight(p, tree, cache)
    if abs(-best[0][0] - score.weight) > WEIGHT_CHECK_TOL:
        raise ConsistencyError("oracle weight disagrees with itemized score")
    table = tuple(sorted(enumerate_candidates(p, k, cache), key=_sk_key))
    return FitResult("exhaustive", tree, tuple(trace), score, table)


def tree_from_trace(k: int, trace: Sequence[TraceStep]) -> TCherryJunctionTree:
    """Rebuild the grown tree from a recorded trace."""
    if not trace:
        raise DomainError("trace is empty")
    tree = new_parent(k, trace[0].cluster)
    for step in trace[1:]:
        if step.separator is None:
            raise DomainError("only the first trace step may lack a separator")
        fresh = set(step.cluster) - set(step.separator)
        if len(fresh) != 1:
            raise DomainError(f"trace step {step.cluster} does not add one vertex")
        tree = add_hypercherry(tree, fresh.pop(), step.separator)
    return tree


def _softmax(logits: np.ndarray, axis=None) -> np.ndarray:
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def random_factorizing_table(tree: TCherryJunctionTree, scheme, rng,
                             strengths: Sequence[float],
                             cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """A random distribution factorizing exactly over ``tree``.

    Draws the parent-cluster marginal and one conditional per grown
    vertex from strength-scaled gaussian logits: strength 0 gives the
    uniform factor, larger strengths sharpen it. ``strengths`` has one
    entry per cluster in construction order.
    """
    scheme = check_scheme(scheme)
    cards = {v.index: v.cardinality for v in scheme}
    if set(tree.vertices) != set(cards):
        raise DomainError("tree must cover exactly the scheme's variables")
    strengths = [float(s) for s in strengths]
    if len(strengths) != len(tree.clusters):
        raise DomainError(
            f"need {len(tree.clusters)} strengths (parent + each growth step), "
            f"got {len(strengths)}"
        )
    check_cap(scheme, cap)
    d = len(scheme)
    shape = tuple(v.cardinality for v in scheme)
    parent = tree.parent
    block_shape = tuple(cards[i] for i in parent)
    block = _softmax(strengths[0] * rng.standard_normal(block_shape))
    table = np.ones(shape) * expand_marginal(block, parent, d)
    for j, link in enumerate(tree.links, start=1):
        cluster = tree.clusters[j]
        fresh = (set(cluster) - set(link.separator)).pop()
        cond_shape = tuple(cards[i] for i in cluster)
        axis = cluster.index(fresh)
        cond = _softmax(strengths[j] * rng.standard_normal(cond_shape), axis=axis)
        table = table * expand_marginal(cond, cluster, d)
    table = table / np.sum(table)
    return JointTable(scheme, table, cap=cap)


def generate_tcherry_distribution(seed: int, d: int, k: int,
                                  cardinalities, strength,
                                  cap: int = DEFAULT_CELL_CAP):
    """A random t-cherry tree plus a distribution factorizing exactly over it.

    The parent cluster and each attachment separator are drawn at
    random; uncovered vertices enter in ascending order. ``strength``
    is a scalar (broadcast) or one value per cluster, controlling how
    far each factor sits from uniform. Returns (table, tree).
    """
    d, k = int(d), int(k)
    if not 2 <= k <= d:
        raise DomainError(f"order k must be in 2..{d}, got {k}")
    if isinstance(cardinalities, (int, np.integer)):
        cardinalities = [int(cardinalities)] * d
    cardinalities = [int(c) for c in cardinalities]
    if len(cardinalities) != d:
        raise DomainError(f"got {len(cardinalities)} cardinalities for d={d}")
    if isinstance(strength, (int, float, np.floating, np.integer)):
        strengths = [float(strength)] * (d - k + 1)
    else:
        strengths = [float(s) for s in strength]
        if len(strengths) != d - k + 1:
            raise DomainError(
                f"strength schedule needs {d - k + 1} entries for d={d}, k={k}; "
                f"got {len(strengths)}"
            )
    rng = np.random.default_rng(seed)
    parent = tuple(sorted(int(v) for v in rng.choice(np.arange(1, d + 1), size=k,
                                                     replace=False)))
    tree = new_parent(k, parent)
    for vertex in range(1, d + 1):
        if tree.covers(vertex):
            continue
        options = sorted(eligible_separators(tree))
        sep = options[int(rng.integers(len(options)))]
        tree = add_hypercherry(tree, vertex, sep)
    scheme = make_scheme(cardinalities)
    table = random_factorizing_table(tree, scheme, rng, strengths, cap=cap)
    return table, tree


def fit_to_dict(fr: FitResult) -> dict:
    """Plain-dict form of a fit: tree + score + trace + candidate table."""
    from .junction_tree import tree_to_dict
    from .scoring import score_to_dict

    return {
        "algorithm": fr.algorithm,
        "k": fr.tree.k,
        "tree": tree_to_dict(fr.tree),
        "score": score_to_dict(fr.score),
        "trace": [
            {
                "cluster": list(s.cluster),
                "separator": None if s.separator is None else list(s.separator),
                "w": s.w,
                "omega": s.omega,
            }
            for s in fr.trace
        ],
        "candidates": [
            {
                "cluster": list(c.cluster),
                "separator": list(c.base),
                "new_vertex": c.new_vertex,
                "w": c.w,
                "omega": c.omega,
            }
            for c in fr.candidate_table
        ],
    }
