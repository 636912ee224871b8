"""Fitting t-cherry junction trees to a joint distribution.

Two greedy algorithms drive growth from a scored candidate table: ``sk``
accepts candidates by decreasing information weight w = I(cluster) −
I(base), ``malvestuto`` by increasing entropy weight ω = H(cluster) −
H(base). ``chow_liu`` is the k = 2 spanning-tree special case of ``sk``
and ``exhaustive`` enumerates every structure as an oracle while there
are few of them. Every fit builds its tree and trace, and checks them
against the itemized score, in ``_fit``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class TraceStep:
    """One accepted growth step; the first step records the parent pick."""

    cluster: IndexSet
    separator: IndexSet | None
    w: float
    omega: float


class CandidateTable:
    """Scored candidates, one row per (k-subset, base): C(d,k)·k rows.

    Row id r stands for the cluster of rank r // k and its (r % k)-th
    base, which leaves out the cluster's (r % k)-th vertex from the end.
    Ranks are lexicographic, the order ``combinations`` yields, so ids
    order as (cluster, base) do. The table stores its rows, in order, as
    the one array ``ids``. The per-rank arrays beside it, ``members`` and
    ``base_ranks`` (each C(d,k) by k) and the I and H of each cluster and
    each base, are shared with the tables ``take``, ``by_w`` and
    ``by_omega`` give. The other columns are gathered when read: ``w`` is
    ``i_cluster[cluster_rank] − i_base[base_rank]`` and ``omega`` the same
    in H, to the bit.
    """

    __slots__ = ("d", "members", "base_ranks", "i_cluster", "h_cluster", "i_base", "h_base", "ids")

    def __init__(self, d, members, base_ranks, i_cluster, h_cluster, i_base, h_base, ids=None):
        self.d, self.members, self.base_ranks = d, members, base_ranks
        self.i_cluster, self.h_cluster, self.i_base, self.h_base = i_cluster, h_cluster, i_base, h_base
        self.ids = np.arange(base_ranks.size) if ids is None else ids

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> CandidateTable:
        """The table of ``rows``: a list of positions, a slice or a mask."""
        return CandidateTable(self.d, self.members, self.base_ranks, self.i_cluster,
                              self.h_cluster, self.i_base, self.h_base, self.ids[rows])

    def by_w(self) -> CandidateTable:
        """Decreasing w; ties by row id, which is by cluster, then base."""
        return self.take(np.lexsort((self.ids, -self.w)))

    def by_omega(self) -> CandidateTable:
        """Increasing ω; ties by row id, which is by cluster, then base."""
        return self.take(np.lexsort((self.ids, self.omega)))

    @property
    def cluster_rank(self) -> np.ndarray:
        return self.ids // self.members.shape[1]

    @property
    def base_rank(self) -> np.ndarray:
        return self.base_ranks.ravel()[self.ids]

    @property
    def w(self) -> np.ndarray:
        return self.i_cluster[self.cluster_rank] - self.i_base[self.base_rank]

    @property
    def omega(self) -> np.ndarray:
        return self.h_cluster[self.cluster_rank] - self.h_base[self.base_rank]

    def new_vertices(self) -> np.ndarray:
        """The vertex each row adds: its cluster's (r % k)-th from the end."""
        return self.members[:, ::-1].ravel()[self.ids]

    def bases(self) -> np.ndarray:
        """The base of each row, ascending: an (n, k−1) array."""
        k = self.members.shape[1]
        keep = np.arange(k) != (k - 1 - self.ids % k)[:, None]
        return self.members[self.ids // k][keep].reshape(len(self), k - 1)

    def growth(self, parent: IndexSet):
        """Grow from ``parent`` until every variable is covered: for each of
        the d − k steps, yield the row accepted and the mask of the rows
        admitted, those whose new vertex is uncovered and whose base is a
        (k−1)-subset of a cluster built. The row accepted is the mask's
        first, O(C) per step for C rows."""
        k = len(parent)
        covered = np.zeros(self.d + 1, dtype=bool)
        covered[list(parent)] = True
        eligible = np.zeros(math.comb(self.d, k - 1), dtype=bool)
        eligible[_lex_ranks(np.array(list(combinations(parent, k - 1))), self.d)] = True
        vertices, bases = self.new_vertices().astype(np.intp), self.base_rank
        for _ in range(self.d - k):
            admitted = ~covered[vertices] & eligible[bases]
            row = int(admitted.argmax())
            if not admitted[row]:
                raise ConsistencyError("no admissible candidate although vertices remain")
            yield row, admitted
            covered[vertices[row]] = True
            eligible[self.base_ranks[self.ids[row] // k]] = True


@dataclass(frozen=True)
class FitResult:
    algorithm: str
    tree: TCherryJunctionTree
    trace: tuple[TraceStep, ...]
    score: ScoreBreakdown
    candidate_table: CandidateTable
    #: The rows of ``candidate_table`` the tree grew by, in order; none at d = k.
    rows: tuple[int, ...]


def _validate_k(d: int, k: int) -> int:
    k = int(k)
    if not 2 <= k <= d:
        raise DomainError(f"order k must be in 2..{d}, got {k}")
    return k


def _lex_ranks(subsets: np.ndarray, d: int) -> np.ndarray:
    """Rank of each sorted row of ``subsets`` among the m-subsets of 1..d in
    lexicographic order: C(d,m) − 1 − Σ_i C(d − a_i, m − i), i from 0, where
    the sum counts the subsets that come after it."""
    m = subsets.shape[1]
    binom = np.array([[math.comb(n, r) for r in range(m + 1)] for n in range(d + 1)],
                     dtype=np.int64)
    return binom[d, m] - 1 - binom[d - subsets, m - np.arange(m)].sum(axis=1)


def enumerate_candidates(p: JointTable, k: int,
                         cache: MarginalCache | None = None) -> CandidateTable:
    """Score every (k-subset, base) pair: C(d,k)·k candidates, by row id:
    by cluster, then by base, both in lexicographic order."""
    k = _validate_k(p.d, k)
    cache = cache_for(p, cache)
    cache.prefetch(k)
    clusters = tuple(combinations(p.variables, k))
    i_base, h_base = cache.info_h(combinations(p.variables, k - 1))
    i_cluster, h_cluster = cache.info_h(clusters)
    members = np.array(clusters, dtype=np.min_scalar_type(p.d))
    base_ranks = np.stack([_lex_ranks(np.delete(members, j, axis=1), p.d)
                           for j in reversed(range(k))], axis=1)
    return CandidateTable(p.d, members, base_ranks, i_cluster, h_cluster, i_base, h_base)


def find_parent_cluster(p: JointTable, k: int,
                        cache: MarginalCache | None = None) -> IndexSet:
    """Cluster of the best candidate: argmax over K of max_v I(K) − I(K∖{v})."""
    order = enumerate_candidates(p, k, cache_for(p, cache)).by_w()
    return tuple(order.members[order.cluster_rank[0]].tolist())


def _fit(algorithm: str, p: JointTable, cache: MarginalCache, table: CandidateTable,
         parent: IndexSet, rows: list[int]) -> FitResult:
    """Build the tree and trace that grow from ``parent`` by the table's
    ``rows``, score the tree and check both accumulators against it.

    Each step's vertex, base, w and ω are its row's, so w and ω are the
    bits I(C) − I(S) and H(C) − H(S) give from the cached floats.
    """
    steps = table.take(rows)
    tree = new_parent(len(parent), parent)
    trace = [TraceStep(parent, None, cache.info(parent), cache.h(parent))]
    for vertex, base, w, omega in zip(steps.new_vertices().tolist(), steps.bases().tolist(),
                                      steps.w.tolist(), steps.omega.tolist()):
        tree = add_hypercherry(tree, vertex, tuple(base))
        trace.append(TraceStep(tree.clusters[-1], tuple(base), w, omega))
    score = tree_weight(p, tree, cache)
    if abs(math.fsum(s.w for s in trace) - score.weight) > WEIGHT_CHECK_TOL:
        raise ConsistencyError("greedy weight accumulator disagrees with itemized score")
    itemized = (
        math.fsum(cache.h(c) for c in tree.clusters)
        - math.fsum((n - 1) * cache.h(s) for s, n in tree.nu.items())
    )
    if abs(math.fsum(s.omega for s in trace) - itemized) > WEIGHT_CHECK_TOL:
        raise ConsistencyError("entropy accumulator disagrees with itemized sum")
    return FitResult(algorithm, tree, tuple(trace), score, table, tuple(rows))


def fit_sk(p: JointTable, k: int, cache: MarginalCache | None = None) -> FitResult:
    """Greedy fit by decreasing information weight.

    The first pick is the cluster of the argmax-w candidate (its
    orientation is discarded); afterwards growth accepts the best
    admissible candidate until every variable is covered.
    """
    k = _validate_k(p.d, k)
    cache = cache_for(p, cache)
    order = enumerate_candidates(p, k, cache).by_w()
    parent = tuple(order.members[order.cluster_rank[0]].tolist())
    return _fit("sk", p, cache, order, parent, [row for row, _ in order.growth(parent)])


def fit_malvestuto(p: JointTable, k: int,
                   cache: MarginalCache | None = None) -> FitResult:
    """Greedy fit by increasing entropy weight, seeded at the min-entropy
    cluster, the lexicographically first of a tie."""
    k = _validate_k(p.d, k)
    cache = cache_for(p, cache)
    order = enumerate_candidates(p, k, cache).by_omega()
    parent = tuple(order.members[order.h_cluster.argmin()].tolist())
    return _fit("malvestuto", p, cache, order, parent, [row for row, _ in order.growth(parent)])


def fit_chow_liu(p: JointTable, cache: MarginalCache | None = None) -> FitResult:
    """Maximum-mutual-information spanning tree, as a k = 2 tree.

    At k = 2 the ``sk`` growth is Prim's algorithm under the strict order
    (−I, edge), so it finds the tree Kruskal's algorithm finds.
    """
    if p.d < 2:
        raise DomainError("chow_liu needs at least two variables")
    return replace(fit_sk(p, 2, cache), algorithm="chow_liu")


#: The most structures ``fit_exhaustive`` scores: the count at d = 7,
#: k = 3, the largest at any d <= 7.
EXHAUSTIVE_LIMIT = 27_951


def structure_count(d: int, k: int) -> int:
    """The t-cherry structures over 1..d with clusters of size k: the labeled
    (k−1)-trees, C(d,k−1)·m^(d−k−1) with m = (k−1)(d−k+1) + 1 (Beineke &
    Pippert 1969), which is 1 at d = k."""
    m = (k - 1) * (d - k + 1) + 1
    return math.comb(d, k - 1) * m ** (d - k) // m


def iter_structures(d: int, k: int):
    """Every t-cherry structure over 1..d, deduplicated.

    Yields (clusters, separators, witness) where clusters is a sorted
    tuple of clusters, separators the sorted separator multiset, and
    witness one growth order: (parent, ((vertex, separator), ...)).
    Two growths with the same cluster set and separator multiset are the
    same structure.
    """
    d = int(d)
    k = _validate_k(d, k)
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


def fit_exhaustive(p: JointTable, k: int, cache: MarginalCache | None = None) -> FitResult:
    """Score every structure and return the best; refused when there are
    more than ``EXHAUSTIVE_LIMIT``.

    Ties on weight resolve to the lexicographically smallest cluster
    set, then separator multiset.
    """
    k = _validate_k(p.d, k)
    count = structure_count(p.d, k)
    if count > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"exhaustive search refused for d={p.d}, k={k}: {count} structures "
            f"(labeled {k - 1}-trees), more than {EXHAUSTIVE_LIMIT}"
        )
    cache = cache_for(p, cache)
    # Scored first, as in every fit, so structures are weighed from the
    # marginals the table prefetched and not from joint reductions.
    table = enumerate_candidates(p, k, cache).by_w()
    best = None
    for clusters, seps, witness in iter_structures(p.d, k):
        weight = math.fsum(cache.info(c) for c in clusters) - math.fsum(
            cache.info(s) for s in seps
        )
        key = (-weight, clusters, seps)
        if best is None or key < best[0]:
            best = (key, witness)
    (neg_weight, _, _), (parent, steps) = best
    # A witness step's row attaches its vertex to the cluster it makes.
    where = {(tuple(c), v): row for row, (c, v) in enumerate(zip(
        table.members[table.cluster_rank].tolist(), table.new_vertices().tolist()))}
    rows = [where[tuple(sorted(base + (vertex,))), vertex] for vertex, base in steps]
    fr = _fit("exhaustive", p, cache, table, parent, rows)
    if abs(-neg_weight - fr.score.weight) > WEIGHT_CHECK_TOL:
        raise ConsistencyError("oracle weight disagrees with itemized score")
    return fr


def _softmax(strength: float, z: np.ndarray, axis=None) -> np.ndarray:
    """Softmax of the logits ``strength·z`` along ``axis``; a logit that
    overflows (or a non-finite strength) is a ``DomainError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = strength * z
        if not np.isfinite(logits).all():
            raise DomainError(f"strength {strength!r} makes the factor logits non-finite")
        # A shifted logit that overflows is -inf: probability 0, the exact limit.
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
    block = _softmax(strengths[0], rng.standard_normal(block_shape))
    table = np.ones(shape)
    table *= expand_marginal(block, parent, d)
    for j, link in enumerate(tree.links, start=1):
        cluster = tree.clusters[j]
        fresh = (set(cluster) - set(link.separator)).pop()
        cond_shape = tuple(cards[i] for i in cluster)
        axis = cluster.index(fresh)
        cond = _softmax(strengths[j], rng.standard_normal(cond_shape), axis=axis)
        table *= expand_marginal(cond, cluster, d)
    table /= np.sum(table)
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
    d = int(d)
    k = _validate_k(d, k)
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
