"""Dense discrete joint distributions over small product state spaces.

Variables are identified by 1-based indices 1..d, states by 1-based
integers 1..cardinality. Probability tables are dense numpy arrays in
row-major order over the scheme; a table refuses to materialize more
cells than the cap allows. Every subset argument is canonicalized to a
sorted tuple at the boundary, and all entropies are in bits. The
library takes its marginals from ``MarginalCache``, which sums each one
but the joint itself by one route, a walk over the subsets' prefixes.

Tables are values: arrays are frozen after construction and every
operation returns a new object.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError

#: Refuse to allocate joint tables with more cells than this by default.
DEFAULT_CELL_CAP = 100_000_000

#: Absolute tolerance on the total mass of a probability table.
MASS_TOL = 1e-12

#: Summing n non-negative terms in any order errs by at most (n - 1)·eps/2
#: of their total, so a marginal reduced from an n-cell joint may drift
#: from unit mass by up to MASS_TOL + n·_EPS.
_EPS = float(np.finfo(np.float64).eps)


class VariableSpec(NamedTuple("VariableSpec", [("index", int), ("cardinality", int),
                                               ("name", str | None)])):
    """One discrete variable: its 1-based index, cardinality, optional name."""

    __slots__ = ()

    def __new__(cls, index: int, cardinality: int, name: str | None = None):
        if index < 1:
            raise DomainError(f"variable index must be >= 1, got {index}")
        if cardinality < 2:
            raise DomainError(
                f"variable {index}: cardinality must be >= 2, got {cardinality}"
            )
        return super().__new__(cls, index, cardinality, name)


def make_scheme(cardinalities: Sequence[int]):
    """Build a scheme tuple for variables 1..d with the given cardinalities."""
    return tuple(VariableSpec(i + 1, int(c)) for i, c in enumerate(cardinalities))


def canonical_subset(subset: Iterable[int], d: int) -> tuple[int, ...]:
    """Sorted duplicate-free tuple of variable indices, validated against 1..d."""
    t = tuple(sorted(map(int, subset)))
    if not t:
        raise DomainError("subset must be non-empty")
    if len(set(t)) != len(t):
        raise DomainError(f"subset contains duplicate indices: {t}")
    if t[0] < 1 or t[-1] > d:
        bad = [i for i in t if i < 1 or i > d]
        raise DomainError(f"subset indices {bad} outside 1..{d}")
    return t


def check_scheme(scheme) -> tuple[VariableSpec, ...]:
    """The scheme as a tuple; its indices must be exactly 1..d in order."""
    scheme = tuple(scheme)
    if not scheme:
        raise DomainError("scheme must contain at least one variable")
    indices = [v.index for v in scheme]
    if indices != list(range(1, len(scheme) + 1)):
        raise DomainError(
            f"scheme indices must be exactly 1..{len(scheme)} in order, got {indices}"
        )
    return scheme


def check_cap(scheme, cap: int) -> None:
    """Raise, before any allocation, when the scheme's state space has more
    cells than ``cap``."""
    cells = 1
    for v in scheme:
        cells *= v.cardinality
        if cells > cap:
            raise CapacityError(
                f"product state space exceeds cap: >{cap} cells "
                f"for cardinalities {tuple(s.cardinality for s in scheme)}"
            )


def _frozen_probs(probs, shape) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64).reshape(shape)
    total = float(arr.sum())
    # A finite sum and no entry below 0 pass both entry checks at once.
    if not (math.isfinite(total) and arr.min(initial=0.0) >= 0.0):
        if not np.all(np.isfinite(arr)):
            raise DomainError("joint table contains non-finite entries")
        if np.any(arr < 0.0):
            raise DomainError("joint table contains negative entries")
    if abs(total - 1.0) > MASS_TOL:
        raise DomainError(f"joint table entries sum to {total!r}, not 1")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


class JointTable:
    """Joint distribution of variables 1..d as a dense d-dimensional array.

    ``probs[s1-1, ..., sd-1]`` is the probability of the cell where
    variable i is in state s_i. ``total_count`` records the sample size
    the table came from, when it came from counts.
    """

    __slots__ = ("scheme", "probs", "total_count")

    def __init__(self, scheme, probs, total_count: float | None = None,
                 cap: int = DEFAULT_CELL_CAP):
        scheme = check_scheme(scheme)
        check_cap(scheme, cap)
        shape = tuple(v.cardinality for v in scheme)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "probs", _frozen_probs(probs, shape))
        object.__setattr__(self, "total_count", total_count)

    def __setattr__(self, name, value):
        raise AttributeError("JointTable is immutable")

    @property
    def d(self) -> int:
        return len(self.scheme)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(range(1, self.d + 1))

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.scheme)

    def cell(self, state: Sequence[int]) -> tuple[int, ...]:
        """0-based array index for a full 1-based state vector."""
        if len(state) != self.d:
            raise DomainError(f"state vector has {len(state)} entries, expected {self.d}")
        idx = []
        for v, s in zip(self.scheme, state):
            s = int(s)
            if not 1 <= s <= v.cardinality:
                raise DomainError(
                    f"state {s} out of range for variable {v.index} "
                    f"(cardinality {v.cardinality})"
                )
            idx.append(s - 1)
        return tuple(idx)

    def __repr__(self):
        return f"JointTable(d={self.d}, cardinalities={self.cardinalities})"


def from_counts(cells, scheme, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Build a joint table from (state-vector, count) cells.

    Counts are non-negative reals (integer contingency counts or exact
    probability weights); cells repeated in the input accumulate.
    """
    scheme = check_scheme(scheme)
    check_cap(scheme, cap)
    states, counts = [], []
    for state, count in cells:
        state = tuple(int(s) for s in state)
        if len(state) != len(scheme):
            raise DomainError(
                f"cell {state}: has {len(state)} states, expected {len(scheme)}"
            )
        count = float(count)
        if not 0 <= count < math.inf:
            raise DomainError(f"cell {state}: count {count!r} is not a non-negative real")
        if not all(1 <= s <= v.cardinality for v, s in zip(scheme, state)):
            _raise_out_of_range(state, scheme)
        states.append(state)
        counts.append(count)
    codes = np.array(states, dtype=np.int64).reshape(len(states), len(scheme)) - 1
    return from_codes(codes, np.array(counts, dtype=np.float64), scheme, cap=cap)


def _raise_out_of_range(state, scheme):
    v = next(v for v, s in zip(scheme, state) if not 1 <= s <= v.cardinality)
    raise DomainError(
        f"cell {state}: state {state[v.index - 1]} out of range for variable {v.index} "
        f"(cardinality {v.cardinality})"
    )


def from_codes(codes, counts, scheme, cap: int = DEFAULT_CELL_CAP) -> JointTable:
    """Build a joint table from an (n, d) integer array of 0-based state codes.

    Row r is the cell with 1-based states ``codes[r] + 1`` and adds
    ``counts[r]``, a non-negative real the caller has checked, or one
    observation when ``counts`` is None. Repeated cells accumulate in row
    order. With ``scheme`` None, each cardinality is the variable's largest
    state, floored at 2, since one-state variables are not representable.
    A state out of range is reported as its cell: the first such
    row, or for an unweighted sample, whose row order carries no meaning,
    the smallest such cell.
    """
    # One pass per column: a reduction over axis 0 of a C-ordered array is slower.
    top = [int(column.max(initial=0)) for column in codes.T]
    scheme = check_scheme(make_scheme([max(t + 1, 2) for t in top]) if scheme is None
                          else scheme)
    check_cap(scheme, cap)
    shape = tuple(v.cardinality for v in scheme)
    if len(codes) and (codes.min() < 0 or any(t >= c for t, c in zip(top, shape))):
        rows = np.flatnonzero(((codes < 0) | (codes >= shape)).any(axis=1))
        if counts is None:
            rows = rows[np.lexsort(codes[rows].T[::-1])]
        _raise_out_of_range(tuple((codes[rows[0]].astype(np.int64) + 1).tolist()), scheme)
    # Row-major cell numbers, one column at a time (as np.ravel_multi_index
    # gives them, in about half its time).
    cells = np.zeros(len(codes), dtype=np.intp)
    for column, c in zip(codes.T, shape):
        cells *= c
        cells += column
    table = np.zeros(shape)
    with np.errstate(over="ignore"):  # an infinite total is refused below
        np.add.at(table.reshape(-1), cells, 1.0 if counts is None else counts)
        total = float(np.sum(table))
    if total == math.inf:
        raise DomainError("the counts' total is not a finite double")
    if total <= 0.0:
        raise DomainError("counts are all zero; cannot form a distribution")
    table /= total
    return JointTable(scheme, table, total_count=total, cap=cap)


def marginalize(p: JointTable, subset: Iterable[int]) -> np.ndarray:
    """Marginal array of ``p`` over ``subset``, axes in ascending index order."""
    keep = set(canonical_subset(subset, p.d))
    drop = tuple(i for i in range(p.d) if (i + 1) not in keep)
    return p.probs.sum(axis=drop) if drop else p.probs


def entropy(probs) -> float:
    """Shannon entropy in bits of a probability array or a joint table;
    0·log 0 = 0."""
    probs = probs.probs if isinstance(probs, JointTable) else probs
    nz = probs[probs > 0.0]
    # np.sum accumulates pairwise, which keeps 6-decimal outputs stable.
    return float(-np.sum(nz * np.log2(nz)))


def _check_mass(keys: list, stack: np.ndarray, cells: int) -> None:
    """Raise ``ConsistencyError`` at the first row of ``stack``, the marginal
    over ``keys[row]`` summed from a validated joint of ``cells`` cells, whose
    mass is off 1 by more than MASS_TOL + cells·eps: sums of finite
    non-negative cells stay finite and non-negative, so only mass can drift."""
    totals = stack.reshape(len(keys), -1).sum(axis=1)
    bad = np.flatnonzero(~(np.abs(totals - 1.0) <= MASS_TOL + cells * _EPS))
    if len(bad):
        raise ConsistencyError(f"marginal table over {keys[bad[0]]} entries sum to "
                               f"{float(totals[bad[0]])!r}, not 1")


class MarginalCache:
    """Memoizes marginals, entropies and information contents per subset.

    Every marginal but the full joint is summed from the joint by one
    route, the prefix walk: ``fill(subsets)`` caches any set of marginals
    in one walk, ``prefetch(k)`` walks everything a candidate table of
    order k reads, and a subset asked for alone is walked alone.
    Marginals are kept in read-only stacks, one C-ordered (rows, *shape)
    array per cardinality shape of a walk, and handed out as rows; every
    marginal, also the joint, enters as a stack, whose mass and entropies
    are computed in one pass.
    Values are deterministic, so concurrent writers racing on a key
    would store identical floats; within one process a plain dict is
    all that is needed.
    """

    __slots__ = ("table", "_marginals", "_h", "_info", "_singles")

    def __init__(self, table: JointTable):
        self.table = table
        self._marginals: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}  # (stack, row)
        self._h: dict[tuple[int, ...], float] = {}
        self._info: dict[tuple[int, ...], float] = {}
        self._singles: list[float] = []  # H(X_i) at i - 1, filled on first use

    def _key(self, subset) -> tuple[int, ...]:
        """``subset`` as the canonical tuple; a cached key is taken as is."""
        if type(subset) is tuple and subset in self._marginals:
            return subset
        return canonical_subset(subset, self.table.d)

    def fill(self, subsets) -> None:
        """Cache the marginal of every subset in ``subsets``, of any sizes,
        in one walk over the joint; subsets already cached keep their
        values."""
        keys = {self._key(s) for s in subsets}.difference(self._marginals)
        if keys:
            self._walk(sorted(keys))

    def prefetch(self, k: int) -> None:
        """Cache, in one walk, every k-subset, (k−1)-subset and single: all
        a candidate table of order k reads. The walk reads about 2·k·cells
        instead of C(d,k)·cells."""
        d, k = self.table.d, int(k)
        if not 1 <= k <= d:
            raise DomainError(f"prefetch order must be in 1..{d}, got {k}")
        store = self._marginals
        keys = sorted(key for m in {k, k - 1, 1} - {0}
                      for key in combinations(range(1, d + 1), m) if key not in store)
        if keys:
            self._walk(keys)

    def _walk(self, keys: list[tuple[int, ...]]) -> None:
        """Fill the sorted, canonical, uncached ``keys`` by a depth-first
        walk over their prefixes.

        The node for a prefix a1 < … < aj holds the table over
        {a1..aj} ∪ {aj+1..d}. Before each child b the node sums out, in
        one call, the axes of the variables from the previous child (or
        aj+1) up to b − 1. A key equal to the prefix is summed out of its
        trailing axes after the children, from the last and smallest
        partial sum they leave, and joins the stack of its shape. Every
        new partial sum is at most half the table it came from, so the
        live ones add up to less than the joint.
        """
        found: dict[tuple[int, ...], tuple[list, list]] = {}  # shape: (keys, marginals)

        def visit(prefix, probs, lo, hi):
            # keys[lo:hi] are the keys that start with ``prefix``.
            j = len(prefix)
            is_key = keys[lo] == prefix  # it sorts before the keys it prefixes
            lo += is_key
            nxt = prefix[-1] + 1 if prefix else 1  # the variable on axis j
            while lo < hi:
                b = keys[lo][j]
                end = bisect_left(keys, prefix + (b + 1,), lo, hi)
                if b > nxt:
                    probs = probs.sum(axis=tuple(range(j, j + b - nxt)))
                visit(prefix + (b,), probs, lo, end)
                lo, nxt = end, b
            if is_key:
                m = probs.sum(axis=tuple(range(j, probs.ndim)))
                group, marginals = found.setdefault(m.shape, ([], []))
                group.append(prefix)
                marginals.append(m)

        visit((), self.table.probs, 0, len(keys))
        for shape, (group, marginals) in found.items():
            self._add_stack(group, np.concatenate(marginals).reshape(len(group), *shape))

    def _add_stack(self, keys: list[tuple[int, ...]], stack: np.ndarray) -> None:
        """Check and cache ``stack``, row r the marginal over ``keys[r]``
        summed from the joint, with the entropy of every row."""
        _check_mass(keys, stack, self.table.probs.size)
        stack.flags.writeable = False
        self._marginals.update(zip(keys, zip(repeat(stack), range(len(keys)))))
        flat = stack.reshape(len(keys), -1)
        # Each row is summed pairwise, as ``entropy`` sums its nonzero
        # cells; a row with a zero cell comes out nan and is left to
        # ``entropy``, which sums its nonzero cells alone.
        with np.errstate(divide="ignore", invalid="ignore"):
            h = (-(flat * np.log2(flat)).sum(axis=1)).tolist()
        for r in np.flatnonzero(np.isnan(h)).tolist():
            h[r] = entropy(flat[r])
        self._h.update(zip(keys, h))

    def _ensure(self, key: tuple[int, ...]) -> None:
        """Cache the canonical ``key``: walked alone, or, for the full key,
        the joint itself."""
        if key not in self._marginals:
            if len(key) == self.table.d:
                self._add_stack([key], marginalize(self.table, key)[np.newaxis])
            else:
                self._walk([key])

    def marginal(self, subset) -> np.ndarray:
        """Read-only marginal over ``subset``, axes in ascending index order."""
        key = self._key(subset)
        self._ensure(key)
        stack, row = self._marginals[key]
        return stack[row]

    def h(self, subset) -> float:
        """Entropy in bits of the marginal over ``subset``."""
        value = self._h.get(subset) if type(subset) is tuple else None
        if value is None:
            key = self._key(subset)
            self._ensure(key)
            value = self._h[key]
        return value

    def info(self, subset) -> float:
        """Information content of ``subset``: Σ H(X_i) − H(X_subset)."""
        value = self._info.get(subset) if type(subset) is tuple else None
        if value is None:
            key = self._key(subset)
            value = self._info.get(key)
            if value is None:
                if len(key) == 1:
                    value = 0.0
                else:
                    singles = self._single_h()
                    value = math.fsum(singles[i - 1] for i in key) - self.h(key)
                self._info[key] = value
        return value

    def _single_h(self) -> list[float]:
        """H(X_i) at i - 1."""
        if not self._singles:
            self.fill((i,) for i in range(1, self.table.d + 1))
            self._singles = [self._h[(i,)] for i in range(1, self.table.d + 1)]
        return self._singles

    def info_h(self, subsets) -> tuple[np.ndarray, np.ndarray]:
        """I and H of each of ``subsets``, canonical tuples of one size, as
        two arrays: the floats ``info`` and ``h`` give, filled per stack."""
        subsets = list(subsets)
        self.fill(subsets)
        h = np.fromiter(map(self.h, subsets), np.float64, len(subsets))
        singles = np.array(self._single_h())[np.array(subsets) - 1]
        info = np.fromiter(map(math.fsum, singles.tolist()), np.float64, len(subsets)) - h
        self._info.update(zip(subsets, info.tolist()))
        return info, h

    def point(self, subset, full_state: Sequence[int]) -> float:
        """Marginal probability of ``full_state`` restricted to ``subset``."""
        key = self._key(subset)
        cell = self.table.cell(full_state)
        return float(self.marginal(key)[tuple(cell[i - 1] for i in key)])


def cache_for(p: JointTable, cache: MarginalCache | None) -> MarginalCache:
    """``cache``, checked to belong to ``p``, or a fresh cache for ``p``."""
    if cache is None:
        return MarginalCache(p)
    if cache.table is not p:
        raise DomainError("cache was built for a different table")
    return cache


def expand_marginal(probs: np.ndarray, subset: Sequence[int], d: int) -> np.ndarray:
    """Reshape a marginal array over sorted ``subset`` so it broadcasts
    over the full d-dimensional table."""
    shape = [1] * d
    for axis, var in enumerate(subset):
        shape[var - 1] = probs.shape[axis]
    return probs.reshape(shape)


def with_additive_smoothing(p: JointTable, alpha: float) -> JointTable:
    """Add ``alpha`` pseudo-counts to every cell, including unobserved ones.

    Requires ``total_count`` so the original counts can be recovered;
    tables built directly from probabilities smooth with N = 1.
    """
    alpha = float(alpha)
    if not 0 <= alpha < math.inf:
        raise DomainError(f"smoothing must be finite and non-negative, got {alpha}")
    if alpha == 0.0:
        return p
    n = p.total_count if p.total_count is not None else 1.0
    counts = p.probs * n + alpha
    total = float(np.sum(counts))
    if not math.isfinite(total) or total <= 0:
        raise ConsistencyError("smoothed counts did not produce positive mass")
    return JointTable(p.scheme, counts / total, total_count=n)
