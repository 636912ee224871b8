"""Dense discrete joint distributions over small product state spaces.

Variables are identified by 1-based indices 1..d, states by 1-based
integers 1..cardinality. Probability tables are dense numpy arrays in
row-major order over the scheme; a table refuses to materialize more
cells than the cap allows. Every subset argument is canonicalized to a
sorted tuple at the boundary, and all entropies are in bits.

Tables are values: arrays are frozen after construction and every
operation returns a new object.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from itertools import accumulate, combinations, count, islice
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class VariableSpec:
    """One discrete variable: its 1-based index, cardinality, optional name."""

    index: int
    cardinality: int
    name: str | None = None

    def __post_init__(self):
        if self.index < 1:
            raise DomainError(f"variable index must be >= 1, got {self.index}")
        if self.cardinality < 2:
            raise DomainError(
                f"variable {self.index}: cardinality must be >= 2, got {self.cardinality}"
            )


def make_scheme(cardinalities: Sequence[int], names: Sequence[str] | None = None):
    """Build a scheme tuple for variables 1..d with the given cardinalities."""
    if names is not None and len(names) != len(cardinalities):
        raise DomainError(
            f"got {len(names)} names for {len(cardinalities)} cardinalities"
        )
    return tuple(
        VariableSpec(i + 1, int(c), None if names is None else names[i])
        for i, c in enumerate(cardinalities)
    )


def canonical_subset(subset: Iterable[int], d: int, what: str = "subset") -> tuple[int, ...]:
    """Sorted duplicate-free tuple of variable indices, validated against 1..d."""
    t = tuple(sorted(int(i) for i in subset))
    if not t:
        raise DomainError(f"{what} must be non-empty")
    if len(set(t)) != len(t):
        raise DomainError(f"{what} contains duplicate indices: {t}")
    if t[0] < 1 or t[-1] > d:
        bad = [i for i in t if i < 1 or i > d]
        raise DomainError(f"{what} indices {bad} outside 1..{d}")
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


def check_cap(scheme, cap: int) -> int:
    """Number of cells of the scheme's state space; raises before any
    allocation when it exceeds ``cap``."""
    cells = 1
    for v in scheme:
        cells *= v.cardinality
        if cells > cap:
            raise CapacityError(
                f"product state space exceeds cap: >{cap} cells "
                f"for cardinalities {tuple(s.cardinality for s in scheme)}"
            )
    return cells


def _frozen_probs(probs, shape, what: str, tol: float = MASS_TOL,
                  error: type[Exception] = DomainError) -> np.ndarray:
    arr = np.asarray(probs, dtype=np.float64).reshape(shape)
    total = float(arr.sum())
    # A finite sum and no entry below 0 pass both entry checks at once.
    if not (math.isfinite(total) and arr.min(initial=0.0) >= 0.0):
        if not np.all(np.isfinite(arr)):
            raise error(f"{what} contains non-finite entries")
        if np.any(arr < 0.0):
            raise error(f"{what} contains negative entries")
    if abs(total - 1.0) > tol:
        raise error(f"{what} entries sum to {total!r}, not 1")
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
        object.__setattr__(self, "probs", _frozen_probs(probs, shape, "joint table"))
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

    def prob(self, state: Sequence[int]) -> float:
        return float(self.probs[self.cell(state)])

    def __repr__(self):
        return f"JointTable(d={self.d}, cardinalities={self.cardinalities})"


@dataclass(frozen=True)
class MarginalTable:
    """Marginal distribution over a sorted subset of variable indices.

    ``summed`` marks a table reduced inside the package from a joint of
    that many cells: its mass tolerance grows with the cells summed, and
    a failed check is an internal ``ConsistencyError``, not bad input.
    """

    subset: tuple[int, ...]
    probs: np.ndarray
    summed: InitVar[int | None] = None

    def __post_init__(self, summed):
        subset = tuple(int(i) for i in self.subset)
        if list(subset) != sorted(set(subset)):
            raise DomainError(f"marginal subset must be sorted and duplicate-free: {subset}")
        if not subset:
            raise DomainError("marginal subset must be non-empty")
        object.__setattr__(self, "subset", subset)
        tol, error = ((MASS_TOL, DomainError) if summed is None
                      else (MASS_TOL + summed * _EPS, ConsistencyError))
        arr = _frozen_probs(self.probs, np.asarray(self.probs).shape,
                            f"marginal table over {subset}", tol, error)
        if arr.ndim != len(subset):
            raise DomainError(
                f"marginal array has {arr.ndim} axes for subset of size {len(subset)}"
            )
        object.__setattr__(self, "probs", arr)

    @classmethod
    def derived(cls, tables: dict, cells: int) -> dict:
        """Marginal tables from ``{subset: probs}`` reduced inside the package
        from a validated joint of ``cells`` cells.

        Sums of finite non-negative cells stay finite and non-negative, so
        only their mass can drift; it is checked for all tables in one
        reduction, against MASS_TOL + cells·eps as with ``summed``. The
        first subset past it, in ``tables`` order, raises
        ``ConsistencyError``.
        """
        if not tables:
            return {}
        arrays = list(tables.values())
        offsets = np.fromiter(accumulate((a.size for a in arrays[:-1]), initial=0),
                              np.intp, len(arrays))
        totals = np.add.reduceat(np.concatenate(arrays, axis=None), offsets)
        ok = np.abs(totals - 1.0) <= MASS_TOL + cells * _EPS
        if not ok.all():
            subset, arr = list(tables.items())[int(np.argmin(ok))]
            raise ConsistencyError(
                f"marginal table over {subset} entries sum to {float(arr.sum())!r}, not 1")
        out = {}
        for subset, arr in tables.items():
            arr.flags.writeable = False
            table = out[subset] = object.__new__(cls)
            object.__setattr__(table, "subset", subset)
            object.__setattr__(table, "probs", arr)
        return out

    def prob(self, state: Sequence[int]) -> float:
        """Probability of a 1-based state vector over the subset."""
        if len(state) != len(self.subset):
            raise DomainError(
                f"state vector has {len(state)} entries, expected {len(self.subset)}"
            )
        return float(self.probs[tuple(int(s) - 1 for s in state)])


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
    np.add.at(table.reshape(-1), cells, 1.0 if counts is None else counts)
    total = float(np.sum(table))
    if total <= 0.0:
        raise DomainError("counts are all zero; cannot form a distribution")
    table /= total
    return JointTable(scheme, table, total_count=total, cap=cap)


def marginalize(p: JointTable, subset: Iterable[int]) -> MarginalTable:
    """Marginal of ``p`` over ``subset``, axes in ascending index order."""
    subset = canonical_subset(subset, p.d)
    keep = set(subset)
    drop = tuple(i for i in range(p.d) if (i + 1) not in keep)
    probs = p.probs.sum(axis=drop) if drop else p.probs
    return MarginalTable(subset, probs, p.probs.size)


def entropy(table) -> float:
    """Shannon entropy in bits of a joint or marginal table; 0·log 0 = 0."""
    probs = table.probs
    nz = probs[probs > 0.0]
    # np.sum accumulates pairwise, which keeps 6-decimal outputs stable.
    return float(-np.sum(nz * np.log2(nz)))


class MarginalCache:
    """Memoizes marginals, entropies and information contents per subset.

    ``fill(subsets)`` caches any set of marginals in one pass over the
    joint, and ``prefetch(k)`` fills every k-subset; a smaller subset
    requested after a prefetch is reduced from a cached k-superset.
    Values are deterministic, so concurrent writers racing on a key
    would store identical floats; within one process a plain dict is
    all that is needed.
    """

    __slots__ = ("table", "_marginals", "_h", "_info", "_singles", "_order")

    def __init__(self, table: JointTable):
        self.table = table
        self._marginals: dict[tuple[int, ...], MarginalTable] = {}
        self._h: dict[tuple[int, ...], float] = {}
        self._info: dict[tuple[int, ...], float] = {}
        self._singles: list[float] = []  # H(X_i) at i - 1, filled on first use
        self._order = 0  # every subset of this size is cached

    def fill(self, subsets) -> None:
        """Cache the marginal of every subset in ``subsets``, of any sizes;
        subsets already cached keep their values. A subset smaller than the
        prefetched order is reduced from its cached superset, as ``marginal``
        does; the rest come from one walk over the joint."""
        store, d = self._marginals, self.table.d
        keys = {s if type(s) is tuple and s in store else canonical_subset(s, d)
                for s in subsets}
        small = sorted(key for key in keys - store.keys() if len(key) < self._order)
        store.update(MarginalTable.derived({key: self._superset_sum(key) for key in small},
                                           self.table.probs.size))
        self._walk(keys.difference(small))

    def prefetch(self, k: int) -> None:
        """Cache the marginal of every k-subset in one pass, which reads
        about 2·k·cells instead of C(d,k)·cells."""
        d, k = self.table.d, int(k)
        if not 1 <= k <= d:
            raise DomainError(f"prefetch order must be in 1..{d}, got {k}")
        if k <= self._order:
            return
        self._walk(set(combinations(range(1, d + 1), k)))
        self._order = k

    def _walk(self, keys: set[tuple[int, ...]]) -> None:
        """Fill the canonical ``keys`` by a depth-first walk over their prefixes.

        The node for a prefix a1 < … < aj holds the table over
        {a1..aj} ∪ {aj+1..d}, and a key equal to the prefix is summed out
        of its trailing axes there. Before each child b the node sums
        out, in one call, the axes of the variables from the previous
        child (or aj+1) up to b − 1. Every new partial sum is at most half the table it
        came from, so the live ones add up to less than the joint.
        """
        store = self._marginals
        if keys <= store.keys():
            return
        trie: dict = {}
        for key in keys:
            node = trie
            for i in key:
                node = node.setdefault(i, {})
        cells = self.table.probs.size

        new: dict[tuple[int, ...], np.ndarray] = {}

        def visit(prefix, probs, node):
            j = len(prefix)
            if prefix in keys and prefix not in store:
                new[prefix] = probs.sum(axis=tuple(range(j, probs.ndim)))
            nxt = prefix[-1] + 1 if prefix else 1  # the variable on axis j
            for b in sorted(node):
                if b > nxt:
                    probs = probs.sum(axis=tuple(range(j, j + b - nxt)))
                visit(prefix + (b,), probs, node[b])
                nxt = b

        visit((), self.table.probs, trie)
        store.update(MarginalTable.derived(new, cells))

    def marginal(self, subset) -> MarginalTable:
        m = self._marginals.get(subset) if type(subset) is tuple else None
        if m is None:
            key = canonical_subset(subset, self.table.d)
            m = self._marginals.get(key)
            if m is None:
                m = self._reduce(key)
                self._marginals[key] = m
        return m

    def _reduce(self, key: tuple[int, ...]) -> MarginalTable:
        """``key``'s marginal from its cached superset; a subset no prefetch
        covers uses the joint."""
        if len(key) >= self._order:
            return marginalize(self.table, key)
        return MarginalTable.derived({key: self._superset_sum(key)},
                                     self.table.probs.size)[key]

    def _superset_sum(self, key: tuple[int, ...]) -> np.ndarray:
        """Sum ``key``'s marginal out of its prefetched superset padded with
        the lowest missing indices."""
        pad = islice((i for i in count(1) if i not in key), self._order - len(key))
        sup = self._marginals[tuple(sorted(key + tuple(pad)))]
        return sup.probs.sum(axis=tuple(a for a, i in enumerate(sup.subset) if i not in key))

    def h(self, subset) -> float:
        """Entropy in bits of the marginal over ``subset``."""
        value = self._h.get(subset) if type(subset) is tuple else None
        if value is None:
            # The marginal's subset is the canonical key; a cached marginal
            # is found without canonicalizing again.
            m = self.marginal(subset)
            value = self._h.get(m.subset)
            if value is None:
                value = self._h[m.subset] = entropy(m)
        return value

    def info(self, subset) -> float:
        """Information content of ``subset``: Σ H(X_i) − H(X_subset)."""
        value = self._info.get(subset) if type(subset) is tuple else None
        if value is None:
            key = self.marginal(subset).subset
            value = self._info.get(key)
            if value is None:
                if len(key) == 1:
                    value = 0.0
                else:
                    if not self._singles:
                        self._singles = [self.h((i,)) for i in range(1, self.table.d + 1)]
                    singles = self._singles
                    value = math.fsum(singles[i - 1] for i in key) - self.h(key)
                self._info[key] = value
        return value

    def point(self, subset, full_state: Sequence[int]) -> float:
        """Marginal probability of ``full_state`` restricted to ``subset``."""
        m = self.marginal(subset)
        cell = self.table.cell(full_state)
        return float(m.probs[tuple(cell[i - 1] for i in m.subset)])


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
