from typing import NamedTuple

import numpy as np
import pytest

from tcherry import (
    JointTable,
    MarginalCache,
    TCherryError,
    add_hypercherry,
    eligible_separators,
    load_lizards,
    make_scheme,
    new_parent,
)
from tcherry.cli import RowTable


@pytest.fixture(scope="session")
def lizard() -> JointTable:
    return load_lizards()


@pytest.fixture
def lizard_cache(lizard) -> MarginalCache:
    # Fresh per test: a fit prefetches into the cache, and a shared one
    # would make a test's last bits depend on which tests ran before it.
    return MarginalCache(lizard)


def random_table(rng, cards, concentration=0.6, zero_fraction=0.0) -> JointTable:
    """Random dense joint over the given cardinalities.

    Normalized Gamma draws give a Dirichlet sample; ``zero_fraction``
    knocks out cells to exercise empty-support handling.
    """
    shape = tuple(int(c) for c in cards)
    raw = rng.gamma(concentration, size=shape)
    if zero_fraction > 0.0:
        mask = rng.random(size=shape) < zero_fraction
        # Never zero everything: keep the largest cell.
        mask.flat[int(np.argmax(raw))] = False
        raw = np.where(mask, 0.0, raw)
    return JointTable(make_scheme(shape), raw / raw.sum())


def random_tree(rng, d, k):
    """Grow a random t-cherry junction tree over vertices 1..d."""
    parent = tuple(sorted(
        int(v) for v in rng.choice(np.arange(1, d + 1), size=k, replace=False)
    ))
    tree = new_parent(k, parent)
    fresh = [v for v in rng.permutation(np.arange(1, d + 1)) if not tree.covers(int(v))]
    for v in fresh:
        options = sorted(eligible_separators(tree))
        sep = options[int(rng.integers(len(options)))]
        tree = add_hypercherry(tree, int(v), sep)
    return tree


class CandidateRow(NamedTuple):
    cluster: tuple
    base: tuple
    new_vertex: int
    w: float
    omega: float


def candidate_rows(table) -> list[CandidateRow]:
    """Reference rows of a candidate table, read from its public columns:
    row i attaches its new vertex across the rest of its cluster."""
    rows = []
    for cluster, vertex, w, omega in zip(table.members[table.cluster_rank].tolist(),
                                         table.new_vertices().tolist(), table.w.tolist(),
                                         table.omega.tolist()):
        base = tuple(v for v in cluster if v != vertex)
        rows.append(CandidateRow(tuple(cluster), base, vertex, w, omega))
    return rows


def candidate_dicts(table) -> list[dict]:
    """The ``candidates`` rows of ``fit --format json`` for ``table``, read
    from its public columns."""
    return [{"cluster": list(r.cluster), "separator": list(r.base),
             "new_vertex": r.new_vertex, "w": r.w, "omega": r.omega}
            for r in candidate_rows(table)]


def row_dicts(table: RowTable) -> list[dict]:
    """The rows a ``RowTable`` declares, read from its fields."""
    rows = []
    for key, values, rank in table.fields:
        for i, value in enumerate((values if rank is None else values[rank]).tolist()):
            if i == len(rows):
                rows.append({})
            rows[i][key] = value
    return rows


def built(build):
    """The type and value ``build()`` returns, or the type and message of
    the package error it raises."""
    try:
        got = build()
    except TCherryError as exc:
        return type(exc), str(exc)
    return type(got), got


def expand_tables(obj):
    """``obj`` with each declared table as the list of its row dicts, and a
    table that is a list item as its rows, in place, as ``--format json``
    writes them; ``json.dumps(expand_tables(doc), indent=2)`` is the
    oracle of every command's JSON."""
    if isinstance(obj, RowTable):
        obj = [obj]
    if isinstance(obj, dict):
        return {key: expand_tables(value) for key, value in obj.items()}
    if not isinstance(obj, list):
        return obj
    out = []
    for item in obj:
        out += row_dicts(item) if isinstance(item, RowTable) else [expand_tables(item)]
    return out
