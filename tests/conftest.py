import numpy as np
import pytest

from tcherry import (
    JointTable,
    MarginalCache,
    add_hypercherry,
    eligible_separators,
    load_lizards,
    make_scheme,
    new_parent,
)


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
