"""Independent reference results for the fit workloads, from samples.

This re-derives, with numpy alone, what the paper defines the greedy
``sk`` fit to return: candidates (vertex v, base B) scored by the
information weight w = I(B ∪ {v}) − I(B), accepted in decreasing w
(ties by cluster, base, vertex) whenever v is new and B lies in a
cluster already grown. Entropies come from the samples' own
frequencies, not from the program's dense table, so the program's
marginals and the reference meet only in the result.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


class SampleEntropies:
    """Entropies in bits of marginals of a binary samples matrix."""

    def __init__(self, codes: np.ndarray):
        self.n, self.d = codes.shape
        weights = 1 << np.arange(self.d - 1, -1, -1, dtype=np.int64)
        full, self.weight = np.unique(codes.astype(np.int64) @ weights, return_counts=True)
        self.weight = self.weight.astype(np.float64)
        # One column of bits per variable over the distinct rows only.
        self.bits = [((full >> (self.d - 1 - i)) & 1) for i in range(self.d)]
        self._h: dict[tuple[int, ...], float] = {}

    def h(self, subset) -> float:
        key = tuple(subset)
        value = self._h.get(key)
        if value is None:
            code = np.zeros_like(self.bits[0])
            for v in key:
                code = (code << 1) | self.bits[v - 1]
            counts = np.bincount(code, weights=self.weight, minlength=1 << len(key))
            p = counts[counts > 0.0] / self.n
            value = float(-np.sum(p * np.log2(p)))
            self._h[key] = value
        return value

    def info(self, subset) -> float:
        if len(subset) == 1:
            return 0.0
        return math.fsum(self.h((i,)) for i in subset) - self.h(subset)


def greedy_sk(ent: SampleEntropies, k: int):
    """The greedy sk tree: ``(clusters, links)``, links as (separator, attach_to)."""
    order = []
    for cluster in combinations(range(1, ent.d + 1), k):
        i_cluster = ent.info(cluster)
        for v in cluster:
            base = tuple(x for x in cluster if x != v)
            order.append((-(i_cluster - ent.info(base)), cluster, base, v))
    order.sort()
    clusters = [order[0][1]]
    links = []
    covered = set(clusters[0])
    eligible = set(combinations(clusters[0], k - 1))
    while len(covered) < ent.d:
        _, cluster, base, v = next(c for c in order if c[3] not in covered and c[2] in eligible)
        links.append((base, next(i for i, c in enumerate(clusters) if set(base) <= set(c))))
        clusters.append(cluster)
        covered.add(v)
        eligible.update(combinations(cluster, k - 1))
    return clusters, links


def score(ent: SampleEntropies, clusters, links) -> dict:
    """Weight, total information I(X) and KL = I(X) − weight, in bits."""
    weight = math.fsum(ent.info(c) for c in clusters) - math.fsum(
        (n - 1) * ent.info(s) for s, n in separator_multiplicities(links).items())
    total = ent.info(tuple(range(1, ent.d + 1)))
    return {"weight": weight, "i_total": total, "kl": total - weight}


def separator_multiplicities(links) -> dict:
    """Separator set → ν (1 + number of tree edges that carry it), sorted by set."""
    nu: dict[tuple[int, ...], int] = {}
    for sep, _ in links:
        nu[sep] = nu.get(sep, 1) + 1
    return dict(sorted(nu.items()))
