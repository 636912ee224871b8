"""Seeded workload inputs, built with numpy alone.

Nothing here imports ``tcherry``: a change to the program cannot change
the bytes a workload feeds it. ``tcherry_table`` draws a random t-cherry
junction tree and a distribution that factorizes over it with the same
sequence of random draws as ``tcherry synth``, so the benchmark also
holds an independent copy of the table ``synth`` must write.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np


def _softmax(logits, axis=None):
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def _expand(block, subset, d):
    shape = [1] * d
    for axis, var in enumerate(subset):
        shape[var - 1] = block.shape[axis]
    return block.reshape(shape)


def tcherry_table(seed: int, d: int, k: int, strength: float = 2.0):
    """Binary joint table factorizing over a random order-k t-cherry tree.

    Returns ``(probs, clusters, separators)``: ``probs`` has shape
    ``(2,) * d`` in row-major order over variables 1..d, ``clusters[0]``
    is the parent and ``separators[j]`` attaches ``clusters[j + 1]``.
    """
    rng = np.random.default_rng(seed)
    parent = tuple(sorted(int(v) for v in rng.choice(np.arange(1, d + 1), size=k,
                                                     replace=False)))
    clusters = [parent]
    separators = []
    covered = set(parent)
    for vertex in range(1, d + 1):
        if vertex in covered:
            continue
        options = sorted({s for c in clusters for s in combinations(c, k - 1)})
        sep = options[int(rng.integers(len(options)))]
        clusters.append(tuple(sorted(sep + (vertex,))))
        separators.append(sep)
        covered.add(vertex)
    table = np.ones((2,) * d) * _expand(
        _softmax(strength * rng.standard_normal((2,) * k)), parent, d)
    for cluster, sep in zip(clusters[1:], separators):
        fresh = (set(cluster) - set(sep)).pop()
        cond = _softmax(strength * rng.standard_normal((2,) * k), axis=cluster.index(fresh))
        table = table * _expand(cond, cluster, d)
    return table / np.sum(table), clusters, separators


def draw_samples(probs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """``n`` rows of 0-based states drawn from ``probs``, as a uint8 matrix."""
    rng = np.random.default_rng([seed, 1])
    cdf = np.cumsum(probs.reshape(-1))
    cells = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    cells = np.minimum(cells, cdf.size - 1)
    return np.stack(np.unravel_index(cells, probs.shape), axis=1).astype(np.uint8)


def samples_csv(codes: np.ndarray) -> bytes:
    """Samples CSV (header ``x1..xd``, 1-based single-digit states)."""
    n, d = codes.shape
    body = np.empty((n, 2 * d), dtype=np.uint8)
    body[:, 0::2] = codes + ord("1")
    body[:, 1::2] = ord(",")
    body[:, -1] = ord("\n")
    header = ",".join(f"x{i + 1}" for i in range(d)) + "\n"
    return header.encode() + body.tobytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
