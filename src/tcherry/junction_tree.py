"""Hypergraphs and t-cherry junction trees.

A k-th order t-cherry junction tree is grown from one k-cluster by
repeatedly attaching a new vertex across a (k-1)-subset of an existing
cluster. Clusters all have size k, separators size k-1, and a tree over
d vertices has exactly d-k+1 clusters. Trees are values: growth returns
a new object.

Vertex subsets are canonical sorted tuples throughout, which keeps every
iteration order deterministic.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import DataFormatError, DomainError, StructureError

IndexSet = tuple[int, ...]


def _canon(vertices: Iterable[int], what: str = "vertex set") -> IndexSet:
    t = tuple(sorted(int(v) for v in vertices))
    if len(set(t)) != len(t):
        raise DomainError(f"{what} contains duplicates: {t}")
    return t


def _is_subset(a: IndexSet, b: IndexSet) -> bool:
    return set(a) <= set(b)


class Hypergraph(NamedTuple("Hypergraph", [("vertices", IndexSet),
                                           ("hyperedges", tuple[IndexSet, ...])])):
    """A finite hypergraph; hyperedges must not be subsets of one another."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[int], hyperedges: Iterable[Iterable[int]]):
        vertices = _canon(vertices, "vertices")
        vset = set(vertices)
        edges = tuple(_canon(e, "hyperedge") for e in hyperedges)
        for e in edges:
            if not e:
                raise StructureError("hyperedges must be non-empty")
            if not set(e) <= vset:
                raise StructureError(f"hyperedge {e} uses vertices outside {vertices}")
        for i, a in enumerate(edges):
            for j, b in enumerate(edges):
                if i != j and _is_subset(a, b):
                    raise StructureError(
                        f"hyperedge {a} is contained in {b}; redundant edges are rejected"
                    )
        return super().__new__(cls, vertices, edges)


class GrahamResult(NamedTuple):
    reduced: Hypergraph
    is_acyclic: bool
    trace: tuple[tuple, ...]


def graham_reduce(h: Hypergraph) -> GrahamResult:
    """Reduce by removing lone vertices and absorbed hyperedges to a fixpoint.

    A vertex in exactly one hyperedge is deleted; a hyperedge contained
    in another (an emptied one counts as contained in anything) is
    deleted. The hypergraph is acyclic exactly when no hyperedges
    survive. The trace records each removal:
    ``("vertex", v, edge)`` and ``("edge", edge, container)``.
    """
    vertices = set(h.vertices)
    edges: list[set] = [set(e) for e in h.hyperedges]
    trace: list[tuple] = []
    changed = True
    while changed:
        changed = False
        # Lone-vertex removals; deleting v from its only edge leaves other counts intact.
        membership: dict[int, list[int]] = {}
        for idx, e in enumerate(edges):
            for v in e:
                membership.setdefault(v, []).append(idx)
        for v in sorted(membership):
            owners = membership[v]
            if len(owners) == 1:
                edges[owners[0]].discard(v)
                vertices.discard(v)
                trace.append(("vertex", v, tuple(sorted(edges[owners[0]] | {v}))))
                changed = True
        # Absorbed-edge removals, scanning ascending against current survivors.
        idx = 0
        while idx < len(edges):
            e = edges[idx]
            container = None
            absorbed = not e
            if not absorbed:
                for jdx, other in enumerate(edges):
                    if jdx != idx and e <= other:
                        container = tuple(sorted(other))
                        absorbed = True
                        break
            if absorbed:
                trace.append(("edge", tuple(sorted(e)), container))
                del edges[idx]
                changed = True
            else:
                idx += 1
    reduced = Hypergraph(tuple(sorted(vertices)), tuple(tuple(sorted(e)) for e in edges))
    return GrahamResult(reduced, not reduced.hyperedges, tuple(trace))


def first_rip_violation(clusters) -> int | None:
    """0-based index of the first cluster breaking running intersection, or None."""
    clusters = [set(c) for c in clusters]
    if not clusters:
        raise DomainError("cluster list is empty")
    seen = set(clusters[0])
    for j in range(1, len(clusters)):
        overlap = clusters[j] & seen
        if not any(overlap <= clusters[i] for i in range(j)):
            return j
        seen |= clusters[j]
    return None


class SeparatorLink(NamedTuple):
    """Separator of one grown cluster and the index of the cluster it attaches to."""

    separator: IndexSet
    attach_to: int


class TCherryJunctionTree:
    """Immutable t-cherry junction tree in construction order.

    ``clusters[0]`` is the parent cluster; ``links[j]`` describes how
    ``clusters[j+1]`` attaches. ``nu`` maps each distinct separator set
    to its multiplicity: 1 + number of tree edges labeled with it.
    """

    __slots__ = ("k", "clusters", "links", "__dict__")

    def __init__(self, k: int, clusters, links):
        k = int(k)
        if k < 2:
            raise DomainError(f"order k must be >= 2, got {k}")
        clusters = tuple(_canon(c, "cluster") for c in clusters)
        links = tuple(links)
        if not clusters:
            raise StructureError("a junction tree needs at least one cluster")
        if len(links) != len(clusters) - 1:
            raise StructureError(
                f"{len(clusters)} clusters need {len(clusters) - 1} separators, "
                f"got {len(links)}"
            )
        for c in clusters:
            if len(c) != k:
                raise StructureError(f"cluster {c} has size {len(c)}, expected {k}")
        covered = set(clusters[0])
        for j, link in enumerate(links, start=1):
            sep = _canon(link.separator, "separator")
            if len(sep) != k - 1:
                raise StructureError(f"separator {sep} has size {len(sep)}, expected {k - 1}")
            cluster = clusters[j]
            if not _is_subset(sep, cluster):
                raise StructureError(f"separator {sep} not contained in cluster {cluster}")
            if not 0 <= link.attach_to < j:
                raise StructureError(
                    f"cluster {cluster} attaches to index {link.attach_to}, "
                    f"expected 0..{j - 1}"
                )
            if not _is_subset(sep, clusters[link.attach_to]):
                raise StructureError(
                    f"separator {sep} not contained in attachment cluster "
                    f"{clusters[link.attach_to]}"
                )
            fresh = set(cluster) - covered
            if len(fresh) != 1:
                raise StructureError(
                    f"cluster {cluster} introduces {sorted(fresh)}; "
                    f"each grown cluster must introduce exactly one new vertex"
                )
            if set(cluster) - fresh != set(sep):
                raise StructureError(
                    f"cluster {cluster} must equal its separator {sep} plus its new vertex"
                )
            covered |= fresh
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "links", tuple(
            SeparatorLink(_canon(l.separator), int(l.attach_to)) for l in links
        ))

    def __setattr__(self, name, value):
        raise AttributeError("TCherryJunctionTree is immutable")

    @cached_property
    def vertices(self) -> IndexSet:
        return tuple(sorted(self._vertex_set))

    @cached_property
    def _vertex_set(self) -> frozenset[int]:
        return frozenset(v for c in self.clusters for v in c)

    @cached_property
    def nu(self) -> dict[IndexSet, int]:
        counts: dict[IndexSet, int] = {}
        for link in self.links:
            counts[link.separator] = counts.get(link.separator, 0) + 1
        return {sep: counts[sep] + 1 for sep in sorted(counts)}

    @property
    def parent(self) -> IndexSet:
        return self.clusters[0]

    @property
    def separators(self) -> tuple[IndexSet, ...]:
        """Separator sets in construction order (with repetitions)."""
        return tuple(link.separator for link in self.links)

    def covers(self, vertex: int) -> bool:
        return vertex in self._vertex_set

    def admits(self, vertex: int, separator: IndexSet) -> bool:
        """Whether a hypercherry may attach uncovered ``vertex`` across
        ``separator``: some cluster must contain the separator."""
        if self.covers(vertex):
            return False
        sep = set(separator)
        return any(sep <= set(c) for c in self.clusters)

    def __eq__(self, other):
        if not isinstance(other, TCherryJunctionTree):
            return NotImplemented
        return (self.k, self.clusters, self.links) == (other.k, other.clusters, other.links)

    def __repr__(self):
        shown = " ".join("{" + ",".join(map(str, c)) + "}" for c in self.clusters)
        return f"TCherryJunctionTree(k={self.k}, clusters={shown})"


def new_parent(k: int, vertices) -> TCherryJunctionTree:
    """Start a tree from its parent cluster."""
    vertices = _canon(vertices, "parent cluster")
    if len(vertices) != int(k):
        raise DomainError(f"parent cluster {vertices} has size {len(vertices)}, expected {k}")
    return TCherryJunctionTree(k, (vertices,), ())


def eligible_separators(t: TCherryJunctionTree) -> set[IndexSet]:
    """All (k-1)-subsets of existing clusters, duplicates unified."""
    out: set[IndexSet] = set()
    for c in t.clusters:
        out.update(combinations(c, t.k - 1))
    return out


def add_hypercherry(t: TCherryJunctionTree, new_vertex: int, separator) -> TCherryJunctionTree:
    """Grow the tree by attaching ``new_vertex`` across ``separator``, to the
    earliest cluster that contains the separator."""
    new_vertex = int(new_vertex)
    if t.covers(new_vertex):
        raise StructureError(f"vertex {new_vertex} is already covered")
    separator = _canon(separator, "separator")
    if new_vertex in separator:
        raise DomainError(f"new vertex {new_vertex} cannot appear in its separator")
    hosts = [i for i, c in enumerate(t.clusters) if _is_subset(separator, c)]
    if not hosts:
        raise StructureError(f"separator {separator} is not a subset of any cluster")
    cluster = _canon(separator + (new_vertex,))
    return TCherryJunctionTree(
        t.k, t.clusters + (cluster,), t.links + (SeparatorLink(separator, hosts[0]),)
    )


class PuzzleNumbering(NamedTuple):
    """A processing order of a tree's vertices.

    ``order[:k]`` is the parent cluster; each later vertex ``order[r]``
    enters across ``attach_separators[r - k]``, a (k-1)-subset of a
    cluster already fully numbered at that point.
    """

    k: int
    order: tuple[int, ...]
    attach_separators: tuple[IndexSet, ...]


def puzzle_numbering(t: TCherryJunctionTree, parent) -> PuzzleNumbering:
    """Number vertices outward from ``parent``, one cluster at a time.

    The parent's vertices come first in ascending order. Then, while
    clusters remain, the cluster whose leftover vertex is smallest (ties
    by construction order) among those containing an already-available
    separator is processed and its leftover vertex numbered. Available
    separators are all (k-1)-subsets of processed clusters.
    """
    parent = _canon(parent, "parent cluster")
    if parent not in t.clusters:
        raise DomainError(f"{parent} is not a cluster of the tree")
    k = t.k
    numbered: list[int] = list(parent)
    numbered_set = set(parent)
    pool: set[IndexSet] = set(combinations(parent, k - 1))
    remaining = [c for c in t.clusters if c != parent]
    # The parent may repeat among clusters only as distinct objects; construction
    # forbids duplicate clusters implicitly (each introduces a fresh vertex).
    seps: list[IndexSet] = []
    while remaining:
        best = None
        for pos, cluster in enumerate(remaining):
            fresh = [v for v in cluster if v not in numbered_set]
            if len(fresh) != 1:
                continue
            choices = [s for s in combinations(cluster, k - 1)
                       if s in pool and fresh[0] not in s]
            if not choices:
                continue
            key = (fresh[0], pos)
            if best is None or key < best[0]:
                best = (key, pos, fresh[0], min(choices))
        if best is None:
            raise StructureError(
                "puzzle numbering is stuck: no remaining cluster attaches across "
                "an available separator; the tree is not connected over its vertices"
            )
        _, pos, vertex, sep = best
        cluster = remaining.pop(pos)
        numbered.append(vertex)
        numbered_set.add(vertex)
        seps.append(sep)
        pool.update(combinations(cluster, k - 1))
    if len(numbered) != len(t.vertices):
        raise StructureError("puzzle numbering did not reach every vertex")
    return PuzzleNumbering(k, tuple(numbered), tuple(seps))


def tree_to_dict(t: TCherryJunctionTree) -> dict:
    """Plain-dict form matching the on-disk JSON schema."""
    return {
        "k": t.k,
        "clusters": [list(c) for c in t.clusters],
        "separators": [
            {"set": list(link.separator), "attach_to": link.attach_to}
            for link in t.links
        ],
        "parent": list(t.parent),
    }


def parse_tree_document(doc) -> tuple[int, list[IndexSet], list[SeparatorLink]]:
    """Shape-check a tree document without constructing the tree.

    Returns (k, clusters, links) with clusters as raw tuples, so callers
    can run individual structural diagnostics on documents that would not
    survive full construction.  Raises DataFormatError only.
    """
    if not isinstance(doc, dict):
        raise DataFormatError("tree document must be a JSON object")
    for field in ("k", "clusters", "separators", "parent"):
        if field not in doc:
            raise DataFormatError(f"tree document is missing {field!r}")
    k = doc["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise DataFormatError(f"'k' must be an integer, got {k!r}")
    clusters = doc["clusters"]
    separators = doc["separators"]
    if not isinstance(clusters, list) or not all(isinstance(c, list) for c in clusters):
        raise DataFormatError("'clusters' must be a list of vertex lists")
    for j, c in enumerate(clusters):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in c):
            raise DataFormatError(f"clusters[{j}] must contain integers only")
    if not isinstance(separators, list):
        raise DataFormatError("'separators' must be a list")
    links = []
    for j, entry in enumerate(separators):
        if not isinstance(entry, dict) or "set" not in entry or "attach_to" not in entry:
            raise DataFormatError(
                f"separators[{j}] must be an object with 'set' and 'attach_to'"
            )
        if not isinstance(entry["set"], list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in entry["set"]
        ):
            raise DataFormatError(f"separators[{j}]['set'] must be a list of integers")
        if not isinstance(entry["attach_to"], int) or isinstance(entry["attach_to"], bool):
            raise DataFormatError(f"separators[{j}]['attach_to'] must be an integer")
        links.append(SeparatorLink(tuple(entry["set"]), entry["attach_to"]))
    raw_clusters = [tuple(c) for c in clusters]
    declared_parent = _canon(doc["parent"], "parent")
    if not raw_clusters or tuple(sorted(set(raw_clusters[0]))) != declared_parent:
        raise DataFormatError(
            f"'parent' {list(declared_parent)} does not match clusters[0]"
        )
    return k, raw_clusters, links


def tree_from_dict(doc) -> TCherryJunctionTree:
    """Validate and rebuild a tree from its dict/JSON form."""
    k, clusters, links = parse_tree_document(doc)
    try:
        return TCherryJunctionTree(k, clusters, links)
    except (DomainError, StructureError) as exc:
        raise StructureError(f"tree document is not a valid t-cherry junction tree: {exc}") from None


def tree_to_json(t: TCherryJunctionTree) -> str:
    return json.dumps(tree_to_dict(t), indent=2) + "\n"

