"""Hypergraph reduction, t-cherry construction, numbering, serialization."""

import json

import numpy as np
import pytest

from conftest import built, random_tree
from tcherry import (
    DataFormatError,
    DomainError,
    Hypergraph,
    SeparatorLink,
    StructureError,
    TCherryJunctionTree,
    add_hypercherry,
    eligible_separators,
    first_rip_violation,
    graham_reduce,
    new_parent,
    parse_tree_document,
    puzzle_numbering,
    tree_from_dict,
    tree_to_dict,
    tree_to_json,
)


def chain_tree():
    """Three overlapping 3-clusters in a path: the running example."""
    t = new_parent(3, (1, 2, 3))
    t = add_hypercherry(t, 4, (2, 3))
    return add_hypercherry(t, 5, (3, 4))


# -- hypergraph and Graham reduction ----------------------------------------


def test_hypergraph_rejects_absorbed_edges():
    with pytest.raises(StructureError, match="contained"):
        Hypergraph((1, 2, 3), ((1, 2, 3), (2, 3)))
    with pytest.raises(StructureError):
        Hypergraph((1, 2), ((1, 2), (1, 2)))


def test_hypergraph_rejects_stray_vertices():
    with pytest.raises(StructureError):
        Hypergraph((1, 2), ((1, 2, 3),))


@pytest.mark.parametrize("fields", [
    ((2, 1, 3), ((3, 2), (2, 1))),  # canonicalized
    ((1, 2), ((2, 1), (1, 2, 2))),  # a duplicated vertex
    ((1, 2, 3), ((1, 2, 3), (2, 3))),  # an absorbed edge
    ((1, 2), ((1, 2, 3),)),  # a stray vertex
])
def test_hypergraph_make_and_replace_build_as_the_constructor(fields):
    want = built(lambda: Hypergraph(*fields))
    assert built(lambda: Hypergraph._make(fields)) == want
    base = Hypergraph((1, 2), ((1, 2),))
    assert built(lambda: base._replace(vertices=fields[0], hyperedges=fields[1])) == want


def test_graham_chain_reduces_to_nothing():
    result = graham_reduce(Hypergraph((1, 2, 3, 4, 5), ((1, 2, 3), (2, 3, 4), (3, 4, 5))))
    assert result.is_acyclic
    assert result.reduced.hyperedges == ()
    kinds = [step[0] for step in result.trace]
    assert kinds.count("vertex") == 5
    assert kinds.count("edge") == 3


def test_graham_single_edge_is_acyclic():
    result = graham_reduce(Hypergraph((1, 2, 3), ((1, 2, 3),)))
    assert result.is_acyclic


def test_graham_pairwise_cycle_is_stuck():
    result = graham_reduce(Hypergraph((1, 2, 3), ((1, 2), (2, 3), (1, 3))))
    assert not result.is_acyclic
    assert result.trace == ()
    assert set(result.reduced.hyperedges) == {(1, 2), (2, 3), (1, 3)}


def test_graham_trace_steps_name_their_edges():
    result = graham_reduce(Hypergraph((1, 2, 3, 4), ((1, 2, 3), (2, 3, 4))))
    assert result.is_acyclic
    assert ("vertex", 1, (1, 2, 3)) in result.trace
    assert ("vertex", 4, (2, 3, 4)) in result.trace


# -- running intersection ---------------------------------------------------


def test_rip_violation_reports_first_bad_position():
    assert first_rip_violation([(1, 2), (3, 4), (2, 3)]) == 2
    assert first_rip_violation([(1, 2), (2, 3), (3, 4)]) is None
    assert first_rip_violation([(1, 2, 3), (2, 3, 4), (3, 4, 5)]) is None
    assert first_rip_violation([(1, 2, 3), (3, 4, 5), (1, 5, 6)]) == 2


def test_rip_on_single_cluster_holds():
    assert first_rip_violation([(1, 2, 3)]) is None


# -- construction -----------------------------------------------------------


def test_new_parent_is_single_cluster_tree():
    t = new_parent(3, (2, 5, 7))
    assert t.clusters == ((2, 5, 7),)
    assert t.parent == (2, 5, 7)
    assert t.separators == ()
    assert t.vertices == (2, 5, 7)
    assert t.covers(5) and not t.covers(3)


def test_new_parent_size_must_match_order():
    with pytest.raises(DomainError, match="size"):
        new_parent(3, (1, 2))
    with pytest.raises(DomainError):
        new_parent(1, (1,))


def test_add_hypercherry_grows_by_one_vertex():
    t = new_parent(3, (1, 2, 3))
    t2 = add_hypercherry(t, 4, (2, 3))
    assert t2.clusters == ((1, 2, 3), (2, 3, 4))
    assert t2.separators == ((2, 3),)
    assert t2.nu == {(2, 3): 2}
    # The original tree is untouched.
    assert t.clusters == ((1, 2, 3),)


def test_add_hypercherry_rejects_covered_vertex():
    t = new_parent(3, (1, 2, 3))
    with pytest.raises(StructureError, match="already"):
        add_hypercherry(t, 2, (1, 3))


def test_add_hypercherry_separator_must_exist_in_some_cluster():
    t = new_parent(3, (1, 2, 3))
    with pytest.raises(StructureError):
        add_hypercherry(t, 4, (2, 5))


def test_add_hypercherry_separator_size():
    t = new_parent(3, (1, 2, 3))
    with pytest.raises(StructureError):
        add_hypercherry(t, 4, (1, 2, 3))


def test_attach_to_picks_earliest_host_by_default():
    t = chain_tree()
    # (2, 3) occurs in clusters 0 and 1; default is the earliest.
    t2 = add_hypercherry(t, 6, (2, 3))
    assert t2.links[-1] == SeparatorLink((2, 3), 0)


def test_nu_counts_shared_separators():
    t = new_parent(3, (1, 2, 3))
    t = add_hypercherry(t, 4, (2, 3))
    t = add_hypercherry(t, 5, (2, 3))
    assert t.nu == {(2, 3): 3}


def test_eligible_separators_enumerates_cluster_subsets():
    assert sorted(eligible_separators(chain_tree())) == [
        (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
    ]
    assert sorted(eligible_separators(new_parent(2, (1, 2)))) == [(1,), (2,)]


def test_direct_constructor_validates_whole_tree():
    clusters = ((1, 2, 3), (2, 3, 4))
    links = (SeparatorLink((2, 3), 0),)
    t = TCherryJunctionTree(3, clusters, links)
    assert t.separators == ((2, 3),)
    with pytest.raises(StructureError):
        TCherryJunctionTree(3, clusters, (SeparatorLink((2, 4), 0),))
    with pytest.raises(StructureError, match="contained"):
        TCherryJunctionTree(3, ((1, 2, 3), (4, 5, 6)), (SeparatorLink((1, 2), 0),))
    with pytest.raises(StructureError, match="exactly one new vertex"):
        TCherryJunctionTree(
            3,
            ((1, 2, 3), (2, 3, 4), (1, 2, 4)),
            (SeparatorLink((2, 3), 0), SeparatorLink((1, 2), 0)),
        )


def test_cluster_hypergraph_round_trip():
    t = chain_tree()
    h = Hypergraph(t.vertices, t.clusters)
    assert h.hyperedges == t.clusters
    assert graham_reduce(h).is_acyclic


# -- puzzle numbering -------------------------------------------------------


def test_puzzle_numbering_chain_example():
    n = puzzle_numbering(chain_tree(), (1, 2, 3))
    assert n.order == (1, 2, 3, 4, 5)
    assert n.attach_separators == ((2, 3), (3, 4))
    separator_for = dict(zip(n.order[n.k:], n.attach_separators))
    assert separator_for[4] == (2, 3)
    assert separator_for[5] == (3, 4)


def test_puzzle_numbering_requires_existing_parent():
    with pytest.raises(DomainError):
        puzzle_numbering(chain_tree(), (1, 2, 4))


def test_puzzle_numbering_prefers_smaller_leftover_vertex():
    t = new_parent(3, (2, 3, 4))
    t = add_hypercherry(t, 9, (2, 3))
    t = add_hypercherry(t, 1, (2, 4))
    n = puzzle_numbering(t, (2, 3, 4))
    # Vertex 1 is numbered before 9 even though 9's cluster was grown first.
    assert n.order == (2, 3, 4, 1, 9)


def test_puzzle_numbering_single_cluster():
    n = puzzle_numbering(new_parent(4, (1, 2, 5, 7)), (1, 2, 5, 7))
    assert n.order == (1, 2, 5, 7)
    assert n.attach_separators == ()


def test_random_trees_always_pass_structural_checks():
    rng = np.random.default_rng(101)
    for _ in range(40):
        d = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(d, 4) + 1))
        t = random_tree(rng, d, k)
        assert len(t.clusters) == d - k + 1
        assert first_rip_violation(t.clusters) is None
        assert graham_reduce(Hypergraph(t.vertices, t.clusters)).is_acyclic
        n = puzzle_numbering(t, t.parent)
        assert sorted(n.order) == list(t.vertices)
        # nu bookkeeping: 1 + number of links labeled S.
        for s, count in t.nu.items():
            assert count == 1 + sum(1 for l in t.links if l.separator == s)


# -- serialization ----------------------------------------------------------


def test_tree_json_round_trip():
    t = chain_tree()
    back = tree_from_dict(json.loads(tree_to_json(t)))
    assert back == t
    assert back.links == t.links


def test_tree_dict_layout():
    doc = tree_to_dict(chain_tree())
    assert doc == {
        "k": 3,
        "clusters": [[1, 2, 3], [2, 3, 4], [3, 4, 5]],
        "separators": [
            {"set": [2, 3], "attach_to": 0},
            {"set": [3, 4], "attach_to": 1},
        ],
        "parent": [1, 2, 3],
    }


def test_tree_from_dict_rejects_missing_fields():
    with pytest.raises(DataFormatError, match="separators"):
        tree_from_dict({"k": 2, "clusters": [[1, 2]], "parent": [1, 2]})
    with pytest.raises(DataFormatError, match="object"):
        tree_from_dict([1, 2])


def test_tree_from_dict_parent_must_be_first_cluster():
    doc = tree_to_dict(chain_tree())
    doc["parent"] = [2, 3, 4]
    with pytest.raises(DataFormatError, match="parent"):
        tree_from_dict(doc)


def test_tree_from_dict_flags_bad_structure():
    doc = {
        "k": 2,
        "clusters": [[1, 2], [3, 4]],
        "separators": [{"set": [2], "attach_to": 0}],
        "parent": [1, 2],
    }
    with pytest.raises(StructureError):
        tree_from_dict(doc)


def test_parse_tree_document_shape_only():
    doc = {
        "k": 2,
        "clusters": [[1, 2], [3, 4]],
        "separators": [{"set": [2], "attach_to": 0}],
        "parent": [1, 2],
    }
    k, clusters, links = parse_tree_document(doc)
    assert (k, clusters) == (2, [(1, 2), (3, 4)])
    assert links == [SeparatorLink((2,), 0)]
    with pytest.raises(DataFormatError, match="integer"):
        parse_tree_document({**doc, "clusters": [[1, "a"], [3, 4]]})
