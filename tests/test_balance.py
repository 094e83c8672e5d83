"""Balanced companion tree: shape, weight placement, invariants."""

import math
import random
from fractions import Fraction

import pytest

from nnidist import newick
from nnidist.balance import build_auxiliary, check_auxiliary
from nnidist.gen import generate_pair, random_tree
from nnidist.phylo import Phylogeny, TreeError, finiteness_check

from oracles import caterpillar, leaf_edge_of, random_phylogeny, weighted_splits


def leaf_depth_by_walk(tree, label):
    """Edge count from the root handle to the leaf, counted independently."""
    root = tree.root_handle()
    target = tree.leaf_node(label)
    frontier = [(root, None, 0)]
    while frontier:
        node, via, d = frontier.pop()
        if node == target:
            return d
        for e in tree.adjacent_edges(node):
            if e != via:
                frontier.append((tree.other_end(e, node), e, d + 1))
    raise AssertionError("unreachable leaf")


def internal_weights_by_level(tree):
    """Internal edge weights, level by level from the root handle, left to right."""
    order, frontier = [], [(tree.root_handle(), None)]
    for node, via in frontier:
        for e in tree.adjacent_edges(node):
            child = tree.other_end(e, node)
            if e != via and not tree.is_leaf(child):
                order.append(tree.weight(e))
                frontier.append((child, e))
    return order


def companion_depth(tree):
    return max(leaf_depth_by_walk(tree, s) for s in tree.taxa())


def test_quartet_companion():
    t = newick.parse("(a:1,b:2,(c:3,d:4):5);")
    aux = build_auxiliary(t)
    assert aux.internal_weight_multiset() == (Fraction(5),)
    assert aux.leaf_weight_map() == t.leaf_weight_map()
    # anchor a at the handle, b and c on the left subtree, d alone right
    assert weighted_splits(aux) == {frozenset({"b", "c"}): Fraction(5)}
    assert companion_depth(aux) == 2
    assert len(aux.internal_edges()) == 1


def test_non_descending_paths_and_depth_spread():
    rng = random.Random(601)
    for _ in range(20):
        t = random_phylogeny(rng, rng.randint(3, 70), weights="small")
        tree = build_auxiliary(t)
        assert tree.validate() == []
        assert tree.internal_weight_multiset() == t.internal_weight_multiset()
        taxa = tree.taxa()
        depths = [leaf_depth_by_walk(tree, s) for s in taxa if s != taxa[0]]
        assert max(depths) - min(depths) <= 1
        # the checker's view-based depths agree with walked depths
        check_auxiliary(t, tree)
        view = tree.rooted_view()
        view_depth = {view.order[0]: 0}
        for x in view.order[1:]:
            view_depth[x] = view_depth[tree.other_end(view.parent_edge[x], x)] + 1
        for s in taxa[1:]:
            assert view_depth[tree.leaf_node(s)] == leaf_depth_by_walk(tree, s)

        # every root-to-leaf internal weight sequence is sorted
        root = tree.root_handle()
        stack = [(root, None, [])]
        while stack:
            node, via, ws = stack.pop()
            for e in tree.adjacent_edges(node):
                if e == via:
                    continue
                child = tree.other_end(e, node)
                if tree.is_leaf(child):
                    assert ws == sorted(ws)
                else:
                    stack.append((child, e, ws + [tree.weight(e)]))


def test_level_edges_carry_sorted_weights():
    rng = random.Random(602)
    t = random_phylogeny(rng, 24)
    ws = internal_weights_by_level(build_auxiliary(t))
    assert ws == sorted(ws)
    assert tuple(sorted(ws)) == t.internal_weight_multiset()


def test_finite_pair_gets_identical_companions():
    for seed in (1, 2, 3):
        t1, t2, _ = generate_pair(seed, 17, moves=10)
        assert finiteness_check(t1, t2)[0]
        a1 = build_auxiliary(t1)
        a2 = build_auxiliary(t2)
        assert newick.serialize(a1) == newick.serialize(a2)
        # node and edge ids too: the companion's linearization breaks ties on them
        assert {e: a1.endpoints(e) for e in a1.edge_ids()} == {
            e: a2.endpoints(e) for e in a2.edge_ids()}
        assert {e: a1.weight(e) for e in a1.edge_ids()} == {
            e: a2.weight(e) for e in a2.edge_ids()}


def test_companion_depth_is_logarithmic():
    for n in (8, 16, 33, 64, 128):
        t = random_tree(random.Random(n), n)
        aux = build_auxiliary(t)
        assert companion_depth(aux) <= math.ceil(math.log2(n - 1)) + 1


def reweighted(tree, changes):
    """The same tree with the weights of some edges replaced."""
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: changes.get(e, tree.weight(e)) for e in tree.edge_ids()}
    labels = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
    return Phylogeny(edges, weights, labels)


def test_check_auxiliary_rejects_leaf_depth_spread():
    # a caterpillar hung from its end holds leaves at every depth
    t = caterpillar(8)
    with pytest.raises(TreeError, match="depths spread"):
        check_auxiliary(t, t)


def test_check_auxiliary_rejects_descending_path():
    t = random_phylogeny(random.Random(603), 12)
    tree = build_auxiliary(t)
    view = tree.rooted_view()
    # an internal edge below an internal edge, their weights swapped
    e, up = next(
        (view.parent_edge[x], view.parent_edge[tree.other_end(view.parent_edge[x], x)])
        for x in view.order[1:]
        if view.children[x]
        and view.parent_edge[tree.other_end(view.parent_edge[x], x)] is not None
    )
    bad = reweighted(tree, {e: tree.weight(up), up: tree.weight(e)})
    assert bad.internal_weight_multiset() == t.internal_weight_multiset()
    with pytest.raises(TreeError, match="descending"):
        check_auxiliary(t, bad)


def test_check_auxiliary_rejects_changed_weights():
    t = random_phylogeny(random.Random(604), 12)
    tree = build_auxiliary(t)
    top = max(tree.internal_edges(), key=tree.weight)
    heavier = reweighted(tree, {top: tree.weight(top) + 1000})
    with pytest.raises(TreeError, match="internal weight multiset"):
        check_auxiliary(t, heavier)
    leaf = leaf_edge_of(tree, tree.taxa()[-1])
    moved = reweighted(tree, {leaf: tree.weight(leaf) + 1000})
    with pytest.raises(TreeError, match="leaf weights"):
        check_auxiliary(t, moved)
    # the unchanged companion passes the same check
    check_auxiliary(t, tree)
