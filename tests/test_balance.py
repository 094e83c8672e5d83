"""Balanced companion tree: shape, weight placement, invariants."""

import math
import random
from fractions import Fraction

from nnidist import newick
from nnidist.balance import build_auxiliary
from nnidist.gen import generate_pair, random_tree
from nnidist.phylo import finiteness_check

from oracles import random_phylogeny, weighted_splits


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


def test_quartet_companion():
    t = newick.parse("(a:1,b:2,(c:3,d:4):5);")
    aux = build_auxiliary(t)
    assert aux.tree.internal_weight_multiset() == (Fraction(5),)
    assert aux.tree.leaf_weight_map() == t.leaf_weight_map()
    # anchor a at the handle, b and c on the left subtree, d alone right
    assert weighted_splits(aux.tree) == {frozenset({"b", "c"}): Fraction(5)}
    assert aux.depth == 2
    assert len(aux.level_edges) == 1


def test_non_descending_paths_and_depth_spread():
    rng = random.Random(601)
    for _ in range(20):
        t = random_phylogeny(rng, rng.randint(3, 70), weights="small")
        aux = build_auxiliary(t)
        tree = aux.tree
        assert tree.validate() == []
        assert tree.internal_weight_multiset() == t.internal_weight_multiset()
        taxa = tree.taxa()
        depths = [leaf_depth_by_walk(tree, s) for s in taxa if s != taxa[0]]
        assert max(depths) - min(depths) <= 1
        # slot bookkeeping agrees with walked depths
        for s in taxa[1:]:
            assert aux.node_slots[tree.leaf_node(s)][0] == leaf_depth_by_walk(tree, s)

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
    aux = build_auxiliary(t)
    ws = [aux.tree.weight(e) for e in aux.level_edges]
    assert ws == sorted(ws)
    assert tuple(sorted(ws)) == t.internal_weight_multiset()


def test_finite_pair_gets_identical_companions():
    for seed in (1, 2, 3):
        t1, t2, _ = generate_pair(seed, 17, moves=10)
        assert finiteness_check(t1, t2)[0]
        a1 = build_auxiliary(t1)
        a2 = build_auxiliary(t2)
        assert newick.serialize(a1.tree) == newick.serialize(a2.tree)
        assert a1.level_edges == a2.level_edges
        assert a1.slot_nodes == a2.slot_nodes


def test_companion_depth_is_logarithmic():
    for n in (8, 16, 33, 64, 128):
        t = random_tree(random.Random(n), n)
        aux = build_auxiliary(t)
        assert aux.depth <= math.ceil(math.log2(n - 1)) + 1
