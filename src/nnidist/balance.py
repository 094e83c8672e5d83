"""The balanced companion tree: same weights, canonical shape.

For a source tree on taxa S the companion puts the smallest taxon alone at
the root handle and the remaining n-1 taxa (in sorted order, left to right)
on two left-complete binary subtrees of near-equal size.  Internal edges,
enumerated level by level left to right, receive the source's internal
weights in ascending order, which forces every root-to-leaf weight sequence
to be non-decreasing.  Leaf edges keep their taxon's original weight.

Slots: the subtree roots sit at positions (1,1) and (1,2); the children of
(l,j) are (l+1,2j-1) and (l+1,2j).  The anchor leaf and the root carry no
position.  Two sources with equal taxa and equal internal weight multisets
produce byte-identical companions, which is what lets the later stages line
the two trees up against each other: the pipeline builds one companion per
component and checks it against both trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from nnidist.phylo import Phylogeny, TreeError

Position = tuple[int, int]


@dataclass
class AuxiliaryTree:
    tree: Phylogeny
    level_edges: list[int]               # internal edges in level order
    slot_nodes: dict[Position, int]      # position -> node
    node_slots: dict[int, Position]      # node -> position
    depth: int                           # deepest position level


def _left_size(k: int) -> int:
    """Leaves in the left child of a left-complete subtree over k leaves."""
    if k == 2:
        return 1
    d = math.ceil(math.log2(k))
    return min(2 ** (d - 1), k - 2 ** (d - 2))


def build_auxiliary(source: Phylogeny) -> AuxiliaryTree:
    """Deterministic balanced companion of ``source`` (see module docstring)."""
    taxa = list(source.taxa())
    anchor, rest = taxa[0], taxa[1:]
    leaf_w = source.leaf_weight_map()
    internal_w = list(source.internal_weight_multiset())

    edges: dict[int, tuple[int, int]] = {}
    weights: dict[int, Fraction] = {}
    labels: dict[int, str] = {}
    slot_nodes: dict[Position, int] = {}
    counter = {"node": 0, "edge": 0}

    def alloc_node() -> int:
        counter["node"] += 1
        return counter["node"] - 1

    def add_edge(u: int, v: int) -> int:
        e = counter["edge"]
        counter["edge"] += 1
        edges[e] = (u, v)
        return e

    root = alloc_node()
    anchor_leaf = alloc_node()
    labels[anchor_leaf] = anchor
    weights[add_edge(root, anchor_leaf)] = leaf_w[anchor]

    leaf_iter = iter(rest)

    def build(k: int, level: int, j: int) -> int:
        node = alloc_node()
        slot_nodes[(level, j)] = node
        if k == 1:
            label = next(leaf_iter)
            labels[node] = label
            return node
        lk = _left_size(k)
        left = build(lk, level + 1, 2 * j - 1)
        add_edge(node, left)
        right = build(k - lk, level + 1, 2 * j)
        add_edge(node, right)
        return node

    n_rest = len(rest)
    left_k = math.ceil(n_rest / 2)
    add_edge(root, build(left_k, 1, 1))
    add_edge(root, build(n_rest - left_k, 1, 2))

    node_slots = {v: p for p, v in slot_nodes.items()}
    internal_nodes = {u for e, (u, v) in edges.items()} | {v for e, (u, v) in edges.items()}
    internal_nodes -= set(labels)

    # parent edge of each positioned node; internal ones get the sorted weights
    parent_edge: dict[int, int] = {}
    for e, (u, v) in edges.items():
        parent_edge[v] = e
    level_edges = [
        parent_edge[slot_nodes[p]]
        for p in sorted(slot_nodes)
        if slot_nodes[p] not in labels
    ]
    if len(level_edges) != len(internal_w):
        raise TreeError("companion construction lost internal edges")
    for e, w in zip(level_edges, internal_w):
        weights[e] = w
    for v, label in labels.items():
        if v != anchor_leaf:
            weights[parent_edge[v]] = leaf_w[label]

    tree = Phylogeny(edges, weights, labels)
    depth = max((p[0] for p in slot_nodes), default=0)
    return AuxiliaryTree(tree, level_edges, slot_nodes, node_slots, depth)


def check_auxiliary(source: Phylogeny, aux: AuxiliaryTree) -> None:
    """Structural postconditions, enforced on every companion the pipeline builds.

    Raises TreeError when leaf depths (anchor aside) spread by more than one
    level, when some root-to-leaf internal weight sequence decreases, or when
    the weight multiset changed.
    """
    tree = aux.tree
    if tree.internal_weight_multiset() != source.internal_weight_multiset():
        raise TreeError("companion changed the internal weight multiset")
    if tree.leaf_weight_map() != source.leaf_weight_map():
        raise TreeError("companion changed leaf weights")
    anchor = tree.taxa()[0]
    depths = [
        aux.node_slots[tree.leaf_node(s)][0] for s in tree.taxa() if s != anchor
    ]
    if max(depths) - min(depths) > 1:
        raise TreeError(f"companion leaf depths spread {min(depths)}..{max(depths)}")
    # every root-to-leaf path: no internal weight below the root drops
    view = tree.rooted_view()
    for x in view.order[1:]:
        e = view.parent_edge[x]
        up = view.parent_edge[tree.other_end(e, x)]
        if up is not None and view.children[x] and tree.weight(e) < tree.weight(up):
            raise TreeError("companion has a descending weight path")
