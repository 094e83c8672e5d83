"""The balanced companion tree: same weights, canonical shape.

For a source tree on taxa S the companion puts the smallest taxon alone at
the root handle and the remaining n-1 taxa (in sorted order, left to right)
on two left-complete binary subtrees of near-equal size.  Internal edges,
enumerated level by level left to right, receive the source's internal
weights in ascending order, which forces every root-to-leaf weight sequence
to be non-decreasing.  Leaf edges keep their taxon's original weight.

Node ids follow preorder (root 0, anchor leaf 1), and each edge takes its id
when the subtree below it is finished; the companion's linearization breaks
ties on these ids.  Two sources with equal taxa and equal internal weight
multisets produce byte-identical companions, which is what lets the later
stages line the two trees up against each other: the pipeline builds one
companion per component and checks it once, since the two trees have the
same leaf weights and internal weight multiset and the shape checks read the
companion alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count

from nnidist.phylo import Phylogeny, TreeError


def _left_size(k: int) -> int:
    """Leaves in the left child of a left-complete subtree over k leaves."""
    if k == 2:
        return 1
    d = math.ceil(math.log2(k))
    return min(2 ** (d - 1), k - 2 ** (d - 2))


def build_auxiliary(source: Phylogeny) -> Phylogeny:
    """Deterministic balanced companion of ``source`` (see module docstring)."""
    anchor, *rest = source.taxa()
    leaf_w = source.leaf_weight_map()
    edges: dict[int, tuple[int, int]] = {0: (0, 1)}
    weights: dict[int, Fraction] = {0: leaf_w[anchor]}
    labels = {1: anchor}
    slots: list[tuple[int, int, int]] = []   # (level, j, edge) of each internal edge
    node_ids = count(2)
    leaf_iter = iter(rest)

    def hang(parent: int, k: int, level: int, j: int) -> None:
        """Hang the next ``k`` taxa below ``parent`` at position (level, j).

        The children of (l, j) sit at (l+1, 2j-1) and (l+1, 2j).  The
        subtree's recursion depth is its height, O(log n).
        """
        node = next(node_ids)
        if k == 1:
            labels[node] = next(leaf_iter)
        else:
            lk = _left_size(k)
            hang(node, lk, level + 1, 2 * j - 1)
            hang(node, k - lk, level + 1, 2 * j)
        e = len(edges)
        edges[e] = (parent, node)
        if k == 1:
            weights[e] = leaf_w[labels[node]]
        else:
            slots.append((level, j, e))

    left_k = math.ceil(len(rest) / 2)
    hang(0, left_k, 1, 1)
    hang(0, len(rest) - left_k, 1, 2)
    for (_, _, e), w in zip(sorted(slots), source.internal_weight_multiset()):
        weights[e] = w
    return Phylogeny(edges, weights, labels)


def check_auxiliary(source: Phylogeny, tree: Phylogeny) -> None:
    """Structural postconditions, enforced on every companion the pipeline builds.

    Raises TreeError when leaf depths (anchor aside) spread by more than one
    level, when some root-to-leaf internal weight sequence decreases, or when
    the weight multiset changed.  Depths and paths are read off the
    companion's rooted view, which hangs from the root handle.
    """
    if tree.internal_weight_multiset() != source.internal_weight_multiset():
        raise TreeError("companion changed the internal weight multiset")
    if tree.leaf_weight_map() != source.leaf_weight_map():
        raise TreeError("companion changed leaf weights")
    anchor = tree.leaf_node(tree.taxa()[0])
    order, parent_edge, children = tree.rooted_view()
    depth = {order[0]: 0}
    leaf_depths = []
    for x in order[1:]:
        e = parent_edge[x]
        parent = tree.other_end(e, x)
        depth[x] = depth[parent] + 1
        up = parent_edge[parent]
        if not children[x]:
            if x != anchor:
                leaf_depths.append(depth[x])
        elif up is not None and tree.weight(e) < tree.weight(up):
            # no internal weight below the root drops on a root-to-leaf path
            raise TreeError("companion has a descending weight path")
    if max(leaf_depths) - min(leaf_depths) > 1:
        raise TreeError(
            f"companion leaf depths spread {min(leaf_depths)}..{max(leaf_depths)}")
