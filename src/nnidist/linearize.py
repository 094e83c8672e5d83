"""Making a tree linear: every internal node adjacent to at least one leaf.

Per iteration the tree is oriented toward the root handle and every non-root
node learns, by pointer jumping, its terminal: its nearest ancestor that is
not a pathnode.  A jump round moves O(1) data per node (one terminal id), so
every round is O(n) work, as in Wyllie's list ranking.  The edge paths
themselves are walked once, afterwards, and only where they are read: from
each endnode whose terminal is a junction up to that junction.  Pathnodes
have one internal child, so those chains are disjoint and the walks and
their weight sums are O(n) per iteration.  The sums are ints: each weight
is scaled once per call to the lcm of the tree's denominators, so the sums
order exactly as the ``Fraction`` sums would, without ``Fraction``
arithmetic.  Each junction then picks the lightest endnode chain hanging
below it and splices that chain's leaves upward with one NNI per chain
edge, which turns the junction into a pathnode and the chain's endnode
into a pathnode.  Junctions are never created, and at least half of them
disappear each iteration, so the loop runs at most ceil(log2 n) times.

A linear tree's internal nodes form one path, its spine; :func:`spine` reads
it, :func:`is_spine_order` checks a claimed spine edge order without reading
it, and :func:`min_leaf_edge` is the tie-break every phase uses to pick one
of an endnode's two leaves.  These and :meth:`Phylogeny.classify_nodes` read
the tree's edge table, adjacency and labels directly: they run on every
stage of every phase.  So do the chain walks and splice plans here, and the
splices are applied with :func:`nnidist.nni.move`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from nnidist.nni import NniOp, move
from nnidist.phylo import NodeClass, Phylogeny, TreeError
from nnidist.runtime import ParRuntime


@dataclass
class LinearizeResult:
    ops: list[NniOp]
    tree: Phylogeny
    iterations: int


def is_linear(tree: Phylogeny) -> bool:
    """True when every internal node has an adjacent leaf."""
    return NodeClass.JUNCTION not in tree.classify_nodes().values()


def spine(tree: Phylogeny) -> tuple[list[int], list[int]]:
    """(nodes, edges) of a linear tree's spine, from the smaller-id end.

    ``nodes`` lists every internal node in path order and ``edges[i]`` joins
    ``nodes[i]`` and ``nodes[i + 1]``.  Raises :class:`TreeError` unless the
    internal nodes form one path.
    """
    ends, labels = tree._ends, tree._leaf_label
    inner = {
        x: [e for e in es if ends[e][0] not in labels and ends[e][1] not in labels]
        for x, es in tree._adj.items()
        if x not in labels
    }
    x = min(x for x, es in inner.items() if len(es) <= 1)
    nodes, edges = [x], []
    while len(nodes) < len(inner):
        # off a path, the walk meets a fork or a dead end before covering all
        step = [e for e in inner[x] if not edges or e != edges[-1]]
        if len(step) != 1:
            raise TreeError("tree is not linear")
        x = tree.other_end(step[0], x)
        edges.append(step[0])
        nodes.append(x)
    return nodes, edges


def is_spine_order(tree: Phylogeny, order: Sequence[int]) -> bool:
    """True when ``order`` is ``spine(tree)[1]`` read from either end.

    One pass over ``order``, without walking the tree: it must hold n - 3
    internal edges, and each must meet its predecessor at exactly one node,
    never the node where the predecessor met the edge before it.  Such a
    walk never turns back, and in a tree a walk that never turns back is a
    path, so the edges are all the internal edges, on one path.  That path is
    the spine, and only a linear tree has one.
    """
    ends, labels = tree._ends, tree._leaf_label
    if len(order) != tree.n_taxa - 3:
        return False
    p = q = joint = None
    for e in order:
        cur = ends.get(e)
        if cur is None:
            return False
        a, b = cur
        if a in labels or b in labels:
            return False
        if p is not None:
            at_a = a == p or a == q
            if at_a == (b == p or b == q):
                return False  # no shared node, or both (a repeated edge)
            shared = a if at_a else b
            if shared == joint:
                return False
            joint = shared
        p, q = a, b
    return True


def min_leaf_edge(tree: Phylogeny, node: int) -> int:
    """The leaf edge at ``node`` whose leaf has the smallest id."""
    ends, labels = tree._ends, tree._leaf_label
    # node is internal, so an end of f that is a leaf is f's far end
    return min((y, f) for f in tree._adj[node] for y in ends[f] if y in labels)[1]


def endnode_paths(
    tree: Phylogeny,
    rt: ParRuntime | None = None,
    classes: dict[int, NodeClass] | None = None,
) -> dict[int, int]:
    """The terminal of every non-root node, by pointer jumping.

    A node's terminal is its nearest proper ancestor in
    ``tree.rooted_view()`` that is a junction, an endnode or the root.  Uses
    one initialization round plus at most ceil(log2 n) jump rounds: each jump
    replaces a node's pointer by its pointer's pointer, doubling the settled
    length, and moves one id per node.  The rounds count as phase
    ``linearize.paths``.
    """
    rt = rt or ParRuntime()
    if classes is None:
        classes = tree.classify_nodes()
    order, parent_edge, _ = tree.rooted_view()
    terminal = {x for x, c in classes.items() if c is not NodeClass.PATHNODE}
    terminal.add(order[0])

    ends = tree._ends
    nxt = {}
    for v in order[1:]:
        a, b = ends[parent_edge[v]]
        nxt[v] = b if a == v else a
    rt.round("linearize.paths", nxt)

    # a node whose pointer reaches a terminal is settled for good, so each
    # round visits only the nodes that still jump
    active = [v for v, u in nxt.items() if u not in terminal]
    while active:
        jumps = {v: nxt[nxt[v]] for v in active}
        rt.round("linearize.paths", jumps)
        nxt.update(jumps)
        active = [v for v in active if nxt[v] not in terminal]
    return nxt


def chain_path(tree: Phylogeny, v: int, stop: int) -> tuple[int, ...]:
    """Edge ids walked from ``v`` up the rooted view to its ancestor ``stop``, in order."""
    ends, parent_edge = tree._ends, tree.rooted_view().parent_edge
    path = []
    while v != stop:
        e = parent_edge[v]
        path.append(e)
        a, b = ends[e]
        v = b if a == v else a
    return tuple(path)


def linearize(tree: Phylogeny, rt: ParRuntime | None = None) -> LinearizeResult:
    """Emit an NNI sequence turning ``tree`` into a linear tree.

    The input is not modified; the result carries the transformed copy, the
    operations (already applied to it), and the outer iteration count.  The
    rounds count as phase ``linearize``, the pointer jumping inside them as
    ``linearize.paths``.
    """
    rt = rt or ParRuntime()
    work = tree.copy()
    ends, adj = work._ends, work._adj
    # chain weights in ints over the lcm of the weights' denominators: they
    # order exactly as the Fractions do, and a move never changes a weight
    scale = math.lcm(*(w.denominator for w in work._wt.values()))
    iw = {e: w.numerator * (scale // w.denominator) for e, w in work._wt.items()}
    ops: list[NniOp] = []
    iterations = 0
    while True:
        classes = work.classify_nodes()
        rt.round("linearize", classes)
        junctions = {x for x, c in classes.items() if c is NodeClass.JUNCTION}
        if not junctions:
            break
        iterations += 1
        nxt = endnode_paths(work, rt, classes=classes)

        # endnodes whose terminal is a junction announce themselves with
        # their chain and its weight; the chains are disjoint, so the walks
        # read each edge at most once
        acts = []
        for E in sorted(x for x, c in classes.items() if c is NodeClass.ENDNODE):
            J = nxt.get(E)
            if J in junctions:
                path = chain_path(work, E, J)
                dist = sum(iw[e] for e in path)
                acts.append((J, (dist, E, path)))
        rt.round("linearize", acts)

        candidates: dict[int, list] = {}
        for junction, val in acts:
            candidates.setdefault(junction, []).append(val)

        # each activated junction keeps its lightest chain (ties by endnode id)
        selected = {J: min(cands) for J, cands in sorted(candidates.items())}
        rt.round("linearize", selected)

        # plan the splices against the frozen pre-round tree
        plans = []
        for J, (dist, E, path) in selected.items():
            chain = list(reversed(path))
            # the root has a leaf neighbour, so J is not the root and has a
            # parent edge
            up = work.rooted_view().parent_edge[J]
            e_x = next(e for e in adj[J] if e != chain[0] and e != up)
            plan = []
            node = J
            for e_i in chain:
                a, b = ends[e_i]
                node = b if a == node else a
                plan.append(NniOp(min_leaf_edge(work, node), e_i, e_x))
            plans.append(plan)
        rt.round("linearize", plans)

        for plan in plans:
            for e1, e2, e3 in plan:
                move(work, e1, e2, e3)
            ops += plan

    if not is_linear(work):
        raise TreeError("linearize postcondition failed: junction survived")
    return LinearizeResult(ops, work, iterations)
