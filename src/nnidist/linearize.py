"""Making a tree linear: every internal node adjacent to at least one leaf.

Per iteration one top-down pass from the root handle gives every non-root
node its parent edge and its terminal, its nearest ancestor that is not a
pathnode, in O(n).  The paper's schedule finds the terminals by pointer
jumping, as in Wyllie's list ranking; the pass records that schedule's
rounds, computed from each node's hop distance to its terminal (see
:func:`endnode_paths`), without running the jumps.  The node classes carry
over from one iteration to the next: a move changes the class of its middle
edge's two ends only.  The edge paths themselves are walked once,
afterwards, up the pass's parent edges and only where they are read: from
each endnode whose terminal is a junction up to that junction.  Pathnodes
have one internal child, so those chains are disjoint and the walks and
their weight sums are O(n) per iteration.  The sums are ints: each weight
is scaled once per call, at the first junction, to the lcm of the tree's
denominators, so the sums order exactly as the ``Fraction`` sums would,
without ``Fraction`` arithmetic.  Each junction then picks the lightest
endnode chain hanging below it and splices that chain's leaves upward with
one NNI per chain edge, which turns the junction into a pathnode and the
chain's endnode into a pathnode.  Junctions are never created, and at least
half of them disappear each iteration, so the loop runs at most
ceil(log2 n) times.

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
    parent_edge: dict[int, int] | None = None,
) -> dict[int, int]:
    """The terminal of every non-root node, from one top-down pass.

    With the tree hung from :meth:`Phylogeny.root_handle`, a node's terminal
    is its nearest proper ancestor that is a junction, an endnode or the
    root.  One depth-first pass from the root hands every node its terminal
    and its hop distance d to it; ``classes`` (default: classified here)
    tells which ancestors are pathnodes.  When ``parent_edge`` is given,
    every non-root node's edge toward the root is written into it.

    The rounds, counted as phase ``linearize.paths``, are those of pointer
    jumping as in Wyllie's list ranking: one initialization round with one
    task per non-root node, then round k = 1, 2, ... with one task per node
    more than 2**(k - 1) hops below its terminal, for as long as there is
    one.  After round k a node's pointer has covered min(2**k, d) hops, so
    that is the schedule the jumps would run; its widths come from a tally
    of the distances instead, and take at most ceil(log2 n) jump rounds.
    """
    rt = rt or ParRuntime()
    if classes is None:
        classes = tree.classify_nodes()
    if parent_edge is None:
        parent_edge = {}
    ends, adj, labels = tree._ends, tree._adj, tree._leaf_label
    pathnode = NodeClass.PATHNODE
    root = tree.root_handle()
    terminal: dict[int, int] = {}
    # tally[b] counts the nodes at d hops with (d - 1).bit_length() == b:
    # each takes part in jump rounds 1 to b
    tally = [0] * (len(adj).bit_length() + 1)
    # (node, its parent edge, its children's terminal, their distance - 1)
    stack = [(root, None, root, 0)]
    while stack:
        x, up, t, h = stack.pop()
        b = h.bit_length()
        for e in adj[x]:
            if e == up:
                continue
            y, z = ends[e]
            if y == x:
                y = z
            parent_edge[y] = e
            terminal[y] = t
            tally[b] += 1
            if y not in labels:
                if classes[y] is pathnode:
                    stack.append((y, e, t, h + 1))
                else:
                    stack.append((y, e, y, 0))
    rt.round("linearize.paths", terminal)
    width = len(terminal)
    for settled in tally:
        width -= settled
        if not width:
            break
        rt.round("linearize.paths", range(width))
    return terminal


def chain_path(
    tree: Phylogeny, v: int, stop: int, parent_edge: dict[int, int]
) -> tuple[int, ...]:
    """Edge ids walked from ``v`` up to its ancestor ``stop``, in order.

    ``parent_edge`` is the table :func:`endnode_paths` filled for ``tree``.
    """
    ends = tree._ends
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
    iw: dict[int, int] | None = None
    new_op = tuple.__new__
    ops: list[NniOp] = []
    iterations = 0
    # the classes carry over between iterations: a move changes the class
    # of its middle edge's two ends only
    classes = work.classify_nodes()
    while True:
        rt.round("linearize", classes)
        junctions = {x for x, c in classes.items() if c is NodeClass.JUNCTION}
        if not junctions:
            break
        # each iteration turns a junction into a pathnode and makes none, so
        # only classes gone stale can outlast the internal node count
        if iterations == len(classes):
            raise TreeError("linearize did not converge: junction classes went stale")
        iterations += 1
        if iw is None:
            # chain weights in ints over the lcm of the weights'
            # denominators: they order exactly as the Fractions do, and a
            # move never changes a weight.  Built at the first junction, so
            # a tree that is linear already never pays for it
            scale = math.lcm(*(w.denominator for w in work._wt.values()))
            iw = {e: w.numerator * (scale // w.denominator) for e, w in work._wt.items()}
        parent_edge: dict[int, int] = {}
        nxt = endnode_paths(work, rt, classes, parent_edge)

        # endnodes whose terminal is a junction announce themselves with
        # their chain and its weight; the chains are disjoint, so the walks
        # read each edge at most once
        acts = []
        for E, c in classes.items():
            if c is NodeClass.ENDNODE:
                J = nxt.get(E)
                if J in junctions:
                    path = chain_path(work, E, J, parent_edge)
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
            up = parent_edge[J]
            e_x = next(e for e in adj[J] if e != chain[0] and e != up)
            plan = []
            node = J
            for e_i in chain:
                a, b = ends[e_i]
                node = b if a == node else a
                # tuple.__new__ skips the NamedTuple's Python-level __new__
                plan.append(new_op(NniOp, (min_leaf_edge(work, node), e_i, e_x)))
            plans.append(plan)
        rt.round("linearize", plans)

        moved = set()
        for plan in plans:
            for e1, e2, e3 in plan:
                moved.update(move(work, e1, e2, e3))
            ops += plan
        classes.update(work.classify_nodes(moved))

    if not is_linear(work):
        raise TreeError("linearize postcondition failed: junction survived")
    return LinearizeResult(ops, work, iterations)
