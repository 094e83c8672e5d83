"""Making a tree linear: every internal node adjacent to at least one leaf.

Per iteration the tree is oriented toward the root handle and every non-root
node learns, by pointer jumping, the edge path to its nearest ancestor that
is not a pathnode.  The walks carry only that terminal and the path; the
weight of a walk is summed once, and only for the endnodes whose walk ends
at a junction.  Those chains are disjoint, so an iteration makes O(n) exact
additions.  Each junction then picks the lightest endnode chain hanging
below it and splices that chain's leaves upward with one NNI per chain edge,
which turns the junction into a pathnode and the chain's endnode into a
pathnode.  Junctions are never created, and at least half of them disappear
each iteration, so the loop runs at most ceil(log2 n) times.

A linear tree's internal nodes form one path, its spine; :func:`spine` reads
it, and :func:`min_leaf_edge` is the tie-break every phase uses to pick one
of an endnode's two leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from nnidist.nni import NniOp, apply_nni
from nnidist.phylo import NodeClass, Phylogeny, TreeError
from nnidist.runtime import ParRuntime


class PathInfo(NamedTuple):
    """Walk from a node toward the root, stopping before the first non-pathnode.

    ``next`` is that terminal ancestor (a junction, an endnode, or the root)
    and ``path`` the edge ids walked, in order.
    """

    next: int
    path: tuple[int, ...]


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
    inner = {
        x: [e for e in tree.adjacent_edges(x) if not tree.is_edge_leaf(e)]
        for x in tree.nodes()
        if not tree.is_leaf(x)
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


def min_leaf_edge(tree: Phylogeny, node: int) -> int:
    """The leaf edge at ``node`` whose leaf has the smallest id."""
    return min(
        (tree.other_end(f, node), f)
        for f in tree.adjacent_edges(node)
        if tree.is_edge_leaf(f)
    )[1]


def endnode_paths(
    tree: Phylogeny,
    rt: ParRuntime | None = None,
    phase: str = "endnode_paths",
    classes: dict[int, NodeClass] | None = None,
) -> dict[int, PathInfo]:
    """PathInfo for every non-root node, by pointer jumping.

    Uses one initialization round plus at most ceil(log2 n) jump rounds: each
    jump concatenates a node's walk with its terminal's walk, doubling the
    settled length.
    """
    rt = rt or ParRuntime()
    view = tree.rooted_view()
    if classes is None:
        classes = tree.classify_nodes()
    terminal = {x for x, c in classes.items() if c is not NodeClass.PATHNODE}
    terminal.add(view.order[0])

    state: dict[int, PathInfo] = {}
    for v in view.order:
        e = view.parent_edge[v]
        if e is not None:
            state[v] = PathInfo(tree.other_end(e, v), (e,))
    rt.round(phase, state)

    while True:
        jumps: dict[int, PathInfo] = {}
        for v, mine in state.items():
            if mine.next in terminal:
                continue
            theirs = state[mine.next]
            jumps[v] = PathInfo(theirs.next, mine.path + theirs.path)
        if not jumps:
            break
        rt.round(phase, jumps)
        state.update(jumps)
    return state


def linearize(
    tree: Phylogeny, rt: ParRuntime | None = None, phase: str = "linearize"
) -> LinearizeResult:
    """Emit an NNI sequence turning ``tree`` into a linear tree.

    The input is not modified; the result carries the transformed copy, the
    operations (already applied to it), and the outer iteration count.
    """
    rt = rt or ParRuntime()
    work = tree.copy()
    ops: list[NniOp] = []
    iterations = 0
    while True:
        classes = work.classify_nodes()
        rt.round(phase, classes)
        junctions = {x for x, c in classes.items() if c is NodeClass.JUNCTION}
        if not junctions:
            break
        iterations += 1
        info = endnode_paths(work, rt, phase=phase + ".paths", classes=classes)

        # endnodes whose upward walk ends at a junction announce themselves
        # with their chain's weight; the chains are disjoint, so the sums
        # add each edge weight at most once
        acts = []
        for E in sorted(x for x, c in classes.items() if c is NodeClass.ENDNODE):
            pi = info.get(E)
            if pi is not None and pi.next in junctions:
                dist = sum(work.weight(e) for e in pi.path)
                acts.append((pi.next, (dist, E, pi.path)))
        rt.round(phase, acts)

        candidates: dict[int, list] = {}
        for junction, val in acts:
            candidates.setdefault(junction, []).append(val)

        # each activated junction keeps its lightest chain (ties by endnode id)
        selected = {J: min(cands) for J, cands in sorted(candidates.items())}
        rt.round(phase, selected)

        # plan the splices against the frozen pre-round tree
        plans = []
        for J, (dist, E, path) in selected.items():
            chain = list(reversed(path))
            # the root has a leaf neighbour, so J is not the root and its walk
            # starts on its parent edge
            e_x = next(
                e
                for e in work.adjacent_edges(J)
                if e != chain[0] and e != info[J].path[0]
            )
            plan = []
            node = J
            for e_i in chain:
                node = work.other_end(e_i, node)
                plan.append(NniOp(min_leaf_edge(work, node), e_i, e_x))
            plans.append(plan)
        rt.round(phase, plans)

        for plan in plans:
            for op in plan:
                apply_nni(work, op)
                ops.append(op)

    if not is_linear(work):
        raise TreeError("linearize postcondition failed: junction survived")
    return LinearizeResult(ops, work, iterations)
