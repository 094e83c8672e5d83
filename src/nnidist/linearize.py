"""Making a tree linear: every internal node adjacent to at least one leaf.

Per iteration the tree is oriented toward the root handle and every non-root
node learns, by pointer jumping, the path to its nearest ancestor that is not
a pathnode.  Each junction then picks the nearest endnode chain hanging below
it and splices that chain's leaves upward with one NNI per chain edge, which
turns the junction into a pathnode and the chain's endnode into a pathnode.
Junctions are never created, and at least half of them disappear each
iteration, so the loop runs at most ceil(log2 n) times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from nnidist.nni import NniOp, apply_nni
from nnidist.phylo import NodeClass, Phylogeny, TreeError
from nnidist.runtime import ParRuntime


@dataclass(frozen=True)
class PathInfo:
    """Walk from a node toward the root, stopping before the first non-pathnode.

    ``next`` is that terminal ancestor (a junction, an endnode, or the root),
    ``head`` the last node on the path before it, ``path`` the edge ids walked
    in order, ``dist`` their weight sum, ``length`` their count.
    """

    next: int
    head: int
    dist: Fraction
    length: int
    path: tuple[int, ...]


@dataclass
class LinearizeResult:
    ops: list[NniOp]
    tree: Phylogeny
    iterations: int


def is_linear(tree: Phylogeny) -> bool:
    """True when every internal node has an adjacent leaf."""
    return NodeClass.JUNCTION not in tree.classify_nodes().values()


def spine_nodes(tree: Phylogeny) -> list[int]:
    """Internal nodes of a linear tree in path order, from the smaller-id end."""
    classes = tree.classify_nodes()
    internal = sorted(classes)
    if len(internal) <= 2:
        return internal
    ends = sorted(x for x, c in classes.items() if c is NodeClass.ENDNODE)
    if len(ends) != 2:
        raise ValueError("tree is not linear")
    order = [ends[0]]
    prev = None
    while order[-1] != ends[1]:
        x = order[-1]
        step = [
            tree.other_end(e, x)
            for e in tree.adjacent_edges(x)
            if not tree.is_edge_leaf(e) and tree.other_end(e, x) != prev
        ]
        if len(step) != 1:
            raise ValueError("tree is not linear")
        prev = x
        order.append(step[0])
    return order


def classify_round(rt: ParRuntime, phase: str, tree: Phylogeny) -> dict[int, NodeClass]:
    """Node classification as one parallel round (one task per internal node)."""
    classes = tree.classify_nodes()
    rt.round(phase, classes)
    return classes


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
            u = tree.other_end(e, v)
            state[v] = PathInfo(next=u, head=v, dist=tree.weight(e), length=1, path=(e,))
    rt.round(phase, state)

    while True:
        jumps: dict[int, PathInfo] = {}
        for v, mine in state.items():
            if mine.next in terminal:
                continue
            theirs = state[mine.next]
            jumps[v] = PathInfo(
                next=theirs.next,
                head=theirs.head,
                dist=mine.dist + theirs.dist,
                length=mine.length + theirs.length,
                path=mine.path + theirs.path,
            )
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
        classes = classify_round(rt, phase, work)
        junctions = {x for x, c in classes.items() if c is NodeClass.JUNCTION}
        if not junctions:
            break
        iterations += 1
        info = endnode_paths(work, rt, phase=phase + ".paths", classes=classes)

        # endnodes whose upward walk ends at a junction announce themselves
        acts = []
        for E in sorted(x for x, c in classes.items() if c is NodeClass.ENDNODE):
            pi = info.get(E)
            if pi is not None and pi.next in junctions:
                acts.append((pi.next, (pi.dist, E, pi.path)))
        rt.round(phase, acts)

        candidates: dict[int, list] = {}
        for junction, val in acts:
            candidates.setdefault(junction, []).append(val)

        # each activated junction keeps its nearest chain (ties by endnode id)
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
                # smaller leaf node id wins when the endnode offers two
                leaf_edge = min(
                    (work.other_end(f, node), f)
                    for f in work.adjacent_edges(node)
                    if work.is_edge_leaf(f)
                )[1]
                plan.append(NniOp(leaf_edge, e_i, e_x))
            plans.append(plan)
        rt.round(phase, plans)

        for plan in plans:
            for op in plan:
                apply_nni(work, op)
                ops.append(op)

    if not is_linear(work):
        raise TreeError("linearize postcondition failed: junction survived")
    return LinearizeResult(ops, work, iterations)
