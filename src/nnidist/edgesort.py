"""Reordering the internal edges of a linear tree into a target order.

The sort is a bottom-up merge over "blocks": maximal runs of spine positions
whose edges are already sorted by target rank, ascending or descending in
alternation.  A first pass swaps adjacent edges pairwise so size-2 blocks
alternate (block j ascending exactly when j is even); each merge stage then
pairs blocks middle-out (first with last, and so on) and merges every pair
with "pull" moves.

A pull (f, g, leaf-at-far-end-of-g) takes the edge g nearest the current
junction, hangs it below, and walks the junction one step outward; the edges
pulled so far dangle as a single chain whose top-to-bottom order is exactly
the merged run.  Pairs are processed innermost first so the one junction and
chain are shared by the whole stage; the outermost pair ends by running into
a tree end, which re-attaches the chain as the new spine.  Each edge is
operated on at most once per merge stage and at most twice in the
alternating pass.

When a stage's predicted outcome already matches the current spine order the
stage emits nothing; when the strictly cheaper endgame leaves the spine
holding the merged order read from the opposite end, the reading direction
simply flips for the next stage.  Every stage ends by checking that its
predicted order runs along one path through all internal edges
(:func:`linearize.is_spine_order`), which is the spine read from one end or
the other; the check is one pass over the order and does not walk the tree.

The swaps and the pull loop read the tree's edge table, adjacency lists and
leaf labels directly and apply their moves with :func:`nnidist.nni.move`:
a stage moves every spine edge once, and accessor calls and tuple copies per
move made up much of the phase's time.
"""

from __future__ import annotations

from dataclasses import dataclass

from nnidist.linearize import is_spine_order, min_leaf_edge, spine
from nnidist.nni import NniOp, move
from nnidist.phylo import Phylogeny, TreeError
from nnidist.runtime import ParRuntime


@dataclass
class Block:
    edges: list[int]   # edge ids in reading order along the spine
    ascending: bool    # sorted by target rank in this orientation


@dataclass
class EdgeSortResult:
    ops: list[NniOp]
    tree: Phylogeny
    stages: int


def _end_swap(tree: Phylogeny, end_node: int, first: int, second: int) -> list[NniOp]:
    """Swap the outermost two spine edges; ``first`` touches the end node."""
    ends = tree._ends
    a, b = ends[first]
    v1 = b if a == end_node else a
    a, b = ends[second]
    v2 = b if a == v1 else a
    low = min_leaf_edge(tree, v2)
    move(tree, first, second, low)
    top = min_leaf_edge(tree, end_node)
    move(tree, top, first, second)
    return [NniOp(first, second, low), NniOp(top, first, second)]


def _mid_swap(tree: Phylogeny, a: int, b: int) -> list[NniOp]:
    """Swap two adjacent mid-spine edges (four moves, each edge twice).

    All four moves are planned on the tree before the first one.
    """
    ends, adj, labels = tree._ends, tree._adj, tree._leaf_label
    a0, a1 = ends[a]
    node_b, node_a = (a0, a1) if a0 in ends[b] else (a1, a0)
    b0, b1 = ends[b]
    node_c = b1 if b0 == node_b else b0
    e_prev = next(
        e for e in adj[node_a]
        if e != a and ends[e][0] not in labels and ends[e][1] not in labels
    )
    e_next = next(
        e for e in adj[node_c]
        if e != b and ends[e][0] not in labels and ends[e][1] not in labels
    )
    ops = [
        NniOp(e_prev, a, min_leaf_edge(tree, node_b)),
        NniOp(e_next, b, a),
        NniOp(e_next, b, min_leaf_edge(tree, node_c)),
        NniOp(e_next, a, min_leaf_edge(tree, node_a)),
    ]
    for e1, e2, e3 in ops:
        move(tree, e1, e2, e3)
    return ops


def make_alternating(
    tree: Phylogeny,
    order: list[int],
    rank: dict[int, int],
    rt: ParRuntime,
) -> tuple[list[NniOp], list[Block]]:
    """Swap adjacent position pairs in place so size-2 blocks alternate.

    Mutates ``tree`` and returns (ops, blocks).  ``order`` is the current
    spine edge order in reading direction.
    """
    m = len(order)
    swaps = [
        (rank[order[j]] < rank[order[j + 1]]) != ((j // 2) % 2 == 0)
        for j in range(0, m - 1, 2)
    ]
    rt.round("edgesort", swaps)

    ends = tree._ends
    ops: list[NniOp] = []
    new_order = list(order)
    for j in range(0, m - 1, 2):
        if not swaps[j // 2]:
            continue
        a, b = new_order[j], new_order[j + 1]
        if j == 0:
            # a's end not shared with b is the spine's end node
            a0, a1 = ends[a]
            ops += _end_swap(tree, a1 if a0 in ends[b] else a0, a, b)
        elif j + 1 == m - 1:
            b0, b1 = ends[b]
            ops += _end_swap(tree, b1 if b0 in ends[a] else b0, b, a)
        else:
            ops += _mid_swap(tree, a, b)
        new_order[j], new_order[j + 1] = b, a

    blocks = []
    for j in range(0, m, 2):
        blocks.append(Block(new_order[j : j + 2], ascending=(j // 2) % 2 == 0))
    return ops, blocks


def _pull_plan(
    left: Block, right: Block, rank: dict[int, int], outer: bool
) -> list[tuple[str, int]]:
    """The pull order merging one block pair.

    The left block exposes edges right-to-left, the right one left-to-right;
    with alternating orientations both expose their extreme rank, and pulling
    the larger (ascending result) or smaller (descending) gives the merge.
    Inner pairs drain both blocks completely; the outermost pair stops when
    the right block is exhausted, leaving its left remainder in place as the
    prefix of the stage outcome.
    """
    maxfirst = left.ascending
    li = len(left.edges) - 1
    ri = 0
    pulls = []
    while True:
        lv = rank[left.edges[li]] if li >= 0 else None
        rv = rank[right.edges[ri]] if ri < len(right.edges) else None
        if rv is None and (outer or lv is None):
            break
        if rv is None:
            take_left = True
        elif lv is None:
            take_left = False
        else:
            take_left = (lv > rv) if maxfirst else (lv < rv)
        if take_left:
            pulls.append(("L", left.edges[li]))
            li -= 1
        else:
            pulls.append(("R", right.edges[ri]))
            ri += 1
    return pulls


def merge_stage(
    tree: Phylogeny,
    blocks: list[Block],
    rank: dict[int, int],
    rt: ParRuntime,
) -> tuple[list[NniOp], list[Block]]:
    """Merge paired blocks in place; returns (ops, next stage's blocks).

    The blocks' edges, concatenated, must be the spine's edge order read
    from one of its ends.  The returned blocks keep that true.
    """
    q = len(blocks)
    if q % 2 == 0:
        pair_idx = [(i, q - 1 - i) for i in range(q // 2)]
        passed: list[Block] = []
    else:
        # a same-parity pair would not be bitonic, so the first block sits out
        pair_idx = [(i, q - i) for i in range(1, (q + 1) // 2)]
        passed = [blocks[0]]

    # round 1: every participating edge publishes its target rank
    rt.round(
        "edgesort",
        [rank[e] for li, ri in pair_idx for e in blocks[li].edges + blocks[ri].edges],
    )

    # round 2: one planning task per pair, (pulls, merged run)
    plans = []
    for pos, (li, ri) in enumerate(pair_idx):
        left, right = blocks[li], blocks[ri]
        run = sorted(
            left.edges + right.edges,
            key=lambda e: rank[e],
            reverse=not left.ascending,
        )
        plans.append((_pull_plan(left, right, rank, outer=(pos == 0)), run))
    rt.round("edgesort", plans)

    predicted = [e for b in passed for e in b.edges]
    for _, run in plans:
        predicted += run

    ops: list[NniOp] = []
    # the blocks hold the spine's edges in spine order, read from one end or
    # the other: the alternating pass builds them so, and each stage's
    # postcondition below checks the tree against it for the next stage
    current = [e for b in blocks for e in b.edges]
    if current == predicted or current == predicted[::-1]:
        pass  # already in stage order; nothing to emit
    else:
        ends, adj, labels = tree._ends, tree._adj, tree._leaf_label
        junction: int | None = None
        chain_top: int | None = None
        stopped = False
        for pos in reversed(range(len(pair_idx))):
            if stopped:
                break
            li, ri = pair_idx[pos]
            left, right = blocks[li], blocks[ri]
            pulls = plans[pos][0]
            if junction is None:
                a0, a1 = ends[left.edges[-1]]
                junction = a0 if a0 in ends[right.edges[0]] else a1
            for side, g in pulls:
                at = adj[junction]
                if g not in at:
                    raise TreeError("merge pull lost the junction")
                if chain_top is None:
                    f = next(
                        e for e in at
                        if e != g and ends[e][0] not in labels and ends[e][1] not in labels
                    )
                else:
                    f = next(e for e in at if e != g and e != chain_top)
                g0, g1 = ends[g]
                far = g1 if g0 == junction else g0
                # far's leaf count and min_leaf_edge(tree, far) in one pass
                far_leaves = 0
                leaf = low = None
                for e in adj[far]:
                    y0, y1 = ends[e]
                    y = y0 if y0 in labels else y1 if y1 in labels else None
                    if y is not None:
                        far_leaves += 1
                        if low is None or y < leaf:
                            leaf, low = y, e
                move(tree, f, g, low)
                ops.append(NniOp(f, g, low))
                if far_leaves == 2:
                    # ran into a tree end: the chain is spliced back in
                    if side == "L":
                        # left end reached; the remaining right part already
                        # trails the chain in merged (reversed) order
                        stopped = True
                        break
                    if pos != 0 or (side, g) != pulls[-1]:
                        raise TreeError("merge spliced a tree end mid-stage")
                else:
                    junction = far
                    chain_top = g

    if not is_spine_order(tree, predicted):
        raise TreeError("merge stage did not produce its predicted order")

    new_blocks = [Block(list(b.edges), b.ascending) for b in passed]
    for (li, _), (_, run) in zip(pair_idx, plans):
        new_blocks.append(Block(list(run), blocks[li].ascending))
    return ops, new_blocks


def merge_sort_edges(
    source: Phylogeny,
    target: list[int],
    rt: ParRuntime | None = None,
) -> EdgeSortResult:
    """Emit NNI moves arranging ``source``'s internal edges into ``target`` order.

    ``source`` must be linear; it is not modified.  The result tree's spine,
    read from one of its two ends, lists the internal edges exactly in
    ``target`` order.  The rounds count as phase ``edgesort``.
    """
    rt = rt or ParRuntime()
    tree = source.copy()
    internal = tree.internal_edges()
    if sorted(target) != internal:
        raise TreeError("target is not a permutation of the internal edges")
    if len(internal) <= 1:
        return EdgeSortResult([], tree, 0)

    rank = {e: i for i, e in enumerate(target)}
    _, order = spine(tree)
    fixed_fwd = sum(1 for i, e in enumerate(order) if rank[e] == i)
    fixed_rev = sum(1 for i, e in enumerate(reversed(order)) if rank[e] == i)
    if fixed_rev > fixed_fwd:
        order.reverse()
    if order == target:
        return EdgeSortResult([], tree, 0)

    ops, blocks = make_alternating(tree, order, rank, rt)
    stages = 1
    while len(blocks) > 1:
        stage_ops, blocks = merge_stage(tree, blocks, rank, rt)
        ops += stage_ops
        stages += 1

    if blocks[0].edges != target:
        raise TreeError("merge sort finished with the wrong edge order")
    return EdgeSortResult(ops, tree, stages)
