"""The full approximation: decompose on good pairs, then per component
linearize, merge-sort edges, rebalance, and transport leaves.

Each component is solved by meeting in the middle.  Tree 1 is made linear,
its internal edges are merge-sorted into the order of the linearized
balanced companion, and the companion's linearization is replayed backwards
to reach the balanced shape.  Tree 2 travels the same road forward; its
sequence is inverted and appended after a leaf sort aligns the two balanced
forms.  Operation sequences produced on one tree's edge ids are carried to
the other's through structural isomorphisms: corresponding edges are matched
once (positionally for two linear trees with equal spine weight sequences,
by canonical traversal for equal trees) and the correspondence stays valid
because matched operations change both trees in lockstep.

The inverse of tree 2's journey often starts by undoing or redoing the move
just before it.  So each component's joined sequence goes through
:func:`nnidist.nni.shorten`, which cancels or merges back-to-back moves on
one middle edge, and the self-check replays the shortened answer.  A merged
move keeps the phase of the earlier of its two moves, so each phase keeps
one contiguous slice of the answer and the phase costs still add up to the
cost.  The round and work counters describe the schedule that made the
moves, before shortening.

A component without an internal edge is a three-leaf star whose two trees
were already found to agree, so it is skipped without building anything.
Any other component has moves to make: every good pair was cut, and two
canonically equal trees would pair every internal edge.

Pseudo-leaf edges inside components carry the edge id of the cut they stand
for, so stitched sequences are valid on the full trees as emitted: a swap
that moves a pseudo-leaf moves the whole subtree beyond the cut, and a cut
edge can never be an operating edge because one of its endpoints is a leaf
in every component.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from nnidist.balance import AuxiliaryTree, build_auxiliary, check_auxiliary
from nnidist.edgesort import merge_sort_edges
from nnidist.goodpairs import decompose, find_good_edge_pairs, lower_bound
from nnidist.leafsort import sort_leaves
from nnidist.linearize import LinearizeResult, linearize, spine
# apply_sequence is not called here, but perfbench/tracing.py times it in this
# module's namespace, so the import stays
from nnidist.nni import (
    NniOp,
    apply_sequence,
    counted_cost,
    invert_sequence,
    replay,
    shorten,
    verify_transform,
)
from nnidist.phylo import Phylogeny, TreeError, finiteness_check
from nnidist.runtime import ParRuntime

PHASE_NAMES = (
    "linearize_1",
    "edge_sort_1",
    "linearize_aux_1",
    "leaf_sort",
    "linearize_aux_2",
    "edge_sort_2",
    "linearize_2",
)


@dataclass
class ApproxResult:
    cost: Fraction
    sequence: list[NniOp]
    phase_costs: dict[str, Fraction]
    metrics: dict
    good_pairs: int
    w: Fraction
    ratio_to_w: Fraction | None
    lower_bound: Fraction
    ratio_to_lb: Fraction | None

    def as_dict(self) -> dict:
        return {
            "cost": str(self.cost),
            "ops": len(self.sequence),
            "phase_costs": {k: str(v) for k, v in self.phase_costs.items()},
            "good_pairs": self.good_pairs,
            "w": str(self.w),
            "ratio_to_w": None if self.ratio_to_w is None else float(self.ratio_to_w),
            "lower_bound": str(self.lower_bound),
            "ratio_to_lb": None if self.ratio_to_lb is None else float(self.ratio_to_lb),
            "metrics": self.metrics,
        }


def _translate(ops: list[NniOp], emap: dict[int, int]) -> list[NniOp]:
    return [NniOp(emap[o.e1], emap[o.e2], emap[o.e3]) for o in ops]


def _linear_maps(
    a: Phylogeny, b: Phylogeny, b_spine: tuple[list[int], list[int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """Edge and node maps from linear tree ``b`` onto linear tree ``a``.

    ``b_spine`` is ``spine(b)``, left unchanged.  The spines must carry the
    same weight sequence up to direction; leaves at corresponding spine
    positions are matched in label order.
    """
    spine_a, order_a = spine(a)
    spine_b, order_b = b_spine
    wa = [a.weight(e) for e in order_a]
    wb = [b.weight(e) for e in order_b]
    if wb != wa:
        if wb[::-1] != wa:
            raise TreeError("linear trees do not share a spine weight sequence")
        spine_b, order_b = spine_b[::-1], order_b[::-1]
    emap = dict(zip(order_b, order_a))
    nmap = dict(zip(spine_b, spine_a))
    for na, nb in zip(spine_a, spine_b):
        leaves_a = sorted(
            (a.leaf_label(a.other_end(e, na)), e)
            for e in a.adjacent_edges(na)
            if a.is_edge_leaf(e)
        )
        leaves_b = sorted(
            (b.leaf_label(b.other_end(e, nb)), e)
            for e in b.adjacent_edges(nb)
            if b.is_edge_leaf(e)
        )
        if len(leaves_a) != len(leaves_b):
            raise TreeError("linear trees do not have matching leaf positions")
        for (_, ea), (_, eb) in zip(leaves_a, leaves_b):
            emap[eb] = ea
            nmap[b.other_end(eb, nb)] = a.other_end(ea, na)
    return emap, nmap


def _canonical_edge_order(tree: Phylogeny) -> list[int]:
    """Child edges of each node of the rooted view, nodes in preorder."""
    view = tree.rooted_view()
    out: list[int] = []
    stack = [view.order[0]]
    while stack:
        kids = view.children[stack.pop()]
        out.extend(view.parent_edge[c] for c in kids)
        stack.extend(reversed(kids))
    return out


def _equal_tree_edge_map(a: Phylogeny, b: Phylogeny) -> dict[int, int]:
    """Edge map from ``b`` onto the canonically equal tree ``a``."""
    return dict(zip(_canonical_edge_order(b), _canonical_edge_order(a)))


def _aux_order_target(
    linear: Phylogeny, aux_linear: Phylogeny, aux_order: list[int]
) -> list[int]:
    """``linear``'s internal edges listed in ``aux_linear``'s spine order ``aux_order``.

    Edges are matched by weight; repeated weights pair up k-th with k-th in
    edge-id order, which is all the isomorphism translation needs.
    """
    groups: dict[Fraction, list[int]] = {}
    for e in linear.internal_edges():
        groups.setdefault(linear.weight(e), []).append(e)
    for lst in groups.values():
        lst.sort(reverse=True)
    target = []
    for e in aux_order:
        w = aux_linear.weight(e)
        if w not in groups or not groups[w]:
            raise TreeError("companion spine weights do not match the component")
        target.append(groups[w].pop())
    return target


def _forward_to_balanced(
    component: Phylogeny,
    aux: AuxiliaryTree,
    aux_lin: LinearizeResult,
    aux_spine: tuple[list[int], list[int]],
    rt: ParRuntime,
):
    """Transform one component into the shape of its companion ``aux``.

    ``aux_lin`` is the companion's linearization and ``aux_spine`` its
    ``spine``.  Returns (phase op lists, resulting tree, view root in the
    result's ids).
    """
    lin = linearize(component, rt)
    target = _aux_order_target(lin.tree, aux_lin.tree, aux_spine[1])
    sorted_edges = merge_sort_edges(lin.tree, target, rt)
    emap, nmap = _linear_maps(sorted_edges.tree, aux_lin.tree, aux_spine)
    rebalance = _translate(invert_sequence(aux_lin.ops), emap)
    # merge_sort_edges returned its own copy, so the rebalance replays in place
    balanced = sorted_edges.tree
    for _ in replay(balanced, rebalance):
        pass
    root = nmap[aux.tree.root_handle()]
    return (lin.ops, sorted_edges.ops, rebalance), balanced, root


def _component_sequence(
    c1: Phylogeny, c2: Phylogeny, rt: ParRuntime
) -> tuple[list[NniOp], dict[str, Fraction]]:
    """One component's moves and the cost of each phase that has any.

    ``c1`` and ``c2`` passed :func:`finiteness_check` (run on each component
    pair by ``decompose``, or on the full trees by :func:`approx_nni` when
    there is no good pair): equal taxa, leaf weights and internal weight
    multisets.
    """
    # Every good pair was cut, so a component with an internal edge holds
    # none, and two canonically equal trees would pair every edge: its trees
    # differ.  A star's taxa and leaf weights are equal, so it needs no move.
    if not c1.internal_edges():
        return [], {}

    # both sides share one companion: equal taxa, leaf weights and internal
    # weight multisets build byte-identical companions.  One check serves
    # both trees: check_auxiliary compares aux with its source's leaf weight
    # map and internal weight multiset, which equal c2's, and its depth and
    # descending-path checks read aux alone.
    aux = build_auxiliary(c1)
    check_auxiliary(c1, aux)
    aux_lin = linearize(aux.tree, rt)
    aux_spine = spine(aux_lin.tree)
    (lin1, sort1, rebal1), balanced1, root1 = _forward_to_balanced(
        c1, aux, aux_lin, aux_spine, rt)
    (lin2, sort2, rebal2), balanced2, root2 = _forward_to_balanced(
        c2, aux, aux_lin, aux_spine, rt)

    leafs = sort_leaves(
        balanced1, balanced2, rt, source_root=root1, target_root=root2
    )

    back = invert_sequence(lin2 + sort2 + rebal2)
    back = _translate(back, _equal_tree_edge_map(leafs.tree, balanced2))
    ops, origin = shorten(lin1 + sort1 + rebal1 + leafs.ops + back)

    # a kept move belongs to the phase of the first move it stands for, and
    # origin increases, so each phase keeps one contiguous slice of ops
    lengths = (len(lin1), len(sort1), len(rebal1), len(leafs.ops),
               len(rebal2), len(sort2), len(lin2))
    costs = {}
    lo = 0
    for name, end in zip(PHASE_NAMES, accumulate(lengths)):
        hi = bisect_left(origin, end)
        if hi > lo:  # an empty slice costs nothing
            costs[name] = counted_cost(c1, Counter(o.e2 for o in ops[lo:hi]))
        lo = hi
    return ops, costs


def approx_nni(
    t1: Phylogeny, t2: Phylogeny, rt: ParRuntime | None = None
) -> ApproxResult:
    """Approximate transformation sequence from ``t1`` to ``t2``."""
    rt = rt or ParRuntime()
    ok, reasons = finiteness_check(t1, t2)
    if not ok:
        raise TreeError("distance is infinite: " + "; ".join(reasons))

    totals = {name: Fraction(0) for name in PHASE_NAMES}
    # every cut is itself a good pair, so a component keeps the splits and
    # weight partitions of the full trees and holds no further pairs
    pairs = find_good_edge_pairs(t1, t2)
    sequence: list[NniOp] = []
    # components are independent, so each is counted on its own runtime and
    # their schedules run side by side
    part_rts = []
    for part1, part2 in decompose(t1, t2, pairs):
        part_rts.append(ParRuntime())
        ops, costs = _component_sequence(part1, part2, part_rts[-1])
        sequence.extend(ops)
        for name, value in costs.items():
            totals[name] += value
    rt.add_side_by_side(part_rts)

    ok, cost, reason = verify_transform(t1, sequence, t2)
    if not ok:
        raise TreeError(f"pipeline produced a bad sequence: {reason}")
    if cost != sum(totals.values(), Fraction(0)):
        raise TreeError("phase cost accounting does not add up")

    w = sum((t1.weight(e) for e in t1.internal_edges()), Fraction(0))
    lb = lower_bound(t1, t2, pairs)
    return ApproxResult(
        cost=cost,
        sequence=sequence,
        phase_costs=totals,
        metrics=rt.snapshot(),
        good_pairs=len(pairs),
        w=w,
        ratio_to_w=(cost / w) if w else None,
        lower_bound=lb,
        ratio_to_lb=(cost / lb) if lb else None,
    )
