"""The full approximation: make good pairs, decompose on them, then per
component linearize, merge-sort edges, rebalance, and transport leaves, or,
on a component of at most six taxa, find an optimal answer.

*Pairing before cutting.*  A move on edge e moves two subtrees past e, so
it changes e's good-pair key alone (see ``goodpairs.lower_bound``): a
paired edge stays paired, and a move that gives an unpaired edge e a key of
tree 2's table makes one more cut at the cost w(e).  :func:`pairing_pass`
makes such moves on a copy of t1, in rounds, of two kinds.

A single move pairs e = (u, v) itself.  Fixing u's lowest numbered edge,
as ``exact.neighbors`` does, leaves e's two distinct moves: each gives e
the part beyond u's other edge joined with one of the two parts beyond
v's other edges (``goodpairs.parts_at``), and ``goodpairs.joined_key``
turns such a union into e's key in O(1) big-int operations.  Their splits
cross, so at most one of them is in the table.  A round keeps every
single move whose key is in the table.

A two-move unit pairs e after a helper move next to it (Li, Tromp and
Zhang, "On the nearest neighbour interchange distance between evolutionary
trees", J. Theor. Biol. 1996, on how moves on adjacent edges compose).
Let e = (p, q) and f = (p, x) be unpaired, B p's third edge, xi one of x's
other edges and qj one of q's.  The helper move (B, f, xi) brings the part
beyond xi to p, and the pairing move (f, e, qj) then gives e the side
part(x, xi) ∪ part(q, qj).  The helper leaves both parts as they were,
so the four keys of one (e, f) are joined off the sides before either
move.  An edge without a kept single move offers the units whose key
is in the table, for every unpaired f next to it that has not helped
before, in edge-id order of f, xi and qj.  The round then takes the offers
of the lowest numbered edge first, and keeps an offer when its nodes p, q
and x meet no node of a kept single move and none of a unit kept before
it; an edge keeps one unit at most, since its second would meet its
first.  So no two kept units share a node, and a helper f, whose ends are
a unit's nodes, helps once per round; ``can_help`` keeps it from helping
again in a later round.

Most edges are turned away before any key is joined.  A move on e that
swaps at its end y leaves one of the two parts beyond y's other edges on
each side of e.  So a tree-2 split of e's weight must meet e's side at y,
the union of those two parts, in exactly one of them
(:func:`_meets_one_part`, one AND per split of that weight in
``PairBound.splits``).  A single move swaps at both ends, and a unit with
its helper at p swaps at q, so an edge is judged only where this holds,
and the check changes no kept move.  The round reads the four parts at
e's ends once, for the check, the single moves and the units.

No two kept single moves of a round share a node either, without a check.
A move on e = (u, v) gives e the side made of one part at u and one part
at v.  Let f = (v, x) be another edge at v, and call the parts beyond u's
other edges U1 and U2, beyond x's X1 and X2, and beyond v's third edge G.
Then e's new side is Ui ∪ G or Ui ∪ X1 ∪ X2, and f's is Xj ∪ G or
Xj ∪ U1 ∪ U2.  In each of the four cases every side of one split meets
both sides of the other, so the two splits cross and cannot both be splits
of tree 2.  The same holds for e's own two moves, Ui ∪ G against
Ui ∪ X1 ∪ X2.

So every kept unit rewires nodes of its own, and the units commute.  A
move rewires only its own two nodes and changes no split but its edge's.
A unit's key is read off the parts beyond edges at its nodes, each one
side of that edge's split, and none of those edges is another unit's
middle edge, or the two units would share a node.  Every kept unit thus
stays a path of moves and gives its edge the key it was judged to give, in
whatever order the round's units are applied, and no two give one key,
since a tree holds each split once.  A helper move gives f a key that is
not in the table: it is one of f's two single moves, and a round that
judges f keeps such a move first.

The first round judges every unpaired edge on detection's sides.  A later
round judges only the unpaired edges with an end at a node that a unit of
the round before rewired, or one edge from such a node along an edge that
can still help.  Any other edge g keeps what its judgement read: its ends,
the edges there, the far ends x of its helpers and the edges at those,
each part beyond one of them, and whether each helper can still help.
Each of these changes only when a move rewires one of those nodes, and a
node of a kept unit keeps its edges on the unit's nodes.  A helper that
can no longer help has moved, so its end at g is rewired too.  So g's
moves and units give the keys they gave when g was last judged, and those
were not in the table or lost to a unit that shared a node, which a kept
unit rewired.  The sides are not walked again either: a move changes the
entries of its two nodes alone, and each kept move patches them in O(1)
(see ``goodpairs.patch_sides``).  So a later round
costs O(moves kept), not O(n).  The recorded round still has two tasks per
unpaired edge, which judge its single moves and its units: it describes
the parallel schedule, in which each edge's tasks judge its own moves
without being told which neighbours moved, and the frontier is the
sequential run's shortcut to the same kept moves.

One pass costs at most twice the bound.  Every kept move is on an edge
that was unpaired in t1: a paired edge is never moved.  An edge is moved at
most once to pair, since it is paired afterwards, and at most once as a
helper.  So the pass's pairing moves cost at most LB, and so do its helper
moves, and the pass's moves G cost cost(G) ≤ 2·LB ≤ 2·opt, LB being
:func:`goodpairs.lower_bound` of the pair it starts from.  The pass stops
after a round that keeps no move and runs at most ⌈log₂ n⌉ rounds, so its
span is O(log n).  Each round is recorded as one round of phase
``pairing``.

*Pairing from both sides.*  Every move is its own inverse, at the same
cost, so a move on tree 2 that gives one of its edges a key of t1's table
serves as well as one on t1, undone at the end of the answer.
:func:`approx_nni` first runs the pass on t2 against t1's table, which
gives T2′, and then on t1 against T2′'s table, which gives T1′, and cuts
T1′ and T2′.  The answer is t1's pass's moves, then the
components' moves, then tree 2's pass's moves in reverse order, carried
onto the working tree's edge ids.  Tree 2's moves make cost phase
``pairing_2``, last in ``PHASE_NAMES`` so that each phase keeps one
contiguous slice of the answer, and their rounds are recorded in round
phase ``pairing`` too, before t1's.

The guarantee survives with a constant of about 5.  Tree 2's pass costs at
most 2·LB, LB being the bound of the input pair, which is the same from
either tree: the same weights, less those of the same pairs.  It moves no
paired edge and a move changes its own edge's key alone, so it keeps every
input pair and LB(t1, T2′) ≤ LB.  t1's pass then costs at most 2·LB too.
Undoing t1's pass, following an optimal answer from t1 to t2 and then
tree 2's pass shows opt(T1′, T2′) ≤ 5·opt, so the O(log n)·opt bound of the
phases holds on T1′ and T2′ with five times the constant, and the passes
add at most 4·opt to it.  The span of the passes is at most 2⌈log₂ n⌉
rounds.

A pair of at most six taxa takes no round on either side.  The exact
search already solves such a pair whole and optimally, and a pass move made
first can only keep that cost or raise it.

One key layout serves both trees (see ``goodpairs.KeyLayout``), so each
tree's sides are walked once and its keys read once.  t1's keys give t1's
table, for tree 2's pass, and the input pairs against tree 2's table.  A
pass's tree has its input's good pairs plus one (e, target edge of e's new
key) per kept pairing move.  So T2′'s pairs with t1, seen from t1, are the
good pairs t1's pass starts from, and T1′'s pairs with T2′ are those plus
t1's pass's own, with no further key pass.  T2′'s table is tree 2's with
the keys of the moved edges alone replaced, read off the sides that tree
2's pass patched (``PairBound.follow``).  ``decompose`` cuts T1′, which
keeps t1's edge ids, and T2′, which keeps t2's.  ``lower_bound`` and
``good_pairs`` describe the input pair.  The cut numbering starts past
every ``:cut:k:`` label t1 carries, so a component of an earlier
decomposition is solved like any other pair.

t1's pass's moves and the components' moves reach a tree equal to T2′
with t1's edge ids, so tree 2's moves, undone, need those ids.  Each edge
they name is matched with no walk of a whole tree: a leaf edge by its
taxon, since a move keeps every leaf edge at its leaf; a cut edge by its
pair, since no component makes a move on it, so it keeps its pair's
split; and any other edge, which lies inside one component, by that
component's end map, which the component's solver has at hand (the map
that carries tree 2's road onto the leaf-sorted tree, or one walk of the
exact search's small end tree).  :func:`approx_nni` then replays the whole answer once,
from the original t1, to a tree that must equal t2, and the replayed cost
must equal the sum of the phase costs.  The map decides no more than the
ids the answer names: a wrong one would fail that replay.

A component of more than six taxa is solved by meeting in the middle.
Tree 1 is made linear, its internal edges are merge-sorted into the order
of the linearized balanced companion, and the companion's linearization is
replayed backwards to reach the balanced shape.  Tree 2 travels the same
road forward; its sequence is inverted and appended after a leaf sort
aligns the two balanced forms.  Operation sequences produced on one tree's
edge ids are carried to the other's through structural isomorphisms:
corresponding edges are matched once (positionally for two linear trees
with equal spine weight sequences, by canonical traversal for equal trees)
and the correspondence stays valid because matched operations change both
trees in lockstep.

The inverse of tree 2's journey often starts by undoing or redoing the move
just before it.  So each component's joined sequence goes through
:func:`nnidist.nni.shorten`, which cancels or merges back-to-back moves on
one middle edge, and the self-check replays the shortened answer.  A merged
move keeps the phase of the earlier of its two moves, so each phase keeps
one contiguous slice of the answer and the phase costs still add up to the
cost.  The round and work counters describe the schedule that made the
moves, before shortening.

:func:`approx_nni` checks the full pair's finiteness once, and neither
detection nor ``decompose`` checks it again.  ``decompose`` checks each
component pair from the full pair's finiteness: the cut edges of each good
pair must weigh the same, and each pair of parts must hold the same
internal count vector, one big-int comparison per component.  A component
without an internal edge is a three-leaf star, which needs no move: its
taxa and leaf weights are equal, and so are its two trees.  So the pipeline
calls ``decompose(..., stars=False)``, which checks each star by its taxa
alone, as one of the other tree's stars, and builds only the components
with an internal edge, straight from their trees' edge tables, without
re-validating them.  After both passes most components are stars.  When
every internal edge of T1′ is paired, every component is a star, and
``decompose`` is not called.  Any other component has moves to make:
every good pair was cut, and two canonically equal trees would pair every
internal edge.

A component with one to three internal edges (four to six taxa) is solved
by the exact search, :func:`nnidist.exact.search`, in phase ``exact``
instead of the four phases above.  Six taxa have 105 unrooted topologies
and three internal weights at most 3! placements, so the search settles at
most 630 states: O(1) work per component, recorded as one round whose work
is the number of settled states.  ``decompose`` already checked the pair's
finiteness and :func:`approx_nni` replays the whole answer, so only a
direct call of :func:`nnidist.exact.exact_dnni` re-checks and replays a
witness.  The approximation bound still holds: the O(log n)·opt guarantee
needs each component's answer to cost no more than the four-phase one, and
an optimal answer costs at most any other.  The span still is O(log n):
components run side by side, and one round per small component adds at
most one round to the whole run's ``exact`` phase.  The cutoff is fixed: at
four internal edges the search already costs an order of magnitude more
time than the four phases.

Pseudo-leaf edges inside components carry the edge id of the cut they stand
for, so stitched sequences are valid on the full trees as emitted: a swap
that moves a pseudo-leaf moves the whole subtree beyond the cut, and a cut
edge can never be an operating edge because one of its endpoints is a leaf
in every component.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from nnidist import exact
from nnidist.balance import build_auxiliary, check_auxiliary
from nnidist.edgesort import merge_sort_edges
from nnidist.goodpairs import (
    GoodEdgePairSet,
    Key,
    KeyLayout,
    PairBound,
    Sides,
    decompose,
    find_good_edge_pairs,
    first_free_cut,
    joined_key,
    lower_bound,
    parts_at,
    patch_sides,
)
from nnidist.leafsort import sort_leaves
from nnidist.linearize import LinearizeResult, linearize, spine
# apply_sequence is not called here, but perfbench/tracing.py times it in this
# module's namespace, so the import stays
from nnidist.nni import (
    NniOp,
    apply_sequence,
    counted_cost,
    invert_sequence,
    move,
    replay,
    shorten,
    verify_transform,
)
from nnidist.phylo import Phylogeny, TreeError, finiteness_check
from nnidist.runtime import ParRuntime

# the four phases of a component above six taxa, in the order of its moves
JOURNEY_NAMES = (
    "linearize_1",
    "edge_sort_1",
    "linearize_aux_1",
    "leaf_sort",
    "linearize_aux_2",
    "edge_sort_2",
    "linearize_2",
)
PHASE_NAMES = ("pairing", *JOURNEY_NAMES, "exact", "pairing_2")

# the most internal edges a component solved by the exact search has, and
# the most states that search can settle: 105 topologies of six taxa times
# 3! placements of three internal weights
EXACT_MAX_INTERNAL = 3
EXACT_STATE_LIMIT = 630


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
    # tuple.__new__ skips the NamedTuple's Python-level __new__: same values, same type
    new = tuple.__new__
    return [new(NniOp, (emap[e1], emap[e2], emap[e3])) for e1, e2, e3 in ops]


def _linear_maps(
    a: Phylogeny, b: Phylogeny, b_spine: tuple[list[int], list[int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """Edge map from linear tree ``b`` onto linear tree ``a``, and spine node map.

    ``b_spine`` is ``spine(b)``, left unchanged.  The spines must carry the
    same weight sequence up to direction; leaf edges at corresponding spine
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
    aux: Phylogeny,
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
    root = nmap[aux.root_handle()]
    return (lin.ops, sorted_edges.ops, rebalance), balanced, root


def _component_sequence(
    c1: Phylogeny, c2: Phylogeny, rt: ParRuntime, end_map: dict[int, int] | None = None
) -> tuple[list[NniOp], dict[str, Fraction]]:
    """One component's moves and the cost of each phase that has any.

    ``c1`` and ``c2`` are a finite pair: :func:`approx_nni` ran
    :func:`finiteness_check` on the full trees, and ``decompose`` checked
    each component pair from that (see ``goodpairs.decompose``): equal
    taxa, leaf weights and internal weight multisets.  A star needs no
    move; :func:`approx_nni` no longer sends any (see ``decompose``'s
    ``stars``), but a direct caller may.  One to three internal edges go to
    :func:`nnidist.exact.search`,
    which records its moves in phase ``exact``, and larger components to
    the four phases.  ``end_map``, when given, receives every edge of
    ``c2`` mapped to the edge at its place in the tree that the moves
    reach from ``c1``, a tree equal to ``c2``.
    """
    # Every good pair was cut, so a component with an internal edge holds
    # none, and two canonically equal trees would pair every edge: its trees
    # differ.  A star's taxa and leaf weights are equal, so it needs no move.
    internal = c1.n_taxa - 3  # a binary tree of n taxa has n - 3 internal edges
    if not internal:
        if end_map is not None:
            end_map.update(_equal_tree_edge_map(c1, c2))
        return [], {}
    # through the module, so that wrappers installed on exact see the call
    if internal <= EXACT_MAX_INTERNAL:
        cost, ops = exact.search(c1, c2, EXACT_STATE_LIMIT, rt)
        if end_map is not None:
            end = c1.copy()
            for _ in replay(end, ops):
                pass
            end_map.update(_equal_tree_edge_map(end, c2))
        return ops, {"exact": cost}

    # both sides share one companion: equal taxa, leaf weights and internal
    # weight multisets build byte-identical companions.  One check serves
    # both trees: check_auxiliary compares aux with its source's leaf weight
    # map and internal weight multiset, which equal c2's, and its depth and
    # descending-path checks read aux alone.
    aux = build_auxiliary(c1)
    check_auxiliary(c1, aux)
    aux_lin = linearize(aux, rt)
    aux_spine = spine(aux_lin.tree)
    (lin1, sort1, rebal1), balanced1, root1 = _forward_to_balanced(
        c1, aux, aux_lin, aux_spine, rt)
    (lin2, sort2, rebal2), balanced2, root2 = _forward_to_balanced(
        c2, aux, aux_lin, aux_spine, rt)

    leafs = sort_leaves(
        balanced1, balanced2, rt, source_root=root1, target_root=root2
    )

    # each phase's moves in JOURNEY_NAMES order: tree 2's road runs backwards,
    # translated onto the leaf-sorted tree.  The moves change both trees in
    # lockstep, so the map still holds at the end of tree 2's road, at c2
    emap = _equal_tree_edge_map(leafs.tree, balanced2)
    if end_map is not None:
        end_map.update(emap)
    phases = [lin1, sort1, rebal1, leafs.ops] + [
        _translate(invert_sequence(part), emap) for part in (rebal2, sort2, lin2)
    ]
    ops, origin = shorten([op for part in phases for op in part])

    # a kept move belongs to the phase of the first move it stands for, and
    # origin increases, so each phase keeps one contiguous slice of ops
    costs = {}
    lo = 0
    for name, end in zip(JOURNEY_NAMES, accumulate(map(len, phases))):
        hi = bisect_left(origin, end)
        if hi > lo:  # an empty slice costs nothing
            costs[name] = counted_cost(c1, Counter(o.e2 for o in ops[lo:hi]))
        lo = hi
    return ops, costs


class Pairing(NamedTuple):
    """t1's good pairs, and what the pairing pass made of t1.

    ``tree`` is T1′, t1 itself when the pass kept no move, and ``pairs``
    are T1′'s good pairs.  ``rounds`` lists each round that kept a move, as
    (move, key) in the order the round applied them: its single moves in
    edge-id order, then its two-move units, each a helper move with key
    None followed by its pairing move.  A pairing move's key is the one it
    gives its middle edge, a key of tree 2's table.  ``sides`` are T1′'s,
    the pass's sides of t1 patched after each move.
    """

    detected: GoodEdgePairSet
    tree: Phylogeny
    rounds: list[list[tuple[NniOp, Key | None]]]
    pairs: GoodEdgePairSet
    sides: Sides | None = None


def _meets_one_part(splits: list[int], parts: list[tuple[int, tuple[int, int]]]) -> bool:
    """Whether a split in ``splits`` meets the union of e's two ``parts`` at y in exactly one.

    ``parts`` is ``goodpairs.parts_at(tree, sides, y, e)``; their union is e's side at y.
    """
    (_, (a, _)), (_, (b, _)) = parts
    side = a | b
    return any(split & side in (a, b) for split in splits)


def pairing_pass(
    t1: Phylogeny,
    t2: Phylogeny,
    table: PairBound,
    fields: tuple[dict[int, int], dict[int, int]],
    rt: ParRuntime,
    *,
    sides: Sides | None = None,
    detected: GoodEdgePairSet | None = None,
) -> Pairing:
    """t1's good pairs, and more made by moves, in at most ⌈log₂ n⌉ rounds.

    ``table`` is ``PairBound(t2)`` and ``fields`` is
    ``table.edge_fields(t1)``.  ``sides`` is ``table.sides(t1, fields)``
    and ``detected`` t1's good pairs when the caller has them already; the
    pass writes the entries of ``sides``, but not its parent edges, which
    are t1's kept view.  ``t1`` is left as it is; the moves are made on a
    copy.  Each round keeps every single move whose key is in the
    table, then the two-move units (a helper move on an unpaired edge f
    next to e that has not helped before, then a pairing move on e) whose
    key is in the table and whose nodes meet no node of a move kept before
    them, lower numbered edges first.  The kept moves of a round commute.
    The first round judges every unpaired edge on detection's sides, a
    later round only the unpaired edges near a node that a move of the
    round before rewired, on sides patched per move
    (``goodpairs.patch_sides``); it keeps the moves a full round would (see
    the module docstring).  Each round records one round of phase
    ``pairing`` with two tasks per unpaired edge.  The pass stops after a
    round that keeps no move, and takes no round on a pair of at most six
    taxa.
    """
    if sides is None:
        sides = table.sides(t1, fields)
    if detected is None:
        detected = find_good_edge_pairs(t1, t2, checked=True, table=table, sides=sides)
    found = list(detected.pairs)
    paired = {e for e, _ in found}
    unpaired = {e for e in fields[0] if e not in paired}
    # unpaired and not yet moved as a helper: an edge helps once at most
    can_help = set(unpaired)
    # walked in edge-id order, so each round's kept moves keep their order
    frontier = sorted(unpaired)
    target, splits, rank = table.target, table.splits, fields[0]
    work = t1
    rounds: list[list[tuple[NniOp, Key | None]]] = []
    cap = math.ceil(math.log2(t1.n_taxa)) if t1.n_taxa > EXACT_MAX_INTERNAL + 3 else 0
    for _ in range(cap):
        if not unpaired:
            break
        ends = work._ends
        kept: list[tuple[NniOp, Key | None]] = []
        taken: set[int] = set()  # the nodes of the moves kept so far
        offers = []
        for e in frontier:
            u, v = ends[e]
            at_u = parts_at(work, sides, u, e)
            at_v = parts_at(work, sides, v, e)
            # a move on e at y leaves one of y's two other parts on each side
            # of e, so a tree-2 split of e's weight must meet e's side at y in
            # exactly one of them; a single move needs this at both ends, and
            # a unit with its helper at one end at the other end
            of_weight = splits[rank[e]]
            meets_u = _meets_one_part(of_weight, at_u)
            meets_v = _meets_one_part(of_weight, at_v)
            if meets_u and meets_v:
                # u's lowest edge stays: its other part joins each of v's
                (a1, _), (_, beyond_b) = at_u
                single = [(NniOp(a1, e, e3), key) for e3, beyond in at_v
                          if (key := joined_key(sides, e, beyond_b, beyond)) in target]
                if single:
                    kept += single
                    taken.update((u, v))
                    continue
            for p, q, at_p, at_q, meets in ((u, v, at_u, at_v, meets_v),
                                            (v, u, at_v, at_u, meets_u)):
                if not meets:
                    continue
                for f, _ in at_p:
                    if f in can_help:
                        (b,) = [g for g, _ in at_p if g != f]
                        x = work.other_end(f, p)
                        offers += [
                            ((p, q, x), NniOp(b, f, xi), NniOp(f, e, qj), key)
                            for xi, beyond_x in parts_at(work, sides, x, f)
                            for qj, beyond_q in at_q
                            if (key := joined_key(sides, e, beyond_x, beyond_q)) in target]
        # every single move is kept first, then each edge's first unit that fits
        for nodes, helper, pairing, key in offers:
            if taken.isdisjoint(nodes):
                kept += [(helper, None), (pairing, key)]
                taken.update(nodes)
        rt.round("pairing", range(2 * len(unpaired)))
        if not kept:
            break
        if work is t1:
            # the patches write the sides: their entries are this pass's own,
            # but their parent edges are t1's kept view
            work = t1.copy()
            sides = sides._replace(parent_edge=dict(sides.parent_edge))
        for op, key in kept:
            move(work, *op)
            patch_sides(work, sides, op.e2)
            can_help.discard(op.e2)
            if key is not None:
                found.append((op.e2, target[key]))
                unpaired.discard(op.e2)
        # every edge at a rewired node, or one edge from one along an edge
        # that can still help: a kept node's edges stay on kept nodes, so
        # these are the edges whose judgement can change
        near: set[int] = set()
        adj = work._adj
        for x in taken:
            for g in adj[x]:
                near.add(g)
                if g in can_help:
                    near.update(adj[work.other_end(g, x)])
        frontier = sorted(near & unpaired)
        rounds.append(kept)
    return Pairing(detected, work, rounds, GoodEdgePairSet(sorted(found)), sides)


def _moves(pairing: Pairing) -> list[NniOp]:
    """The pass's kept moves, in the order it made them."""
    return [op for kept in pairing.rounds for op, _ in kept]


def _flipped(pairs: GoodEdgePairSet) -> GoodEdgePairSet:
    """The same pairs seen from the other tree, sorted."""
    return GoodEdgePairSet(sorted((b, a) for a, b in pairs.pairs))


def approx_nni(t1: Phylogeny, t2: Phylogeny) -> ApproxResult:
    """Approximate transformation sequence from ``t1`` to ``t2``."""
    ok, reasons = finiteness_check(t1, t2)
    if not ok:
        raise TreeError("distance is infinite: " + "; ".join(reasons))

    # one layout keys both trees, each walked and keyed once: t1's table
    # serves tree 2's pass, and tree 2's, moved along with that pass, t1's
    # pass and decompose.  A move keeps every edge's id and weight, so each
    # tree's fields serve the trees its pass makes too.  The pair was
    # checked above, so detection does not check it again
    layout = KeyLayout(t2)
    fields = layout.edge_fields(t1)
    sides1, sides2 = layout.sides(t1, fields), layout.sides(t2, layout.fields)
    table1 = PairBound(t1, layout, sides1)
    table = PairBound(t2, layout, sides2)
    pairs = find_good_edge_pairs(t1, t2, checked=True, table=table, keys=table1.keys)
    rt = ParRuntime()
    # tree 2's pass first, against t1's table, makes T2′; its pairing moves
    # give T2′'s pairs beyond the input's, which t1's pass starts from
    back = pairing_pass(t2, t1, table1, table.fields, rt, sides=sides2, detected=_flipped(pairs))
    t2_moved, back_moves = back.tree, _moves(back)
    table.follow(t2_moved, back.sides, (op.e2 for op in back_moves))
    forth = pairing_pass(t1, t2_moved, table, fields, rt,
                         sides=sides1, detected=_flipped(back.pairs))
    t1_moved, cut, sequence, fields2 = forth.tree, forth.pairs, _moves(forth), table.fields
    del back, forth, layout, table, table1, sides1, sides2  # no key or side is read again
    totals = {name: Fraction(0) for name in PHASE_NAMES}
    # an edge may move twice in a pass: once as a helper, once to pair
    totals["pairing"] = counted_cost(t1, Counter(op.e2 for op in sequence))
    totals["pairing_2"] = counted_cost(t2, Counter(op.e2 for op in back_moves))

    # tree 2's moves end the answer, undone in reverse order on the tree that
    # t1's pass and the components reach, equal to T2′ with t1's edge ids.
    # Each edge they name is found there by its taxon if it is a leaf edge,
    # since a move keeps every leaf edge at its leaf, by its pair if it was
    # cut, and otherwise by the end map of the component it lies in
    named = {g for op in back_moves for g in op}
    at = {b: a for a, b in cut.pairs if b in named}
    labels2, leaves1, adj1 = t2._leaf_label, t1._label_leaf, t1._adj
    for g in named:
        u, v = t2._ends[g]
        label = labels2.get(u, labels2.get(v))
        if label is not None:
            at[g] = adj1[leaves1[label]][0]
    inner = named - at.keys()

    # every cut is itself a good pair, so a component keeps the splits and
    # weight partitions of the full trees and holds no further pairs.
    # Components are independent, so each is counted on its own runtime and
    # their schedules run side by side.  t1 may be a component of an earlier
    # decomposition: number new cuts past its pseudo-leaves
    # decompose checks the stars, which need no move, by their taxa and
    # builds none; when every internal edge is paired, every part is a star
    # and decompose is not called
    part_rts = []
    if len(cut) < len(fields[0]):
        for part1, part2 in decompose(t1_moved, t2_moved, cut, fields=fields,
                                      target_fields=fields2, first_cut=first_free_cut(t1),
                                      stars=False):
            part_rts.append(ParRuntime())
            end_map = None if part2._ends.keys().isdisjoint(inner) else {}
            ops, costs = _component_sequence(part1, part2, part_rts[-1], end_map)
            if end_map:
                at.update((g, end_map[g]) for g in inner.intersection(end_map))
            sequence.extend(ops)
            for name, value in costs.items():
                totals[name] += value
    rt.add_side_by_side(part_rts)
    del t1_moved, t2_moved
    sequence += _translate(invert_sequence(back_moves), at)

    ok, cost, reason = verify_transform(t1, sequence, t2)
    if not ok:
        raise TreeError(f"pipeline produced a bad sequence: {reason}")
    if cost != sum(totals.values(), Fraction(0)):
        raise TreeError("phase cost accounting does not add up")

    w = counted_cost(t1, dict.fromkeys(t1.internal_edges(), 1))
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
