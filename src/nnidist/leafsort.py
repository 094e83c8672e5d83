"""Permuting the leaves of one tree to match another with the same shape.

Both inputs carry the same internal structure (topology plus internal edge
weights in matching positions) and the same taxa; only the assignment of
taxa to leaf positions differs.  Leaf edge weights travel with their taxa.

Two leaves are exchanged by walking one of them along the tree path to the
other: each step swaps the walking leaf with the subtree hanging off the
next path node, so the forward pass leaves a trail of displaced subtrees
one step behind their homes.  The evicted leaf then walks the same path
backwards, swapping each displaced subtree back as it goes, and settles in
the walker's original spot.  The net effect is an exact transposition of
the two leaves, 2k-1 moves for a path of k edges, touching each path edge
at most twice.

Which leaf goes where is decided by a recursive matching of the two trees
that maximizes the number of taxa already in place: structurally
interchangeable sibling subtrees (equal sizes and internal weights) may be
matched crosswise, which costs nothing because exchanging them yields the
same unrooted tree.  Positions are read off each tree's
:meth:`Phylogeny.rooted_view`: its parent edges give the signatures and the
swap paths, and its order by smallest taxon breaks ties between
interchangeable siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from nnidist.nni import NniOp, apply_nni
from nnidist.phylo import Phylogeny, TreeError
from nnidist.runtime import ParRuntime

Slot = tuple[int, ...]


@dataclass
class SlotView:
    """A deterministic rooted reading of a tree for position bookkeeping."""

    tree: Phylogeny
    root: int
    parent_edge: dict[int, int | None]
    children: dict[int, list[int]]
    node_slot: dict[int, Slot]
    taxon_slot: dict[str, Slot]
    sig: dict[int, tuple]


def build_slot_view(tree: Phylogeny, root: int | None = None) -> SlotView:
    """Slots and signatures over the tree's rooted view (from ``root`` if given).

    A node's signature is (its edge's weight, its shape): child ordering
    must not depend on which taxon sits where, so a leaf has no weight and
    a bare terminal marker.  Children are ranked by size, then signature;
    the ranking is stable, so interchangeable siblings keep the view's order
    by smallest taxon.
    """
    order, parent_edge, children = tree.rooted_view(root)
    sig: dict[int, tuple] = {}
    size: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
    for v in reversed(order):
        ranked = sorted(children[v], key=lambda c: (-size[c], sig[c]))
        kids[v] = ranked
        if not ranked:
            size[v] = 1
            sig[v] = (Fraction(0), (0,))
            continue
        size[v] = sum(size[c] for c in ranked)
        e = parent_edge[v]
        sig[v] = (Fraction(0) if e is None else tree.weight(e), (1, *(sig[c] for c in ranked)))

    node_slot: dict[int, Slot] = {order[0]: ()}
    for v in order:
        for i, c in enumerate(kids[v]):
            node_slot[c] = node_slot[v] + (i,)
    taxon_slot = {
        tree.leaf_label(v): node_slot[v] for v in order if not kids[v]
    }
    return SlotView(tree, order[0], parent_edge, kids, node_slot, taxon_slot, sig)


def leaf_permutation(v1: SlotView, v2: SlotView) -> dict[str, Slot]:
    """Where each taxon must sit in ``v1``'s coordinates to realize ``v2``.

    Interchangeable sibling subtrees are matched to keep as many taxa in
    place as possible.  Returns taxon -> target slot.
    """
    if v1.sig[v1.root] != v2.sig[v2.root]:
        raise TreeError("trees do not share an internal structure")

    memo: dict[tuple[int, int], tuple[int, tuple]] = {}

    def agree(u1: int, u2: int) -> int:
        if v1.tree.is_leaf(u1):
            return 1 if v1.tree.leaf_label(u1) == v2.tree.leaf_label(u2) else 0
        key = (u1, u2)
        if key in memo:
            return memo[key][0]
        c1, c2 = v1.children[u1], v2.children[u2]
        best, best_perm = -1, None
        for perm in permutations(range(len(c2))):
            if any(
                v1.sig[c1[i]] != v2.sig[c2[p]]
                for i, p in enumerate(perm)
            ):
                continue
            total = sum(agree(c1[i], c2[p]) for i, p in enumerate(perm))
            if total > best:
                best, best_perm = total, perm
        memo[key] = (best, best_perm)
        return best

    def descend(u1: int, u2: int, out: dict[str, Slot]) -> None:
        if v1.tree.is_leaf(u1):
            out[v2.tree.leaf_label(u2)] = v1.node_slot[u1]
            return
        agree(u1, u2)
        perm = memo[(u1, u2)][1]
        c1, c2 = v1.children[u1], v2.children[u2]
        for i, p in enumerate(perm):
            descend(c1[i], c2[p], out)

    want: dict[str, Slot] = {}
    descend(v1.root, v2.root, want)
    return want


def _climb(tree: Phylogeny, up: dict[int, int | None], x: int) -> list[int]:
    """Nodes from ``x`` up to the root of the view whose parent edges are ``up``."""
    nodes = [x]
    while up[nodes[-1]] is not None:
        nodes.append(tree.other_end(up[nodes[-1]], nodes[-1]))
    return nodes


def swap_leaves(
    tree: Phylogeny, x: str, y: str, up: dict[int, int | None]
) -> list[NniOp]:
    """Exchange the positions of taxa ``x`` and ``y`` in place.

    ``up`` is the ``parent_edge`` map of a rooted view of ``tree`` taken
    before any swap: the path between the two attachment nodes is their two
    climbs toward the view's root, cut where they meet.  One view serves
    every swap, because a full swap puts every displaced subtree back and
    so leaves every internal edge's endpoints unchanged; only the two leaf
    edges move.  The path is unique, so it does not depend on the view's
    root.
    """
    lx = tree.leaf_edge_of(x)
    ly = tree.leaf_edge_of(y)
    u = tree.other_end(lx, tree.leaf_node(x))
    w = tree.other_end(ly, tree.leaf_node(y))
    if u == w:
        return []  # same attachment point; the unrooted tree is unchanged
    a, b = _climb(tree, up, u), _climb(tree, up, w)
    while len(a) > 1 and len(b) > 1 and a[-2] == b[-2]:
        a.pop()
        b.pop()
    nodes = a + b[-2::-1]
    edges = [up[v] for v in a[:-1]] + [up[v] for v in b[-2::-1]]
    m = len(edges)

    ops: list[NniOp] = []
    displaced: dict[int, int] = {}
    for i in range(m):
        if i < m - 1:
            partner = next(
                e
                for e in tree.adjacent_edges(nodes[i + 1])
                if e not in (edges[i], edges[i + 1])
            )
            displaced[i + 1] = partner
        else:
            partner = ly
        op = NniOp(lx, edges[i], partner)
        apply_nni(tree, op)
        ops.append(op)
    for i in range(m - 2, -1, -1):
        op = NniOp(ly, edges[i], displaced[i + 1])
        apply_nni(tree, op)
        ops.append(op)
    return ops


@dataclass
class LeafSortResult:
    ops: list[NniOp]
    tree: Phylogeny
    cycles: int


def sort_leaves(
    source: Phylogeny,
    target: Phylogeny,
    rt: ParRuntime | None = None,
    phase: str = "leafsort",
    source_root: int | None = None,
    target_root: int | None = None,
) -> LeafSortResult:
    """Emit NNI moves turning ``source`` into ``target`` by moving leaves only.

    When the two trees' anchors sit at different structural positions, pass
    corresponding internal nodes as explicit view roots so the position
    bookkeeping lines up.
    """
    rt = rt or ParRuntime()
    work = source.copy()
    v1 = build_slot_view(work, source_root)
    want = leaf_permutation(v1, build_slot_view(target, target_root))

    at = dict(v1.taxon_slot)
    slot_taxon = {s: t for t, s in at.items()}

    # permutation on occupied leaf slots; each cycle is resolved by swapping
    # the displaced taxon onward until the last one lands in the first slot
    seen: set[Slot] = set()
    cycles: list[list[str]] = []
    for s in sorted(slot_taxon):
        if s in seen:
            continue
        cycle_slots = []
        cur = s
        while cur not in seen:
            seen.add(cur)
            cycle_slots.append(cur)
            cur = want[slot_taxon[cur]]
        if len(cycle_slots) > 1:
            cycles.append([slot_taxon[c] for c in cycle_slots])

    rt.round(phase, cycles)

    ops: list[NniOp] = []
    for taxa in cycles:
        carry = taxa[0]
        for other in taxa[1:]:
            ops += swap_leaves(work, carry, other, v1.parent_edge)
            carry = other
        problems = work.validate()
        if problems:
            raise TreeError("leaf cycle broke the tree: " + problems[0])

    if not work.canonical_equal(target):
        raise TreeError("leaf sort failed to reach the target arrangement")
    return LeafSortResult(ops, work, len(cycles))
