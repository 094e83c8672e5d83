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

Which leaf goes where is decided by a matching of the two trees that
maximizes the number of taxa already in place: structurally interchangeable
sibling subtrees (equal sizes and internal weights) may be matched
crosswise, which costs nothing because exchanging them yields the same
unrooted tree.  Positions are read off each tree's
:meth:`Phylogeny.rooted_view`: its parent edges give the signatures and the
swap paths, and its order by smallest taxon breaks ties between
interchangeable siblings.  Signatures are flat tuples of ints and every pass
is a loop over a node list, so no depth of tree exhausts the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from nnidist.nni import NniOp, move
from nnidist.phylo import Phylogeny, TreeError, require_same_taxa
from nnidist.runtime import ParRuntime


def ranked_view(
    tree: Phylogeny, root: int | None, rank: dict[Fraction, int]
) -> tuple[int, dict[int, list[int]], dict[int, tuple[int, ...]]]:
    """Root, ranked children and flat signature of each node of the rooted view.

    A leaf's signature is ``(0,)``, with no weight, so that child order does
    not depend on which taxon sits where.  An internal node's is the rank of
    its parent edge's weight (``rank`` is increasing and >= 1; the root takes
    0) followed by its ranked children's.  Every node below the root has two
    children, so the encoding is prefix-free: signatures compare as the
    nested ``(weight, shape)`` tuples they spell, and k leaves take 2k - 1
    ints.  Children are ranked by size, then signature; the sort is stable,
    so interchangeable siblings keep the view's order by smallest taxon.
    """
    order, parent_edge, children = tree.rooted_view(root)
    wt = tree._wt
    sig: dict[int, tuple[int, ...]] = {}
    kids: dict[int, list[int]] = {}
    for v in reversed(order):
        ranked = kids[v] = sorted(children[v], key=lambda c: (-len(sig[c]), sig[c]))
        if not ranked:
            sig[v] = (0,)
            continue
        e = parent_edge[v]
        flat = [0 if e is None else rank[wt[e]]]
        for c in ranked:
            flat += sig[c]
        sig[v] = tuple(flat)
    return order[0], kids, sig


def leaf_permutation(
    source: Phylogeny,
    target: Phylogeny,
    source_root: int | None = None,
    target_root: int | None = None,
) -> dict[str, str]:
    """Which taxon of ``source`` holds the position each taxon must take.

    Maps each taxon to the one sitting, in ``source``, where ``target`` puts
    it; the trees are read from the given view roots.  Interchangeable
    sibling subtrees are matched to keep as many taxa in place as possible.
    The map lists ``source``'s leaves in ranked preorder: its values are
    their taxa in that order.  Raises TreeError when the two trees hold
    different taxa or do not share an internal structure.
    """
    require_same_taxa(source, target)
    ws = source.internal_weight_multiset()
    if ws != target.internal_weight_multiset():
        raise TreeError("trees do not share an internal structure")
    rank = {w: i for i, w in enumerate(ws, 1)}  # equal weights keep the last i
    r1, kids1, sig1 = ranked_view(source, source_root, rank)
    r2, kids2, sig2 = ranked_view(target, target_root, rank)
    if sig1[r1] != sig2[r2]:
        raise TreeError("trees do not share an internal structure")

    # breadth-first, every pair of children with equal signatures under a
    # listed pair, so the reverse order scores each pair after its children
    pairs = [(r1, r2)]
    for u1, u2 in pairs:
        pairs.extend(
            (c1, c2) for c1 in kids1[u1] for c2 in kids2[u2] if sig1[c1] == sig2[c2])
    score: dict[tuple[int, int], int] = {}
    choice: dict[tuple[int, int], tuple[int, ...]] = {}
    for u1, u2 in reversed(pairs):
        c1 = kids1[u1]
        if not c1:
            score[u1, u2] = int(source.leaf_label(u1) == target.leaf_label(u2))
            continue
        # max keeps the first best permutation
        score[u1, u2], choice[u1, u2] = max(
            (
                (sum(score[pair] for pair in zip(c1, perm)), perm)
                for perm in permutations(kids2[u2])
                if all(sig1[a] == sig2[b] for a, b in zip(c1, perm))
            ),
            key=lambda scored: scored[0],
        )

    goes_to: dict[str, str] = {}
    stack = [(r1, r2)]
    while stack:
        u1, u2 = stack.pop()
        if kids1[u1]:
            stack.extend(reversed(list(zip(kids1[u1], choice[u1, u2]))))
        else:
            goes_to[target.leaf_label(u2)] = source.leaf_label(u1)
    return goes_to


def _climb(ends: dict[int, tuple[int, int]], up: dict[int, int | None], x: int) -> list[int]:
    """Nodes from ``x`` up to the root of the view whose parent edges are ``up``."""
    nodes = [x]
    e = up[x]
    while e is not None:
        a, b = ends[e]
        x = b if a == x else a
        nodes.append(x)
        e = up[x]
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

    The swap then checks that it did exactly that, in O(path) and not by a
    full :meth:`Phylogeny.validate`, and raises TreeError otherwise: every
    edge it named (the path, the displaced subtrees' edges and the two leaf
    edges) has the endpoints it had before the swap, except that the two
    leaf edges sit on each other's former attachment nodes, and every path
    node holds exactly the edges it held before, with the two leaf edges
    traded at the path's ends.  A move writes only the endpoints of the
    edges it names and the adjacency of its middle edge's ends, so these
    are all the entries the swap wrote, and the tree they describe is the
    tree before the swap, which was valid, with the two taxa exchanged.  So
    the check is no weaker than ``validate``, and it also fails on a valid
    tree that is not that one, which ``validate`` accepts.
    """
    ends, adj, leaf_node = tree._ends, tree._adj, tree._label_leaf
    xv, yv = leaf_node[x], leaf_node[y]
    lx, ly = adj[xv][0], adj[yv][0]
    a0, a1 = ends[lx]
    u = a1 if a0 == xv else a0
    a0, a1 = ends[ly]
    w = a1 if a0 == yv else a0
    if u == w:
        return []  # same attachment point; the unrooted tree is unchanged
    a, b = _climb(ends, up, u), _climb(ends, up, w)
    while len(a) > 1 and len(b) > 1 and a[-2] == b[-2]:
        a.pop()
        b.pop()
    nodes = a + b[-2::-1]
    edges = [up[v] for v in a[:-1]] + [up[v] for v in b[-2::-1]]
    m = len(edges)

    # what the swap must leave behind, read before the first move
    want_ends = {e: ends[e] for e in edges}
    want_ends[lx] = tuple(w if z == u else z for z in ends[lx])
    want_ends[ly] = tuple(u if z == w else z for z in ends[ly])
    want_adj = [sorted(adj[v]) for v in nodes]
    want_adj[0] = sorted(ly if e == lx else e for e in adj[u])
    want_adj[-1] = sorted(lx if e == ly else e for e in adj[w])

    ops: list[NniOp] = []
    displaced: list[int] = []
    for i in range(m - 1):
        # the subtree hanging off the next path node, before the walker
        # reaches it
        e_in, e_out = edges[i], edges[i + 1]
        partner = next(e for e in adj[nodes[i + 1]] if e != e_in and e != e_out)
        want_ends[partner] = ends[partner]
        displaced.append(partner)
        move(tree, lx, e_in, partner)
        ops.append(NniOp(lx, e_in, partner))
    move(tree, lx, edges[-1], ly)
    ops.append(NniOp(lx, edges[-1], ly))
    for i in range(m - 2, -1, -1):
        move(tree, ly, edges[i], displaced[i])
        ops.append(NniOp(ly, edges[i], displaced[i]))

    for e, pair in want_ends.items():
        if ends[e] != pair:
            raise TreeError(f"swapping taxa {x} and {y} left edge {e} at {ends[e]}, not {pair}")
    for v, es in zip(nodes, want_adj):
        if sorted(adj[v]) != es:
            raise TreeError(f"swapping taxa {x} and {y} left node {v} with edges {adj[v]}")
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
    source_root: int | None = None,
    target_root: int | None = None,
) -> LeafSortResult:
    """Emit NNI moves turning ``source`` into ``target`` by moving leaves only.

    When the two trees' anchors sit at different structural positions, pass
    corresponding internal nodes as explicit view roots so the position
    bookkeeping lines up.  The one round of leaf cycles counts as phase
    ``leafsort``.  Each swap checks its own outcome (see
    :func:`swap_leaves`), so no cycle is followed by a full ``validate``;
    the end tree is compared with ``target``.
    """
    rt = rt or ParRuntime()
    work = source.copy()
    goes_to = leaf_permutation(work, target, source_root, target_root)

    # each cycle is resolved by swapping the displaced taxon onward until the
    # last one lands in the first one's position; cycles start in ranked
    # preorder of the source's leaves
    seen: set[str] = set()
    cycles: list[list[str]] = []
    for taxon in goes_to.values():
        cycle = []
        while taxon not in seen:
            seen.add(taxon)
            cycle.append(taxon)
            taxon = goes_to[taxon]
        if len(cycle) > 1:
            cycles.append(cycle)

    rt.round("leafsort", cycles)

    up = work.rooted_view().parent_edge
    ops: list[NniOp] = []
    for taxa in cycles:
        carry = taxa[0]
        for other in taxa[1:]:
            ops += swap_leaves(work, carry, other, up)
            carry = other

    if not work.canonical_equal(target):
        raise TreeError("leaf sort failed to reach the target arrangement")
    return LeafSortResult(ops, work, len(cycles))
