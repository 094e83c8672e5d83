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

Such a swap moves only its two leaf edges; every internal edge keeps its
endpoints.  So every swap of every cycle is planned on one table,
:class:`LeafTable`, without moving the tree: one rooted view's parent links
give each swap's path, and an adjacency copy, in which a swap exchanges its
two leaf edges, gives the subtree hanging off each path node.  The planned
moves pass through :func:`nnidist.nni.shorten` as they are produced, which
cancels a swap's way back where the next swap walks out along the same
edges (about half of the planned moves on a 1024-taxon pair), and only the
kept moves are applied, once, by :func:`nnidist.nni.replay`.

Which leaf goes where is decided by a matching of the two trees that
maximizes the number of taxa already in place: structurally interchangeable
sibling subtrees (equal sizes and internal weights) may be matched
crosswise, which costs nothing because exchanging them yields the same
unrooted tree.  Positions are read off each tree's
:meth:`Phylogeny.rooted_view`: its parent edges give the signatures and the
swap paths, and its order by smallest taxon breaks ties between
interchangeable siblings.  Signatures are nested tuples interned in one
table per matching, O(n) memory for n nodes, compared by identity for
equality and by a loop for order; every pass is a loop over a node list, so
no depth of tree exhausts the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations

from nnidist.nni import NniOp, replay, shorten
from nnidist.phylo import Phylogeny, TreeError, require_same_taxa
from nnidist.runtime import ParRuntime


Signature = tuple  # (rank, child signatures...), or LEAF

# every leaf's signature: no weight, so that child order does not depend on
# which taxon sits where
LEAF: Signature = (0,)


def _sorts_before(a: Signature, b: Signature) -> bool:
    """``a < b`` for two distinct interned signatures, by a loop, not recursion.

    Interned signatures are equal exactly when they are the same object,
    so the nested-tuple comparison descends into the first pair of
    children that are not the same object and is decided there.
    """
    while a[0] == b[0]:
        for x, y in zip(a[1:], b[1:]):
            if x is not y:
                a, b = x, y
                break
        else:
            return len(a) < len(b)
    return a[0] < b[0]


def ranked_view(
    tree: Phylogeny,
    root: int | None,
    rank: dict[Fraction, int],
    interned: dict[tuple[int, ...], Signature],
) -> tuple[int, dict[int, list[int]], dict[int, Signature]]:
    """Root, ranked children and interned signature of each node of the rooted view.

    A leaf's signature is :data:`LEAF`.  An internal node's is the nested
    tuple of the rank of its parent edge's weight (``rank`` is increasing
    and >= 1; the root takes 0) and its ranked children's signatures.
    ``interned`` maps (rank, id of each child's signature...) to the one
    tuple with those parts; shared by the two trees of a matching, it makes
    equal signatures one object, so they compare by identity and the
    signatures of n nodes take O(n) memory.  Children are ranked by size
    (taxa below), then signature; ties keep the view's order by smallest
    taxon, so interchangeable siblings stay in that order.
    """
    order, parent_edge, children = tree.rooted_view(root)
    wt = tree._wt
    sig: dict[int, Signature] = {}
    size: dict[int, int] = {}
    kids: dict[int, list[int]] = {}
    for v in reversed(order):
        ranked = kids[v] = []
        if not children[v]:
            sig[v] = LEAF
            size[v] = 1
            continue
        # a stable insertion sort of two or three children
        for c in children[v]:
            i = len(ranked)
            while i:
                d = ranked[i - 1]
                if size[c] < size[d] or size[c] == size[d] and (
                        sig[c] is sig[d] or not _sorts_before(sig[c], sig[d])):
                    break
                i -= 1
            ranked.insert(i, c)
        e = parent_edge[v]
        parts = (0 if e is None else rank[wt[e]], *[sig[c] for c in ranked])
        key = (parts[0], *map(id, parts[1:]))
        sig[v] = interned.setdefault(key, parts)
        size[v] = sum([size[c] for c in ranked])
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
    # one table for both trees: equal signatures are one object
    interned: dict[tuple[int, ...], Signature] = {}
    r1, kids1, sig1 = ranked_view(source, source_root, rank, interned)
    r2, kids2, sig2 = ranked_view(target, target_root, rank, interned)
    if sig1[r1] is not sig2[r2]:
        raise TreeError("trees do not share an internal structure")

    # breadth-first, every pair of children with equal signatures under a
    # listed pair, so the reverse order scores each pair after its children
    pairs = [(r1, r2)]
    for u1, u2 in pairs:
        pairs.extend(
            (c1, c2) for c1 in kids1[u1] for c2 in kids2[u2] if sig1[c1] is sig2[c2])
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
                if all(sig1[a] is sig2[b] for a, b in zip(c1, perm))
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


class LeafTable:
    """Where each taxon hangs while a tree's leaves are swapped, kept apart from the tree.

    A full swap leaves every internal edge's endpoints unchanged and moves
    only its two leaf edges, so one rooted view of the tree, taken before
    the first swap, gives the path of every later swap: ``up`` (each node's
    parent edge), ``parent`` and ``depth``, read at internal nodes only.
    ``adj`` is a copy of the adjacency lists and ``at`` maps each taxon to
    the node its leaf edge hangs from; :meth:`swap` exchanges the two leaf
    edges in both, in O(1).  The tree itself is never moved.
    """

    def __init__(self, tree: Phylogeny) -> None:
        order, self.up, children = tree.rooted_view()
        self.parent: dict[int, int] = {}
        self.depth = {order[0]: 0}
        for v in order:
            for c in children[v]:
                self.parent[c] = v
                self.depth[c] = self.depth[v] + 1
        self.adj = {v: list(es) for v, es in tree._adj.items()}
        self.leaf_edge = {x: tree._adj[v][0] for x, v in tree._label_leaf.items()}
        self.at = {x: self.parent[v] for x, v in tree._label_leaf.items()}

    def swap(self, x: str, y: str) -> list[NniOp]:
        """The 2k - 1 moves exchanging taxa ``x`` and ``y``, k the length of their path.

        The path between the two attachment nodes is their climbs toward
        the view's root, cut where they meet; it is unique, so it does not
        depend on the view's root.  Each outward step swaps the walking
        leaf edge with the one other edge at the next path node (its
        partner), read from ``adj``; the way back swaps the partners home.
        The table then records the exchange.
        """
        lx, ly = self.leaf_edge[x], self.leaf_edge[y]
        at, adj = self.at, self.adj
        u, w = at[x], at[y]
        if u == w:
            return []  # same attachment point; the unrooted tree is unchanged
        parent, depth, up = self.parent, self.depth, self.up
        a, b = [u], [w]
        for _ in range(depth[u] - depth[w]):
            a.append(parent[a[-1]])
        for _ in range(depth[w] - depth[u]):
            b.append(parent[b[-1]])
        while a[-1] != b[-1]:
            a.append(parent[a[-1]])
            b.append(parent[b[-1]])
        nodes = a + b[-2::-1]
        edges = [up[v] for v in a[:-1]] + [up[v] for v in b[-2::-1]]

        ops: list[NniOp] = []
        partners: list[int] = []
        for i in range(len(edges) - 1):
            e_in, e_out = edges[i], edges[i + 1]
            for p in adj[nodes[i + 1]]:
                if p != e_in and p != e_out:
                    break
            partners.append(p)
            ops.append(NniOp(lx, e_in, p))
        ops.append(NniOp(lx, edges[-1], ly))
        for i in range(len(partners) - 1, -1, -1):
            ops.append(NniOp(ly, edges[i], partners[i]))

        adj[u][adj[u].index(lx)] = ly
        adj[w][adj[w].index(ly)] = lx
        at[x], at[y] = w, u
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
    ``leafsort``.

    Plan, shorten, apply: every swap of every cycle is planned on one
    :class:`LeafTable`, the planned moves pass through
    :func:`nnidist.nni.shorten` as they are produced, and only the kept
    moves are applied, once, with :func:`nnidist.nni.replay`, to a copy of
    ``source``.  ``ops`` holds those kept moves, no two adjacent ones on one
    middle edge.  The end tree is then compared with ``target``.  That
    replay and comparison are the whole check, and they are no weaker than
    checking each swap as it is applied: the replay raises ReplayError (a
    TreeError) at the first move that is not a path of three edges in the
    tree it meets, and the comparison raises TreeError for a valid sequence
    that ends at any tree but ``target``.  So a result is returned exactly
    when its moves turn ``source`` into ``target``.
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

    # shorten reads the plan once, in order, so no planned move is stored
    # unless it is kept
    table = LeafTable(work)
    planned = chain.from_iterable(
        table.swap(x, y) for taxa in cycles for x, y in zip(taxa, taxa[1:]))
    ops, _ = shorten(planned)
    for _ in replay(work, ops):
        pass
    if not work.canonical_equal(target):
        raise TreeError("leaf sort failed to reach the target arrangement")
    return LeafSortResult(ops, work, len(cycles))
