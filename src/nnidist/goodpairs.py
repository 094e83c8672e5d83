"""Matching edge pairs across two trees, the bound they give, and splitting on them.

An internal edge of one tree and one of the other form a good pair when they
have the same weight and cutting them induces the same partition of taxa and
of the remaining internal weights.  Components obtained by cutting both
trees at all good pairs can then be solved independently.

Detection is an exact join.  One post-order pass per tree, hung from the
internal node next to its smallest taxon, gives every internal edge the key
(weight rank, away-side taxa as an integer bitset with bit i for the i-th
taxon in sorted order, away-side multiset of the other internal weights as
an integer count vector), three ints.  The key
spells out the definition, so two edges form a good pair exactly when their
keys are equal; no separate soundness or completeness check is needed.
Distinct edges of one tree have distinct splits, so keys are unique within
a tree and every edge has at most one partner: the target edge with its key
in :class:`PairBound`'s table of tree 2.

The count vector gives weight w a field ``m_w.bit_length()`` bits wide,
m_w being w's multiplicity among tree 2's internal edges, at an offset that
is the prefix sum of the widths in rank order; with distinct weights that
is one bit per weight.  Every field of every vector the kernels form, the
unions and complements of :func:`joined_key` included, counts the copies
of w on one side of some cut, so it lies in 0..m_w and never carries into
its neighbour.  That holds only for trees with tree 2's multiplicities,
which finiteness guarantees and :meth:`KeyLayout.edge_fields` checks.

The pass (:class:`Sides`) reads only each node's parent edge, not the
order of its children.  Detection takes them from the tree's kept rooted
view; the exact search, whose trees are read once and dropped, takes them
from one walk of the edge table from the same root (:func:`walk`).
The same pass serves the move keys.  A move on edge e changes e's key
alone (see :func:`lower_bound`), and e's new side is the union of two
disjoint parts of the old tree, each what lies beyond some edge seen from
one of its ends: one entry of the pass, or its complement when the pass
walked that edge from the other end (:func:`part`).  :func:`joined_key`
turns the union into e's key, so a move's key costs O(1) big-int
operations and needs no copy of the tree (DasGupta, He, Jiang, Li, Tromp
and Zhang, "On computing the nearest neighbor interchange distance",
DIMACS 2000).  A pairing move on e after a helper move on a neighbouring
edge joins two such parts as well (see ``pipeline.pairing_pass``).  After
a move, :func:`patch_sides` brings the pass up to date in O(1).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from nnidist.nni import counted_cost
from nnidist.phylo import Phylogeny, TreeError, finiteness_check


@dataclass
class GoodEdgePairSet:
    pairs: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.pairs)


Key = tuple[int, int, int]

# the label of a pseudo-leaf that stands for cut k
_CUT_LABEL = re.compile(r":cut:(\d+):")


class Sides(NamedTuple):
    """What lies beyond each node's parent edge in one tree, from one post-order pass.

    The tree hangs from ``root``, the internal node next to its smallest
    taxon, and ``parent_edge`` maps each node to its edge toward the root
    (None at the root), parents first.  ``bits[x]`` is the taxa bitset
    below node x and ``vecs[x]`` the count vector of the internal weights
    below it, x's parent edge included when that edge is internal.  The
    root's entries hold every taxon and every internal weight.  ``rank[e]``
    is internal edge e's weight rank and ``field[e]`` its count field: the
    vector holding that weight once, the lowest bit of its field (see
    :class:`PairBound`).  A field of ``vecs[x]`` counts the copies of its
    weight below x, at most the weight's multiplicity, so adding the
    children's vectors never carries from one field into the next.  Child
    order plays no part, so a tree's kept rooted view and a walk of its
    edge table (:func:`walk`) give the same sides.

    Sides patched after a move (:func:`patch_sides`) may hang the tree
    from a root that no longer sits next to the smallest taxon.
    :func:`part` and :func:`joined_key` read them as they read fresh ones:
    they need only a consistent hanging, and the key is turned by bit 0.
    :func:`edge_keys_of` does not accept them, since it takes the side
    below each edge to be the one without the smallest taxon.
    """

    root: int
    parent_edge: dict[int, int | None]
    bits: dict[int, int]
    vecs: dict[int, int]
    rank: dict[int, int]
    field: dict[int, int]


def walk(tree: Phylogeny) -> dict[int, int | None]:
    """Each node's edge toward :meth:`Phylogeny.root_handle`, parents first.

    The kept rooted view's parent edges when the tree keeps one; otherwise
    one walk of the edge table gives the same edges without the view's
    child lists and their sort, for trees such as the exact search's
    states, which are read once and dropped.
    """
    if tree._view is not None:
        return tree._view.parent_edge
    ends, adj = tree._ends, tree._adj
    root = tree.root_handle()
    parent_edge: dict[int, int | None] = {root: None}
    order = [root]
    for x in order:
        for e in adj[x]:
            u, y = ends[e]
            if y == x:
                y = u
            if y not in parent_edge:
                parent_edge[y] = e
                order.append(y)
    return parent_edge


def sides_below(
    tree: Phylogeny,
    parent_edge: dict[int, int | None],
    bit: dict[str, int],
    rank: dict[int, int],
    field: dict[int, int],
) -> Sides:
    """The :class:`Sides` of ``tree`` hung by ``parent_edge``, parents first.

    ``bit`` maps each taxon to its bit, ``rank`` and ``field`` each internal
    edge to its weight rank and count field.  Nodes are read children
    first, each adding its entries into its parent's.
    """
    ends, labels = tree._ends, tree._leaf_label
    bits: dict[int, int] = {}
    vecs: dict[int, int] = {}
    for x, e in reversed(parent_edge.items()):
        if e is None:  # the root, which comes first
            break
        label = labels.get(x)
        if label is None:
            # internal: its children have added their entries already
            below = bits[x]
            vec = vecs[x] = vecs[x] + field[e]
        else:
            below = bits[x] = bit[label]
            vec = vecs[x] = 0
        u, p = ends[e]
        if p == x:
            p = u
        if p in bits:
            bits[p] |= below
            vecs[p] += vec
        else:
            bits[p] = below
            vecs[p] = vec
    return Sides(x, parent_edge, bits, vecs, rank, field)


def patch_sides(tree: Phylogeny, sides: Sides, f: int) -> None:
    """Bring ``sides`` up to date in place after ``tree``'s move on f.

    ``sides`` hung ``tree`` from ``sides.root`` before the move.  The move
    changes no side but f's, so only the entries of f's two ends can
    change, and each is read again, in O(1), from the parts beyond its
    child edges (:func:`parts_at`).  Call u f's child end and v its other end.  When the move
    carried v's parent edge to u, f turns over: u now hangs from that edge
    and v from f, so v's entry is redone first and then u's.  Otherwise u
    alone traded one child for another.  The root's entry still holds
    every taxon, but the root need not sit next to the smallest taxon any
    more, so patched sides serve :func:`part` and :func:`joined_key`, which
    read no such thing, and not :func:`edge_keys_of`.
    """
    _, parent_edge, bits, vecs, _, field = sides
    ends, adj = tree._ends, tree._adj
    u, v = ends[f]
    if parent_edge[u] != f:
        u, v = v, u
    up = parent_edge[v]
    if up in adj[u]:
        parent_edge[u], parent_edge[v] = up, f
        redo: tuple[int, ...] = (v, u)
    else:
        redo = (u,)
    for x in redo:
        e = parent_edge[x]
        (_, (side_a, vec_a)), (_, (side_b, vec_b)) = parts_at(tree, sides, x, e)
        bits[x], vecs[x] = side_a | side_b, vec_a + vec_b + field[e]


def edge_keys_of(tree: Phylogeny, sides: Sides) -> dict[int, Key]:
    """Exact good-pair key of every internal edge, read off ``sides``.

    The key is (weight rank, away-side taxa bitset, away-side count vector
    of the other internal weights), all ints, the away side being the one
    without the smallest taxon: the side below the edge, since the tree
    hangs from the smallest taxon's neighbour.  Taking the edge's own field
    off the entry below it leaves every field in 0..m_w, so nothing
    borrows.
    """
    labels = tree._leaf_label
    _, parent_edge, bits, vecs, rank, field = sides
    return {
        e: (rank[e], bits[x], vecs[x] - field[e])
        for x, e in parent_edge.items()
        if e is not None and x not in labels
    }


def part(ends: dict[int, tuple[int, int]], sides: Sides, y: int, g: int) -> tuple[int, int]:
    """What lies beyond edge g seen from its end y: (taxa bitset, count vector).

    ``ends`` is the edge table of the tree that ``sides`` describes.  Seen
    from its parent end, the part beyond g is the child's entry.  Seen from
    the node whose parent edge g is, it is the complement of that node's
    entry, with g's own weight added back: g leads to the root, and the
    root's entry holds every taxon and every internal weight.
    """
    root, parent_edge, bits, vecs, _, field = sides
    if parent_edge[y] == g:
        return bits[root] ^ bits[y], vecs[root] - vecs[y] + field[g]
    c, d = ends[g]
    if c == y:
        c = d
    return bits[c], vecs[c]


def parts_at(
    tree: Phylogeny, sides: Sides, y: int, e: int
) -> list[tuple[int, tuple[int, int]]]:
    """The parts beyond internal node y's two edges other than e: (edge, part), in edge-id order.

    Their union is what lies beyond e seen from its other end.
    """
    ends = tree._ends
    g, h = [g for g in tree._adj[y] if g != e]
    if h < g:
        g, h = h, g
    return [(g, part(ends, sides, y, g)), (h, part(ends, sides, y, h))]


def joined_key(sides: Sides, e: int, a: tuple[int, int], b: tuple[int, int]) -> Key:
    """e's key when e's side is the union of the disjoint parts ``a`` and ``b``.

    Each part is a (taxa bitset, count vector) pair as :func:`part` reads
    it.  A union that holds bit 0, the smallest taxon, is turned to e's
    other side, which the key names.  The parts are disjoint and each
    field counts one side's copies, so nothing carries or borrows.
    """
    side_a, vec_a = a
    side_b, vec_b = b
    side = side_a | side_b
    if side & 1:
        root = sides.root
        return (sides.rank[e], sides.bits[root] ^ side,
                sides.vecs[root] - vec_a - vec_b - sides.field[e])
    return sides.rank[e], side, vec_a + vec_b


def moved_edge_key(tree: Phylogeny, sides: Sides, e: int) -> Key:
    """Internal edge e's key read off ``sides``, fresh or patched (:func:`patch_sides`).

    The side below e is its child end's entry, less e's own field; a side
    that holds bit 0 is turned to e's other side, as :func:`joined_key`
    turns it, so the key is the one a fresh key pass gives.
    """
    root, parent_edge, bits, vecs, rank, field = sides
    x, y = tree._ends[e]
    if parent_edge[x] != e:
        x = y
    side = bits[x]
    if side & 1:
        return rank[e], bits[root] ^ side, vecs[root] - vecs[x]
    return rank[e], side, vecs[x] - field[e]


class KeyLayout:
    """Where one fixed target tree's weights and taxa sit in good-pair keys.

    ``rank`` numbers the target's distinct internal weights in increasing
    order.  A count vector gives the weight of rank r the bits from
    ``offsets[r]`` to ``offsets[r + 1]``: ``m.bit_length()`` of them for a
    weight on m of the target's internal edges, enough for every count from
    0 to m.  ``offsets[-1]`` is the vector's width, one bit per weight when
    the weights are distinct.  ``bit`` gives the i-th taxon in sorted order
    bit i, so the smallest taxon is bit 0.  The layout keeps the target as
    ``tree`` and the target's own :meth:`edge_fields` as ``fields``, so
    that a reader of both trees, such as :func:`decompose`, hashes no
    weight of the target again.

    Ranks, widths and bits depend only on the sorted internal weight
    multiset and the sorted taxa, which the two trees of a finite pair
    share.  So either tree's layout is the other's, and one layout keys
    both trees of a pair.
    """

    def __init__(self, target: Phylogeny) -> None:
        counts = Counter(target.internal_weight_multiset())
        offsets = [0]
        for m in counts.values():
            offsets.append(offsets[-1] + m.bit_length())
        self.offsets = offsets
        self.rank: dict[Fraction, int] = {w: r for r, w in enumerate(counts)}
        # weight -> (rank, field), so each edge costs one Fraction lookup
        self._slot = {w: (r, 1 << offsets[r]) for w, r in self.rank.items()}
        # every internal edge's rank, sorted: edge_fields holds every tree to it
        self._ranks = [r for r, m in enumerate(counts.values()) for _ in range(m)]
        self.bit = {t: 1 << i for i, t in enumerate(target.taxa())}
        self.tree = target
        self.fields = self.edge_fields(target)

    def sides(
        self, tree: Phylogeny, fields: tuple[dict[int, int], dict[int, int]] | None = None
    ) -> Sides:
        """The taxa and internal weights below every node of ``tree``'s kept rooted view.

        ``fields`` is ``self.edge_fields(tree)`` when the caller has it
        already.  The view is the one the tree keeps until its next move, so
        detection on a full input tree builds the view that serialization
        and comparison of that tree read later.
        """
        if fields is None:
            fields = self.edge_fields(tree)
        return sides_below(tree, tree.rooted_view().parent_edge, self.bit, *fields)

    def edge_fields(self, tree: Phylogeny) -> tuple[dict[int, int], dict[int, int]]:
        """The weight rank and the count field of each internal edge, by edge id.

        A field is only as wide as the target's multiplicity of its weight
        needs, so one more copy of a weight would carry into the next field
        and mis-key silently: a tree whose internal weight multiset is not
        the target's raises ``TreeError``.  A move keeps every edge's id and
        weight, so a caller that reads the sides of many trees linked by
        moves builds this once.
        """
        ends, labels, wt, slot = tree._ends, tree._leaf_label, tree._wt, self._slot
        rank: dict[int, int] = {}
        field: dict[int, int] = {}
        # a weight the target lacks gets rank -1, which the count check refuses
        for e, (u, v) in ends.items():
            if u not in labels and v not in labels:
                rank[e], field[e] = slot.get(wt[e], (-1, 0))
        if sorted(rank.values()) != self._ranks:
            raise TreeError("internal weight multiset differs from the target tree's")
        return rank, field


class PairBound:
    """The good-pair table of one target tree.

    A :class:`KeyLayout`, held as ``layout``, and the target's keys:
    ``keys`` maps each of the target's internal edges to its exact key (see
    :meth:`edge_keys`), and ``target`` maps each key back to its edge; keys
    are unique within a tree, so an edge of another tree is paired exactly
    when its key is in the table.  The bound of a tree T, :func:`lower_bound`
    against the target, is then the weight of T's edges whose keys are not
    in the table, one key pass per tree.  Trees must be finite against the
    target (see ``finiteness_check``); one with another internal weight
    multiset is refused (see :meth:`edge_fields`).  :mod:`nnidist.exact`
    uses the bound, scaled to integers, as its A* heuristic and says why it
    is consistent.

    ``splits`` maps each weight rank to the taxa sides of the target's
    edges of that weight, the bitsets of their keys.  ``fields`` are the
    target's :meth:`KeyLayout.edge_fields`.

    The layout ranks weights in sorted order and gives taxa bits in sorted
    order, so both trees of a finite pair have the same layout, and the
    keys of either are comparable with the other's table.  ``layout`` is
    the target's own by default; a caller that keys both trees of a pair
    builds one and passes it to both tables, with each tree's ``sides``
    when it has them already.  The table holds its layout rather than being
    one, so that a caller done with the keys can keep the layout alone, as
    :func:`decompose` needs, and let the keys go.
    """

    def __init__(
        self, target: Phylogeny, layout: KeyLayout | None = None, sides: Sides | None = None
    ) -> None:
        self.layout = layout = KeyLayout(target) if layout is None else layout
        self.tree, self.bit = target, layout.bit
        if sides is None:
            sides = layout.sides(
                target, layout.fields if layout.tree is target else None)
        self.fields = sides.rank, sides.field
        self.keys = keys = edge_keys_of(target, sides)
        self.target = {key: e for e, key in keys.items()}
        # the taxa side of each target split, by weight rank
        self.splits: dict[int, list[int]] = {}
        for r, side, _ in keys.values():
            self.splits.setdefault(r, []).append(side)

    def edge_fields(self, tree: Phylogeny) -> tuple[dict[int, int], dict[int, int]]:
        """The layout's :meth:`KeyLayout.edge_fields` of ``tree``."""
        return self.layout.edge_fields(tree)

    def sides(
        self, tree: Phylogeny, fields: tuple[dict[int, int], dict[int, int]] | None = None
    ) -> Sides:
        """The layout's :meth:`KeyLayout.sides` of ``tree``."""
        return self.layout.sides(tree, fields)

    def edge_keys(self, tree: Phylogeny, sides: Sides | None = None) -> dict[int, Key]:
        """Exact good-pair key of every internal edge (see :func:`edge_keys_of`).

        ``sides`` is ``self.sides(tree)`` when the caller has it already.
        """
        if sides is None:
            sides = self.sides(tree)
        return edge_keys_of(tree, sides)

    def pairs(self, keys: dict[int, Key]) -> list[tuple[int, int]]:
        """The sorted (edge, target edge) good pairs of the tree with these keys."""
        target = self.target
        return sorted((e, target[key]) for e, key in keys.items() if key in target)

    def follow(self, tree: Phylogeny, sides: Sides, moved: Iterable[int]) -> None:
        """Make this the table of ``tree``, which moves on the edges ``moved`` made of the target.

        A move changes its own edge's key alone, so only the keys of
        ``moved`` are replaced, each read off ``sides``, the target's sides
        patched after every move (:func:`patch_sides`): O(moves), not a new
        key pass.  Every old key is dropped before a new one is entered, so
        a moved edge may take the key another one gave up.  ``tree`` keeps
        the target's edge ids and weights, so ``fields`` still hold.
        """
        keys, target, splits = self.keys, self.target, self.splits
        moved = set(moved)
        for e in moved:
            r, side, _ = old = keys[e]
            del target[old]
            splits[r].remove(side)
        for e in moved:
            r, side, _ = keys[e] = new = moved_edge_key(tree, sides, e)
            target[new] = e
            splits[r].append(side)
        self.tree = tree


def find_good_edge_pairs(
    t1: Phylogeny,
    t2: Phylogeny,
    *,
    checked: bool = False,
    table: PairBound | None = None,
    sides: Sides | None = None,
    keys: dict[int, Key] | None = None,
) -> GoodEdgePairSet:
    """Every good pair (t1 edge, t2 edge), sorted, from one key pass per tree.

    The pair must be finite, which this checks unless the caller already
    has: ``checked=True`` says that ``finiteness_check(t1, t2)`` passed.
    ``table`` is ``PairBound(t2)``, ``sides`` is ``table.sides(t1)`` and
    ``keys`` is ``table.edge_keys(t1)`` when the caller has them already;
    t1's :class:`PairBound` on the same layout holds its keys.
    """
    if not checked:
        ok, reasons = finiteness_check(t1, t2)
        if not ok:
            raise TreeError("instance is not finite: " + "; ".join(reasons))
    if table is None:
        table = PairBound(t2)
    elif table.tree is not t2:
        raise ValueError("the table was built for another target tree")
    if keys is None:
        keys = table.edge_keys(t1, sides)
    return GoodEdgePairSet(table.pairs(keys))


def lower_bound(
    t1: Phylogeny, t2: Phylogeny, pairs: GoodEdgePairSet | None = None
) -> Fraction:
    """W − Σ of the good-paired weights: no NNI sequence from t1 to t2 costs less.

    A move on edge e moves two subtrees past e, so every other edge keeps
    its split and the internal weights on each of its sides; only e's own
    key changes, and e keeps its weight.  An edge that is never operated on
    therefore keeps its good-pair partner, so every unpaired edge is
    operated on at least once, at the cost of its own weight.  ``pairs`` is
    ``find_good_edge_pairs(t1, t2)`` when the caller has it already.
    """
    if pairs is None:
        pairs = find_good_edge_pairs(t1, t2)
    unpaired = set(t1.internal_edges()) - {e1 for e1, _ in pairs.pairs}
    return counted_cost(t1, dict.fromkeys(unpaired, 1))


def first_free_cut(tree: Phylogeny) -> int:
    """One more than the largest k of a ``:cut:k:`` label ``tree`` carries, else 0.

    A component of an earlier decomposition carries such pseudo-leaves, so
    :func:`decompose` given this as ``first_cut`` cuts it again without a
    label clash.
    """
    taken = [int(m[1]) for m in map(_CUT_LABEL.fullmatch, tree._label_leaf) if m]
    return max(taken) + 1 if taken else 0


def _cut_components(
    tree: Phylogeny, cuts: dict[int, int], first: int = 0, stars: bool = True
) -> list[Phylogeny | frozenset[str]]:
    """Split at the cut edges; each cut becomes a pseudo-leaf in both parts.

    One walk per component over the edge table, from its smallest node id,
    collects its nodes' labels and its edges; cut edge e ends at pseudo-leaf
    ``base + cuts[e]``, labeled ``:cut:k:`` with k = ``first + cuts[e]``.
    A part of a valid tree cut at internal edges is valid: every node keeps
    its degree and every cut edge ends at a new labeled leaf, so the parts
    are built without ``validate()``.  Two checks stand for what a cut can
    break: a part of fewer than three leaves, which only a cut leaf edge
    leaves, and a pseudo-leaf label that a taxon already carries.  With
    ``stars=False`` a part of three edges, a three-leaf star, is not built:
    it is listed as the frozenset of its labels, after the same two checks.
    """
    ends, adj, wt, leaf_label = tree._ends, tree._adj, tree._wt, tree._leaf_label
    base = max(adj) + 1
    seen: set[int] = set()
    built: list[Phylogeny | frozenset[str]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        edges: dict[int, tuple[int, int]] = {}
        labels: dict[int, str] = {}
        while stack:
            u = stack.pop()
            seen.add(u)
            if u in leaf_label:
                labels[u] = leaf_label[u]
            for e in adj[u]:
                k = cuts.get(e)
                if k is not None:
                    edges[e] = (u, base + k)
                    labels[base + k] = f":cut:{first + k}:"
                elif e not in edges:  # a tree: the far end is new
                    edges[e] = x, y = ends[e]
                    stack.append(y if x == u else x)
        if len(labels) < 3:
            raise TreeError(f"a cut leaves a part of {len(labels)} leaves, need at least 3")
        if not stars and len(edges) == 3:
            taxa = frozenset(labels.values())
            if len(taxa) != 3:
                raise TreeError("duplicate taxon labels")
            built.append(taxa)
            continue
        order = sorted(edges)
        part = Phylogeny._from_tables(
            {e: edges[e] for e in order}, {e: wt[e] for e in order}, labels)
        if len(part._label_leaf) != len(labels):
            raise TreeError("duplicate taxon labels")
        built.append(part)
    return built


def _taxa(part: Phylogeny | frozenset[str]) -> frozenset[str]:
    """The labels of a part that :func:`_cut_components` lists."""
    return frozenset(part._label_leaf) if isinstance(part, Phylogeny) else part


def decompose(
    t1: Phylogeny,
    t2: Phylogeny,
    pair_set: GoodEdgePairSet,
    *,
    table: KeyLayout | PairBound | None = None,
    fields: tuple[dict[int, int], dict[int, int]] | None = None,
    target_fields: tuple[dict[int, int], dict[int, int]] | None = None,
    first_cut: int = 0,
    stars: bool = True,
) -> list[tuple[Phylogeny, Phylogeny]]:
    """Cut both trees at all good pairs and match the components by taxa.

    The full pair must be finite (see ``finiteness_check``): the same taxa,
    the same leaf weight per taxon and the same internal weight multiset.
    Then a component pair, its taxa matched, is finite exactly when its
    pseudo-leaf edges weigh the same in both trees and so do its internal
    edges as a multiset.  So the cut edges of each listed pair are compared,
    and each part's internal weights are summed into a count vector laid out
    as :class:`KeyLayout`'s, one field lookup by edge id per edge: under
    finiteness no field carries, so one big-int comparison per component
    stands for the multiset comparison of ``finiteness_check``.  Pair sets
    from :func:`find_good_edge_pairs` and built by hand take the same
    checks.

    Every part is returned by default, three-leaf stars included.  A star
    has no internal edge, so it needs no move and its count vector is 0 in
    both trees: with ``stars=False`` its two trees are not built, each star
    is checked by its label set alone, which must be a star's of the other
    tree, and the list holds only the parts with an internal edge, in the
    same order.  Both settings refuse the same pair sets with the same
    message.

    ``table`` is t2's :class:`KeyLayout`, or a :class:`PairBound`, which
    reads the same, and ``fields`` is ``table.edge_fields(t1)`` when the
    caller has them already; otherwise both are built here.  A caller that
    has ``target_fields``, t2's edge fields on the layout of ``fields``,
    needs no table: a tree that moves made of the layout's tree keeps its
    edge ids and weights, and so its fields.  The
    pseudo-leaf of the k-th listed pair is labeled ``:cut:j:`` with j =
    ``first_cut + k``, and a taxon that carries one of these labels is
    refused.  Cutting a component of an earlier decomposition again takes
    ``first_cut=first_free_cut(t1)``, which numbers past its pseudo-leaves.
    """
    if not pair_set.pairs:
        return [(t1, t2)] if stars or t1.n_taxa > 3 else []
    if table is not None and table.tree is not t2:
        raise ValueError("the table was built for another target tree")
    cuts1 = {e1: k for k, (e1, _) in enumerate(pair_set.pairs)}
    cuts2 = {e2: k for k, (_, e2) in enumerate(pair_set.pairs)}
    parts1 = _cut_components(t1, cuts1, first_cut, stars)
    parts2 = _cut_components(t2, cuts2, first_cut, stars)
    # a part's label map is keyed by its taxa: no sorted taxa() tuple per
    # part.  A star has three taxa and any other part more, so a star that
    # was not built, listed as its taxa, can only match a star
    by_taxa = {_taxa(p): p for p in parts2}
    matched = []
    for taxa, part in sorted([(_taxa(p), p) for p in parts1], key=lambda tp: min(tp[0])):
        match = by_taxa.pop(taxa, None)
        if match is None:
            raise TreeError("decomposition components do not match between trees")
        if isinstance(part, Phylogeny):
            matched.append((part, match))
    if by_taxa:
        raise TreeError("decomposition left unmatched components")
    wt1, wt2 = t1._wt, t2._wt
    bad = [f":cut:{first_cut + k}:" for k, (e1, e2) in enumerate(pair_set.pairs)
           if wt1.get(e1) != wt2.get(e2)]
    if bad:
        raise TreeError(
            f"component pair is not finite: leaf edge weights differ at taxa {bad}")
    if fields is None or target_fields is None:
        if table is None:
            table = KeyLayout(t2)
        if fields is None:
            # refuses a t1 whose internal weight multiset is not t2's
            fields = table.edge_fields(t1)
        if target_fields is None:
            target_fields = table.fields
    fields1 = {e: f for e, f in fields[1].items() if e not in cuts1}
    fields2 = {e: f for e, f in target_fields[1].items() if e not in cuts2}
    for part, match in matched:
        vec1 = sum([fields1.get(e, 0) for e in part._ends])
        if vec1 != sum([fields2.get(e, 0) for e in match._ends]):
            raise TreeError(
                "component pair is not finite: internal edge weight multisets differ")
    return matched
