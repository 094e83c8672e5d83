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
sums and complements of :meth:`PairBound.moved_key` included, counts the
copies of w on one side of some cut, so it lies in 0..m_w and never carries
into its neighbour.  That holds only for trees with tree 2's multiplicities,
which finiteness guarantees and :meth:`PairBound.edge_fields` checks.

The pass (:class:`Sides`) reads only each node's parent edge, not the
order of its children.  Detection takes them from the tree's kept rooted
view; the exact search, whose trees are read once and dropped, takes them
from one walk of the edge table from the same root (:func:`walk`).
The same pass serves the move-key kernel.  A move on edge
e changes e's key alone (see :func:`lower_bound`), and e's new away side is
the union of two parts of the old tree: the part beyond e's other edge at
one end and the part beyond the moved edge at the other.  Each part is one
entry of the pass, or its complement when the pass walked that edge from
the other end (:func:`part`), so :meth:`PairBound.moved_key` costs O(1)
big-int operations and needs no copy of the tree (DasGupta, He, Jiang, Li,
Tromp and Zhang, "On computing the nearest neighbor interchange distance",
DIMACS 2000).  The same two parts, one beyond an edge at the far end of a
neighbouring edge f, give e's key after a helper move on f and a move on e
(:meth:`PairBound.helped_keys`).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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

    Sides patched after a move (``pipeline._patch_sides``) may hang the
    tree from a root that no longer sits next to the smallest taxon.
    :meth:`PairBound.moved_key` and :meth:`PairBound.helped_keys` read them
    as they read fresh ones: they need only a consistent hanging and turn
    each key by bit 0.
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
    """The good-pair table of one fixed target tree.

    The target's :class:`KeyLayout`, held as ``layout``, and its keys:
    ``target`` maps the exact key (see :meth:`edge_keys`) of each of the
    target's internal edges to that edge; keys are unique within a tree, so
    an edge of another tree is paired exactly when its key is in the table.
    The bound of a tree T, :func:`lower_bound` against the target, is then
    the weight of T's edges whose keys are not in the table, one key pass
    per tree.  Trees must be finite against the target (see
    ``finiteness_check``); one with another internal weight multiset is
    refused (see :meth:`edge_fields`).  :mod:`nnidist.exact` uses the
    bound, scaled to integers, as its A* heuristic and says why it is
    consistent.

    ``splits`` maps each weight rank to the taxa sides of the target's
    edges of that weight, the bitsets of their keys.

    The table holds its layout rather than being one, so that a caller done
    with the keys can keep the layout alone, as :func:`decompose` needs,
    and let the keys go.  The layout's ``tree``, ``fields``, ``bit``,
    ``rank`` and ``offsets`` are the table's too.
    """

    def __init__(self, target: Phylogeny) -> None:
        self.layout = layout = KeyLayout(target)
        self.tree, self.fields = layout.tree, layout.fields
        self.bit, self.rank, self.offsets = layout.bit, layout.rank, layout.offsets
        keys = self.edge_keys(target, self.sides(target, self.fields))
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
        """The taxa and internal weights below every node of ``tree``'s kept rooted view.

        ``fields`` is ``self.edge_fields(tree)`` when the caller has it
        already.  The view is the one the tree keeps until its next move, so
        detection on a full input tree builds the view that serialization
        and comparison of that tree read later.
        """
        if fields is None:
            fields = self.edge_fields(tree)
        return sides_below(tree, tree.rooted_view().parent_edge, self.bit, *fields)

    def edge_keys(self, tree: Phylogeny, sides: Sides | None = None) -> dict[int, Key]:
        """Exact good-pair key of every internal edge (see :func:`edge_keys_of`).

        ``sides`` is ``self.sides(tree)`` when the caller has it already.
        """
        if sides is None:
            sides = self.sides(tree)
        return edge_keys_of(tree, sides)

    @staticmethod
    def moved_key(tree: Phylogeny, sides: Sides, e1: int, e2: int, e3: int) -> Key:
        """e2's key after the move (e1, e2, e3), from two entries of ``sides``.

        ``sides`` is the sides of ``tree`` before the move.  The move carries
        e1 from e2's end u to its end v and e3 the other way, so afterwards
        e2's side at u is what lay beyond u's third edge b, seen from u, and
        what lay beyond e3, seen from v: two parts (see :func:`part`).  The
        union is then turned to the side without the smallest taxon.  Each
        of these vectors counts the copies of a weight on one side of a cut,
        and the two parts are disjoint, so every field stays in 0..m_w and
        neither the sums nor the complements carry or borrow.  Every other
        edge keeps its key (see :func:`lower_bound`), so one move costs O(1)
        big-int operations.
        """
        ends, adj = tree._ends, tree._adj
        u, v = ends[e2]
        if v in ends[e1]:
            u, v = v, u
        for b in adj[u]:
            if b != e1 and b != e2:
                break
        side, vec = part(ends, sides, u, b)
        side3, vec3 = part(ends, sides, v, e3)
        side |= side3
        vec += vec3
        if side & 1:  # the smallest taxon's side: the key names the other one
            root = sides.root
            return sides.rank[e2], sides.bits[root] ^ side, sides.vecs[root] - vec - sides.field[e2]
        return sides.rank[e2], side, vec

    @staticmethod
    def helped_keys(
        tree: Phylogeny, sides: Sides, e: int, f: int
    ) -> list[tuple[int, int, Key]]:
        """e's key after a helper move on f and a pairing move on e, for each of the four pairs.

        e = (p, q) and f = (p, x) are internal edges of ``tree`` that meet
        at p, and ``sides`` is the sides of ``tree`` before either move.
        Call B p's third edge.  The helper move (B, f, xi) swaps B with one
        of x's other edges xi, which brings what lay beyond xi to p.  The
        pairing move (f, e, qj) then swaps f with one of q's other edges
        qj, so e's side at p becomes part(x, xi) ∪ part(q, qj) (see
        :func:`part`).  A move changes only its own edge's split, so the
        helper leaves both parts as they were, and both are read off the
        sides before it.  The parts are disjoint, so as in
        :meth:`moved_key` no field carries.  Returns (xi, qj, key) for xi
        and qj each in edge-id order: four keys in O(1) big-int operations,
        with no copy of the tree and no trial move.
        """
        ends, adj = tree._ends, tree._adj
        p, q = ends[e]
        c, x = ends[f]
        if p != c and p != x:
            p, q = q, p
        if x == p:
            x = c
        at_q = [(qj, *part(ends, sides, q, qj)) for qj in sorted(adj[q]) if qj != e]
        # a union that holds the smallest taxon is turned as in moved_key
        rank, root = sides.rank[e], sides.root
        every, rest = sides.bits[root], sides.vecs[root] - sides.field[e]
        out = []
        for xi in sorted(adj[x]):
            if xi != f:
                side_x, vec_x = part(ends, sides, x, xi)
                for qj, side_q, vec_q in at_q:
                    side = side_x | side_q
                    if side & 1:
                        out.append((xi, qj, (rank, every ^ side, rest - vec_x - vec_q)))
                    else:
                        out.append((xi, qj, (rank, side, vec_x + vec_q)))
        return out

    def pairs(self, keys: dict[int, Key]) -> list[tuple[int, int]]:
        """The sorted (edge, target edge) good pairs of the tree with these keys."""
        target = self.target
        return sorted((e, target[key]) for e, key in keys.items() if key in target)

    def __call__(self, tree: Phylogeny) -> Fraction:
        """The bound of ``tree``: the weight of its edges without a partner."""
        target = self.target
        keys = self.edge_keys(tree).items()
        return counted_cost(tree, {e: 1 for e, key in keys if key not in target})


def find_good_edge_pairs(
    t1: Phylogeny,
    t2: Phylogeny,
    *,
    checked: bool = False,
    table: PairBound | None = None,
    sides: Sides | None = None,
) -> GoodEdgePairSet:
    """Every good pair (t1 edge, t2 edge), sorted, from one key pass per tree.

    The pair must be finite, which this checks unless the caller already
    has: ``checked=True`` says that ``finiteness_check(t1, t2)`` passed.
    ``table`` is ``PairBound(t2)`` and ``sides`` is ``table.sides(t1)``
    when the caller has them already.
    """
    if not checked:
        ok, reasons = finiteness_check(t1, t2)
        if not ok:
            raise TreeError("instance is not finite: " + "; ".join(reasons))
    if table is None:
        table = PairBound(t2)
    elif table.tree is not t2:
        raise ValueError("the table was built for another target tree")
    return GoodEdgePairSet(table.pairs(table.edge_keys(t1, sides)))


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
    tree: Phylogeny, cuts: dict[int, int], first: int = 0
) -> list[Phylogeny]:
    """Split at the cut edges; each cut becomes a pseudo-leaf in both parts.

    One walk per component over the edge table, from its smallest node id,
    collects its nodes' labels and its edges; cut edge e ends at pseudo-leaf
    ``base + cuts[e]``, labeled ``:cut:k:`` with k = ``first + cuts[e]``.
    A part of a valid tree cut at internal edges is valid: every node keeps
    its degree and every cut edge ends at a new labeled leaf, so the parts
    are built without ``validate()``.  Two checks stand for what a cut can
    break: a part of fewer than three leaves, which only a cut leaf edge
    leaves, and a pseudo-leaf label that a taxon already carries.
    """
    ends, adj, wt, leaf_label = tree._ends, tree._adj, tree._wt, tree._leaf_label
    base = max(adj) + 1
    seen: set[int] = set()
    built: list[Phylogeny] = []
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
        order = sorted(edges)
        part = Phylogeny._from_tables(
            {e: edges[e] for e in order}, {e: wt[e] for e in order}, labels)
        if len(part._label_leaf) != len(labels):
            raise TreeError("duplicate taxon labels")
        built.append(part)
    return built


def decompose(
    t1: Phylogeny,
    t2: Phylogeny,
    pair_set: GoodEdgePairSet,
    *,
    table: KeyLayout | PairBound | None = None,
    fields: tuple[dict[int, int], dict[int, int]] | None = None,
    first_cut: int = 0,
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
    checks.  Every part is returned, three-leaf stars included.

    ``table`` is t2's :class:`KeyLayout`, or a :class:`PairBound`, which
    reads the same, and ``fields`` is ``table.edge_fields(t1)`` when the
    caller has them already; otherwise both are built here.  The
    pseudo-leaf of the k-th listed pair is labeled ``:cut:j:`` with j =
    ``first_cut + k``, and a taxon that carries one of these labels is
    refused.  Cutting a component of an earlier decomposition again takes
    ``first_cut=first_free_cut(t1)``, which numbers past its pseudo-leaves.
    """
    if not pair_set.pairs:
        return [(t1, t2)]
    if table is not None and table.tree is not t2:
        raise ValueError("the table was built for another target tree")
    cuts1 = {e1: k for k, (e1, _) in enumerate(pair_set.pairs)}
    cuts2 = {e2: k for k, (_, e2) in enumerate(pair_set.pairs)}
    parts1 = _cut_components(t1, cuts1, first_cut)
    parts2 = _cut_components(t2, cuts2, first_cut)
    # a part's label map is keyed by its taxa: no sorted taxa() tuple per part
    by_taxa = {frozenset(p._label_leaf): p for p in parts2}
    matched = []
    for part in sorted(parts1, key=lambda p: min(p._label_leaf)):
        match = by_taxa.pop(frozenset(part._label_leaf), None)
        if match is None:
            raise TreeError("decomposition components do not match between trees")
        matched.append((part, match))
    if by_taxa:
        raise TreeError("decomposition left unmatched components")
    wt1, wt2 = t1._wt, t2._wt
    bad = [f":cut:{first_cut + k}:" for k, (e1, e2) in enumerate(pair_set.pairs)
           if wt1.get(e1) != wt2.get(e2)]
    if bad:
        raise TreeError(
            f"component pair is not finite: leaf edge weights differ at taxa {bad}")
    if table is None:
        table = KeyLayout(t2)
    if fields is None:
        # refuses a t1 whose internal weight multiset is not t2's
        fields = table.edge_fields(t1)
    fields1 = {e: f for e, f in fields[1].items() if e not in cuts1}
    fields2 = {e: f for e, f in table.fields[1].items() if e not in cuts2}
    for part, match in matched:
        vec1 = sum([fields1.get(e, 0) for e in part._ends])
        if vec1 != sum([fields2.get(e, 0) for e in match._ends]):
            raise TreeError(
                "component pair is not finite: internal edge weight multisets differ")
    return matched
