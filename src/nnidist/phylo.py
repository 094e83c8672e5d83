"""Core data structure for leaf-labeled, edge-weighted phylogenies.

A phylogeny here is an unrooted tree whose internal nodes have degree exactly
three, whose leaves carry unique taxon labels, and whose edges carry positive
rational weights.  Storage is deliberately plain: integer node and edge ids,
dict adjacency, and a handful of derived views (the rooted view, split
bitsets, node classes) that the rest of the package builds on.

:meth:`Phylogeny.rooted_view` is the one place where rooting and child order
are decided: the tree hangs from the internal node next to the smallest
taxon, and children are ordered by the smallest taxon below them.
Serialization, the canonical edge order, the leaf sort's slot view, the
companion check, the split bitsets and the good-pair keys all read it.

Weights are `fractions.Fraction` throughout so that costs compose exactly.

:func:`nnidist.nni.apply_nni` is the one writer of the edge table and the
adjacency lists after construction, and a move keeps every node's degree.
So a node is a leaf exactly when it carries a taxon label (construction
checks that labels sit on the degree-1 nodes and nowhere else), and
:meth:`Phylogeny.is_leaf` reads the label table, not the adjacency.
Nothing writes the weights after construction and a move keeps leaf edges
leaf edges, so the sorted internal weight multiset is computed once per tree.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Mapping, NamedTuple


class TreeError(ValueError):
    """Raised when a structure fails phylogeny validation."""


class NodeClass(enum.Enum):
    """Classification of internal nodes by their number of leaf neighbors."""

    ENDNODE = "endnode"    # two or more leaf neighbors
    PATHNODE = "pathnode"  # exactly one leaf neighbor
    JUNCTION = "junction"  # no leaf neighbor


class RootedView(NamedTuple):
    """The tree hung from one root, children ordered by their smallest taxon.

    ``order`` lists the nodes root first (breadth-first), so every parent
    precedes its children; ``parent_edge`` maps each node to the edge toward
    the root (None at the root); ``children`` lists each node's children by
    the smallest taxon below them, ``min_taxon`` gives that taxon.
    """

    order: list[int]
    parent_edge: dict[int, int | None]
    children: dict[int, list[int]]
    min_taxon: dict[int, str]


class Phylogeny:
    """Unrooted binary phylogeny with positive rational edge weights.

    Construction validates the full shape contract (connectivity, degree-3
    internal nodes, label bijection, weight positivity, at least 3 taxa) and
    raises :class:`TreeError` listing every violation found.
    """

    __slots__ = ("_ends", "_wt", "_adj", "_leaf_label", "_label_leaf", "_internal_ws")

    def __init__(
        self,
        edges: Mapping[int, tuple[int, int]],
        weights: Mapping[int, Fraction],
        leaf_labels: Mapping[int, str],
    ) -> None:
        self._ends: dict[int, tuple[int, int]] = {
            int(e): (int(u), int(v)) for e, (u, v) in edges.items()
        }
        # parse, decomposition and the companion pass weights that already
        # are Fractions; re-wrapping one costs an ABC check and a new object
        self._wt: dict[int, Fraction] = {
            int(e): w if type(w) is Fraction else Fraction(w) for e, w in weights.items()
        }
        self._adj = _adjacency(self._ends)
        self._leaf_label: dict[int, str] = {int(v): str(s) for v, s in leaf_labels.items()}
        self._label_leaf: dict[str, int] = {s: v for v, s in self._leaf_label.items()}
        self._internal_ws: tuple[Fraction, ...] | None = None
        problems = self.validate()
        if problems:
            raise TreeError("; ".join(problems))

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> list[str]:
        """Return a list of violation messages, empty when the tree is valid."""
        problems: list[str] = []
        if set(self._wt) != set(self._ends):
            problems.append("weight keys do not match edge keys")
        for e, w in self._wt.items():
            # a Fraction keeps its sign in the numerator
            if w.numerator <= 0:
                problems.append(f"edge {e} has nonpositive weight {w}")
        for e, (u, v) in self._ends.items():
            if u == v:
                problems.append(f"edge {e} is a self-loop at node {u}")
        nodes = set(self._adj)
        if not nodes:
            problems.append("tree has no nodes")
            return problems
        if len(self._ends) != len(nodes) - 1:
            problems.append(
                f"{len(self._ends)} edges for {len(nodes)} nodes, not a tree"
            )
        # connectivity
        seen = {next(iter(nodes))}
        stack = list(seen)
        while stack:
            x = stack.pop()
            for e in self._adj[x]:
                y = self.other_end(e, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            problems.append("tree is not connected")
        # degrees and labels
        if len(self._label_leaf) != len(self._leaf_label):
            problems.append("duplicate taxon labels")
        for s in self._label_leaf:
            if not s:
                problems.append("empty taxon label")
        n_leaves = 0
        for x in nodes:
            d = len(self._adj[x])
            if d == 1:
                n_leaves += 1
                if x not in self._leaf_label:
                    problems.append(f"leaf node {x} has no taxon label")
            else:
                if x in self._leaf_label:
                    problems.append(f"internal node {x} carries a taxon label")
                if d != 3:
                    problems.append(f"internal node {x} has degree {d}, expected 3")
        for x in self._leaf_label:
            if x not in nodes:
                problems.append(f"labeled node {x} does not exist")
        if n_leaves < 3:
            problems.append(f"only {n_leaves} leaves, need at least 3")
        return problems

    # ------------------------------------------------------------------
    # read access

    def nodes(self) -> list[int]:
        return sorted(self._adj)

    def edge_ids(self) -> list[int]:
        return sorted(self._ends)

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._ends[e]

    def weight(self, e: int) -> Fraction:
        return self._wt[e]

    def other_end(self, e: int, node: int) -> int:
        u, v = self._ends[e]
        if node == u:
            return v
        if node == v:
            return u
        raise KeyError(f"node {node} is not an endpoint of edge {e}")

    def adjacent_edges(self, node: int) -> tuple[int, ...]:
        return tuple(self._adj[node])

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def is_leaf(self, node: int) -> bool:
        return node in self._leaf_label

    def leaf_label(self, node: int) -> str:
        return self._leaf_label[node]

    def leaf_node(self, label: str) -> int:
        return self._label_leaf[label]

    def taxa(self) -> tuple[str, ...]:
        return tuple(sorted(self._label_leaf))

    @property
    def n_taxa(self) -> int:
        return len(self._leaf_label)

    def leaf_edges(self) -> list[int]:
        return [e for e in self.edge_ids() if self.is_edge_leaf(e)]

    def internal_edges(self) -> list[int]:
        return [e for e in self.edge_ids() if not self.is_edge_leaf(e)]

    def is_edge_leaf(self, e: int) -> bool:
        u, v = self._ends[e]
        return u in self._leaf_label or v in self._leaf_label

    def leaf_edge_of(self, label: str) -> int:
        """The unique edge incident to the leaf carrying ``label``."""
        return self._adj[self._label_leaf[label]][0]

    def leaf_weight_map(self) -> dict[str, Fraction]:
        return {s: self._wt[self._adj[v][0]] for s, v in self._label_leaf.items()}

    def internal_weight_multiset(self) -> tuple[Fraction, ...]:
        """Sorted internal weights, computed on the first call.

        The sort key is ``w`` scaled to the common denominator ``L`` of all
        the weights, the integer ``w.numerator * (L // w.denominator)``: it
        orders exactly as the Fractions do, without a Python-level
        ``Fraction.__lt__`` per comparison, and the sort is stable, so the
        tuple is the one ``sorted`` gives.
        """
        if self._internal_ws is None:
            ws = [self._wt[e] for e in self.internal_edges()]
            lcm = math.lcm(*(w.denominator for w in ws))
            ws.sort(key=lambda w: w.numerator * (lcm // w.denominator))
            self._internal_ws = tuple(ws)
        return self._internal_ws

    def root_handle(self) -> int:
        """Internal node adjacent to the lexicographically smallest taxon."""
        leaf = self._label_leaf[min(self._label_leaf)]
        return self.other_end(self._adj[leaf][0], leaf)

    def max_node_id(self) -> int:
        return max(self._adj)

    # ------------------------------------------------------------------
    # derived views

    def classify_nodes(self) -> dict[int, NodeClass]:
        """Node class for every internal node (leaves are not classified)."""
        ends, labels = self._ends, self._leaf_label
        out: dict[int, NodeClass] = {}
        for x in sorted(self._adj):
            if x in labels:
                continue
            # x is internal, so an edge at x touches a leaf only at its far end
            k = 0
            for e in self._adj[x]:
                u, v = ends[e]
                if u in labels or v in labels:
                    k += 1
            if k >= 2:
                out[x] = NodeClass.ENDNODE
            elif k == 1:
                out[x] = NodeClass.PATHNODE
            else:
                out[x] = NodeClass.JUNCTION
        return out

    def rooted_view(self, root: int | None = None) -> RootedView:
        """One BFS from ``root`` (default :meth:`root_handle`), one bottom-up pass.

        ``root`` must be an internal node, so every labeled node is a leaf
        of the view.
        """
        adj, ends, labels = self._adj, self._ends, self._leaf_label
        if root is None:
            root = self.root_handle()
        elif root in labels:
            raise TreeError(f"view root {root} is a leaf")
        # plain dict and list work, no method calls: the exact search reads
        # this view for every state it generates (split_bits, good-pair keys)
        parent_edge: dict[int, int | None] = {root: None}
        children: dict[int, list[int]] = {}
        order = [root]
        for x in order:
            kids = children[x] = []
            for e in adj[x]:
                u, y = ends[e]
                if y == x:
                    y = u
                if y not in parent_edge:
                    parent_edge[y] = e
                    order.append(y)
                    kids.append(y)
        min_taxon: dict[int, str] = {}
        for x in reversed(order):
            kids = children[x]
            if kids:
                kids.sort(key=min_taxon.__getitem__)
                min_taxon[x] = min_taxon[kids[0]]
            else:
                min_taxon[x] = labels[x]
        return RootedView(order, parent_edge, children, min_taxon)

    def split_bits(self, view: RootedView | None = None) -> dict[int, int]:
        """Away-side taxa of each internal edge as a bitset, from one post-order pass.

        Bit i stands for the i-th taxon in sorted order.  The away side is the
        side without the view's root, by default the side without the
        smallest taxon.
        """
        if view is None:
            view = self.rooted_view()
        bit = {t: 1 << i for i, t in enumerate(sorted(self._label_leaf))}
        below: dict[int, int] = {}
        for x in reversed(view.order):
            kids = view.children[x]
            acc = 0 if kids else bit[self._leaf_label[x]]
            for c in kids:
                acc |= below[c]
            below[x] = acc
        return {view.parent_edge[x]: below[x] for x in view.order[1:] if view.children[x]}

    # ------------------------------------------------------------------
    # comparison and copying

    def canonical_equal(self, other: "Phylogeny", other_view: RootedView | None = None) -> bool:
        """Same taxa, same per-taxon leaf weights, same weighted splits.

        ``other_view``, when given, must be ``other.rooted_view()``.
        """
        if self.taxa() != other.taxa():
            return False
        if self.leaf_weight_map() != other.leaf_weight_map():
            return False
        return {b: self._wt[e] for e, b in self.split_bits().items()} == {
            b: other._wt[e] for e, b in other.split_bits(other_view).items()
        }

    def copy(self) -> "Phylogeny":
        """An independent copy, not re-validated: a copy of a valid tree is valid.

        The adjacency lists are rebuilt from the edge table in edge order, as
        :meth:`__init__` builds them, because move sequences name edges in
        the order ``adjacent_edges`` lists them.
        """
        out = Phylogeny.__new__(Phylogeny)
        out._ends = dict(self._ends)
        out._wt = dict(self._wt)
        out._adj = _adjacency(out._ends)
        out._leaf_label = dict(self._leaf_label)
        out._label_leaf = dict(self._label_leaf)
        out._internal_ws = None
        return out

    def __repr__(self) -> str:
        return f"Phylogeny(n_taxa={self.n_taxa}, edges={len(self._ends)})"


def _adjacency(ends: dict[int, tuple[int, int]]) -> dict[int, list[int]]:
    """Incident edges of every node, each list in the edge table's order."""
    adj: dict[int, list[int]] = {}
    for e, (u, v) in ends.items():
        adj.setdefault(u, []).append(e)
        adj.setdefault(v, []).append(e)
    return adj


def finiteness_check(a: Phylogeny, b: Phylogeny) -> tuple[bool, list[str]]:
    """Decide whether any NNI sequence can transform ``a`` into ``b``.

    The rearrangement moves subtrees but never changes which weight sits on
    which kind of edge, so a transformation exists only when per-taxon
    leaf-edge weights and the internal weight multisets both agree.  Returns
    (feasible, reasons) with one message per failed requirement.

    A taxon-set mismatch is a usage error, not an infinite distance, and
    raises TreeError.
    """
    if a.taxa() != b.taxa():
        only_a = set(a.taxa()) - set(b.taxa())
        only_b = set(b.taxa()) - set(a.taxa())
        raise TreeError(
            f"taxon sets differ (only first: {sorted(only_a)}, only second: {sorted(only_b)})"
        )
    reasons: list[str] = []
    wa, wb = a.leaf_weight_map(), b.leaf_weight_map()
    bad = sorted(s for s in wa if wa[s] != wb[s])
    if bad:
        reasons.append(f"leaf edge weights differ at taxa {bad}")
    if a.internal_weight_multiset() != b.internal_weight_multiset():
        reasons.append("internal edge weight multisets differ")
    return not reasons, reasons
