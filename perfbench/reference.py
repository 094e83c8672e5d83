"""The benchmark's own tree arithmetic, independent of nnidist's code.

Everything the benchmark checks is computed here from Newick text or from a
plain edge table: splits as integer taxon bitsets, leaf weights, the
replay of an NNI sequence, and the good-pair key of every internal edge.
The only call into nnidist is reading a parsed tree's edge ids, endpoints,
weights and labels (:meth:`EdgeTable.from_phylogeny`), and the checks hold
that table against the Newick text.  Weights are exact `Fraction`s read
from the decimal text.
"""

from __future__ import annotations

from fractions import Fraction


class CheckError(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


def decimal(text: str) -> Fraction:
    """Exact value of a plain decimal such as ``7`` or ``0.25``."""
    whole, _, frac = text.partition(".")
    return Fraction(int((whole or "0") + frac), 10 ** len(frac))


class EdgeTable:
    """An unrooted tree as bare dicts: the structure a replay mutates."""

    def __init__(self, ends: dict[int, tuple[int, int]], weight: dict[int, Fraction],
                 label: dict[int, str]) -> None:
        self.ends = {e: list(uv) for e, uv in ends.items()}
        self.weight = dict(weight)
        self.label = dict(label)

    @classmethod
    def from_phylogeny(cls, tree) -> "EdgeTable":
        """Copy a parsed tree's edge ids, endpoints, weights and labels."""
        ends = {e: tree.endpoints(e) for e in tree.edge_ids()}
        label = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
        return cls(ends, {e: tree.weight(e) for e in ends}, label)

    def nni(self, e1: int, e2: int, e3: int) -> Fraction:
        """Swap the subtrees behind e1 and e3 across e2; return e2's weight."""
        if len({e1, e2, e3}) != 3 or not {e1, e2, e3} <= self.ends.keys():
            raise CheckError(f"({e1},{e2},{e3}) does not name three edges")
        u, v = self.ends[e2]
        if u not in self.ends[e1]:
            u, v = v, u
        if u not in self.ends[e1] or v in self.ends[e1] or v not in self.ends[e3] or u in self.ends[e3]:
            raise CheckError(f"({e1},{e2},{e3}) is not a path of edges")
        if u in self.label or v in self.label:
            raise CheckError(f"({e1},{e2},{e3}) operates on a leaf edge")
        for e, old, new in ((e1, u, v), (e3, v, u)):
            ends = self.ends[e]
            ends[ends.index(old)] = new
        return self.weight[e2]

    def shape(self, partitions: bool = False) -> "Shape":
        return Shape.of(self.ends, self.weight, self.label, partitions)


class Shape:
    """What makes two trees equal: taxa, leaf weights and weighted splits.

    A split is the bitset of the taxa on the side of an internal edge away
    from the smallest taxon, bit i standing for the i-th taxon in sorted order.
    With ``partitions``, ``away`` also keeps, per internal edge id, that
    bitset and the sorted ranks of the other internal weights on that side.
    """

    def __init__(self, taxa: tuple[str, ...], leaf_weight: dict[str, Fraction],
                 splits: dict[int, Fraction], internal_weight: dict[int, Fraction],
                 away: dict[int, tuple[int, tuple[int, ...]]]) -> None:
        self.taxa = taxa
        self.leaf_weight = leaf_weight
        self.splits = splits
        self.internal_weight = internal_weight
        self.away = away

    @property
    def w(self) -> Fraction:
        return sum(self.internal_weight.values(), Fraction(0))

    def same_tree(self, other: "Shape") -> bool:
        return (self.taxa == other.taxa and self.leaf_weight == other.leaf_weight
                and self.splits == other.splits)

    def pair_keys(self) -> dict[tuple, int]:
        """Good-pair key -> internal edge id.

        Removing edge e leaves two parts.  The key holds e's weight, the taxa
        of the part without the smallest taxon, and the internal weights
        other than e's in that part; equal keys in two trees with equal
        weight multisets mean an equal partition of taxa and of weights.
        """
        return {(self.internal_weight[e], taxa, ranks): e for e, (taxa, ranks) in self.away.items()}

    @classmethod
    def of(cls, ends, weight, label, partitions: bool = False) -> "Shape":
        taxa = tuple(sorted(label.values()))
        bit = {t: 1 << i for i, t in enumerate(taxa)}
        adj: dict[int, list[int]] = {}
        for e, (u, v) in ends.items():
            adj.setdefault(u, []).append(e)
            adj.setdefault(v, []).append(e)
        anchor = next(v for v, t in label.items() if t == taxa[0])
        # breadth-first order from the anchor leaf, swept backwards:
        # the part below edge e is the part that removing e cuts off
        order, parent = [anchor], {anchor: None}
        for x in order:
            for e in adj[x]:
                u, v = ends[e]
                y = v if x == u else u
                if y not in parent:
                    parent[y] = e
                    order.append(y)
        if len(order) != len(adj) or len(ends) != len(adj) - 1:
            raise CheckError("edge table is not a tree")
        rank = {w: i for i, w in enumerate(sorted(
            {weight[e] for e, (u, v) in ends.items() if u not in label and v not in label}))}
        below_taxa: dict[int, int] = {}
        below_ranks: dict[int, tuple[int, ...]] = {}   # e's own weight included
        splits: dict[int, Fraction] = {}
        internal_weight: dict[int, Fraction] = {}
        away: dict[int, tuple[int, tuple[int, ...]]] = {}
        leaf_weight = {taxa[0]: weight[adj[anchor][0]]}
        for x in reversed(order[1:]):
            e = parent[x]
            if x in label:
                if len(adj[x]) != 1:
                    raise CheckError(f"labelled node {x} is not a leaf")
                below_taxa[e] = bit[label[x]]
                below_ranks[e] = ()
                leaf_weight[label[x]] = weight[e]
                continue
            if len(adj[x]) != 3:
                raise CheckError(f"internal node {x} has degree {len(adj[x])}")
            f, g = (f for f in adj[x] if f != e)
            below_taxa[e] = taxa_x = below_taxa[f] | below_taxa[g]
            if e == adj[anchor][0]:
                continue   # the anchor's leaf edge
            splits[taxa_x] = internal_weight[e] = weight[e]
            if partitions:
                ranks = tuple(sorted(below_ranks[f] + below_ranks[g]))
                away[e] = (taxa_x, ranks)
                below_ranks[e] = tuple(sorted(ranks + (rank[weight[e]],)))
        return cls(taxa, leaf_weight, splits, internal_weight, away)


def newick_shape(text: str) -> Shape:
    """Read Newick text without recursion and return its :class:`Shape`.

    A root with two children is a subdivision point and is suppressed, as
    the dialect prescribes, by joining its two edges into one.
    """
    ends: dict[int, tuple[int, int]] = {}
    weight: dict[int, Fraction] = {}
    label: dict[int, str] = {}
    stack: list[int] = []  # open nodes, the root (node 0) at the bottom
    last = None            # node just closed or read, waiting for its ':length'
    nodes = 0
    i, end = 0, text.rindex(";")
    while i < end:
        c = text[i]
        if c == "(":
            stack.append(nodes)
            nodes += 1
            i += 1
        elif c == ")":
            last = stack.pop() if len(stack) > 1 else None
            i += 1
        elif c == ",":
            i += 1
        elif c == ":":
            j = i + 1
            while j < end and text[j] not in ",)":
                j += 1
            ends[len(ends)] = (stack[-1], last)
            weight[len(weight)] = decimal(text[i + 1:j].strip())
            i = j
        elif c.isspace():
            i += 1
        else:
            j = i
            while text[j] not in ":,();" and not text[j].isspace():
                j += 1
            label[nodes] = text[i:j]
            last = nodes
            nodes += 1
            i = j
    at_root = [e for e, (u, _) in ends.items() if u == 0]
    if len(at_root) == 2:
        (e, f) = at_root
        ends[e] = (ends[e][1], ends[f][1])
        weight[e] += weight.pop(f)
        del ends[f]
    return Shape.of(ends, weight, label)


def replay(table: EdgeTable, sequence) -> list[Fraction]:
    """Apply every operation to ``table`` in place; the middle-edge weights."""
    costs = []
    for i, op in enumerate(sequence):
        try:
            costs.append(table.nni(op.e1, op.e2, op.e3))
        except CheckError as exc:
            raise CheckError(f"operation {i}: {exc}") from None
    return costs


def good_pairs(s1: Shape, s2: Shape) -> set[tuple[int, int]]:
    """Every good pair of the two trees, from the definition.

    Both shapes need ``partitions``; weight ranks agree between the trees
    because their internal weight multisets must.
    """
    if sorted(s1.internal_weight.values()) != sorted(s2.internal_weight.values()):
        raise CheckError("the trees' internal weight multisets differ")
    k2 = s2.pair_keys()
    return {(e1, k2[key]) for key, e1 in s1.pair_keys().items() if key in k2}
