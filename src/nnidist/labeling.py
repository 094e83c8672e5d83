"""The paper's O(log n)-round good-pair labeling, on O(n log n) processors.

PAPER.md identifies good edge pairs in O(log n) parallel time.  Each tree
is augmented by subdividing every internal edge and hanging a pseudo-leaf
labeled with the edge weight's rank off the new node.  Two subdivision nodes
then cut identical taxa and weight partitions exactly when the leaf-label
multisets below them agree, and :func:`partition_labeling` gives nodes
across both trees equal integer labels if and only if their descendant
label multisets are equal.

The labeling is built label class by label class (a node's class count
suffices for a single class) and merged pairwise: every node of a contracted
union tree gets a two-component fingerprint (the largest label of each half
found below it, zero when that half is absent), fingerprints are radix
sorted, and each distinct fingerprint becomes a fresh dense label.  Labels
stay monotone along root paths, so "largest below" is the label of the
topmost labeled descendant and fingerprints capture exact contents.

No command runs this module: the pipeline, the bound and the exact search
read :mod:`nnidist.goodpairs`' exact keys, the same answer found sequentially.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from nnidist.phylo import Phylogeny, TreeError
from nnidist.runtime import ParRuntime, par_prefix_sums


@dataclass
class AugmentedTree:
    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    label: dict[int, str]              # leaf node -> label (taxon or weight class)
    subdivision_edge: dict[int, int]   # subdivision node -> source internal edge
    weight_leaf_edge: dict[int, int]   # weight leaf -> source internal edge
    pre: dict[int, int] = field(default_factory=dict)
    post: dict[int, int] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)
    euler: list[int] = field(default_factory=list)
    first: dict[int, int] = field(default_factory=dict)
    _table: list[list[int]] = field(default_factory=list)

    def _index(self) -> None:
        counter = 0
        post_counter = 0
        stack: list[tuple[int, int]] = [(self.root, 0)]
        self.depth[self.root] = 0
        while stack:
            node, child_pos = stack.pop()
            if child_pos == 0:
                self.pre[node] = counter
                counter += 1
                self.first[node] = len(self.euler)
            self.euler.append(node)
            kids = self.children.get(node, [])
            if child_pos < len(kids):
                stack.append((node, child_pos + 1))
                child = kids[child_pos]
                self.depth[child] = self.depth[node] + 1
                stack.append((child, 0))
            else:
                self.post[node] = post_counter
                post_counter += 1
        # sparse table of minimum-depth positions over the tour
        idx = list(range(len(self.euler)))
        self._table = [idx]
        span = 1
        while 2 * span <= len(self.euler):
            prev = self._table[-1]
            row = []
            for i in range(len(self.euler) - 2 * span + 1):
                a, b = prev[i], prev[i + span]
                row.append(a if self.depth[self.euler[a]] <= self.depth[self.euler[b]] else b)
            self._table.append(row)
            span *= 2

    def lca(self, u: int, v: int) -> int:
        lo, hi = sorted((self.first[u], self.first[v]))
        width = hi - lo + 1
        k = width.bit_length() - 1
        row = self._table[k]
        a, b = row[lo], row[hi - (1 << k) + 1]
        best = a if self.depth[self.euler[a]] <= self.depth[self.euler[b]] else b
        return self.euler[best]

    def is_leaf(self, v: int) -> bool:
        return v in self.label


def augment_and_root(tree: Phylogeny) -> AugmentedTree:
    """``tree``'s rooted view with every internal edge subdivided.

    The subdivision node of internal edge e sits on e, above the view's
    child c, with children ``[c, weight leaf]``; the weight leaf is labeled
    ``:w:r``, r being e's weight rank.  The i-th internal edge in id order
    gets subdivision node ``base + 2i`` and weight leaf ``base + 2i + 1``,
    ``base`` being one past the tree's largest node id.
    """
    order, parent_edge, children = tree.rooted_view()
    ranks = {w: r for r, w in enumerate(dict.fromkeys(tree.internal_weight_multiset()))}
    index = {e: i for i, e in enumerate(tree.internal_edges())}
    base = tree.max_node_id() + 1
    root = order[0]
    parent: dict[int, int | None] = {root: None}
    aug_children: dict[int, list[int]] = {}
    label: dict[int, str] = {}
    subdivision_edge: dict[int, int] = {}
    weight_leaf_edge: dict[int, int] = {}
    for x in order:
        if not children[x]:
            label[x] = tree.leaf_label(x)
            continue
        kids = aug_children[x] = []
        for c in children[x]:
            if children[c]:
                e = parent_edge[c]
                s = base + 2 * index[e]
                w = s + 1
                subdivision_edge[s] = weight_leaf_edge[w] = e
                aug_children[s] = [c, w]
                parent[c] = parent[w] = s
                label[w] = f":w:{ranks[tree.weight(e)]}"
                c = s  # the subdivision node hangs in c's place
            kids.append(c)
            parent[c] = x
    out = AugmentedTree(root, parent, aug_children, label, subdivision_edge, weight_leaf_edge)
    out._index()
    return out


@dataclass
class ContractedSubtree:
    nodes: list[int]              # in source preorder
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    leaves: list[int]
    root: int


def induced_subtree(aug: AugmentedTree, labels: set[str]) -> ContractedSubtree:
    """The subtree spanned by leaves with the given labels, chains contracted."""
    if not labels:
        raise TreeError("cannot induce a subtree on an empty label set")
    sel = sorted(
        (v for v, lab in aug.label.items() if lab in labels),
        key=lambda v: aug.pre[v],
    )
    if not sel:
        raise TreeError("no leaves carry the requested labels")
    picked = set(sel)
    for a, b in zip(sel, sel[1:]):
        picked.add(aug.lca(a, b))
    nodes = sorted(picked, key=lambda v: aug.pre[v])

    parent: dict[int, int | None] = {}
    stack: list[int] = []
    for x in nodes:
        while stack and not (
            aug.pre[stack[-1]] <= aug.pre[x] and aug.post[stack[-1]] >= aug.post[x]
        ):
            stack.pop()
        parent[x] = stack[-1] if stack else None
        stack.append(x)
    children: dict[int, list[int]] = {v: [] for v in nodes}
    for v in nodes:
        if parent[v] is not None:
            children[parent[v]].append(v)
    return ContractedSubtree(nodes, parent, children, sel, nodes[0])


@dataclass
class PartitionLabeling:
    rho: dict[int, int]     # first tree's contraction nodes -> label
    rho_p: dict[int, int]   # second tree's


def single_label_partition(ra: ContractedSubtree, rpa: ContractedSubtree) -> PartitionLabeling:
    """Descendant-leaf counts label a single-class contraction pair."""

    def counts(sub: ContractedSubtree) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in reversed(sub.nodes):
            kids = sub.children[v]
            out[v] = 1 if not kids else sum(out[c] for c in kids)
        return out

    return PartitionLabeling(counts(ra), counts(rpa))


def _subtree_max(
    sub: ContractedSubtree, init: dict[int, int], rt: ParRuntime
) -> dict[int, int]:
    """Max of initial values over each contraction subtree, by pointer jumping.

    Every node repeatedly pushes its running value to its jump target and the
    pointers double, so log-many two-phase rounds cover the whole subtree.
    """
    val = {v: init.get(v, 0) for v in sub.nodes}
    ptr = dict(sub.parent)
    while any(p is not None for p in ptr.values()):
        pushes = [(ptr[v], val[v]) for v in sub.nodes if ptr[v] is not None]
        rt.round("gep", pushes)
        received: dict[int, int] = {}
        for target, x in pushes:
            received[target] = max(received.get(target, 0), x)
        updates = {v: max(val[v], x) for v, x in received.items()}
        rt.round("gep", updates)
        val.update(updates)
        ptr = {v: (ptr[p] if p is not None else None) for v, p in ptr.items()}
    return val


def _radix_rank(items: list[tuple[int, int]], rt: ParRuntime) -> list[int]:
    """Dense ranks (from 1) of two-component fingerprints, radix style."""
    order = list(range(len(items)))
    for component in (1, 0):
        keys = sorted({items[i][component] for i in order})
        pos = {k: p for p, k in enumerate(keys)}
        counts = [0] * len(keys)
        for i in order:
            counts[pos[items[i][component]]] += 1
        offsets = [a - b for a, b in zip(par_prefix_sums(rt, "gep", counts), counts)]
        placed = [0] * len(order)
        slots = list(offsets)
        for i in order:
            b = pos[items[i][component]]
            placed[slots[b]] = i
            slots[b] += 1
        order = placed
    flags = [
        int(r == 0 or items[i] != items[order[r - 1]]) for r, i in enumerate(order)
    ]
    rt.round("gep", flags)
    running = par_prefix_sums(rt, "gep", flags)
    rank = [0] * len(items)
    for r, i in enumerate(order):
        rank[i] = running[r]
    return rank


def relabel_merge(
    rab: ContractedSubtree,
    rpab: ContractedSubtree,
    rho_a: PartitionLabeling,
    rho_b: PartitionLabeling,
    rt: ParRuntime | None = None,
) -> PartitionLabeling:
    """Combine two half labelings over the union contraction pair (phase ``gep``)."""
    rt = rt or ParRuntime()
    fingerprints: list[tuple[int, int]] = []
    owners: list[tuple[int, int]] = []
    for side, (sub, half_a, half_b) in enumerate(
        ((rab, rho_a.rho, rho_b.rho), (rpab, rho_a.rho_p, rho_b.rho_p))
    ):
        max_a = _subtree_max(sub, half_a, rt)
        max_b = _subtree_max(sub, half_b, rt)
        for v in sub.nodes:
            fingerprints.append((max_a[v], max_b[v]))
            owners.append((side, v))
    ranks = _radix_rank(fingerprints, rt)
    rho: dict[int, int] = {}
    rho_p: dict[int, int] = {}
    for (side, v), r in zip(owners, ranks):
        (rho if side == 0 else rho_p)[v] = r
    return PartitionLabeling(rho, rho_p)


def partition_labeling(
    aug1: AugmentedTree, aug2: AugmentedTree, rt: ParRuntime | None = None
) -> PartitionLabeling:
    """Joint labeling of both trees' nodes by descendant label multisets.

    Pairing up label sets counts as phase ``gep.pairing``, merging as ``gep``.
    """
    rt = rt or ParRuntime()
    if Counter(aug1.label.values()) != Counter(aug2.label.values()):
        raise TreeError("leaf label multisets differ between the trees")

    items = []
    for a in sorted(set(aug1.label.values())):
        ra = induced_subtree(aug1, {a})
        rpa = induced_subtree(aug2, {a})
        items.append((frozenset({a}), single_label_partition(ra, rpa)))

    while len(items) > 1:
        pairs = [(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        rt.round("gep.pairing", pairs)
        merged = []
        for (set_a, lab_a), (set_b, lab_b) in pairs:
            union = set_a | set_b
            rab = induced_subtree(aug1, set(union))
            rpab = induced_subtree(aug2, set(union))
            merged.append((union, relabel_merge(rab, rpab, lab_a, lab_b, rt)))
        if len(items) % 2:
            merged.append(items[-1])
        items = merged

    return items[0][1]
