"""Independent reference implementations the tests compare against.

Everything here is written the slow, obvious way (edge removal, BFS, brute
force) and shares no code with the package internals it checks.  Two
exceptions: the swap-by-swap leaf sort, :func:`sort_leaves_by_swaps`,
applies and checks each swap on the tree with ``nni.move`` as it goes,
where ``leafsort`` plans every swap on a table first, and it shares the
leaf matching, which it does not check; and the character-by-character
Newick reader, :func:`parse_by_characters`, shares ``newick``'s length
parsing and formatting and builds through the validating constructor.
Some are the package's own earlier code, kept as the reference for a
faster rewrite: the flat leaf-sort signatures (:func:`ranked_view_flat`),
the split-map tree comparison (:func:`canonical_equal_by_splits`), the
move-key kernels that read a move's two parts per call (:func:`moved_key`
and :func:`helped_keys`), which share ``goodpairs.part`` and
``goodpairs.joined_key``, the one key arithmetic that the search kernel
inlines, the exact search over rooted-view key passes
(:func:`search_by_view`), and the pairing pass that judges every unpaired
edge on a fresh walk each round (:func:`pairing_pass_by_full_rounds`); the
last two share that arithmetic and the sides pass.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction

from nnidist.leafsort import leaf_permutation
from nnidist.newick import ParseError, format_weight, parse_weight
from nnidist.nni import NniOp, _parse_records, _trace_body, move
from nnidist.phylo import Phylogeny, TreeError


def leaf_edges(tree: Phylogeny) -> list[int]:
    """Every edge of ``tree`` that ends at a leaf, in edge-id order."""
    return [e for e in tree.edge_ids() if tree.is_edge_leaf(e)]


def leaf_edge_of(tree: Phylogeny, label: str) -> int:
    """The unique edge incident to the leaf carrying ``label``."""
    return tree._adj[tree._label_leaf[label]][0]


def read_trace(path) -> tuple[dict, list[NniOp]]:
    """Load a trace file; returns (header, operations). Structural checks only."""
    header, lines, start = _trace_body(path)
    return header, [NniOp(*rec[:3]) for rec in _parse_records(lines, start)]


def random_phylogeny(
    rng: random.Random,
    n: int,
    weights: str = "distinct",
) -> Phylogeny:
    """Random topology by attaching leaves to random edges one at a time.

    ``weights`` picks the weight style: "distinct" draws without repeats,
    "small" draws integers 1..4 so collisions are common.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if weights == "distinct":
        pool = rng.sample(range(1, 10 * (2 * n) + 1), 2 * n)
    else:
        pool = [rng.randint(1, 4) for _ in range(2 * n)]
    draw = iter(pool)
    labels = [f"t{i:03d}" for i in range(n)]
    edges: dict[int, tuple[int, int]] = {}
    wts: dict[int, Fraction] = {}
    center = 0
    node_count = 1
    edge_count = 0
    leaf_nodes = {}
    for i in range(3):
        leaf = node_count
        node_count += 1
        edges[edge_count] = (center, leaf)
        wts[edge_count] = Fraction(next(draw))
        leaf_nodes[labels[i]] = leaf
        edge_count += 1
    for i in range(3, n):
        target = rng.choice(sorted(edges))
        u, v = edges[target]
        mid = node_count
        node_count += 1
        leaf = node_count
        node_count += 1
        edges[target] = (u, mid)
        edges[edge_count] = (mid, v)
        wts[edge_count] = Fraction(next(draw))
        edge_count += 1
        edges[edge_count] = (mid, leaf)
        wts[edge_count] = Fraction(next(draw))
        leaf_nodes[labels[i]] = leaf
        edge_count += 1
    return Phylogeny(edges, wts, {v: s for s, v in leaf_nodes.items()})


def caterpillar(n: int, internal_weights=None) -> Phylogeny:
    """Linear tree: spine s_0..s_{n-3}, one leaf per spine node, two at each end.

    Internal edge i (between s_i and s_{i+1}) gets weight internal_weights[i],
    defaulting to i+1.  Leaf edges all weigh 1.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    spine = list(range(n - 2))
    edges: dict[int, tuple[int, int]] = {}
    wts: dict[int, Fraction] = {}
    labels: dict[int, str] = {}
    next_node = n - 2
    next_edge = 0
    if internal_weights is None:
        internal_weights = [i + 1 for i in range(n - 3)]
    for i in range(n - 3):
        edges[next_edge] = (spine[i], spine[i + 1])
        wts[next_edge] = Fraction(internal_weights[i])
        next_edge += 1

    def hang(node, tag):
        nonlocal next_node, next_edge
        edges[next_edge] = (node, next_node)
        wts[next_edge] = Fraction(1)
        labels[next_node] = tag
        next_node += 1
        next_edge += 1

    hang(spine[0], "t000")
    for i, s in enumerate(spine):
        hang(s, f"t{i + 1:03d}")
    hang(spine[-1], f"t{n - 1:03d}")
    return Phylogeny(edges, wts, labels)


def classify_by_leaf_count(tree: Phylogeny) -> dict[int, str]:
    """Node class names derived directly from adjacency."""
    out = {}
    for x in tree.nodes():
        if tree.is_leaf(x):
            continue
        k = sum(
            1 for e in tree.adjacent_edges(x) if tree.is_leaf(tree.other_end(e, x))
        )
        out[x] = "endnode" if k >= 2 else ("pathnode" if k == 1 else "junction")
    return out


def sides_by_removal(tree: Phylogeny, e: int) -> tuple[set[str], set[str]]:
    """Taxa on each side of edge ``e``, found by BFS that never crosses it."""

    def reach(start: int) -> set[str]:
        seen = {start}
        queue = [start]
        taxa = set()
        while queue:
            x = queue.pop()
            if tree.is_leaf(x):
                taxa.add(tree.leaf_label(x))
            for f in tree.adjacent_edges(x):
                if f == e:
                    continue
                y = tree.other_end(f, x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return taxa
    u, v = tree.endpoints(e)
    return reach(u), reach(v)


def splits_by_removal(tree: Phylogeny) -> dict[int, frozenset[str]]:
    """Away-side taxon set per internal edge, via explicit edge removal."""
    smallest = min(tree.taxa())
    out = {}
    for e in tree.internal_edges():
        a, b = sides_by_removal(tree, e)
        out[e] = frozenset(b if smallest in a else a)
    return out


def weight_partition_by_removal(tree: Phylogeny, e: int):
    """(away, near) internal weight multisets around ``e``, own weight dropped."""
    smallest = min(tree.taxa())
    u, v = tree.endpoints(e)
    a, _ = sides_by_removal(tree, e)
    near_node, away_node = (u, v) if smallest in a else (v, u)

    def side_weights(start: int) -> list[Fraction]:
        seen = {start}
        queue = [start]
        acc = []
        while queue:
            x = queue.pop()
            for f in tree.adjacent_edges(x):
                if f == e:
                    continue
                y = tree.other_end(f, x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
                    if not tree.is_edge_leaf(f):
                        acc.append(tree.weight(f))
        return acc

    return tuple(sorted(side_weights(away_node))), tuple(sorted(side_weights(near_node)))


def weighted_splits(tree: Phylogeny) -> dict[frozenset[str], Fraction]:
    """Away-side taxon set of each internal edge -> its weight, via edge removal."""
    return {side: tree.weight(e) for e, side in splits_by_removal(tree).items()}


def good_pair_oracle(t1: Phylogeny, t2: Phylogeny) -> list[tuple[int, int]]:
    """Quadratic reference: test every edge pair against the definition."""

    def keys(tree: Phylogeny) -> dict[int, tuple]:
        splits = splits_by_removal(tree)
        return {
            e: (tree.weight(e), splits[e], weight_partition_by_removal(tree, e))
            for e in tree.internal_edges()
        }

    k1, k2 = keys(t1), keys(t2)
    return [
        (e1, e2)
        for e1 in t1.internal_edges()
        for e2 in t2.internal_edges()
        if k1[e1] == k2[e2]
    ]


def cut_components_by_validation(tree: Phylogeny, cuts: dict[int, int]) -> list[Phylogeny]:
    """Split at the cut edges through the public API, validating every part.

    The former body of ``goodpairs._cut_components``: one walk per
    component, from its smallest node id, collects its nodes' labels and
    its edges; cut edge e ends at pseudo-leaf ``base + cuts[e]``, and each
    part is built by the validating constructor.
    """
    base = tree.max_node_id() + 1
    seen: set[int] = set()
    built: list[Phylogeny] = []
    for start in tree.nodes():
        if start in seen:
            continue
        stack = [start]
        edges: dict[int, tuple[int, int]] = {}
        labels: dict[int, str] = {}
        while stack:
            u = stack.pop()
            seen.add(u)
            if tree.is_leaf(u):
                labels[u] = tree.leaf_label(u)
            for e in tree.adjacent_edges(u):
                if e in cuts:
                    edges[e] = (u, base + cuts[e])
                    labels[base + cuts[e]] = f":cut:{cuts[e]}:"
                elif e not in edges:  # a tree: the far end is new
                    edges[e] = tree.endpoints(e)
                    stack.append(tree.other_end(e, u))
        order = sorted(edges)
        built.append(Phylogeny(
            {e: edges[e] for e in order}, {e: tree.weight(e) for e in order}, labels
        ))
    return built


def renumbered(tree: Phylogeny, rng: random.Random) -> Phylogeny:
    """The same phylogeny rebuilt with shuffled node and edge ids."""
    nodes = tree.nodes()
    node_map = dict(zip(nodes, rng.sample(range(100, 100 + len(nodes)), len(nodes))))
    eids = tree.edge_ids()
    edge_map = dict(zip(eids, rng.sample(range(500, 500 + len(eids)), len(eids))))
    edges = {edge_map[e]: tuple(node_map[x] for x in tree.endpoints(e)) for e in eids}
    weights = {edge_map[e]: tree.weight(e) for e in eids}
    labels = {node_map[tree.leaf_node(s)]: s for s in tree.taxa()}
    return Phylogeny(edges, weights, labels)


def trees_equal_by_splits(a: Phylogeny, b: Phylogeny) -> bool:
    """Equality through removal-based splits plus leaf weights."""
    if a.taxa() != b.taxa():
        return False
    if a.leaf_weight_map() != b.leaf_weight_map():
        return False
    return weighted_splits(a) == weighted_splits(b)


def path_between(tree: Phylogeny, a: int, b: int) -> list[int]:
    """Edge ids along the unique a-b path."""
    prev = {a: (None, None)}
    queue = [a]
    while queue:
        x = queue.pop(0)
        if x == b:
            break
        for e in tree.adjacent_edges(x):
            y = tree.other_end(e, x)
            if y not in prev:
                prev[y] = (x, e)
                queue.append(y)
    path = []
    x = b
    while x != a:
        x, e = prev[x]
        path.append(e)
    return list(reversed(path))


def nested_signatures(tree: Phylogeny, root: int):
    """Children ranked on nested ``(weight, shape)`` signatures, by recursion.

    Hangs the tree from ``root``.  A leaf's signature is ``(0, (0,))``; an
    internal node's is ``(weight of its edge toward the root, (1, *its ranked
    children's signatures))``, with weight 0 at the root.  Children are
    sorted by smallest taxon below, then (stably) by size descending and
    signature.  Returns ``(ranked children, signature)`` per node.
    """
    ranked: dict[int, list[int]] = {}
    sig: dict[int, tuple] = {}

    def visit(node, via):  # -> (size, smallest taxon)
        if tree.is_leaf(node):
            ranked[node] = []
            sig[node] = (Fraction(0), (0,))
            return 1, tree.leaf_label(node)
        kids = []
        for e in tree.adjacent_edges(node):
            if e != via:
                child = tree.other_end(e, node)
                kids.append((child, *visit(child, e)))
        kids.sort(key=lambda k: k[2])
        kids.sort(key=lambda k: (-k[1], sig[k[0]]))
        ranked[node] = [k[0] for k in kids]
        weight = Fraction(0) if via is None else tree.weight(via)
        sig[node] = (weight, (1, *(sig[k[0]] for k in kids)))
        return sum(k[1] for k in kids), min(k[2] for k in kids)

    visit(root, None)
    return ranked, sig


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

def sort_leaves_by_swaps(
    source: Phylogeny,
    target: Phylogeny,
    source_root: int | None = None,
    target_root: int | None = None,
) -> tuple[list[NniOp], Phylogeny, int]:
    """The leaf sort applied swap by swap; returns (moves, end tree, cycles).

    Every move is applied as it is made and every swap checks its own
    outcome (see :func:`swap_leaves`); nothing is shortened.
    """
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

    up = work.rooted_view().parent_edge
    ops: list[NniOp] = []
    for taxa in cycles:
        carry = taxa[0]
        for other in taxa[1:]:
            ops += swap_leaves(work, carry, other, up)
            carry = other

    if not work.canonical_equal(target):
        raise TreeError("leaf sort failed to reach the target arrangement")
    return ops, work, len(cycles)


def walk_up_oracle(tree: Phylogeny):
    """Sequential reference for the pointer-jumping walks.

    For every non-root node: walk its path to the root until the next node
    is a junction, an endnode, or the root; report (next, head, dist, length,
    path).
    """
    from nnidist.phylo import NodeClass

    root_leaf = tree.leaf_node(min(tree.taxa()))
    root = tree.other_end(tree.adjacent_edges(root_leaf)[0], root_leaf)
    classes = tree.classify_nodes()

    def stops(x):
        return x == root or classes.get(x) != NodeClass.PATHNODE

    out = {}
    for v in tree.nodes():
        if v == root:
            continue
        path = []
        dist = Fraction(0)
        head = v
        x = v
        for e in path_between(tree, v, root):
            path.append(e)
            dist += tree.weight(e)
            up = tree.other_end(e, x)
            if stops(up):
                out[v] = (up, head, dist, len(path), tuple(path))
                break
            head = up
            x = up
    return out


def pointer_jumping_oracle(tree: Phylogeny):
    """Terminals by simulated pointer jumping, and the rounds that records.

    The jump loop that ``linearize.endnode_paths`` ran before it read its
    rounds off the hop distances: every non-root node points at its parent
    in the rooted view, then, round by round, every node whose pointer is
    not yet a terminal (a junction, an endnode or the root) replaces it by
    its pointer's pointer.  Returns (the terminal of every non-root node,
    the ``ParRuntime.snapshot()`` of the rounds, phase ``linearize.paths``).
    """
    from nnidist.phylo import NodeClass
    from nnidist.runtime import ParRuntime

    rt = ParRuntime()
    classes = tree.classify_nodes()
    order, parent_edge, _ = tree.rooted_view()
    terminal = {x for x, c in classes.items() if c is not NodeClass.PATHNODE}
    terminal.add(order[0])

    ends = tree._ends
    nxt = {}
    for v in order[1:]:
        a, b = ends[parent_edge[v]]
        nxt[v] = b if a == v else a
    rt.round("linearize.paths", nxt)

    # a node whose pointer reaches a terminal is settled for good, so each
    # round visits only the nodes that still jump
    active = [v for v, u in nxt.items() if u not in terminal]
    while active:
        jumps = {v: nxt[nxt[v]] for v in active}
        rt.round("linearize.paths", jumps)
        nxt.update(jumps)
        active = [v for v in active if nxt[v] not in terminal]
    return nxt, rt.snapshot()


def linearize_by_fraction_sums(tree: Phylogeny):
    """Reference linearize: the same splices, chain weights summed as Fractions.

    Per iteration every endnode walks up to its terminal (``walk_up_oracle``,
    whose chain weight is a ``Fraction`` sum); each junction keeps its
    lightest endnode chain, ties going to the smaller endnode id; all
    splices are planned on the tree as it stands and then applied, junctions
    in id order.  A splice hangs the leaf of smallest id at each chain node,
    from the junction down, over the junction's third edge.  Returns the
    moves.
    """
    from nnidist.nni import NniOp, apply_nni

    work = tree.copy()
    ops = []
    while True:
        classes = classify_by_leaf_count(work)
        junctions = {x for x, c in classes.items() if c == "junction"}
        if not junctions:
            return ops
        walks = walk_up_oracle(work)
        best = {}
        for E in sorted(x for x, c in classes.items() if c == "endnode"):
            if E not in walks or walks[E][0] not in junctions:
                continue
            J, _, dist, _, path = walks[E]
            if J not in best or (dist, E) < best[J][:2]:
                best[J] = (dist, E, path)
        plans = []
        for J in sorted(best):
            chain = list(reversed(best[J][2]))
            up = walks[J][4][0]  # J is not the root: the root has a leaf
            (e_x,) = [e for e in work.adjacent_edges(J) if e not in (chain[0], up)]
            node = J
            for e in chain:
                node = work.other_end(e, node)
                low = min(
                    (work.other_end(f, node), f)
                    for f in work.adjacent_edges(node)
                    if work.is_leaf(work.other_end(f, node))
                )[1]
                plans.append(NniOp(low, e, e_x))
        for op in plans:
            apply_nni(work, op)
        ops += plans


def random_valid_op(rng: random.Random, tree: Phylogeny):
    """A uniformly chosen well-formed operation (for apply/invert tests)."""
    from nnidist.nni import NniOp

    e2 = rng.choice(tree.internal_edges())
    u, v = tree.endpoints(e2)
    e1 = rng.choice([e for e in tree.adjacent_edges(u) if e != e2])
    e3 = rng.choice([e for e in tree.adjacent_edges(v) if e != e2])
    return NniOp(e1, e2, e3)


def nni_by_rebuild(tree: Phylogeny, e1: int, e2: int, e3: int) -> Phylogeny | None:
    """The tree after the move (e1, e2, e3), built from scratch; None if no move.

    The move exists when the three ids are distinct edges of ``tree``, e1
    meets e2 at one end of e2 only and e3 meets it at the other end only.
    e1 then trades its shared end for e3's and vice versa.
    """
    ends = {e: tree.endpoints(e) for e in tree.edge_ids()}
    if len({e1, e2, e3}) != 3 or not {e1, e2, e3} <= set(ends):
        return None
    at1 = set(ends[e1]) & set(ends[e2])
    at3 = set(ends[e3]) & set(ends[e2])
    if len(at1) != 1 or len(at3) != 1 or at1 == at3:
        return None
    (x,), (y,) = at1, at3
    (far1,) = set(ends[e1]) - {x}
    (far3,) = set(ends[e3]) - {y}
    ends[e1] = (far1, y)
    ends[e3] = (far3, x)
    return Phylogeny(
        ends,
        {e: tree.weight(e) for e in ends},
        {tree.leaf_node(s): s for s in tree.taxa()},
    )


def uniform_cost_distance(t1: Phylogeny, t2: Phylogeny):
    """Exact (distance, witness) by plain uniform-cost search, no heuristic.

    States are the weighted split sets found by explicit edge removal (leaf
    weights never change), so any positive ``Fraction`` weight works, not
    only those a Newick decimal can spell; every internal edge offers its
    two distinct swaps.  Returns None when the search space runs out.
    """
    from nnidist.nni import NniOp, apply_nni

    def state(tree: Phylogeny) -> frozenset:
        return frozenset((s, tree.weight(e)) for e, s in splits_by_removal(tree).items())

    goal = state(t2)
    start = state(t1)
    counter = itertools.count()
    frontier = [(Fraction(0), next(counter), start, t1)]
    best = {start: Fraction(0)}
    via = {}
    settled = set()
    while frontier:
        cost, _, key, tree = heapq.heappop(frontier)
        if key in settled:
            continue
        settled.add(key)
        if key == goal:
            ops = []
            while key != start:
                key, op = via[key]
                ops.append(op)
            return cost, ops[::-1]
        for e2 in tree.internal_edges():
            u, v = tree.endpoints(e2)
            a1 = min(e for e in tree.adjacent_edges(u) if e != e2)
            for e3 in sorted(e for e in tree.adjacent_edges(v) if e != e2):
                op = NniOp(a1, e2, e3)
                nxt = tree.copy()
                ncost = cost + apply_nni(nxt, op)
                nkey = state(nxt)
                if nkey not in best or ncost < best[nkey]:
                    best[nkey] = ncost
                    via[nkey] = (key, op)
                    heapq.heappush(frontier, (ncost, next(counter), nkey, nxt))
    return None


def trace_lines_by_json(source: Phylogeny, target: Phylogeny, ops) -> list[str]:
    """A trace's lines, each record one ``json.dumps`` call.

    The reference for ``trace_lines``' fixed record spelling; the middle
    edges' endpoints are read off the package's own replay.
    """
    import hashlib
    import json

    from nnidist import newick
    from nnidist.nni import replay

    def digest(tree: Phylogeny) -> str:
        return hashlib.sha256(newick.serialize(tree).encode()).hexdigest()

    header = {"kind": "nni-trace", "format": 1, "source": digest(source),
              "target": digest(target), "ops": len(ops)}
    lines = [json.dumps(header)]
    for op, u, v in replay(source.copy(), ops, target):
        w = newick.format_weight(source.weight(op.e2))
        lines.append(json.dumps({"e1": op.e1, "e2": op.e2, "e3": op.e3, "w": w, "u": u, "v": v}))
    return lines


def parse_records_by_json(body: list[tuple[int, str]]):
    """Numbered record lines parsed by ``json.loads`` alone, one at a time.

    The reference for ``nni._parse_records``: yields (e1, e2, e3, u, v, w)
    per line and raises ``TraceError`` with the same reasons.
    """
    import json

    from nnidist import newick
    from nnidist.nni import TraceError

    weights: dict[str, Fraction] = {}
    for k, line in body:
        try:
            rec = json.loads(line)
            e1, e2, e3, u, v, w = rec["e1"], rec["e2"], rec["e3"], rec["u"], rec["v"], rec["w"]
            if not type(e1) is type(e2) is type(e3) is type(u) is type(v) is int:
                raise TypeError("edge and node ids must be integers")
            if not isinstance(w, str):
                raise TypeError(f"cost {w!r} is not a decimal string")
            value = weights.get(w)
            if value is None:
                value = weights[w] = newick.parse_weight(w)
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TraceError(f"line {k}: bad operation record: {exc}") from exc
        yield (e1, e2, e3, u, v, value)


_STRUCTURAL = set("():,;")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.edges: dict[int, tuple[int, int]] = {}
        self.weights: dict[int, Fraction] = {}
        self.labels: dict[int, str] = {}
        self.next_node = 0
        self.next_edge = 0

    def error(self, message: str) -> ParseError:
        return ParseError(self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def new_node(self) -> int:
        v = self.next_node
        self.next_node += 1
        return v

    def add_edge(self, u: int, v: int, w: Fraction) -> int:
        e = self.next_edge
        self.next_edge += 1
        self.edges[e] = (u, v)
        self.weights[e] = w
        return e

    def read_label(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in _STRUCTURAL or c.isspace():
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a taxon label or '('")
        return self.text[start:self.pos]

    def read_weight(self) -> Fraction:
        self.skip_ws()
        self.expect(":")
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        return parse_weight(self.text[start:self.pos], start)

    def read_nodes(self) -> int:
        """Read the parenthesized tree, without recursion; returns the root's child count.

        Nodes are numbered in preorder and edges as their branch lengths are
        read.  Open nodes sit on a stack as [parent, node, children read];
        the root, node 0, has no parent and takes any number of children.
        """
        self.skip_ws()
        self.expect("(")
        stack: list[list] = [[None, self.new_node(), 0]]
        while True:
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                stack.append([stack[-1][1], self.new_node(), 0])
                continue
            node = self.new_node()
            self.labels[node] = self.read_label()
            self.add_edge(stack[-1][1], node, self.read_weight())
            while True:
                frame = stack[-1]
                frame[2] += 1
                self.skip_ws()
                if frame[0] is not None and frame[2] == 1:
                    self.expect(",")
                    break
                if self.peek() == ",":
                    if frame[0] is not None:
                        raise self.error("internal nodes take exactly two children")
                    self.pos += 1
                    break
                self.expect(")")
                stack.pop()
                if not stack:
                    return frame[2]
                self.add_edge(frame[0], frame[1], self.read_weight())

    def parse(self) -> Phylogeny:
        children = self.read_nodes()
        if children not in (2, 3):
            raise self.error(f"root has {children} children, expected 2 or 3")
        self.skip_ws()
        self.expect(";")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters after ';'")
        if children == 2:
            self._suppress_root()
        dup = len(self.labels) - len(set(self.labels.values()))
        if dup:
            raise self.error(f"{dup} duplicate taxon label(s)")
        try:
            return Phylogeny(self.edges, self.weights, self.labels)
        except TreeError as exc:
            raise ParseError(self.pos, f"not a valid phylogeny: {exc}") from exc

    def _suppress_root(self) -> None:
        # edges are stored (parent, child), so the root's two are those from node 0
        (e1, (_, a)), (e2, (_, b)) = [(e, uv) for e, uv in self.edges.items() if uv[0] == 0]
        w = self.weights.pop(e1) + self.weights.pop(e2)
        # the sum may have more digits than either term; it must read back
        # like any other length, or a trace of this tree could not be checked
        parse_weight(format_weight(w), self.pos)
        del self.edges[e1], self.edges[e2]
        self.add_edge(a, b, w)


def parse_by_characters(text: str) -> Phylogeny:
    """One Newick document read one character at a time.

    The reference for ``newick.parse``: the same node and edge numbering,
    the same tables, and a ``ParseError`` for the same inputs.
    """
    return _Parser(text).parse()


def ranked_view_flat(
    tree: Phylogeny, root: int | None, rank: dict[Fraction, int]
) -> tuple[int, dict[int, list[int]], dict[int, tuple[int, ...]]]:
    """Root, ranked children and flat signature of each node of the rooted view.

    The leaf sort's ranking before its signatures were interned.  A leaf's
    signature is ``(0,)``, with no weight, so that child order does not
    depend on which taxon sits where.  An internal node's is the rank of
    its parent edge's weight (``rank`` is increasing and >= 1; the root
    takes 0) followed by its ranked children's.  Every node below the root
    has two children, so the encoding is prefix-free: signatures compare as
    the nested ``(weight, shape)`` tuples they spell, and k leaves take
    2k - 1 ints.  Children are ranked by size, then signature; the sort is
    stable, so interchangeable siblings keep the view's order by smallest
    taxon.
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


def split_bits(tree: Phylogeny) -> dict[int, int]:
    """Away-side taxa of each internal edge as a bitset, from one post-order pass.

    Bit i stands for the i-th taxon in sorted order.  The away side is the
    side without the smallest taxon.
    """
    order, parent_edge, children = tree.rooted_view()
    bit = {t: 1 << i for i, t in enumerate(sorted(tree._label_leaf))}
    below: dict[int, int] = {}
    for x in reversed(order):
        kids = children[x]
        acc = 0 if kids else bit[tree._leaf_label[x]]
        for c in kids:
            acc |= below[c]
        below[x] = acc
    return {parent_edge[x]: below[x] for x in order[1:] if children[x]}


def canonical_equal_by_splits(a: Phylogeny, b: Phylogeny) -> bool:
    """Same taxa, same per-taxon leaf weights, same weighted splits, compared as maps.

    ``Phylogeny.canonical_equal`` before it walked the two views in step.
    """
    if a.taxa() != b.taxa():
        return False
    if a.leaf_weight_map() != b.leaf_weight_map():
        return False
    return {bits: a._wt[e] for e, bits in split_bits(a).items()} == {
        bits: b._wt[e] for e, bits in split_bits(b).items()
    }


def moved_key(tree: Phylogeny, sides, e1: int, e2: int, e3: int) -> tuple[int, int, int]:
    """e2's key after the move (e1, e2, e3), from two parts of ``sides`` of ``tree`` before it.

    The move carries e1 from e2's end u to its end v and e3 the other way,
    so afterwards e2's side at u is what lay beyond u's third edge b, seen
    from u, and what lay beyond e3, seen from v: two parts
    (``goodpairs.part``), joined into e2's key by ``goodpairs.joined_key``.
    """
    from nnidist.goodpairs import joined_key, part

    ends, adj = tree._ends, tree._adj
    u, v = ends[e2]
    if v in ends[e1]:
        u, v = v, u
    (b,) = [g for g in adj[u] if g != e1 and g != e2]
    return joined_key(sides, e2, part(ends, sides, u, b), part(ends, sides, v, e3))


def helped_keys(tree: Phylogeny, sides, e: int, f: int) -> list[tuple[int, int, tuple]]:
    """e's key after a helper move on f and a pairing move on e, for each of the four pairs.

    e = (p, q) and f = (p, x) are internal edges of ``tree`` that meet at
    p, and ``sides`` is the sides of ``tree`` before either move.  Call B
    p's third edge.  The helper move (B, f, xi) swaps B with one of x's
    other edges xi, and the pairing move (f, e, qj) then swaps f with one
    of q's other edges qj, so e's side at p becomes part(x, xi) ∪
    part(q, qj).  Returns (xi, qj, key) for xi and qj each in edge-id order.
    """
    from nnidist.goodpairs import joined_key, part

    ends, adj = tree._ends, tree._adj
    p, q = ends[e]
    c, x = ends[f]
    if p != c and p != x:
        p, q = q, p
    if x == p:
        x = c
    return [(xi, qj, joined_key(sides, e, part(ends, sides, x, xi), part(ends, sides, q, qj)))
            for xi in sorted(adj[x]) if xi != f
            for qj in sorted(adj[q]) if qj != e]


class SearchTableByView:
    """The exact search's tables from one ``PairBound`` of tree 2 and its view passes.

    ``exact.SearchTable`` before its key passes walked the edge table; the
    reference that :func:`neighbors_by_view` and :func:`search_by_view`
    read.
    """

    def __init__(self, t1: Phylogeny, t2: Phylogeny) -> None:
        import math

        from nnidist.goodpairs import PairBound

        self.bound = bound = PairBound(t2)
        internal = t1.internal_edges()
        self.scale = math.lcm(*(t1.weight(e).denominator for e in internal))
        self.width = width = len(bound.layout.rank)
        self.cost = {e: self.scaled(t1.weight(e)) for e in internal}
        self.fields = bound.edge_fields(t1)
        self.paired = {(bits * width + rank, vec) for rank, bits, vec in bound.target}
        self.goal = tuple(sorted(packed for packed, _ in self.paired))

    def scaled(self, w: Fraction) -> int:
        return w.numerator * (self.scale // w.denominator)

    def state(self, tree: Phylogeny) -> tuple[tuple[int, ...], int]:
        """The state of ``tree`` and its scaled h; h and ``fields`` read t1's edge ids."""
        bound, width, cost, paired = self.bound, self.width, self.cost, self.paired
        entries = []
        h = 0
        for e, (rank, bits, vec) in bound.edge_keys(tree, bound.sides(tree, self.fields)).items():
            entry = bits * width + rank
            entries.append(entry)
            if (entry, vec) not in paired:
                h += cost[e]
        return tuple(sorted(entries)), h


def neighbors_by_view(tree: Phylogeny, table: SearchTableByView):
    """``exact.neighbors`` by one ``PairBound.sides`` pass over the rooted view.

    The 2(n-3) successors (move, state, step, h), each move's key from
    :func:`moved_key`: the reference for the search kernel's inlined walk
    of the edge table.
    """
    from bisect import insort

    bound, width, cost, paired = table.bound, table.width, table.cost, table.paired
    sides = bound.sides(tree, table.fields)
    entry: dict[int, int] = {}
    term: dict[int, int] = {}
    for e, (rank, bits, vec) in bound.edge_keys(tree, sides).items():
        entry[e] = packed = bits * width + rank
        term[e] = 0 if (packed, vec) in paired else cost[e]
    state = sorted(entry.values())
    h = sum(term.values())
    out = []
    for e2 in sorted(entry):
        u, v = tree.endpoints(e2)
        a1 = min(e for e in tree.adjacent_edges(u) if e != e2)
        rest = list(state)
        rest.remove(entry[e2])
        step = cost[e2]
        others = h - term[e2]
        for e3 in sorted(e for e in tree.adjacent_edges(v) if e != e2):
            rank, bits, vec = moved_key(tree, sides, a1, e2, e3)
            packed = bits * width + rank
            moved = list(rest)
            insort(moved, packed)
            nh = others if (packed, vec) in paired else others + step
            out.append((NniOp(a1, e2, e3), tuple(moved), step, nh))
    return out


def search_by_view(t1: Phylogeny, t2: Phylogeny, state_limit: int, rt=None):
    """``exact.search`` over :class:`SearchTableByView` and :func:`neighbors_by_view`."""
    from nnidist.exact import StateLimitError
    from nnidist.nni import apply_nni

    table = SearchTableByView(t1, t2)
    goal = table.goal
    start, h = table.state(t1)
    if start == goal:
        return Fraction(0), []

    frontier = [(h, start, 0, t1, None)]
    best = {start: 0}
    via = {}
    settled = set()

    while frontier:
        _, key, cost, tree, move = heapq.heappop(frontier)
        if key in settled:
            continue
        settled.add(key)
        if key == goal:
            ops = []
            back = key
            while back != start:
                back, op = via[back]
                ops.append(op)
            ops.reverse()
            if rt is not None:
                rt.round("exact", settled)
            return Fraction(cost, table.scale), ops
        if len(settled) > state_limit:
            raise StateLimitError(
                f"settled more than {state_limit} states without reaching the target"
            )
        if move is not None:
            tree = tree.copy()
            apply_nni(tree, move)
        for op, nkey, step, nh in neighbors_by_view(tree, table):
            ncost = cost + step
            if nkey not in best or ncost < best[nkey]:
                best[nkey] = ncost
                via[nkey] = (key, op)
                heapq.heappush(frontier, (ncost + nh, nkey, ncost, tree, op))

    raise TreeError("search space exhausted without reaching the target tree")


def pairing_pass_by_full_rounds(t1, t2, table, fields, rt):
    """``pipeline.pairing_pass`` with every round judging every unpaired edge.

    The pass as it would run if a later round did not skip the edges far
    from the round before's moves: each later round walks the working tree
    again (``goodpairs.walk`` and ``sides_below``) and judges every unpaired
    edge on those fresh sides, its two single moves and its two-move
    offers.  A round keeps every single move whose key is in the table,
    then each offer whose nodes meet no node of a move kept before it, in
    edge-id order.  It records the same rounds, so the pass's result and
    runtime must equal this one's.
    """
    import math

    from nnidist.goodpairs import GoodEdgePairSet, find_good_edge_pairs, sides_below, walk
    from nnidist.pipeline import EXACT_MAX_INTERNAL, Pairing

    # one sides pass serves detection and the first round; each round drops
    # its sides before the next walk
    sides = table.sides(t1, fields)
    detected = find_good_edge_pairs(t1, t2, checked=True, table=table, sides=sides)
    found = list(detected.pairs)
    paired = {e for e, _ in found}
    unpaired = [e for e in sorted(fields[0]) if e not in paired]
    helped = set()
    target = table.target
    work = t1
    rounds = []
    cap = math.ceil(math.log2(t1.n_taxa)) if t1.n_taxa > EXACT_MAX_INTERNAL + 3 else 0
    for k in range(cap):
        if not unpaired:
            break
        if k:
            sides = sides_below(work, walk(work), table.bit, *fields)
        ends, adj = work._ends, work._adj
        singles, offers = [], []
        for e2 in unpaired:
            # fix the lowest numbered edge at one end, as exact.neighbors does
            u, v = ends[e2]
            a1 = min(e for e in adj[u] if e != e2)
            mine = []
            for e3 in sorted(e for e in adj[v] if e != e2):
                key = moved_key(work, sides, a1, e2, e3)
                if key in target:
                    mine.append((NniOp(a1, e2, e3), key))
            singles.extend(mine)
            if mine:
                continue
            for p, q in ((u, v), (v, u)):
                for f in sorted(adj[p]):
                    if f == e2 or f not in unpaired or f in helped:
                        continue
                    x = work.other_end(f, p)
                    (b,) = [g for g in adj[p] if g not in (e2, f)]
                    for xi, qj, key in helped_keys(work, sides, e2, f):
                        if key in target:
                            offers.append(({p, q, x}, NniOp(b, f, xi), NniOp(f, e2, qj), key))
        sides = None
        taken = {x for op, _ in singles for x in ends[op.e2]}
        kept = list(singles)
        for nodes, helper, pairing, key in offers:
            if not nodes & taken:
                kept += [(helper, None), (pairing, key)]
                taken |= nodes
        rt.round("pairing", range(2 * len(unpaired)))
        if not kept:
            break
        if work is t1:
            work = t1.copy()
        for op, key in kept:
            move(work, *op)
            if key is None:
                helped.add(op.e2)
            else:
                found.append((op.e2, target[key]))
        moved = {op.e2 for op, key in kept if key is not None}
        unpaired = [e for e in unpaired if e not in moved]
        rounds.append(kept)
    return Pairing(detected, work, rounds, GoodEdgePairSet(sorted(found)))
