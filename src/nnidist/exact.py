"""Exact distance by A* search over split-bitset states, in integer costs.

Only practical for small instances (up to about eight taxa); its job is to
be unarguably correct so the approximation can be measured against it.
:mod:`nnidist.pipeline` also solves every good-pair component of four to
six taxa with :func:`search`, where it is both cheaper and optimal.

*States.*  Moves are the two non-redundant swaps per internal edge.  A
state is the sorted tuple of its internal edges' (split bitset, weight
rank) pairs, packed into ints.  Both are read straight off the good-pair
keys (rank, away-side bitset, count vector) of :mod:`nnidist.goodpairs`,
laid out by tree 2's internal weights, all ints.  Splits and their
weights are what :meth:`Phylogeny.canonical_equal` compares, and the leaf
weights never change along a search.  The count vectors give each weight a
field only as wide as its multiplicity needs; every tree of a search has
tree 1's weights, which finiteness makes tree 2's multiset, and each field
counts one side's copies of its weight, so no field carries into the next.
The goal state is read off tree 2's keys, which :class:`SearchTable` takes
once per search.

*Heuristic.*  ``h(T)`` is that table's lower bound: the internal weight of
T that has no good-pair partner in tree 2.  It keeps the search exact
because it is admissible and consistent.  A move on edge e moves two
subtrees past e, so every other edge keeps its split and the internal
weights on each of its sides; only e's own key changes and e keeps its
weight, which is the move's cost.  So only e's term in h can change, by at
most that weight: ``h(s) <= step + h(s')`` for every move s -> s', and
``h(goal) = 0``.  With a consistent heuristic a state is settled at its
least cost, so the goal's cost when it is settled is the distance (Hart,
Nilsson and Raphael 1968).  With h = 0 the search is uniform-cost search.

*Kernel.*  For the same reason a successor needs no tree of its own.
:func:`neighbors` walks the expanded tree's edge table once from
:meth:`Phylogeny.root_handle`, the root of its rooted view, with no view
and no child sort: keys do not depend on child order, and a state's tree
is read once and dropped.  Top-down the walk finds each node's parent
edge, bottom-up the taxa and internal weights below each node, and with
them each edge's key and h term; then each move's new key for e comes from
two entries of that pass, the successor's state replaces e's one entry of
the parent's tuple, and its h changes by e's term alone.  This is the
arithmetic of ``goodpairs.walk``, ``sides_below``, ``edge_keys_of``,
``part`` and ``joined_key`` inlined, and a test holds it equal to them.

*Integer costs.*  Edge weights never move, so :class:`SearchTable` scales
them once: each weight times the lcm of the internal weights'
denominators, in per-edge rank and cost tables.  Costs, h and priorities
are ints inside the search, and the distance becomes a ``Fraction`` once,
at the end.

*One tree per popped state.*  A frontier entry holds its parent tree and
the move from it; the state's own tree is built (a copy and one move) only
when the entry is popped unsettled, and :func:`neighbors` walks it once.
No state's tree is ever given a rooted view.

Ties break on (cost + h, state key), so the returned witness is
deterministic.  :func:`search` is the kernel alone: it trusts that the pair
is finite and leaves the moves to its caller to verify.  :func:`exact_dnni`
is the checked entry point; it runs ``finiteness_check`` first and replays
the witness against tree 2 before it returns it.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from fractions import Fraction

from nnidist.goodpairs import KeyLayout, edge_keys_of, sides_below, walk
from nnidist.nni import NniOp, apply_nni, verify_transform
from nnidist.phylo import Phylogeny, TreeError, finiteness_check
from nnidist.runtime import ParRuntime

# The most states ``nnidist exact`` settles by default before it gives up
# with exit 1.  Memory sets it: a settled state holds 6-16 KB (its entries
# in ``best`` and ``via``, and frontier entries that keep their parents'
# trees alive), so the limit must come before memory runs out.  Measured on
# ``generate_pair`` pairs 3n moves apart under a 2 GiB address-space cap
# (``ulimit -v``, Python 3.11): at 16 taxa (seeds 1-3) 100,000 states took
# 1,414-1,614 MiB and 31-39 s and ended at the limit, while 150,000 ran out
# of memory, and so did a limit of 5,000,000 on a 10-taxon pair (seed 3)
# after 65 s.  The far 9-taxon pairs that finished (seeds 1, 2, 4-10)
# needed at most 87,159 states (seed 6; 16 s, 544 MiB); seed 3 needs
# 131,915 (31 s, 780 MiB), which this default refuses and a larger
# ``--state-limit`` reaches.  Pairs n - 1 moves apart up to the taxa cap
# need far fewer (see below).
DEFAULT_STATE_LIMIT = 100_000
# The most taxa ``nnidist exact`` takes by default.  Each state costs time
# linear in the taxa, so the state limit alone does not bound a search's
# time: a 20,000-taxon pair ran for minutes without settling a state.  On
# ``generate_pair`` pairs n - 1 moves apart (seeds 1-5, with and without
# repeated weights), every 11- to 16-taxon pair settled at most 4,874 states
# (1.8 s, 95 MiB), while at 18 taxa one of ten ran out of 1.5 GiB after
# 86,886 states.  No cap keeps far pairs finishing: 3n moves apart, one of
# ten 9-taxon pairs and four of ten 10-taxon pairs settled 100,000 states
# without reaching tree 2; the state limit ends those.
DEFAULT_MAX_TAXA = 16


class StateLimitError(RuntimeError):
    """The search settled more states than the caller allowed."""


class SearchTable:
    """The integer tables of one search from t1 to t2.

    Built from tree 2's :class:`nnidist.goodpairs.KeyLayout` and one key
    pass per tree.  ``scale`` is the lcm of the internal weights'
    denominators.  Per internal edge id of t1, which a move keeps with its
    weight, ``cost[e]`` is w(e) × ``scale``, and ``rank[e]`` and
    ``field[e]`` are w(e)'s rank and count field; a t1 whose internal
    weight multiset is not tree 2's is refused, since one more copy of a
    weight would carry into the next field.  ``bit`` maps each taxon to its
    bit.  ``paired`` holds each of tree 2's keys as (packed state entry,
    count vector): the same test as a lookup in ``PairBound(t2).target``.
    ``goal`` is tree 2's state, packed from those same keys.
    """

    def __init__(self, t1: Phylogeny, t2: Phylogeny) -> None:
        layout = KeyLayout(t2)
        self.bit = layout.bit
        self.rank, self.field = layout.edge_fields(t1)
        wt = t1._wt
        self.scale = math.lcm(*(wt[e].denominator for e in self.rank))
        self.width = width = len(layout.rank)
        self.cost = {e: self.scaled(wt[e]) for e in self.rank}
        keys = edge_keys_of(t2, sides_below(t2, walk(t2), self.bit, *layout.fields))
        self.paired = {(bits * width + rank, vec) for rank, bits, vec in keys.values()}
        self.goal = tuple(sorted(packed for packed, _ in self.paired))

    def scaled(self, w: Fraction) -> int:
        return w.numerator * (self.scale // w.denominator)

    def state(self, tree: Phylogeny) -> tuple[tuple[int, ...], int]:
        """The state of ``tree`` and its scaled h, from one key pass.

        ``tree`` carries t1's edge ids, which the fields and h read.
        """
        width, cost, paired = self.width, self.cost, self.paired
        sides = sides_below(tree, walk(tree), self.bit, self.rank, self.field)
        entries = []
        h = 0
        for e, (rank, bits, vec) in edge_keys_of(tree, sides).items():
            entry = bits * width + rank
            entries.append(entry)
            if (entry, vec) not in paired:
                h += cost[e]
        return tuple(sorted(entries)), h


def neighbors(
    tree: Phylogeny, table: SearchTable
) -> list[tuple[NniOp, tuple[int, ...], int, int]]:
    """The 2(n-3) distinct single-move successors of ``tree``: (move, state, step, h).

    A swap across edge e moves one subtree from each side; fixing the lowest
    numbered edge on the u side and varying the v side covers both reachable
    arrangements, the other two operand choices are mirror images.  ``tree``
    carries t1's edge ids; the step and h are scaled by ``table.scale``.

    One walk of the edge table from :meth:`Phylogeny.root_handle` gives
    the sides of every node, each edge's key and h term, and then each
    move's key: the arithmetic of ``goodpairs.walk``, ``sides_below``,
    ``edge_keys_of``, ``part`` and ``joined_key``, inlined.
    """
    ends, adj, labels = tree._ends, tree._adj, tree._leaf_label
    bit, rank, field = table.bit, table.rank, table.field
    width, cost, paired = table.width, table.cost, table.paired
    # top-down: each internal node's parent edge and parent, root first; a
    # leaf's entries are set when it is reached, and its bit added to its
    # parent's
    root = tree.root_handle()
    up: dict[int, int | None] = {root: None}
    par: dict[int, int] = {}
    bits: dict[int, int] = {}
    vecs: dict[int, int] = {}
    order = [root]
    for x in order:
        parent = up[x]
        below = 0
        for e in adj[x]:
            if e != parent:
                y, z = ends[e]
                if y == x:
                    y = z
                label = labels.get(y)
                if label is None:
                    up[y] = e
                    par[y] = x
                    order.append(y)
                else:
                    bits[y] = b = bit[label]
                    vecs[y] = 0
                    below |= b
        bits[x] = below
        vecs[x] = 0
    # bottom-up: each internal node adds its entries to its parent's, and
    # its parent edge's key is read off them
    entry: dict[int, int] = {}
    term: dict[int, int] = {}
    for x in reversed(order):
        e = up[x]
        if e is None:
            break
        below, v = bits[x], vecs[x]
        entry[e] = packed = below * width + rank[e]
        term[e] = 0 if (packed, v) in paired else cost[e]
        v = vecs[x] = v + field[e]
        p = par[x]
        bits[p] |= below
        vecs[p] += v
    every, total = bits[root], vecs[root]
    state = sorted(entry.values())
    h = sum(term.values())
    out = []
    for e2 in sorted(entry):
        u, v = ends[e2]
        at_u = [e for e in adj[u] if e != e2]
        a1 = min(at_u)
        b = at_u[0] if at_u[1] == a1 else at_u[1]
        # what lies beyond b, seen from u
        if up[u] == b:
            side_u, vec_u = every ^ bits[u], total - vecs[u] + field[b]
        else:
            c, d = ends[b]
            if c == u:
                c = d
            side_u, vec_u = bits[c], vecs[c]
        rest = list(state)
        rest.remove(entry[e2])
        r2, f2 = rank[e2], field[e2]
        step = cost[e2]
        others = h - term[e2]
        for e3 in sorted(e for e in adj[v] if e != e2):
            # what lies beyond e3, seen from v
            if up[v] == e3:
                side, vec = every ^ bits[v], total - vecs[v] + field[e3]
            else:
                c, d = ends[e3]
                if c == v:
                    c = d
                side, vec = bits[c], vecs[c]
            side |= side_u
            vec += vec_u
            if side & 1:  # the smallest taxon's side: the key names the other one
                side, vec = every ^ side, total - vec - f2
            packed = side * width + r2
            moved = list(rest)
            insort(moved, packed)
            nh = others if (packed, vec) in paired else others + step
            out.append((NniOp(a1, e2, e3), tuple(moved), step, nh))
    return out


def search(
    t1: Phylogeny, t2: Phylogeny, state_limit: int, rt: ParRuntime | None = None
) -> tuple[Fraction, list[NniOp]]:
    """The A* kernel: minimum transformation cost and one optimal witness.

    The pair must be finite (see ``finiteness_check``) and the caller
    verifies the moves; :func:`exact_dnni` does both.  Raises
    :class:`StateLimitError` once more than ``state_limit`` states are
    settled without reaching ``t2``.  With ``rt``, a search that reaches
    ``t2`` is recorded there as one round of phase ``exact`` with one task
    per settled state.
    """
    table = SearchTable(t1, t2)
    goal = table.goal
    start, h = table.state(t1)
    if start == goal:
        return Fraction(0), []

    # A state is pushed again only at a lower cost, so no two entries tie on
    # (cost + h, key) and trees and moves are never compared.
    frontier: list[tuple[int, tuple[int, ...], int, Phylogeny, NniOp | None]] = [
        (h, start, 0, t1, None)
    ]
    best: dict[tuple[int, ...], int] = {start: 0}
    via: dict[tuple[int, ...], tuple[tuple[int, ...], NniOp]] = {}
    settled: set[tuple[int, ...]] = set()

    while frontier:
        _, key, cost, tree, move = heapq.heappop(frontier)
        if key in settled:
            continue
        settled.add(key)
        if key == goal:
            ops: list[NniOp] = []
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
        for op, nkey, step, nh in neighbors(tree, table):
            ncost = cost + step
            if nkey not in best or ncost < best[nkey]:
                best[nkey] = ncost
                via[nkey] = (key, op)
                heapq.heappush(frontier, (ncost + nh, nkey, ncost, tree, op))

    raise TreeError("search space exhausted without reaching the target tree")


def exact_dnni(
    t1: Phylogeny, t2: Phylogeny, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[Fraction, list[NniOp]]:
    """Minimum transformation cost and one optimal witness sequence, checked.

    Refuses an infinite pair with ``TreeError``, runs :func:`search`, and
    replays the witness against ``t2`` before returning it.  Raises
    :class:`StateLimitError` as :func:`search` does.
    """
    ok, reasons = finiteness_check(t1, t2)
    if not ok:
        raise TreeError("distance is infinite: " + "; ".join(reasons))
    distance, ops = search(t1, t2, state_limit)
    replayed, total, reason = verify_transform(t1, ops, t2)
    if not replayed or total != distance:
        raise TreeError(f"witness failed replay: {reason}")
    return distance, ops
