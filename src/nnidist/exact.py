"""Exact distance by A* search over split-bitset states, in integer costs.

Only practical for small instances (up to about eight taxa); its job is to
be unarguably correct so the approximation can be measured against it.
:mod:`nnidist.pipeline` also solves every good-pair component of four to
six taxa with :func:`search`, where it is both cheaper and optimal.

*States.*  Moves are the two non-redundant swaps per internal edge.  A
state is the sorted tuple of its internal edges' (split bitset, weight
rank) pairs, packed into ints.  Both are read straight off the good-pair
keys (rank, away-side bitset, count vector) of one
:class:`nnidist.goodpairs.PairBound` of tree 2, all ints.  Splits and their
weights are what :meth:`Phylogeny.canonical_equal` compares, and the leaf
weights never change along a search.  The count vectors give each weight a
field only as wide as its multiplicity needs; every tree of a search has
tree 1's weights, which finiteness makes tree 2's multiset, and each field
counts one side's copies of its weight, so no field carries into the next.
The goal state is read off the table's own keys of tree 2, which is keyed
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
:func:`neighbors` makes one :meth:`PairBound.sides` pass over the expanded
tree; then each move's new key for e comes from two entries of that pass
(:meth:`PairBound.moved_key`), the successor's state replaces e's one
entry of the parent's tuple, and its h changes by e's term alone.

*Integer costs.*  Edge weights never move, so :class:`SearchTable` scales
them once: each weight times the lcm of the internal weights'
denominators, in per-edge rank and cost tables.  Costs, h and priorities
are ints inside the search, and the distance becomes a ``Fraction`` once,
at the end.

*One tree per popped state.*  A frontier entry holds its parent tree and
the move from it; the state's own tree is built (a copy and one move) only
when the entry is popped unsettled, and :func:`neighbors` reads it once.

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

from nnidist.goodpairs import PairBound
from nnidist.nni import NniOp, apply_nni, verify_transform
from nnidist.phylo import Phylogeny, TreeError, finiteness_check
from nnidist.runtime import ParRuntime

DEFAULT_STATE_LIMIT = 5_000_000


class StateLimitError(RuntimeError):
    """The search settled more states than the caller allowed."""


class SearchTable:
    """The integer tables of one search from t1 to t2.

    ``scale`` is the lcm of the internal weights' denominators.  Per
    internal edge id of t1, which a move keeps with its weight, ``cost[e]``
    is w(e) × ``scale``, and ``fields`` holds w(e)'s rank and count field
    (see ``PairBound.edge_fields``, which also refuses a t1 whose weights
    would carry).  ``paired`` holds each of tree 2's keys as (packed state
    entry, count vector): the same test as a lookup in ``bound.target``.
    ``goal`` is tree 2's state, packed from those same keys.
    """

    def __init__(self, t1: Phylogeny, t2: Phylogeny) -> None:
        self.bound = bound = PairBound(t2)
        internal = t1.internal_edges()
        self.scale = math.lcm(*(t1.weight(e).denominator for e in internal))
        self.width = width = len(bound.rank)
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


def neighbors(
    tree: Phylogeny, table: SearchTable
) -> list[tuple[NniOp, tuple[int, ...], int, int]]:
    """The 2(n-3) distinct single-move successors of ``tree``: (move, state, step, h).

    A swap across edge e moves one subtree from each side; fixing the lowest
    numbered edge on the u side and varying the v side covers both reachable
    arrangements, the other two operand choices are mirror images.  ``tree``
    carries t1's edge ids; the step and h are scaled by ``table.scale``.
    """
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
            rank, bits, vec = bound.moved_key(tree, sides, a1, e2, e3)
            packed = bits * width + rank
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
