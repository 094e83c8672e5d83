"""Exact distance by A* search over split-bitset states.

Only practical for small instances (up to about eight taxa); its job is to
be unarguably correct so the approximation can be measured against it.
Moves are the two non-redundant swaps per internal edge.  A state is the
sorted tuple of its internal edges' (split bitset, weight rank) pairs,
packed into ints: the split bitsets of :meth:`Phylogeny.split_bits` and
their weights are what :meth:`Phylogeny.canonical_equal` compares, and the
leaf weights never change along a search.  The ranks and the good-pair keys
both come from one :class:`nnidist.goodpairs.PairBound` of tree 2.

The heuristic ``h(T)`` is that table's lower bound: the internal weight of
T that has no good-pair partner in tree 2.  It keeps the search exact
because it is admissible and consistent.  A move on edge e moves two
subtrees past e, so every other edge keeps its split and the internal
weights on each of its sides; only e's own key changes and e keeps its
weight, which is the move's cost.  So only e's term in h can change, by at
most that weight: ``h(s) <= step + h(s')`` for every move s -> s', and
``h(goal) = 0``.  With a consistent heuristic a state is settled at its
least cost, so the goal's cost when it is settled is the distance (Hart,
Nilsson and Raphael 1968).  With h = 0 the search is uniform-cost search.

Ties break on (cost + h, state key), so the returned witness is
deterministic.  A frontier entry holds its parent tree and the move from it;
the state's own tree is rebuilt only when the entry is popped unsettled.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from nnidist.goodpairs import PairBound
from nnidist.nni import NniOp, apply_nni, verify_transform
from nnidist.phylo import Phylogeny, TreeError, finiteness_check

DEFAULT_STATE_LIMIT = 5_000_000


class StateLimitError(RuntimeError):
    """The search settled more states than the caller allowed."""


def neighbors(tree: Phylogeny) -> list[tuple[NniOp, Phylogeny, Fraction]]:
    """The 2(n-3) distinct single-move successors of ``tree``.

    A swap across edge e moves one subtree from each side; fixing the lowest
    numbered edge on the u side and varying the v side covers both reachable
    arrangements, the other two operand choices are mirror images.
    """
    out = []
    for e2 in tree.internal_edges():
        u, v = tree.endpoints(e2)
        a1 = min(e for e in tree.adjacent_edges(u) if e != e2)
        for e3 in sorted(e for e in tree.adjacent_edges(v) if e != e2):
            op = NniOp(a1, e2, e3)
            nxt = tree.copy()
            cost = apply_nni(nxt, op)
            out.append((op, nxt, cost))
    return out


def exact_dnni(
    t1: Phylogeny,
    t2: Phylogeny,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> tuple[Fraction, list[NniOp]]:
    """Minimum transformation cost and one optimal witness sequence.

    Raises :class:`StateLimitError` once more than ``state_limit`` states
    are settled without reaching ``t2``.
    """
    ok, reasons = finiteness_check(t1, t2)
    if not ok:
        raise TreeError("distance is infinite: " + "; ".join(reasons))
    bound = PairBound(t2)
    rank = bound.rank
    width = len(rank)

    def state(keys: dict[int, tuple[Fraction, int, int]]) -> tuple[int, ...]:
        return tuple(sorted(bits * width + rank[w] for w, bits, _ in keys.values()))

    goal = state(bound.edge_keys(t2))
    keys = bound.edge_keys(t1)
    start = state(keys)
    if start == goal:
        return Fraction(0), []

    # no tree (nor the rooted view a keyed tree keeps) per entry.  A state is
    # pushed again only at a lower cost, so no two entries tie on
    # (cost + h, key) and trees and moves are never compared.
    frontier: list[tuple[Fraction, tuple[int, ...], Fraction, Phylogeny, NniOp | None]] = [
        (bound.unpaired_weight(keys), start, Fraction(0), t1, None)
    ]
    best: dict[tuple[int, ...], Fraction] = {start: Fraction(0)}
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
            replayed, total, reason = verify_transform(t1, ops, t2)
            if not replayed or total != cost:
                raise TreeError(f"witness failed replay: {reason}")
            return cost, ops
        if len(settled) > state_limit:
            raise StateLimitError(
                f"settled more than {state_limit} states without reaching the target"
            )
        if move is not None:
            tree = tree.copy()
            apply_nni(tree, move)
        for op, nxt, step in neighbors(tree):
            keys = bound.edge_keys(nxt)
            nkey = state(keys)
            ncost = cost + step
            if nkey not in best or ncost < best[nkey]:
                best[nkey] = ncost
                via[nkey] = (key, op)
                heapq.heappush(
                    frontier, (ncost + bound.unpaired_weight(keys), nkey, ncost, tree, op)
                )

    raise TreeError("search space exhausted without reaching the target tree")
