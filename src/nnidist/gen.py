"""Random instance generation: a weighted tree plus a scrambled copy.

The pair generator applies m random NNI moves to a random tree, so the two
trees are guaranteed to be finite-distance apart and the applied cost is a
known upper bound on the true distance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from nnidist.nni import NniOp, apply_nni
from nnidist.phylo import Phylogeny, TreeError


def random_tree(rng: random.Random, n: int, dup_weights: bool = False) -> Phylogeny:
    """Random topology on n taxa by repeated leaf attachment.

    Internal weights are a shuffle of 1..n-3 by default (every weight distinct,
    which exercises sorting); with ``dup_weights`` they are drawn from a pool
    half that size, so collisions are guaranteed for n >= 9.  Leaf weights are
    random halves in [0.5, 10].
    """
    if n < 3:
        raise TreeError(f"cannot generate a phylogeny on {n} taxa")
    labels = [f"t{i:03d}" for i in range(n)]
    edges: dict[int, tuple[int, int]] = {}
    weights: dict[int, Fraction] = {}
    leaf_labels: dict[int, str] = {}
    center = 0
    next_node = 1
    next_edge = 0

    def attach_leaf(at: int, label: str) -> None:
        nonlocal next_node, next_edge
        edges[next_edge] = (at, next_node)
        leaf_labels[next_node] = label
        next_node += 1
        next_edge += 1

    for i in range(3):
        attach_leaf(center, labels[i])
    for i in range(3, n):
        # the edge ids are 0..k-1, so this draws what choice(sorted(edges))
        # drew, without an O(k log k) sort per taxon
        split = rng.choice(range(len(edges)))
        u, v = edges[split]
        mid = next_node
        next_node += 1
        edges[split] = (u, mid)
        edges[next_edge] = (mid, v)
        next_edge += 1
        attach_leaf(mid, labels[i])

    internal = sorted(e for e, (u, v) in edges.items() if u not in leaf_labels and v not in leaf_labels)
    if dup_weights:
        pool = [rng.randint(1, max(1, (n - 3) // 2)) for _ in internal]
    else:
        pool = list(range(1, len(internal) + 1))
        rng.shuffle(pool)
    for e, w in zip(internal, pool):
        weights[e] = Fraction(w)
    for e in edges:
        if e not in weights:
            weights[e] = Fraction(rng.randint(1, 20), 2)
    return Phylogeny(edges, weights, leaf_labels)


def scramble(rng: random.Random, tree: Phylogeny, moves: int) -> tuple[Phylogeny, list[NniOp], Fraction]:
    """Apply ``moves`` random valid operations; returns (tree, ops, cost)."""
    work = tree.copy()
    internal = work.internal_edges()
    if moves > 0 and not internal:
        raise TreeError("tree has no internal edge, cannot scramble")
    ops = []
    cost = Fraction(0)
    for _ in range(moves):
        e2 = rng.choice(internal)
        u, v = work.endpoints(e2)
        e1 = rng.choice(sorted(e for e in work.adjacent_edges(u) if e != e2))
        e3 = rng.choice(sorted(e for e in work.adjacent_edges(v) if e != e2))
        op = NniOp(e1, e2, e3)
        cost += apply_nni(work, op)
        ops.append(op)
    return work, ops, cost


def generate_pair(
    seed: int, n: int, moves: int, dup_weights: bool = False
) -> tuple[Phylogeny, Phylogeny, Fraction]:
    """Deterministic instance: (t1, t2, cost upper bound on their distance)."""
    rng = random.Random(seed)
    t1 = random_tree(rng, n, dup_weights=dup_weights)
    t2, _, cost = scramble(rng, t1, moves)
    return t1, t2, cost
