"""The four workloads: fixed sets of tree pairs, renamed by the run's seed.

The trees come from the program's own generator, ``nnidist.gen``, at fixed
generator seeds; the program later sees only the two Newick texts of each
instance.  The run's ``--seed`` permutes the taxon names of every instance.
That changes the text, the smallest taxon the program roots its views at,
and every tie it breaks by name, so each seed gives the program different
input, while the instances' sizes, splits and good pairs stay the same.
Work per run is then constant, and two runs differ by the machine and by
what the names change in the program, not by which trees were drawn.  A
fresh draw per seed would swing by more than any useful bound: the exact
search's cost is heavy-tailed in the instance (at n = 7 one instance in
120 takes 11 times the mean), and a few n = 1024 or 2048 instances are
all a run has time for.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("corpus", "many_cuts", "one_component", "exact_small")

_LABEL = re.compile(r"(?<=[(,])[^(),:;]+(?=:)")   # a taxon name in Newick text


@dataclass(frozen=True)
class Instance:
    n: int
    text1: str
    text2: str
    scramble_cost: Fraction   # cost of the generator's moves: an upper bound


def make_instance(s: int, n: int, moves: int, dup: bool = False, shuffle: bool = False,
                  rename: random.Random | None = None) -> Instance:
    """``gen.generate_pair(s, n, moves)`` as Newick text.

    ``shuffle`` permutes tree 2's internal weights; ``rename`` permutes the
    taxon names of both trees alike.
    """
    from nnidist import gen, newick

    t1, t2, cost = gen.generate_pair(s, n, moves, dup_weights=dup)
    if shuffle:
        t2 = _shuffled_internal_weights(t2, random.Random(s))
    texts = [newick.serialize(t1), newick.serialize(t2)]
    if rename is not None:
        texts = _renamed(texts, n, rename)
    return Instance(n, texts[0], texts[1], cost)


def build(workload: str, seed: int) -> list[Instance]:
    def named(s: int, n: int, moves: int, dup: bool = False, shuffle: bool = False) -> Instance:
        return make_instance(s, n, moves, dup, shuffle, random.Random(f"{seed}:{n}:{s}"))

    if workload == "corpus":
        # acceptance criterion 1: 3n moves, repeated weights on even seeds
        return [named(s, n, 3 * n, s % 2 == 0) for n in (8, 16, 32, 64, 128) for s in range(1, 41)]
    if workload == "many_cuts":
        return [named(s, 2048, 2048) for s in range(1, 5)]
    if workload == "one_component":
        # shuffled internal weights leave these three without a good pair
        return [named(s, 1024, 5 * 1024, shuffle=True) for s in range(1, 4)]
    if workload == "exact_small":
        # acceptance criterion 2's make-up: n - 1 moves, repeats every third seed
        return [named(s, n, n - 1, s % 3 == 0)
                for n, count in ((5, 100), (6, 100), (7, 20)) for s in range(1, count + 1)]
    raise ValueError(f"unknown workload {workload!r}")


def _renamed(texts: list[str], n: int, rng: random.Random) -> list[str]:
    """The same trees with the taxon names permuted by ``rng``."""
    names = sorted(_LABEL.findall(texts[0]))
    if len(names) != n:
        raise ValueError(f"found {len(names)} taxon names in a tree on {n} taxa")
    mapping = dict(zip(names, rng.sample(names, n)))
    return [_LABEL.sub(lambda m: mapping[m.group(0)], t) for t in texts]


def _shuffled_internal_weights(tree, rng: random.Random):
    """``tree`` with its internal weights permuted, as acceptance criterion 4 does."""
    from nnidist.phylo import Phylogeny

    internal = tree.internal_edges()
    shuffled = [tree.weight(e) for e in internal]
    rng.shuffle(shuffled)
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    weights.update(zip(internal, shuffled))
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    labels = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
    return Phylogeny(edges, weights, labels)
