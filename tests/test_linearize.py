"""Pointer-jumping walks and junction elimination."""

import math
import random
from fractions import Fraction

import pytest

from nnidist import newick
from nnidist import linearize as linearize_module
from nnidist.linearize import (
    chain_path,
    endnode_paths,
    is_linear,
    linearize,
    spine,
)
from nnidist.nni import verify_transform
from nnidist.phylo import NodeClass, Phylogeny, TreeError
from nnidist.runtime import ParRuntime

from oracles import caterpillar, linearize_by_fraction_sums, random_phylogeny, walk_up_oracle


def _chains(t):
    """{endnode: (junction, edge path)} for every endnode whose terminal is a junction."""
    parent_edge = {}
    nxt = endnode_paths(t, parent_edge=parent_edge)
    classes = t.classify_nodes()
    return {
        E: (nxt[E], chain_path(t, E, nxt[E], parent_edge))
        for E, c in classes.items()
        if c is NodeClass.ENDNODE and E in nxt and classes.get(nxt[E]) is NodeClass.JUNCTION
    }


def test_walks_match_sequential_oracle():
    rng = random.Random(501)
    read = 0
    for _ in range(20):
        t = random_phylogeny(rng, rng.randint(4, 40))
        nxt = endnode_paths(t)
        expect = walk_up_oracle(t)
        assert nxt == {v: row[0] for v, row in expect.items()}
        # the edge paths linearize reads: endnode chains up to a junction
        for E, (J, path) in _chains(t).items():
            assert (J, path) == (expect[E][0], expect[E][4])
            read += 1
    assert read > 20


def test_walk_rounds_within_doubling_budget():
    # the long-chain worst case plus assorted random shapes
    cases = [caterpillar(64)]
    rng = random.Random(503)
    cases += [random_phylogeny(rng, n) for n in (8, 16, 32, 64)]
    for t in cases:
        rt = ParRuntime()
        endnode_paths(t, rt)
        n = t.n_taxa
        assert rt.span("linearize.paths") <= math.ceil(math.log2(n)) + 2


def test_already_linear_inputs_need_no_ops():
    quartet = newick.parse("(a:1,b:2,(c:3,d:4):5);")
    res = linearize(quartet)
    assert res.ops == [] and res.iterations == 0
    assert res.tree.canonical_equal(quartet)

    cat = caterpillar(12)
    res = linearize(cat)
    assert res.ops == [] and res.iterations == 0

    star = newick.parse("(a:1,b:1,c:2);")
    assert linearize(star).ops == []


def test_linearize_random_trees():
    rng = random.Random(504)
    for _ in range(25):
        n = rng.randint(4, 64)
        t = random_phylogeny(rng, n)
        res = linearize(t)
        assert res.tree.validate() == []
        assert is_linear(res.tree)
        ok, cost, reason = verify_transform(t, res.ops, res.tree)
        assert ok, reason
        assert res.iterations <= math.ceil(math.log2(n))
        # the original tree is untouched
        assert t.internal_weight_multiset() == res.tree.internal_weight_multiset()


@pytest.mark.parametrize(
    "seed, weights, ops, iterations, metrics",
    [
        (508, "distinct", 284, 3, {
            "linearize": {"rounds": 13, "work": 1416, "peak_parallelism": 298},
            "linearize.paths": {"rounds": 19, "work": 6647, "peak_parallelism": 597}}),
        (509, "small", 358, 4, {
            "linearize": {"rounds": 17, "work": 1717, "peak_parallelism": 298},
            "linearize.paths": {"rounds": 29, "work": 11030, "peak_parallelism": 597}}),
    ],
    ids=["distinct", "small"],
)
def test_linearize_round_schedule_is_pinned(seed, weights, ops, iterations, metrics):
    # 300 taxa over several iterations: with the classes carried from one
    # iteration to the next and the schedule read off the hop distances, the
    # counts are those of reclassifying every iteration and running the jumps
    rt = ParRuntime()
    res = linearize(random_phylogeny(random.Random(seed), 300, weights), rt)
    assert (len(res.ops), res.iterations) == (ops, iterations)
    assert rt.snapshot() == metrics


def test_stale_classes_fail_instead_of_looping(monkeypatch):
    # with the classes carried between iterations never refreshed, the
    # junctions never go away: linearize must stop with an error, not loop
    real = Phylogeny.classify_nodes
    monkeypatch.setattr(
        Phylogeny, "classify_nodes", lambda self, nodes=None: real(self) if nodes is None else {})
    t = random_phylogeny(random.Random(504), 40)
    assert not is_linear(t)
    with pytest.raises(TreeError, match="did not converge"):
        linearize(t)


def test_linearize_operates_each_chain_edge_once_per_iteration():
    rng = random.Random(505)
    for _ in range(10):
        t = random_phylogeny(rng, rng.randint(8, 40))
        res = linearize(t)
        # across the whole run, an edge can recur, but the sequence length is
        # bounded by iterations * internal-edge count
        assert len(res.ops) <= res.iterations * len(t.internal_edges())


def _splice_choice(text):
    """Linearize a tree with one junction; returns (spliced endnode, tree, chains)."""
    t = newick.parse(text)
    chains = _chains(t)
    res = linearize(t)
    assert res.iterations == 1 and is_linear(res.tree)
    chain = [op.e2 for op in res.ops]
    spliced = [E for E, (_, path) in chains.items() if list(reversed(path)) == chain]
    assert len(spliced) == 1
    return spliced[0], t, chains


def test_linearize_splices_the_lightest_chain():
    # below the junction: a one-edge chain of weight 5 and a two-edge chain
    # of weight 1 + 1; the lighter chain wins although it is longer
    E, t, chains = _splice_choice("(a:1,b:1,((c:1,d:1):5,(e:1,(f:1,g:1):1):1):3);")
    assert [t.weight(e) for e in chains[E][1]] == [1, 1]


@pytest.mark.parametrize(
    "text, weights",
    [
        ("(a:1,b:1,((c:1,d:1):2,(e:1,(f:1,g:1):1):1):3);", [2]),
        ("(a:1,b:1,((e:1,(f:1,g:1):1):1,(c:1,d:1):2):3);", [1, 1]),
    ],
    ids=["one-edge-chain-first", "two-edge-chain-first"],
)
def test_linearize_breaks_weight_ties_by_endnode_id(text, weights):
    # both chains weigh 2; the endnode parsed first has the smaller id and wins
    E, t, chains = _splice_choice(text)
    tied = [X for X, (J, _) in chains.items() if J == chains[E][0]]
    assert len(tied) == 2 and E == min(tied)
    assert [t.weight(e) for e in chains[E][1]] == weights


def _three_arms(arms):
    """One junction with three caterpillar arms; arm k's internal weights are ``arms[k]``.

    Weights run from the junction out; each arm node has one leaf but the
    last, which has two.  Arm 0 carries the smallest taxon, so the rooted
    view hangs from it, and arms 1 and 2 are the junction's endnode chains,
    arm 1's endnode with the smaller id.  Leaf edges weigh 1.
    """
    edges, weights, labels = {}, {}, {}

    def add(u, v, w):
        e = len(edges)
        edges[e] = (u, v)
        weights[e] = Fraction(w)

    fresh = 1
    for ws in arms:
        up = 0
        for i, w in enumerate(ws):
            x, fresh = fresh, fresh + 1
            add(up, x, w)
            for _ in range(2 if i == len(ws) - 1 else 1):
                labels[fresh] = f"t{len(labels):03d}"
                add(x, fresh, 1)
                fresh += 1
            up = x
    return Phylogeny(edges, weights, labels)


F = Fraction


@pytest.mark.parametrize(
    "chains, spliced",
    [
        (([F(1, 3)] * 3, [1]), [F(1, 3)] * 3),
        (([1], [F(1, 3)] * 3), [1]),
        (([F(2, 7), F(5, 7)], [1]), [F(2, 7), F(5, 7)]),
        # 0.1 + 0.2 > 0.3 in floats
        (([F(1, 10), F(2, 10)], [F(3, 10)]), [F(1, 10), F(2, 10)]),
        (([F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]), [F(1, 2), F(1, 2)]),
        (([F(1, 3)] * 3, [1 - F(1, 10**30)]), [1 - F(1, 10**30)]),
        (([F(2, 7)] * 7, [F(1, 3)] * 6), [F(2, 7)] * 7),
    ],
    ids=["thirds-first", "one-first", "sevenths", "tenths", "repeated", "near-tie", "long"],
)
def test_int_chain_weights_choose_as_fraction_sums(chains, spliced):
    # the chain sums are ints over the lcm of the denominators; they must
    # tie, and break ties by endnode id, exactly where the Fraction sums do
    t = _three_arms(([2, 3],) + chains)
    res = linearize(t)
    assert res.iterations == 1 and is_linear(res.tree)
    assert res.ops == linearize_by_fraction_sums(t)
    assert [t.weight(op.e2) for op in res.ops] == spliced


def test_linearize_matches_the_fraction_sum_oracle():
    rng = random.Random(507)
    pool = [F(1, 3), F(2, 3), F(2, 7), F(5, 7), F(1, 2), F(1, 10), F(3, 10), F(1)]
    moved = 0
    for _ in range(40):
        shape = random_phylogeny(rng, rng.randint(6, 48))
        t = Phylogeny(
            {e: shape.endpoints(e) for e in shape.edge_ids()},
            {e: rng.choice(pool) for e in shape.edge_ids()},
            {v: shape.leaf_label(v) for v in shape.nodes() if shape.is_leaf(v)},
        )
        ops = linearize(t).ops
        assert ops == linearize_by_fraction_sums(t)
        moved += len(ops)
    assert moved > 100


def _three_caterpillars(n):
    """Three caterpillars of n/3 taxa, each hung by one end from one junction."""
    k = n // 3
    edges, weights, labels = {}, {}, {}

    def add(u, v, w):
        e = len(edges)
        edges[e] = (u, v)
        weights[e] = Fraction(w)

    junction, fresh = 0, 1
    for arm in range(3):
        # k - 1 arm nodes: one leaf on each, two on the last
        up = junction
        for i in range(k - 1):
            x, fresh = fresh, fresh + 1
            add(up, x, arm * k + i + 1)
            for _ in range(2 if i == k - 2 else 1):
                labels[fresh] = f"t{len(labels):05d}"
                add(x, fresh, 1)
                fresh += 1
            up = x
    return Phylogeny(edges, weights, labels)


def test_long_chains_are_walked_once(monkeypatch):
    n = 3000
    t = _three_caterpillars(n)
    assert t.n_taxa == n
    assert list(t.classify_nodes().values()).count(NodeClass.JUNCTION) == 1
    # paths read per iteration: endnode_paths opens one, chain_path fills it
    reads = []
    real_paths, real_chain = linearize_module.endnode_paths, linearize_module.chain_path

    def counting_paths(*args, **kwargs):
        reads.append(0)
        return real_paths(*args, **kwargs)

    def counting_chain(*args):
        path = real_chain(*args)
        reads[-1] += len(path)
        return path

    monkeypatch.setattr(linearize_module, "endnode_paths", counting_paths)
    monkeypatch.setattr(linearize_module, "chain_path", counting_chain)
    res = linearize(t)
    ok, _, reason = verify_transform(t, res.ops, res.tree)
    assert ok, reason
    assert is_linear(res.tree)
    assert len(reads) == res.iterations >= 1
    assert 0 < max(reads) <= n - 3


def test_spine_order():
    cat = caterpillar(8)
    nodes, edges = spine(cat)
    assert nodes == [0, 1, 2, 3, 4, 5]
    assert len(edges) == 5
    rng = random.Random(506)
    for _ in range(10):
        t = random_phylogeny(rng, rng.randint(4, 30))
        res = linearize(t)
        nodes, edges = spine(res.tree)
        # spans every internal node, the internal edges in path order
        assert sorted(nodes) == [x for x in res.tree.nodes() if not res.tree.is_leaf(x)]
        assert sorted(edges) == res.tree.internal_edges()
        # each edge joins its two consecutive nodes
        for a, b, e in zip(nodes, nodes[1:], edges):
            assert set(res.tree.endpoints(e)) == {a, b}
        assert nodes[0] < nodes[-1]


def test_spine_of_a_star_and_a_quartet():
    star = newick.parse("(a:1,b:1,c:2);")
    (x,) = [x for x in star.nodes() if not star.is_leaf(x)]
    assert spine(star) == ([x], [])
    quartet = newick.parse("(a:1,b:2,(c:3,d:4):5);")
    inner = sorted(x for x in quartet.nodes() if not quartet.is_leaf(x))
    assert spine(quartet) == (inner, quartet.internal_edges())


def test_spine_rejects_a_junction():
    t = newick.parse("(a:1,b:1,((c:1,d:1):2,(e:1,f:1):1):3);")
    assert not is_linear(t)
    with pytest.raises(TreeError):
        spine(t)


def test_caterpillar_classes():
    cat = caterpillar(10)
    classes = cat.classify_nodes()
    nodes, _ = spine(cat)
    assert classes[nodes[0]] is NodeClass.ENDNODE
    assert classes[nodes[-1]] is NodeClass.ENDNODE
    assert all(classes[x] is NodeClass.PATHNODE for x in nodes[1:-1])
