"""Tree core: construction, validation, derived views."""

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist.gen import generate_pair
from nnidist.newick import serialize
from nnidist.nni import NniOp, apply_nni
from nnidist.phylo import NodeClass, Phylogeny, TreeError, finiteness_check
from nnidist.pipeline import approx_nni

from oracles import (
    canonical_equal_by_splits,
    caterpillar,
    classify_by_leaf_count,
    leaf_edge_of,
    leaf_edges,
    random_phylogeny,
    random_valid_op,
    renumbered,
    sides_by_removal,
    split_bits,
    splits_by_removal,
    weighted_splits,
)

SETTINGS = dict(derandomize=True, database=None, deadline=None)
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


def quartet():
    """Leaves a,b,c,d; internal nodes 4 (ab side) and 5 (cd side)."""
    edges = {0: (4, 0), 1: (4, 1), 2: (5, 2), 3: (5, 3), 4: (4, 5)}
    weights = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5}
    labels = {0: "a", 1: "b", 2: "c", 3: "d"}
    return Phylogeny(edges, weights, labels)


def test_quartet_accessors():
    t = quartet()
    assert t.n_taxa == 4
    assert t.taxa() == ("a", "b", "c", "d")
    assert t.internal_edges() == [4]
    assert set(leaf_edges(t)) == {0, 1, 2, 3}
    assert t.weight(4) == 5
    assert t.other_end(4, 4) == 5
    assert t.degree(4) == 3
    assert t.is_leaf(0) and not t.is_leaf(4)
    assert t.leaf_node("c") == 2
    assert t.leaf_label(2) == "c"
    assert leaf_edge_of(t, "d") == 3
    assert t.root_handle() == 4
    assert t.leaf_weight_map() == {"a": 1, "b": 2, "c": 3, "d": 4}
    assert t.internal_weight_multiset() == (Fraction(5),)
    assert t.validate() == []


def test_quartet_splits():
    t = quartet()
    assert splits_by_removal(t) == {4: frozenset({"c", "d"})}
    assert weighted_splits(t) == {frozenset({"c", "d"}): Fraction(5)}


def test_three_taxon_star_is_valid():
    t = Phylogeny(
        {0: (3, 0), 1: (3, 1), 2: (3, 2)},
        {0: 1, 1: 1, 2: 2},
        {0: "x", 1: "y", 2: "z"},
    )
    assert t.internal_edges() == []
    assert weighted_splits(t) == {}
    assert t.classify_nodes() == {3: NodeClass.ENDNODE}


@pytest.mark.parametrize(
    "edges,weights,labels,fragment",
    [
        # two leaves only
        ({0: (0, 1)}, {0: 1}, {0: "a", 1: "b"}, "at least 3"),
        # internal degree 4
        (
            {0: (4, 0), 1: (4, 1), 2: (4, 2), 3: (4, 3)},
            {0: 1, 1: 1, 2: 1, 3: 1},
            {0: "a", 1: "b", 2: "c", 3: "d"},
            "degree 4",
        ),
        # zero weight
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2)},
            {0: 0, 1: 1, 2: 1},
            {0: "a", 1: "b", 2: "c"},
            "nonpositive",
        ),
        # duplicate labels
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2)},
            {0: 1, 1: 1, 2: 1},
            {0: "a", 1: "a", 2: "c"},
            "duplicate",
        ),
        # unlabeled leaf
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2)},
            {0: 1, 1: 1, 2: 1},
            {0: "a", 1: "b"},
            "no taxon label",
        ),
        # disconnected (two separate stars share no node)
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2), 3: (7, 4), 4: (7, 5), 5: (7, 6)},
            {i: 1 for i in range(6)},
            {0: "a", 1: "b", 2: "c", 4: "d", 5: "e", 6: "f"},
            "not a tree",
        ),
        # self loop
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2), 3: (3, 3)},
            {0: 1, 1: 1, 2: 1, 3: 1},
            {0: "a", 1: "b", 2: "c"},
            "self-loop",
        ),
        # zero and negative weights that already are Fractions
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2)},
            {0: Fraction(0), 1: 1, 2: 1},
            {0: "a", 1: "b", 2: "c"},
            "nonpositive",
        ),
        (
            {0: (3, 0), 1: (3, 1), 2: (3, 2)},
            {0: 1, 1: Fraction(-1, 2), 2: 1},
            {0: "a", 1: "b", 2: "c"},
            "edge 1 has nonpositive weight -1/2",
        ),
    ],
)
def test_validation_rejects(edges, weights, labels, fragment):
    with pytest.raises(TreeError, match=fragment):
        Phylogeny(edges, weights, labels)


@pytest.mark.parametrize(
    "given_weight,stored",
    [(3, Fraction(3)), ("3/2", Fraction(3, 2)), (Fraction(2, 7), Fraction(2, 7))],
)
def test_weights_are_stored_as_fractions(given_weight, stored):
    t = Phylogeny(
        {0: (3, 0), 1: (3, 1), 2: (3, 2)},
        {0: given_weight, 1: 1, 2: 1},
        {0: "a", 1: "b", 2: "c"},
    )
    assert type(t.weight(0)) is Fraction
    assert t.weight(0) == stored


_WEIGHT = st.one_of(
    # few values, so repeats are common, with non-decimal denominators
    st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(5), Fraction(9, 4)]),
    st.builds(Fraction, st.integers(1, 50), st.integers(1, 12)),
    # numerators and denominators above 2**64
    st.builds(Fraction, st.integers(1, 2**80), st.integers(2**64, 2**80)),
    st.builds(Fraction, st.integers(2**64, 2**80), st.integers(1, 2**80)),
)


@settings(max_examples=150, **SETTINGS)
@given(st.lists(_WEIGHT, min_size=1, max_size=25))
def test_internal_weight_multiset_sorts_in_fraction_order(ws):
    t = caterpillar(len(ws) + 3, ws)
    got = t.internal_weight_multiset()
    assert got == tuple(sorted(ws))
    assert all(type(w) is Fraction for w in got)


def test_classify_matches_adjacency_scan():
    rng = random.Random(401)
    for _ in range(30):
        t = random_phylogeny(rng, rng.randint(3, 40))
        got = {x: c.value for x, c in t.classify_nodes().items()}
        assert got == classify_by_leaf_count(t)


def test_canonical_equal_ignores_ids():
    rng = random.Random(404)
    for _ in range(15):
        t = random_phylogeny(rng, rng.randint(4, 15))
        other = renumbered(t, rng)
        assert t.canonical_equal(other)
        assert other.canonical_equal(t)


def test_rooted_view_orders_children_by_smallest_taxon():
    rng = random.Random(407)
    for _ in range(20):
        t = random_phylogeny(rng, rng.randint(3, 30))
        internal = [x for x in t.nodes() if not t.is_leaf(x)]
        for root in (None, rng.choice(internal)):
            view = t.rooted_view(root)

            def below(x):
                """The taxa on x's side of its parent edge."""
                e = view.parent_edge[x]
                return sides_by_removal(t, e)[t.endpoints(e).index(x)]

            assert view.order[0] == (t.root_handle() if root is None else root)
            assert sorted(view.order) == t.nodes()
            seen = set()
            for x in view.order:
                e = view.parent_edge[x]
                assert (e is None) == (x == view.order[0])
                if e is not None:
                    parent = t.other_end(e, x)
                    assert parent in seen and x in view.children[parent]
                seen.add(x)
                mins = [min(below(c)) for c in view.children[x]]
                assert mins == sorted(mins)
                assert len(view.children[x]) == t.degree(x) - (e is not None)


@settings(max_examples=40, **SETTINGS)
@given(
    n=st.integers(4, 16),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 32),
    dup=st.booleans(),
    steps=st.lists(st.sampled_from(["move", "copy", "view"]), max_size=12),
)
def test_kept_rooted_view_matches_a_fresh_build(n, seed, moves, dup, steps):
    # a view from an explicit root is never kept, so it is built from the tree
    # as it is now; the default view may have been kept from an earlier call
    def current(t):
        return t.rooted_view() == t.rooted_view(t.root_handle())

    rng = random.Random(seed)
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    trees = [t1, t2]
    for step in steps:
        t = rng.choice(trees)
        if step == "move":
            apply_nni(t, random_valid_op(rng, t))
        elif step == "copy":
            trees.append(t.copy())
        else:
            t.rooted_view()
        assert all(current(t) for t in trees)
    # moves and copies keep every tree finite against every other
    approx_nni(rng.choice(trees), rng.choice(trees))
    assert all(current(t) for t in trees)


def test_rooted_view_rejects_a_leaf_root():
    t = quartet()
    with pytest.raises(TreeError, match="leaf"):
        t.rooted_view(0)


def test_split_bits_match_removal_oracle():
    rng = random.Random(408)
    for _ in range(25):
        t = random_phylogeny(rng, rng.randint(3, 30))
        taxa = t.taxa()
        got = {
            e: frozenset(s for i, s in enumerate(taxa) if bits >> i & 1)
            for e, bits in split_bits(t).items()
        }
        assert got == splits_by_removal(t)


def _one_move(rng: random.Random, tree: Phylogeny) -> Phylogeny:
    out = tree.copy()
    e2 = rng.choice(out.internal_edges())
    u, v = out.endpoints(e2)
    e1 = rng.choice([e for e in out.adjacent_edges(u) if e != e2])
    e3 = rng.choice([e for e in out.adjacent_edges(v) if e != e2])
    apply_nni(out, NniOp(e1, e2, e3))
    return out


def _weights_swapped(rng: random.Random, tree: Phylogeny) -> Phylogeny:
    out = tree.copy()
    a, b = rng.sample(out.internal_edges(), 2)
    out._wt[a], out._wt[b] = out._wt[b], out._wt[a]
    return out


def test_canonical_equal_agrees_with_serialization():
    # the two canonical notions read the same rooted view and must agree
    rng = random.Random(409)
    verdicts = []
    for seed in range(60):
        n = rng.randint(5, 24)
        t, _, _ = generate_pair(seed=seed, n=n, moves=0, dup_weights=seed % 2 == 0)
        others = [
            t.copy(),
            renumbered(t, rng),
            _one_move(rng, t),
            renumbered(_one_move(rng, t), rng),
            _one_move(rng, _one_move(rng, t)),
            _weights_swapped(rng, t),
        ]
        for u in others:
            verdict = t.canonical_equal(u)
            assert verdict == u.canonical_equal(t)
            assert verdict == (serialize(t) == serialize(u))
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def rebuilt(tree, rng, weights=None, labels=None):
    """``tree`` with fresh node and edge ids and every table in a shuffled order.

    ``weights`` and ``labels`` replace entries, keyed by the old ids.
    """
    nodes = tree.nodes()
    node_id = dict(zip(nodes, rng.sample(range(1000, 1000 + 3 * len(nodes)), len(nodes))))
    eids = tree.edge_ids()
    edge_id = dict(zip(eids, rng.sample(range(5000, 5000 + 3 * len(eids)), len(eids))))
    w = {e: tree.weight(e) for e in eids} | (weights or {})
    lab = {v: tree.leaf_label(v) for v in nodes if tree.is_leaf(v)} | (labels or {})
    rng.shuffle(eids)
    leaves = list(lab)
    rng.shuffle(leaves)
    return Phylogeny(
        {edge_id[e]: tuple(node_id[x] for x in tree.endpoints(e)) for e in eids},
        {edge_id[e]: w[e] for e in eids},
        {node_id[v]: lab[v] for v in leaves},
    )


@settings(max_examples=60, **SETTINGS)
@given(n=st.integers(4, 40), seed=st.integers(0, 10**6), dup=st.booleans())
def test_canonical_equal_agrees_with_the_split_map_oracle(n, seed, dup):
    t, _, _ = generate_pair(seed=seed, n=n, moves=0, dup_weights=dup)
    rng = random.Random(seed)
    internal = rng.choice(t.internal_edges())
    leaf_a, leaf_b = rng.sample([v for v in t.nodes() if t.is_leaf(v)], 2)
    e_a = t.adjacent_edges(leaf_a)[0]
    equal = [rebuilt(t, rng), rebuilt(t, rng)]
    misses = [
        rebuilt(t, rng, weights={internal: t.weight(internal) + Fraction(1, 7)}),
        rebuilt(t, rng, weights={e_a: t.weight(e_a) * 2}),
        rebuilt(t, rng, labels={leaf_a: "zz-renamed"}),
        # same weight multisets on another topology
        rebuilt(_one_move(rng, t), rng),
    ]
    # two taxa trading places can give the same tree back (a cherry of
    # equal leaf weights), so only agreement is asserted for it
    swapped = rebuilt(t, rng, labels={leaf_a: t.leaf_label(leaf_b), leaf_b: t.leaf_label(leaf_a)})
    for u, expected in [(u, True) for u in equal] + [(u, False) for u in misses] + [
        (swapped, None)
    ]:
        verdict = canonical_equal_by_splits(t, u)
        assert expected is None or verdict == expected
        assert t.canonical_equal(u) == verdict
        assert u.canonical_equal(t) == verdict
    assert equal[0].canonical_equal(equal[1])


@settings(max_examples=80, **SETTINGS)
@given(
    n=st.integers(4, 48),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 3),
    dup=st.booleans(),
)
def test_canonical_equal_on_near_misses_is_the_split_oracle(n, seed, moves, dup):
    # each near miss sits at the far end of the breadth-first walk, where a
    # walk that stopped early or paired the wrong nodes would not look
    _, t, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    rng = random.Random(seed)
    order, parent_edge, children = t.rooted_view()
    deep_leaf = order[-1]
    deep_edge = parent_edge[[x for x in order[1:] if children[x]][-1]]
    w = t.weight(deep_edge)
    cases = [
        (rebuilt(t, rng), True),
        (rebuilt(t, rng, weights={parent_edge[deep_leaf]: t.weight(parent_edge[deep_leaf])
                                  + Fraction(1, 10**6)}), False),
        (rebuilt(t, rng, weights={deep_edge: w + Fraction(1, 10**6)}), False),
    ]
    others = [e for e in t.internal_edges() if e != deep_edge]
    same = [e for e in others if t.weight(e) == w]
    differ = [e for e in others if t.weight(e) != w]
    if same:
        # repeated weights: two edges of one weight trading weights is the same tree
        cases.append((rebuilt(t, rng, weights={same[0]: w, deep_edge: t.weight(same[0])}), True))
    if differ:
        # another internal weight on the deep edge, or the two trading weights
        # (the same multiset on other splits)
        f = rng.choice(differ)
        cases.append((rebuilt(t, rng, weights={deep_edge: t.weight(f)}), False))
        cases.append((rebuilt(t, rng, weights={deep_edge: t.weight(f), f: w}), False))
    # two taxa trading places, one of them deep: a cherry of equal leaf
    # weights gives the same tree back, so only the oracle knows
    other = rng.choice([v for v in t.nodes() if t.is_leaf(v) and v != deep_leaf])
    cases.append((rebuilt(t, rng, labels={deep_leaf: t.leaf_label(other),
                                          other: t.leaf_label(deep_leaf)}), None))
    for u, expected in cases:
        verdict = canonical_equal_by_splits(t, u)
        assert expected is None or verdict == expected
        assert t.canonical_equal(u) == verdict
        assert u.canonical_equal(t) == verdict


@pytest.mark.parametrize("seed", range(6))
def test_copy_lists_adjacent_edges_as_a_fresh_tree_does(seed):
    rng = random.Random(500 + seed)
    t = random_phylogeny(rng, 9, weights="small")
    for _ in range(5):
        apply_nni(t, random_valid_op(rng, t))
    fresh = Phylogeny(
        {e: t.endpoints(e) for e in t.edge_ids()},
        {e: t.weight(e) for e in t.edge_ids()},
        {v: t.leaf_label(v) for v in t.nodes() if t.is_leaf(v)},
    )
    copied = t.copy()
    assert copied.validate() == []
    for x in t.nodes():
        assert copied.adjacent_edges(x) == fresh.adjacent_edges(x)
    assert any(t.adjacent_edges(x) != fresh.adjacent_edges(x) for x in t.nodes())
    # moving the copy leaves the original alone
    apply_nni(copied, random_valid_op(rng, copied))
    assert not copied.canonical_equal(t)
    assert [t.endpoints(e) for e in t.edge_ids()] == [fresh.endpoints(e) for e in fresh.edge_ids()]


def test_canonical_equal_sees_weight_change():
    t = quartet()
    u = Phylogeny(
        {0: (4, 0), 1: (4, 1), 2: (5, 2), 3: (5, 3), 4: (4, 5)},
        {0: 1, 1: 2, 2: 3, 3: 4, 4: 6},
        {0: "a", 1: "b", 2: "c", 3: "d"},
    )
    assert not t.canonical_equal(u)


def test_finiteness_check_reports_reasons():
    rng = random.Random(405)
    t = random_phylogeny(rng, 12)
    ok, reasons = finiteness_check(t, t.copy())
    assert ok and reasons == []

    # permuting which internal edge carries which weight keeps it feasible
    u = t.copy()
    ie = u.internal_edges()
    if len(ie) >= 2:
        a, b = ie[0], ie[1]
        u._wt[a], u._wt[b] = u._wt[b], u._wt[a]
        assert finiteness_check(t, u)[0]

    # changing one leaf weight breaks it, with the taxon named
    v = t.copy()
    e = leaf_edge_of(v, "t003")
    v._wt[e] += 1
    ok, reasons = finiteness_check(t, v)
    assert not ok
    assert any("t003" in r for r in reasons)

    # changing one internal weight breaks the multiset
    w = t.copy()
    w._wt[w.internal_edges()[0]] += 1
    ok, reasons = finiteness_check(t, w)
    assert not ok
    assert any("multiset" in r for r in reasons)


def test_finiteness_check_taxa_mismatch_is_an_error():
    rng = random.Random(406)
    t = random_phylogeny(rng, 6)
    u = random_phylogeny(rng, 7)
    with pytest.raises(TreeError, match="taxon sets differ"):
        finiteness_check(t, u)
