"""Good-pair detection and decomposition against brute-force references."""

from __future__ import annotations

import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist.gen import generate_pair
from nnidist.goodpairs import (
    GoodEdgePairSet,
    PairBound,
    _cut_components,
    decompose,
    find_good_edge_pairs,
    first_free_cut,
    lower_bound,
)
from nnidist.nni import NniOp, apply_nni
from nnidist.phylo import Phylogeny, TreeError, finiteness_check
from oracles import (
    caterpillar,
    cut_components_by_validation,
    good_pair_oracle,
    leaf_edge_of,
    random_phylogeny,
    splits_by_removal,
    weight_partition_by_removal,
)

# Hypothesis caches the constants of local source files while the tests are
# collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


# ----------------------------------------------------------------------
# references

def relabeled(tree: Phylogeny, mapping: dict[str, str]) -> Phylogeny:
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    labels = {tree.leaf_node(t): mapping.get(t, t) for t in tree.taxa()}
    return Phylogeny(edges, weights, labels)


# ----------------------------------------------------------------------
# finding pairs

def test_identical_trees_pair_every_internal_edge():
    tree = random_phylogeny(random.Random(41), 10)
    found = find_good_edge_pairs(tree, tree.copy())
    assert found.pairs == [(e, e) for e in tree.internal_edges()]


def test_no_shared_split_means_no_pairs():
    t1 = caterpillar(6)
    t2 = relabeled(
        caterpillar(6),
        {"t001": "t002", "t002": "t004", "t003": "t001", "t004": "t003"},
    )
    assert find_good_edge_pairs(t1, t2).pairs == []
    assert decompose(t1, t2, GoodEdgePairSet([])) == [(t1, t2)]


def test_find_rejects_infeasible_instances():
    t1 = caterpillar(6, [1, 2, 3])
    t2 = caterpillar(6, [1, 2, 4])
    with pytest.raises(TreeError):
        find_good_edge_pairs(t1, t2)


def test_shared_split_and_weight_without_shared_weight_partition():
    # edge 1 splits the same taxa with weight 5 in both trees, but weight 2
    # sits beyond it in the first tree and weight 1 in the second
    t1 = caterpillar(7, [1, 5, 2, 3])
    t2 = caterpillar(7, [2, 5, 1, 3])
    assert splits_by_removal(t1)[1] == splits_by_removal(t2)[1]
    assert find_good_edge_pairs(t1, t2).pairs == good_pair_oracle(t1, t2) == [(3, 3)]


@pytest.mark.parametrize("seed", range(20))
def test_find_matches_quadratic_oracle(seed):
    rng = random.Random(1300 + seed)
    n = rng.randint(5, 14)
    t1, t2, _ = generate_pair(seed, n, rng.randint(1, 2 * n), dup_weights=seed % 3 == 0)
    found = find_good_edge_pairs(t1, t2)
    assert found.pairs == sorted(good_pair_oracle(t1, t2))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 10**6), moves=st.integers(0, 80))
def test_keys_are_unique_and_the_table_pairs_like_the_oracle(n, seed, moves):
    # repeated weights give many edges one weight, yet their splits still differ
    t1, t2, _ = generate_pair(seed, n, moves, dup_weights=True)
    check_keys_pair_like_the_oracle(t1, t2, n)


def check_keys_pair_like_the_oracle(t1, t2, n):
    table = PairBound(t2)
    for tree in (t1, t2):
        keys = table.edge_keys(tree)
        assert len(set(keys.values())) == len(keys) == n - 3
        # each key spells its edge's weight and the weights beyond it: a
        # field that carried into its neighbour would read a wrong count
        for e, (rank, _, vec) in keys.items():
            assert rank == table.rank[tree.weight(e)]
            assert decoded(table, vec) == Counter(weight_partition_by_removal(tree, e)[0])
    assert table.pairs(table.edge_keys(t1)) == sorted(good_pair_oracle(t1, t2))


def decoded(table, vec):
    """The weight multiset a count vector spells, field by field."""
    out = Counter()
    for w, r in table.rank.items():
        lo, hi = table.offsets[r], table.offsets[r + 1]
        count = (vec >> lo) & ((1 << (hi - lo)) - 1)
        if count:
            out[w] = count
    return out


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 9),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 20),
    dup=st.booleans(),
)
def test_moved_key_is_the_key_of_the_moved_tree(n, seed, moves, dup):
    t1, t2, _ = generate_pair(seed, n, moves, dup_weights=dup)
    check_moved_keys(t1, t2, n)


def check_moved_keys(t1, t2, n):
    table = PairBound(t2)
    for tree in (t1, t2):
        keys = table.edge_keys(tree)
        sides = table.sides(tree)
        parent_edge = sides.parent_edge
        root = sides.root
        complements = set()
        for e2 in tree.internal_edges():
            # all eight operand choices, the mirror images included
            for u, v in (tree.endpoints(e2), tree.endpoints(e2)[::-1]):
                at_u = [e for e in tree.adjacent_edges(u) if e != e2]
                for e1 in at_u:
                    (b,) = [e for e in at_u if e != e1]
                    for e3 in tree.adjacent_edges(v):
                        if e3 == e2:
                            continue
                        moved = tree.copy()
                        apply_nni(moved, NniOp(e1, e2, e3))
                        after = table.edge_keys(moved)
                        key = table.moved_key(tree, sides, e1, e2, e3)
                        assert key == after[e2]
                        away, _ = weight_partition_by_removal(moved, e2)
                        assert decoded(table, key[2]) == Counter(away)
                        del after[e2]
                        assert after == {e: k for e, k in keys.items() if e != e2}
                        # beyond b or e3 lies the root: a complement of sides
                        if parent_edge[u] == b:
                            complements.add("e1 side")
                        if parent_edge[v] == e3:
                            complements.add("e3 side")
        # an internal edge that hangs from a node other than the root offers
        # the complement on both sides of it (at every n >= 6 one does)
        deep = any(
            e is not None and not tree.is_leaf(c) and tree.other_end(e, c) != root
            for c, e in parent_edge.items()
        )
        assert complements == ({"e1 side", "e3 side"} if deep else set())
        assert deep or n < 6


def reweighted(tree, internal):
    """``tree`` with internal edge e weighing ``internal[e]``, ids and leaves kept."""
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: Fraction(internal.get(e, tree.weight(e))) for e in edges}
    labels = {x: tree.leaf_label(x) for x in tree.nodes() if tree.is_leaf(x)}
    return Phylogeny(edges, weights, labels)


def repeated_pair(seed, n, moves, repeats):
    """A finite pair whose internal weights all repeat one value ("one") or
    come in multiplicities 1, 1, 2, 4, 8, ... ("mixed"): the move sequence
    keeps every edge id with its weight, so both trees get one reweighting."""
    t1, t2, _ = generate_pair(seed, n, moves)
    internal = t1.internal_edges()
    if repeats == "one":
        weights = {e: 5 for e in internal}
    else:
        weights = {e: i.bit_length() + 1 for i, e in enumerate(internal)}
    return reweighted(t1, weights), reweighted(t2, weights)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 80),
    repeats=st.sampled_from(["one", "mixed"]),
)
def test_keys_pair_like_the_oracle_under_repeated_weights(n, seed, moves, repeats):
    t1, t2 = repeated_pair(seed, n, moves, repeats)
    if repeats == "one":
        # one field, wide enough for every internal edge
        assert PairBound(t2).offsets == [0, (n - 3).bit_length()]
    check_keys_pair_like_the_oracle(t1, t2, n)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 9),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 20),
    repeats=st.sampled_from(["one", "mixed"]),
)
def test_moved_key_is_the_key_of_the_moved_tree_under_repeated_weights(
    n, seed, moves, repeats
):
    t1, t2 = repeated_pair(seed, n, moves, repeats)
    check_moved_keys(t1, t2, n)


def check_helped_keys(t1, t2):
    """Every two-move key of both trees against the keys of the tree after both moves.

    Returns which parts were read as a complement, and from which end the
    view hangs e, so that a caller can see the cases were met.
    """
    table = PairBound(t2)
    met = set()
    for tree in (t1, t2):
        sides = table.sides(tree)
        parent_edge = sides.parent_edge
        internal = set(tree.internal_edges())
        for e in internal:
            for p in tree.endpoints(e):
                q = tree.other_end(e, p)
                for f in tree.adjacent_edges(p):
                    if f == e or f not in internal:
                        continue
                    x = tree.other_end(f, p)
                    (b,) = [g for g in tree.adjacent_edges(p) if g not in (e, f)]
                    got = table.helped_keys(tree, sides, e, f)
                    # four pairs (xi, qj), each in edge-id order
                    assert [(xi, qj) for xi, qj, _ in got] == [
                        (xi, qj)
                        for xi in sorted(g for g in tree.adjacent_edges(x) if g != f)
                        for qj in sorted(g for g in tree.adjacent_edges(q) if g != e)]
                    for xi, qj, key in got:
                        moved = tree.copy()
                        apply_nni(moved, NniOp(b, f, xi))
                        apply_nni(moved, NniOp(f, e, qj))
                        assert key == table.edge_keys(moved)[e]
                        away, _ = weight_partition_by_removal(moved, e)
                        assert decoded(table, key[2]) == Counter(away)
                        met.add("e hangs from p" if parent_edge[q] == e else "e hangs from q")
                        if parent_edge[p] == f:
                            met.add("f leads to the root")
                        if parent_edge[x] == xi:
                            met.add("xi leads to the root")
                        if parent_edge[q] == qj:
                            met.add("qj leads to the root")
    return met


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(5, 10),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 30),
    repeats=st.sampled_from(["distinct", "dup", "one", "mixed"]),
)
def test_helped_keys_are_the_keys_after_both_moves(n, seed, moves, repeats):
    # the helper move (B, f, xi) and the pairing move (f, e, qj), made for
    # real on a copy, give e the kernel's key, for every (e, f, xi, qj); the
    # repeated weights, all one value or multiplicities 1, 1, 2, 4, ...,
    # fill the narrow count fields, which must not carry
    if repeats in ("distinct", "dup"):
        t1, t2, _ = generate_pair(seed, n, moves, dup_weights=repeats == "dup")
    else:
        t1, t2 = repeated_pair(seed, n, moves, repeats)
    check_helped_keys(t1, t2)


@pytest.mark.parametrize("repeats", ["distinct", "one"])
def test_helped_keys_meet_both_orientations_and_every_complement(repeats):
    # over a few pairs, the kernel reads e hung from either end, and reads
    # a part beyond f, xi and qj that holds the view root as a complement
    met = set()
    for seed in range(1, 6):
        if repeats == "distinct":
            t1, t2, _ = generate_pair(seed, 9, 12)
        else:
            t1, t2 = repeated_pair(seed, 9, 12, repeats)
        met |= check_helped_keys(t1, t2)
    assert met == {"e hangs from p", "e hangs from q", "f leads to the root",
                   "xi leads to the root", "qj leads to the root"}


@pytest.mark.parametrize("dup", [False, True])
@pytest.mark.parametrize("n", [4, 9, 40, 300])
def test_count_fields_are_as_wide_as_the_multiplicities(n, dup):
    t1, t2, _ = generate_pair(n, n, 2 * n, dup_weights=dup)
    table = PairBound(t2)
    counts = Counter(t2.internal_weight_multiset())
    widths = [b - a for a, b in zip(table.offsets, table.offsets[1:])]
    assert widths == [m.bit_length() for w, m in sorted(counts.items())]
    assert table.offsets[-1] == sum(m.bit_length() for m in counts.values())
    if not dup:
        # distinct weights: one bit per weight
        assert table.offsets == list(range(n - 2))
    rank, field = table.edge_fields(t1)
    for e in t1.internal_edges():
        assert rank[e] == table.rank[t1.weight(e)]
        assert field[e] == 1 << table.offsets[rank[e]]
    # the root's vector holds every copy, and each field reads back its count
    sides = table.sides(t1)
    total = sides.vecs[sides.root]
    assert total.bit_length() <= table.offsets[-1]
    assert decoded(table, total) == counts


@pytest.mark.parametrize(
    "target, weights",
    [
        ([1, 2, 3, 4], [1, 2, 2, 4]),  # 3 is gone
        ([1, 2, 3, 4], [1, 2, 3, 5]),  # 5 has no field
        ([1, 2, 2, 3, 4], [1, 1, 2, 3, 4]),  # a second 1 would carry into 2's field
        ([1, 2, 3, 3, 4], [1, 2, 3, 4, 4]),  # a second 4 runs past the last field
    ],
)
def test_a_tree_with_other_multiplicities_is_refused(target, weights):
    table = PairBound(caterpillar(len(target) + 3, target))
    tree = caterpillar(len(weights) + 3, weights)
    for call in (table.edge_fields, table.sides, table.edge_keys, table):
        with pytest.raises(TreeError, match="multiset differs"):
            call(tree)


@pytest.mark.parametrize("seed", range(20))
def test_lower_bound_is_the_unpaired_weight(seed):
    rng = random.Random(1400 + seed)
    n = rng.randint(4, 14)
    t1, t2, _ = generate_pair(seed, n, rng.randint(0, 2 * n), dup_weights=seed % 3 == 0)
    w = sum((t1.weight(e) for e in t1.internal_edges()), Fraction(0))
    paired = sum((t1.weight(e1) for e1, _ in good_pair_oracle(t1, t2)), Fraction(0))
    assert lower_bound(t1, t2) == w - paired
    assert lower_bound(t2, t1) == w - paired
    assert PairBound(t2)(t1) == w - paired
    assert PairBound(t1)(t2) == w - paired


@pytest.mark.parametrize("seed", range(6))
def test_bounds_summed_in_ints_equal_the_fraction_sums(seed):
    # fractional weights over several denominators, most of them repeated:
    # the lcm sum must give exactly the Fraction that adding one by one gives
    t1, t2 = repeated_pair(seed, 9 + 3 * seed, 2 * seed + 4, "mixed")
    pool = [Fraction(1, 3), Fraction(5, 4), Fraction(2, 7), Fraction(7, 10), Fraction(3)]
    internal = {e: pool[int(t1.weight(e)) % len(pool)] for e in t1.internal_edges()}
    t1, t2 = reweighted(t1, internal), reweighted(t2, internal)
    paired = {e1 for e1, _ in good_pair_oracle(t1, t2)}
    unpaired = sum((t1.weight(e) for e in t1.internal_edges() if e not in paired), Fraction(0))
    assert len(set(internal.values())) > 1 and unpaired.denominator > 1
    assert lower_bound(t1, t2) == unpaired
    assert PairBound(t2)(t1) == unpaired
    assert lower_bound(t1, t1.copy()) == PairBound(t1)(t1) == Fraction(0)


def test_lower_bound_rejects_infeasible_instances():
    with pytest.raises(TreeError):
        lower_bound(caterpillar(6, [1, 2, 3]), caterpillar(6, [1, 2, 4]))


def test_find_is_deterministic():
    t1, t2, _ = generate_pair(9, 11, 7)
    a = find_good_edge_pairs(t1, t2)
    b = find_good_edge_pairs(t1, t2)
    assert a.pairs == b.pairs


# ----------------------------------------------------------------------
# decomposition

def one_pair_instance():
    t1 = caterpillar(6, [5, 1, 5])
    t2 = relabeled(
        caterpillar(6, [5, 1, 5]),
        {"t000": "t002", "t001": "t000", "t002": "t001", "t004": "t003", "t003": "t004"},
    )
    return t1, t2


def test_one_pair_decomposes_into_two_components():
    t1, t2 = one_pair_instance()
    pairs = find_good_edge_pairs(t1, t2)
    assert len(pairs) == 1
    parts = decompose(t1, t2, pairs)
    assert len(parts) == 2
    for c1, c2 in parts:
        pseudo = [t for t in c1.taxa() if t.startswith(":cut:")]
        assert pseudo == [":cut:0:"]
        assert c1.taxa() == c2.taxa()
        assert c1.n_taxa == 4


def test_decompose_identity_cuts_everywhere():
    tree = random_phylogeny(random.Random(51), 8)
    pairs = find_good_edge_pairs(tree, tree.copy())
    parts = decompose(tree, tree.copy(), pairs)
    assert len(parts) == len(pairs) + 1
    for c1, c2 in parts:
        assert c1.canonical_equal(c2)
        assert not c1.internal_edges()


@pytest.mark.parametrize("seed", [3, 8, 10, 15, 20, 27])
def test_decompose_preserves_weight_accounting(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    t1, t2, _ = generate_pair(seed, n, 2, dup_weights=seed % 2 == 0)
    pairs = find_good_edge_pairs(t1, t2)
    parts = decompose(t1, t2, pairs)
    total = Counter(t1.weight(e) for e in t1.internal_edges())
    cut = Counter(t1.weight(e) for e, _ in pairs.pairs)
    pieces: Counter = Counter()
    for c1, _ in parts:
        pieces.update(c1.weight(e) for e in c1.internal_edges())
    assert pieces + cut == total
    taxa = Counter()
    for c1, _ in parts:
        taxa.update(t for t in c1.taxa() if not t.startswith(":cut:"))
    assert taxa == Counter(t1.taxa())
    # the pipeline skips exactly the stars: every other component needs moves
    for c1, c2 in parts:
        assert c1.canonical_equal(c2) == (not c1.internal_edges())


@pytest.mark.parametrize("seed", [2, 5, 9, 14, 21])
def test_components_have_no_further_pairs(seed):
    rng = random.Random(40 + seed)
    n = rng.randint(6, 12)
    t1, t2, _ = generate_pair(seed, n, 3, dup_weights=True)
    pairs = find_good_edge_pairs(t1, t2)
    if not pairs.pairs:
        pytest.skip("instance has no pairs to cut")
    for c1, c2 in decompose(t1, t2, pairs):
        assert find_good_edge_pairs(c1, c2).pairs == []


def test_decompose_rejects_a_bogus_pair():
    t1, t2, _ = generate_pair(30, 8, 12)
    e1 = t1.internal_edges()[0]
    sp1, sp2 = splits_by_removal(t1), splits_by_removal(t2)
    e2 = next(e for e in t2.internal_edges() if sp2[e] != sp1[e1])
    with pytest.raises(TreeError):
        decompose(t1, t2, GoodEdgePairSet([(e1, e2)]))


@pytest.mark.parametrize("dup_weights", [False, True])
@pytest.mark.parametrize("n", [5, 9, 20, 48])
def test_components_are_the_validating_cut_table_for_table(n, dup_weights):
    # the parts are built without validate(), so each must be the part the
    # validating constructor builds, dict order included: move sequences
    # name edges in the order the adjacency lists them
    cut = parts = 0
    for seed in range(1, 9):
        t1, t2, _ = generate_pair(seed, n, n // 2 + 1, dup_weights=dup_weights)
        instances = [(t1, t2), (t1, t1.copy())]  # the second cuts every internal edge
        for a, b in instances:
            pairs = find_good_edge_pairs(a, b).pairs
            cut += len(pairs)
            for tree, cuts in ((a, {e1: k for k, (e1, _) in enumerate(pairs)}),
                               (b, {e2: k for k, (_, e2) in enumerate(pairs)})):
                got = _cut_components(tree, cuts)
                want = cut_components_by_validation(tree, cuts)
                assert len(got) == len(want) == len(pairs) + 1
                for part, ref in zip(got, want):
                    for table in ("_ends", "_wt", "_adj", "_leaf_label", "_label_leaf"):
                        assert list(getattr(part, table).items()) == \
                            list(getattr(ref, table).items()), table
                    assert part.validate() == []
                    parts += 1
    assert cut > 8 and parts > cut


def test_decompose_refuses_cut_edges_with_swapped_weights():
    # a bogus pair set whose cut edges trade weights between the trees: the
    # pseudo-leaf edges then differ in weight, so the parts are not finite
    t1 = caterpillar(8)
    swap = {0: t1.weight(4), 4: t1.weight(0)}
    t2 = Phylogeny(
        {e: t1.endpoints(e) for e in t1.edge_ids()},
        {e: swap.get(e, t1.weight(e)) for e in t1.edge_ids()},
        {t1.leaf_node(t): t for t in t1.taxa()},
    )
    with pytest.raises(TreeError, match="component pair is not finite"):
        decompose(t1, t2, GoodEdgePairSet([(0, 0), (4, 4)]))


def test_decompose_refuses_internal_weights_swapped_across_a_cut():
    # the full trees are finite, and the cut edge 3 keeps its weight, but
    # weights 1 and 7 trade sides of it: each component's internal multiset
    # differs between the trees
    t1 = caterpillar(10, [1, 2, 3, 4, 5, 6, 7])
    t2 = caterpillar(10, [7, 2, 3, 4, 5, 6, 1])
    assert finiteness_check(t1, t2) == (True, [])
    cuts = {3: 0}
    for a, b in zip(_cut_components(t1, cuts), _cut_components(t2, cuts)):
        assert a.taxa() == b.taxa()
        assert finiteness_check(a, b) == (False, ["internal edge weight multisets differ"])
    with pytest.raises(TreeError, match="component pair is not finite"):
        decompose(t1, t2, GoodEdgePairSet([(3, 3)]))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(5, 16),
    seed=st.integers(0, 10**6),
    repeats=st.sampled_from(["one", "mixed", "distinct"]),
    data=st.data(),
)
def test_decompose_refuses_exactly_the_pair_sets_with_a_part_that_is_not_finite(
    n, seed, repeats, data
):
    # one topology with the internal weights permuted, so the full pair is
    # finite and every part matches by taxa; the hand-built pair set cuts a
    # random choice of internal edges.  finiteness_check on each part pair,
    # the check decompose made before its count vectors, is the reference
    if repeats == "distinct":
        t1, _, _ = generate_pair(seed, n, 0)
    else:
        t1, _ = repeated_pair(seed, n, 0, repeats)
    internal = t1.internal_edges()
    order = data.draw(st.permutations(internal))
    t2 = reweighted(t1, dict(zip(internal, (t1.weight(e) for e in order))))
    cut = data.draw(st.lists(st.sampled_from(internal), unique=True, min_size=1))
    pairs = GoodEdgePairSet([(e, e) for e in cut])
    cuts = {e: k for k, e in enumerate(cut)}
    finite = all(
        finiteness_check(a, b)[0]
        for a, b in zip(_cut_components(t1, cuts), _cut_components(t2, cuts))
    )
    if finite:
        assert len(decompose(t1, t2, pairs)) == len(cut) + 1
    else:
        with pytest.raises(TreeError, match="component pair is not finite"):
            decompose(t1, t2, pairs)


def test_decompose_refuses_a_taxon_named_like_a_cut():
    # t000 hangs from the end of edge 0, the first cut, so its part would
    # hold two leaves labeled :cut:0:
    t1 = relabeled(caterpillar(6), {"t000": ":cut:0:"})
    t2 = t1.copy()
    pairs = find_good_edge_pairs(t1, t2)
    assert pairs.pairs[0] == (0, 0)
    with pytest.raises(TreeError, match="duplicate taxon labels"):
        decompose(t1, t2, pairs)


def test_decompose_refuses_a_cut_leaf_edge():
    # a cut leaf edge leaves its leaf in a part of two leaves
    t1 = caterpillar(6)
    leaf = leaf_edge_of(t1, "t003")
    with pytest.raises(TreeError):
        decompose(t1, t1.copy(), GoodEdgePairSet([(leaf, leaf)]))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(5, 16),
    seed=st.integers(0, 10**6),
    repeats=st.sampled_from(["one", "mixed", "distinct"]),
    data=st.data(),
)
def test_decompose_on_the_table_fields_cuts_and_refuses_as_without(n, seed, repeats, data):
    # the same hand-built pair sets as above: read by edge id off the
    # table's fields, decompose returns the same parts and refuses the same
    # pair sets as when it lays out the count fields itself
    if repeats == "distinct":
        t1, _, _ = generate_pair(seed, n, 0)
    else:
        t1, _ = repeated_pair(seed, n, 0, repeats)
    internal = t1.internal_edges()
    order = data.draw(st.permutations(internal))
    t2 = reweighted(t1, dict(zip(internal, (t1.weight(e) for e in order))))
    cut = data.draw(st.lists(st.sampled_from(internal), unique=True, min_size=1))
    pairs = GoodEdgePairSet([(e, e) for e in cut])
    table = PairBound(t2)
    outcomes = []
    for kwargs in ({}, {"table": table}, {"table": table, "fields": table.edge_fields(t1)}):
        try:
            parts = decompose(t1, t2, pairs, **kwargs)
        except TreeError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append([(a._ends, a._wt, a._leaf_label, b._ends, b._wt, b._leaf_label)
                             for a, b in parts])
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_a_table_for_another_tree_is_refused():
    t1, t2, _ = generate_pair(3, 12, 10)
    table = PairBound(t2)
    copy = t2.copy()
    pairs = find_good_edge_pairs(t1, t2, table=table)
    assert pairs == find_good_edge_pairs(t1, copy) and pairs.pairs
    with pytest.raises(ValueError, match="another target tree"):
        find_good_edge_pairs(t1, copy, table=table)
    with pytest.raises(ValueError, match="another target tree"):
        decompose(t1, copy, pairs, table=table)


def test_new_cuts_are_numbered_past_the_pseudo_leaves():
    # a component carries pseudo-leaves :cut:k:; cutting it again from
    # first_free_cut labels the new pseudo-leaves past the largest k
    # t000 hangs from the end of edge 0, the first cut, as in the refusal above
    t1 = relabeled(caterpillar(8), {"t000": ":cut:0:", "t005": ":cut:3:", "t006": ":cut:x:"})
    assert first_free_cut(t1) == 4
    assert first_free_cut(caterpillar(8)) == 0
    t2 = t1.copy()
    pairs = find_good_edge_pairs(t1, t2)
    assert pairs.pairs[0] == (0, 0)
    with pytest.raises(TreeError, match="duplicate taxon labels"):
        decompose(t1, t2, pairs)
    parts = decompose(t1, t2, pairs, first_cut=first_free_cut(t1))
    assert len(parts) == len(pairs) + 1
    new = {s for a, _ in parts for s in a.taxa()} - set(t1.taxa())
    assert new == {f":cut:{4 + k}:" for k in range(len(pairs))}
