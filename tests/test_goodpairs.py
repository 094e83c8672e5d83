"""Good-pair detection and decomposition against brute-force references."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from nnidist.gen import generate_pair
from nnidist.goodpairs import (
    GoodEdgePairSet,
    PairBound,
    PartitionLabeling,
    augment_and_root,
    decompose,
    find_good_edge_pairs,
    induced_subtree,
    lower_bound,
    partition_labeling,
    relabel_merge,
    single_label_partition,
)
from nnidist.phylo import Phylogeny, TreeError
from nnidist.runtime import ParRuntime
from oracles import (
    caterpillar,
    good_pair_oracle,
    random_phylogeny,
    splits_by_removal,
)


# ----------------------------------------------------------------------
# references

def lca_oracle(aug, u, v):
    """Deepest common ancestor by walking parent pointers."""
    seen = set()
    x = u
    while x is not None:
        seen.add(x)
        x = aug.parent[x]
    y = v
    while y not in seen:
        y = aug.parent[y]
    return y


def contract_oracle(aug, labels):
    """Delete-and-contract reference for induced subtrees.

    Remove unselected leaves until none are left, then splice out every node
    with a single child.  Returns (alive nodes, parent map).
    """
    keep = {v for v, lab in aug.label.items() if lab in labels}
    parent = dict(aug.parent)
    children = {v: list(aug.children.get(v, [])) for v in aug.parent}
    alive = set(parent)
    while True:
        drop = [v for v in alive if not children[v] and v not in keep]
        if not drop:
            break
        for v in drop:
            alive.remove(v)
            if parent[v] is not None:
                children[parent[v]].remove(v)
    while True:
        mid = [v for v in alive if len(children[v]) == 1]
        if not mid:
            break
        v = mid[0]
        child = children[v][0]
        alive.remove(v)
        parent[child] = parent[v]
        if parent[v] is not None:
            children[parent[v]][children[parent[v]].index(v)] = child
        children[v] = []
    return alive, {v: parent[v] for v in alive}


def labels_below(aug, v) -> Counter:
    """Multiset of leaf labels in the subtree under ``v``."""
    out: Counter = Counter()
    stack = [v]
    while stack:
        x = stack.pop()
        if x in aug.label:
            out[aug.label[x]] += 1
        else:
            stack.extend(aug.children[x])
    return out


def relabeled(tree: Phylogeny, mapping: dict[str, str]) -> Phylogeny:
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    labels = {tree.leaf_node(t): mapping.get(t, t) for t in tree.taxa()}
    return Phylogeny(edges, weights, labels)


def internal_nodes(aug):
    return [v for v in aug.parent if v not in aug.label]


# ----------------------------------------------------------------------
# augmentation

def test_augment_four_taxa_gains_one_subdivision_and_one_weight_leaf():
    tree = random_phylogeny(random.Random(4), 4)
    aug = augment_and_root(tree)
    assert len(aug.subdivision_edge) == 1
    assert len(aug.weight_leaf_edge) == 1
    assert len(aug.label) == 5


@pytest.mark.parametrize("n", [5, 8, 16, 30])
def test_augment_leaf_count_matches_counting_oracle(n):
    tree = random_phylogeny(random.Random(n), n)
    aug = augment_and_root(tree)
    assert len(aug.label) == n + len(tree.internal_edges())
    if n == 16:
        assert len(aug.label) == 29


def test_augment_roots_next_to_smallest_taxon():
    tree = random_phylogeny(random.Random(7), 9)
    aug = augment_and_root(tree)
    anchor = tree.leaf_node(min(tree.taxa()))
    assert aug.parent[aug.root] is None
    assert aug.parent[anchor] == aug.root
    assert aug.depth[aug.root] == 0


def test_augment_equal_weights_share_a_class_label():
    tree = caterpillar(7, [3, 3, 7, 9])
    aug = augment_and_root(tree)
    classes = Counter(
        aug.label[w] for w in aug.weight_leaf_edge
    )
    assert classes == Counter({":w:0": 2, ":w:1": 1, ":w:2": 1})


def test_augment_subdivision_splices_every_internal_edge():
    tree = random_phylogeny(random.Random(11), 10)
    aug = augment_and_root(tree)
    assert sorted(aug.subdivision_edge.values()) == tree.internal_edges()
    for s, e in aug.subdivision_edge.items():
        kids = aug.children[s]
        assert len(kids) == 2
        w = [k for k in kids if k in aug.weight_leaf_edge]
        assert len(w) == 1 and aug.weight_leaf_edge[w[0]] == e


def test_euler_tour_shape():
    tree = random_phylogeny(random.Random(2), 8)
    aug = augment_and_root(tree)
    n_nodes = len(aug.parent)
    assert len(aug.euler) == 2 * n_nodes - 1
    for v, p in aug.parent.items():
        if p is not None:
            assert aug.pre[p] < aug.pre[v]
            assert aug.post[p] > aug.post[v]


@pytest.mark.parametrize("n", [5, 9, 14])
def test_lca_matches_naive_walk(n):
    tree = random_phylogeny(random.Random(100 + n), n)
    aug = augment_and_root(tree)
    nodes = sorted(aug.parent)
    for u in nodes:
        for v in nodes:
            assert aug.lca(u, v) == lca_oracle(aug, u, v)


# ----------------------------------------------------------------------
# induced subtrees

def test_induced_on_all_labels_is_the_whole_tree():
    tree = random_phylogeny(random.Random(21), 9)
    aug = augment_and_root(tree)
    sub = induced_subtree(aug, set(aug.label.values()))
    assert set(sub.nodes) == set(aug.parent)
    for v in sub.nodes:
        assert sub.parent[v] == aug.parent[v]
    assert sub.root == aug.root


def test_induced_single_class_with_two_occurrences():
    tree = caterpillar(7, [3, 3, 7, 9])
    aug = augment_and_root(tree)
    sub = induced_subtree(aug, {":w:0"})
    assert len(sub.leaves) == 2
    assert len([v for v in sub.nodes if v not in aug.label]) == 1


def test_induced_rejects_empty_or_unknown_labels():
    tree = random_phylogeny(random.Random(3), 5)
    aug = augment_and_root(tree)
    with pytest.raises(TreeError):
        induced_subtree(aug, set())
    with pytest.raises(TreeError):
        induced_subtree(aug, {"zz-not-a-label"})


@pytest.mark.parametrize("seed", range(12))
def test_induced_matches_delete_and_contract(seed):
    rng = random.Random(900 + seed)
    tree = random_phylogeny(rng, rng.randint(5, 12), weights="small")
    aug = augment_and_root(tree)
    pool = sorted(set(aug.label.values()))
    labels = set(rng.sample(pool, rng.randint(1, min(8, len(pool)))))
    sub = induced_subtree(aug, labels)
    alive, parent = contract_oracle(aug, labels)
    assert set(sub.nodes) == alive
    assert {v: sub.parent[v] for v in sub.nodes} == parent


# ----------------------------------------------------------------------
# labelings

def test_single_label_partition_counts():
    tree = caterpillar(7, [3, 3, 7, 9])
    aug = augment_and_root(tree)
    sub = induced_subtree(aug, {":w:0"})
    lab = single_label_partition(sub, sub)
    assert lab.rho == lab.rho_p
    counts = sorted(lab.rho.values())
    assert counts == [1, 1, 2]


def test_relabel_merge_with_one_empty_half_mirrors_the_other():
    tree = caterpillar(8, [2, 2, 2, 5, 6])
    aug = augment_and_root(tree)
    sub = induced_subtree(aug, {":w:0"})
    half = single_label_partition(sub, sub)
    merged = relabel_merge(sub, sub, half, PartitionLabeling({}, {}))
    assert set(merged.rho) == set(half.rho)
    pairing = {}
    for v, old in half.rho.items():
        pairing.setdefault(old, set()).add(merged.rho[v])
    assert all(len(s) == 1 for s in pairing.values())
    olds = sorted(pairing)
    news = [min(pairing[o]) for o in olds]
    assert news == sorted(news)
    assert len(set(news)) == len(olds)


def test_partition_labeling_of_identical_trees_agrees_everywhere():
    tree = random_phylogeny(random.Random(31), 10)
    aug1 = augment_and_root(tree)
    aug2 = augment_and_root(tree.copy())
    lab = partition_labeling(aug1, aug2)
    assert lab.rho == lab.rho_p


def test_partition_labeling_rejects_mismatched_label_multisets():
    t1 = caterpillar(6, [1, 2, 3])
    t2 = caterpillar(6, [1, 1, 2])
    with pytest.raises(TreeError):
        partition_labeling(augment_and_root(t1), augment_and_root(t2))


@pytest.mark.parametrize("seed,n,moves", [
    (1, 6, 3), (2, 7, 4), (3, 8, 6), (4, 9, 8), (5, 10, 10), (6, 12, 14),
])
def test_labeling_iff_property_against_multiset_brute_force(seed, n, moves):
    t1, t2, _ = generate_pair(seed, n, moves)
    aug1, aug2 = augment_and_root(t1), augment_and_root(t2)
    lab = partition_labeling(aug1, aug2)
    below1 = {u: labels_below(aug1, u) for u in internal_nodes(aug1)}
    below2 = {v: labels_below(aug2, v) for v in internal_nodes(aug2)}
    for u, mu in below1.items():
        for v, mv in below2.items():
            assert (lab.rho[u] == lab.rho_p[v]) == (mu == mv)


def test_labeling_iff_property_with_duplicate_weights():
    t1, t2, _ = generate_pair(77, 9, 10, dup_weights=True)
    aug1, aug2 = augment_and_root(t1), augment_and_root(t2)
    lab = partition_labeling(aug1, aug2)
    below1 = {u: labels_below(aug1, u) for u in internal_nodes(aug1)}
    below2 = {v: labels_below(aug2, v) for v in internal_nodes(aug2)}
    for u, mu in below1.items():
        for v, mv in below2.items():
            assert (lab.rho[u] == lab.rho_p[v]) == (mu == mv)


def test_pairing_round_counter_stays_logarithmic():
    t1, t2, _ = generate_pair(5, 12, 10)
    rt = ParRuntime()
    aug1, aug2 = augment_and_root(t1), augment_and_root(t2)
    partition_labeling(aug1, aug2, rt)
    distinct = len(set(aug1.label.values()))
    assert rt.metrics["gep.pairing"].rounds <= math.ceil(math.log2(distinct))


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
