"""The paper's partition labeling: against brute-force references, pinned
outputs, and kept off the program's path."""

import hashlib
import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from nnidist.gen import generate_pair
from nnidist.labeling import (
    PartitionLabeling,
    augment_and_root,
    induced_subtree,
    partition_labeling,
    relabel_merge,
    single_label_partition,
)
from nnidist.phylo import TreeError
from nnidist.runtime import ParRuntime
from oracles import caterpillar, random_phylogeny

ROOT = Path(__file__).resolve().parents[1]


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
# pinned outputs, and off the program's path

@pytest.mark.parametrize("seed,n,moves,dup,digest", [
    (5, 12, 10, False, "e48dbb0e793965e89f3c3700d21c606d50958e2f0e6fa19bebd07874a8c68b47"),
    (77, 9, 10, True, "59c9f2d9e937c5065ab08f0efcec9c9ee6ab376efe5b9f13617a0a3c8f5a3835"),
    (3, 64, 64, True, "d0c9c1b02344309dd6dcd29c2625ec2f216fe1571cd8116764500c32d137eca5"),
    (4, 128, 128, False, "ab5abdfd9eb313542ac3a8e8c7ce824e6d05bea552b68907076e17ff2649eeae"),
], ids=["n12", "n9-dup", "n64-dup", "n128"])
def test_labels_and_rounds_are_pinned(seed, n, moves, dup, digest):
    # the label values and every round's width, on distinct and repeated
    # weights: no other test pins them
    t1, t2, _ = generate_pair(seed, n, moves, dup_weights=dup)
    rt = ParRuntime()
    lab = partition_labeling(augment_and_root(t1), augment_and_root(t2), rt)
    blob = json.dumps(
        [sorted(lab.rho.items()), sorted(lab.rho_p.items()), rt.snapshot()], sort_keys=True
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_approx_and_gep_do_not_import_the_labeling(tmp_path):
    # the labeling answers the good-pair question in the paper's parallel
    # form; approx and gep read goodpairs' exact keys and never load it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from nnidist import cli, newick\n"
        "from nnidist.gen import generate_pair\n"
        "from nnidist.pipeline import approx_nni\n"
        "t1, t2, _ = generate_pair(3, 24, 12)\n"
        "approx_nni(t1, t2)\n"
        "newick.write_tree(sys.argv[2], t1)\n"
        "newick.write_tree(sys.argv[3], t2)\n"
        "assert cli.main(['gep', sys.argv[2], sys.argv[3]]) == 0\n"
        "assert 'nnidist.labeling' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(tmp_path / "t1.nwk"), str(tmp_path / "t2.nwk")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pairs"]
