"""Instance generator: validity, determinism, scrambling."""

import hashlib
import random

import pytest

from nnidist import newick
from nnidist.gen import generate_pair, random_tree, scramble
from nnidist.nni import verify_transform
from nnidist.phylo import TreeError, finiteness_check


def test_random_tree_is_valid_and_deterministic():
    for n in (3, 4, 5, 8, 16, 33, 64):
        a = random_tree(random.Random(7), n)
        b = random_tree(random.Random(7), n)
        assert a.validate() == []
        assert a.n_taxa == n
        assert newick.serialize(a) == newick.serialize(b)
    assert newick.serialize(random_tree(random.Random(8), 16)) != newick.serialize(
        random_tree(random.Random(9), 16)
    )


def test_distinct_weights_are_a_shuffle_of_small_ints():
    t = random_tree(random.Random(11), 20)
    assert t.internal_weight_multiset() == tuple(range(1, 18))


def test_dup_weights_produce_collisions():
    t = random_tree(random.Random(12), 24, dup_weights=True)
    ws = t.internal_weight_multiset()
    assert len(set(ws)) < len(ws)


def test_generate_pair_is_finite_with_cost_bound():
    for seed in range(5):
        t1, t2, cost = generate_pair(seed, 12, moves=6)
        ok, reasons = finiteness_check(t1, t2)
        assert ok, reasons
        assert cost >= 0


def test_scramble_replays():
    rng = random.Random(13)
    t = random_tree(rng, 10)
    t2, ops, cost = scramble(rng, t, 8)
    ok, replay_cost, reason = verify_transform(t, ops, t2)
    assert ok, reason
    assert replay_cost == cost


def test_zero_moves_gives_equal_trees():
    t1, t2, cost = generate_pair(3, 9, moves=0)
    assert cost == 0
    assert t1.canonical_equal(t2)


def test_scramble_rejects_edgeless_tree():
    rng = random.Random(14)
    star = random_tree(rng, 3)
    with pytest.raises(TreeError, match="no internal edge"):
        scramble(rng, star, 1)


# SHA-256 of both trees' Newick text (joined by a newline) and the cost bound,
# per (seed, n, moves, dup_weights); every benchmark workload and golden trace
# is generated this way, so the generator must keep drawing the same trees
PINNED_PAIRS = [
    ((0, 3, 0, False), "ab5c2ae4fb23992f733159b9d3cd0310b403b18b161881722a96024b65a6e727", 0),
    ((1, 8, 5, False), "4527b0ced351cbee81c8525cf7c32f7a82a89f5be8c6b9f281fe5533b7c22724", 17),
    ((2, 17, 40, True), "f873e9bf3bf033908476e18b6abaeb3279e374f9d3aa8d2340e5f2a2afddefa3", 197),
    ((3, 64, 64, False), "eaaf5fa30a8db79bd540f0b308353920f6e99de9a59044dae77ed156f65350f3", 2026),
    ((4, 129, 300, True), "0325a37c15c2b9c331e124b01ad13829ee205ccccbf67f8a31a83d82b11c1d61", 8597),
    ((5, 2048, 2048, False), "a484e3e123a654ee5538e971455a304090ad40f819a0edfb7f9b94bc64820c29", 2083552),
    ((6, 2048, 512, True), "cb7f29188e3705c78eb7c7c86c7a1013fa6b468033c9b8219e7b61e3486034bf", 268558),
]


@pytest.mark.parametrize("args, digest, cost", PINNED_PAIRS, ids=[str(a[0][:2]) for a in PINNED_PAIRS])
def test_generated_pairs_are_pinned(args, digest, cost):
    t1, t2, bound = generate_pair(*args)
    text = newick.serialize(t1) + "\n" + newick.serialize(t2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert bound == cost
