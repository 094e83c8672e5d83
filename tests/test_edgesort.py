"""Merge-sorting a caterpillar's internal edges into a prescribed order."""

import math
import random
from itertools import permutations

import pytest

from nnidist.edgesort import (
    Block,
    make_alternating,
    merge_sort_edges,
    merge_stage,
)
from nnidist import newick
from nnidist.linearize import is_spine_order, linearize, spine
from nnidist.nni import apply_sequence
from nnidist.phylo import TreeError
from nnidist.runtime import ParRuntime

from oracles import caterpillar, leaf_edges, random_phylogeny


def read_order(tree):
    return spine(tree)[1]


def check_sorted(source, target, result):
    # replaying the ops on the source must reproduce the result tree
    replay, _ = apply_sequence(source, result.ops)
    assert replay.canonical_equal(result.tree)
    assert not result.tree.validate()
    order = read_order(result.tree)
    assert order == target or order == target[::-1]
    assert result.tree.internal_weight_multiset() == source.internal_weight_multiset()


def shuffled_target(tree, rng):
    target = tree.internal_edges()
    rng.shuffle(target)
    return target


def test_identity_target_needs_no_ops():
    tree = caterpillar(10)
    target = read_order(tree)
    result = merge_sort_edges(tree, target)
    assert result.ops == []
    assert result.stages == 0


def test_reversed_target_needs_no_ops():
    tree = caterpillar(10)
    target = read_order(tree)[::-1]
    result = merge_sort_edges(tree, target)
    assert result.ops == []


def test_single_internal_edge():
    tree = caterpillar(4)
    result = merge_sort_edges(tree, tree.internal_edges())
    assert result.ops == []


def test_target_must_be_permutation():
    tree = caterpillar(8)
    with pytest.raises(TreeError):
        merge_sort_edges(tree, tree.internal_edges()[:-1])


def test_swap_two_edges():
    tree = caterpillar(5)
    target = read_order(tree)[::-1]
    # reversal of two edges is one end-pair swap
    result = merge_sort_edges(tree, [target[1], target[0]])
    check_sorted(tree, [target[1], target[0]], result)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 11, 16, 23, 33, 64])
def test_random_targets_sort(n):
    rng = random.Random(700 + n)
    tree = caterpillar(n)
    for _ in range(12):
        target = shuffled_target(tree, rng)
        result = merge_sort_edges(tree, target)
        check_sorted(tree, target, result)


def test_stage_count_within_bound():
    rng = random.Random(710)
    for n in [5, 9, 16, 31, 64, 100]:
        tree = caterpillar(n)
        m = n - 3
        for _ in range(6):
            target = shuffled_target(tree, rng)
            result = merge_sort_edges(tree, target)
            assert result.stages <= math.ceil(math.log2(m)) + 1


def test_each_edge_operated_at_most_twice_per_run():
    # one pull per edge per merge stage plus at most two swaps in the
    # alternating pass, never exceeding 2 + number of merge stages
    rng = random.Random(711)
    for n in [8, 17, 34]:
        tree = caterpillar(n)
        target = shuffled_target(tree, rng)
        result = merge_sort_edges(tree, target)
        counts = {}
        for op in result.ops:
            counts[op.e2] = counts.get(op.e2, 0) + 1
        assert max(counts.values(), default=0) <= 2 + max(result.stages - 1, 0)


def test_alternating_pass_blocks():
    rng = random.Random(712)
    tree = caterpillar(12)
    target = shuffled_target(tree, rng)
    rank = {e: i for i, e in enumerate(target)}
    work = tree.copy()
    order = read_order(work)
    ops, blocks = make_alternating(work, order, rank, ParRuntime())
    for j, block in enumerate(blocks):
        ranks = [rank[e] for e in block.edges]
        assert block.ascending == (j % 2 == 0)
        assert ranks == sorted(ranks, reverse=not block.ascending)
    # ops restored linearity and moved each edge at most twice
    counts = {}
    for op in ops:
        counts[op.e2] = counts.get(op.e2, 0) + 1
    assert max(counts.values(), default=0) <= 2
    flat = [e for b in blocks for e in b.edges]
    assert read_order(work) in (flat, flat[::-1])


def run_stages(n, seed):
    """Drive the passes by hand, yielding per-stage data for inspection."""
    rng = random.Random(seed)
    tree = caterpillar(n)
    target = shuffled_target(tree, rng)
    rank = {e: i for i, e in enumerate(target)}
    work = tree.copy()
    rt = ParRuntime()
    ops, blocks = make_alternating(work, read_order(work), rank, rt)
    while len(blocks) > 1:
        before = [Block(list(b.edges), b.ascending) for b in blocks]
        stage_ops, blocks = merge_stage(work, blocks, rank, rt)
        yield work, rank, before, blocks, stage_ops


def test_merge_stage_each_edge_pulled_at_most_once():
    for n in [9, 20, 41]:
        for work, rank, before, after, stage_ops in run_stages(n, 720 + n):
            seen = [op.e2 for op in stage_ops]
            assert len(seen) == len(set(seen))


def test_merge_stage_block_invariants():
    for n in [7, 13, 26, 50]:
        for work, rank, before, after, stage_ops in run_stages(n, 730 + n):
            assert [e for b in after for e in b.edges] != []
            for j, block in enumerate(after):
                ranks = [rank[e] for e in block.edges]
                assert block.ascending == (j % 2 == 0)
                assert ranks == sorted(ranks, reverse=not block.ascending)
            # contents preserved
            assert sorted(e for b in after for e in b.edges) == sorted(
                e for b in before for e in b.edges
            )


def test_merge_position_law():
    # a merged edge's run index is its index within its own block (measured
    # from the exposed side) plus the number of opposite-block edges ahead
    for n in [10, 21, 37]:
        for work, rank, before, after, stage_ops in run_stages(n, 740 + n):
            q = len(before)
            if q % 2 == 0:
                pair_idx = [(i, q - 1 - i) for i in range(q // 2)]
                runs = after
            else:
                pair_idx = [(i, q - i) for i in range(1, (q + 1) // 2)]
                runs = after[1:]
            for (li, ri), run_block in zip(pair_idx, runs):
                left, right = before[li], before[ri]
                run = run_block.edges
                for i, e in enumerate(left.edges):
                    p = sum(
                        1 for y in right.edges if run.index(y) < run.index(e)
                    )
                    assert run.index(e) == i + p
                for i, e in enumerate(right.edges):
                    p = sum(
                        1 for x in left.edges if run.index(x) < run.index(e)
                    )
                    assert run.index(e) == (len(right.edges) - 1 - i) + p


def test_presorted_pair_stage_emits_nothing():
    # two blocks already in relative order merge without any moves
    tree = caterpillar(6)
    order = read_order(tree)
    # ascending pair followed by a ragged singleton holding the largest rank:
    # the merged run is the spine order as it stands
    rank = {order[0]: 0, order[1]: 1, order[2]: 2}
    blocks = [Block(order[:2], True), Block(order[2:], False)]
    ops, merged = merge_stage(tree.copy(), blocks, rank, ParRuntime())
    assert ops == []
    assert len(merged) == 1
    assert merged[0].edges == order


def test_merge_stage_rejects_a_wrong_prediction():
    # the blocks claim an order the spine does not have; as the claimed order
    # is already merged the stage emits nothing, and its postcondition fails
    tree = caterpillar(6)
    e0, e1, e2 = read_order(tree)
    rank = {e0: 0, e2: 1, e1: 2}
    blocks = [Block([e0, e2], True), Block([e1], False)]
    with pytest.raises(TreeError, match="predicted order"):
        merge_stage(tree.copy(), blocks, rank, ParRuntime())


def _order_variants(tree, order, rng):
    """The spine order and near misses of it, each as (name, order)."""
    m = len(order)
    out = [("correct", list(order)), ("reversed", order[::-1])]
    if m >= 2:
        i = rng.randrange(m - 1)
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        k = rng.randrange(1, m)
        out += [("adjacent swap", swapped), ("rotation", order[k:] + order[:k])]
    if m >= 1:
        leaf = rng.choice(leaf_edges(tree))
        out += [
            ("missing an edge", order[:-1]),
            ("leaf edge in place of one", order[:-1] + [leaf]),
            ("leaf edge appended", order + [leaf]),
        ]
    shuffled = list(order)
    rng.shuffle(shuffled)
    return out + [("shuffled", shuffled)]


def test_spine_order_check_matches_reading_the_spine():
    rng = random.Random(760)
    trees = [caterpillar(n) for n in (4, 5, 6, 9)]
    trees += [linearize(random_phylogeny(rng, rng.randint(4, 40))).tree for _ in range(40)]
    trees.append(newick.parse("(a:1,b:1,c:2);"))
    for tree in trees:
        order = read_order(tree)
        for name, cand in _order_variants(tree, order, rng):
            expect = cand == order or cand == order[::-1]
            assert is_spine_order(tree, cand) == expect, (name, order, cand)


def test_spine_order_check_rejects_every_order_of_a_junction_tree():
    # all three internal edges meet at the junction: no order is a path
    t = newick.parse("(a:1,b:1,((c:1,d:1):2,(e:1,f:1):1):3);")
    for order in permutations(t.internal_edges()):
        assert not is_spine_order(t, order)


def test_determinism():
    tree = caterpillar(19)
    rng = random.Random(750)
    target = shuffled_target(tree, rng)
    a = merge_sort_edges(tree, target)
    b = merge_sort_edges(tree, target)
    assert a.ops == b.ops
    assert a.tree.canonical_equal(b.tree)
