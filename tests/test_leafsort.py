"""Leaf rearrangement on a fixed internal structure."""

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import oracles
from nnidist import leafsort, newick
from nnidist import pipeline
from nnidist.balance import build_auxiliary
from nnidist.gen import generate_pair
from nnidist.leafsort import LeafTable, _sorts_before, leaf_permutation, ranked_view, sort_leaves
from nnidist.nni import NniOp, ReplayError, apply_sequence, shorten, verify_transform
from nnidist.phylo import Phylogeny, TreeError

from oracles import (
    caterpillar, leaf_edge_of, nested_signatures, path_between, random_phylogeny, ranked_view_flat,
    sort_leaves_by_swaps, swap_leaves,
)

# Hypothesis caches the constants of local source files while the tests are
# collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


def with_taxa_swapped(tree, x, y):
    """The same tree with taxa x and y trading places (weights travel)."""
    nx, ny = tree.leaf_node(x), tree.leaf_node(y)
    ex, ey = leaf_edge_of(tree, x), leaf_edge_of(tree, y)
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    weights[ex], weights[ey] = weights[ey], weights[ex]
    labels = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
    labels[nx], labels[ny] = labels[ny], labels[nx]
    return Phylogeny(edges, weights, labels)


def permuted_leaves(tree, mapping):
    """Reassign taxa to leaf positions; mapping is old taxon -> new taxon."""
    taxon_wt = tree.leaf_weight_map()
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    labels = {}
    for v in tree.nodes():
        if not tree.is_leaf(v):
            continue
        new = mapping[tree.leaf_label(v)]
        labels[v] = new
        weights[leaf_edge_of(tree, tree.leaf_label(v))] = taxon_wt[new]
    return Phylogeny(edges, weights, labels)


def companion(n, seed, weights="distinct"):
    rng = random.Random(seed)
    return build_auxiliary(random_phylogeny(rng, n, weights=weights))


def attachment(tree, taxon):
    return tree.other_end(leaf_edge_of(tree, taxon), tree.leaf_node(taxon))


def assert_transposition(before, after, x, y):
    """``after`` is ``before`` with the leaf edges of x and y traded.

    Every edge keeps its endpoints, in order, except that the two leaf
    edges sit on each other's former attachment nodes.
    """
    u, w = attachment(before, x), attachment(before, y)
    want = {e: before.endpoints(e) for e in before.edge_ids()}
    lx, ly = leaf_edge_of(before, x), leaf_edge_of(before, y)
    want[lx] = tuple(w if z == u else z for z in want[lx])
    want[ly] = tuple(u if z == w else z for z in want[ly])
    assert {e: after.endpoints(e) for e in after.edge_ids()} == want


@pytest.mark.parametrize("n", [4, 6, 9, 17, 33])
def test_swap_leaves_is_a_transposition(n):
    # one swap's planned moves, applied to a copy, trade the two leaf edges
    # and move nothing else
    rng = random.Random(800 + n)
    for _ in range(10):
        tree = random_phylogeny(rng, n)
        x, y = rng.sample(tree.taxa(), 2)
        work, _ = apply_sequence(tree, LeafTable(tree).swap(x, y))
        assert_transposition(tree, work, x, y)
        assert work.canonical_equal(with_taxa_swapped(tree, x, y))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
    swaps=st.integers(1, 10),
)
def test_one_view_serves_every_swap(n, seed, repeats, swaps):
    # the table climbs a rooted view taken before the first swap; that is
    # sound only because a swap leaves every internal edge where it was
    rng = random.Random(seed)
    tree = random_phylogeny(rng, n, "small" if repeats else "distinct")
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    table = LeafTable(tree)
    work = tree
    expect = tree
    ops = []
    for _ in range(swaps):
        x, y = rng.sample(tree.taxa(), 2)
        swap = table.swap(x, y)
        before, (work, _) = work, apply_sequence(work, swap)
        assert_transposition(before, work, x, y)
        ops += swap
        expect = with_taxa_swapped(expect, x, y)
        assert work.canonical_equal(expect)
        # the table follows the moved tree, which planning never touched
        assert table.at == {t: attachment(work, t) for t in tree.taxa()}
        assert {v: sorted(es) for v, es in table.adj.items()} == {
            v: sorted(work.adjacent_edges(v)) for v in work.nodes()}
    assert {e: tree.endpoints(e) for e in tree.edge_ids()} == edges
    ok, _, reason = verify_transform(tree, ops, work)
    assert ok, reason


def test_swap_leaves_path_length_law():
    rng = random.Random(810)
    for _ in range(20):
        tree = random_phylogeny(rng, 12)
        x, y = rng.sample(tree.taxa(), 2)
        u = tree.other_end(leaf_edge_of(tree, x), tree.leaf_node(x))
        w = tree.other_end(leaf_edge_of(tree, y), tree.leaf_node(y))
        path = path_between(tree, u, w)
        ops = LeafTable(tree).swap(x, y)
        assert len(ops) == (2 * len(path) - 1 if path else 0)
        # out along the path and back, each path edge the middle of a move
        assert [op.e2 for op in ops] == path + path[-2::-1]


def test_swap_leaves_same_attachment_is_free():
    # cherry mates already yield the same unrooted tree
    edges = {0: (4, 0), 1: (4, 1), 2: (5, 2), 3: (5, 3), 4: (4, 5)}
    weights = {e: Fraction(w) for e, w in enumerate([1, 2, 3, 4, 5])}
    tree = Phylogeny(edges, weights, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert LeafTable(tree).swap("a", "b") == []


def skipping_last_move(real_move, count):
    """A ``move`` that applies ``count - 1`` moves and then skips one."""
    calls = []

    def faulty(tree, e1, e2, e3):
        calls.append((e1, e2, e3))
        if len(calls) == count:
            return tree.endpoints(e2)
        return real_move(tree, e1, e2, e3)

    return faulty


@pytest.mark.parametrize("seed", range(5))
def test_a_swap_missing_its_last_move_fails_at_that_swap(monkeypatch, seed):
    # the swap-by-swap oracle checks each swap as it applies it
    rng = random.Random(870 + seed)
    tree = companion(17, 880 + seed)
    while True:
        x, y = rng.sample(tree.taxa(), 2)
        m = len(path_between(tree, attachment(tree, x), attachment(tree, y)))
        if m >= 2:
            break
    work = tree.copy()
    up = work.rooted_view().parent_edge
    monkeypatch.setattr(oracles, "move", skipping_last_move(oracles.move, 2 * m - 1))
    with pytest.raises(TreeError, match=f"swapping taxa {x} and {y}"):
        swap_leaves(work, x, y, up)
    # one displaced subtree is left one node off its home: a valid tree, so
    # a validate() after the swap would have let it through
    assert work.validate() == []
    assert not work.canonical_equal(with_taxa_swapped(tree, x, y))


def recording_swaps(monkeypatch, fault=None):
    """Patch ``LeafTable.swap`` to record every planned swap as (x, y, moves).

    ``fault(k, moves)`` may change the moves of the k-th swap in place
    before they are recorded and returned.
    """
    real_swap = leafsort.LeafTable.swap
    swaps = []

    def swap(table, x, y):
        ops = real_swap(table, x, y)
        if fault is not None:
            fault(len(swaps), ops)
        swaps.append((x, y, ops))
        return ops

    monkeypatch.setattr(leafsort.LeafTable, "swap", swap)
    return swaps


def test_sort_leaves_fails_at_the_faulty_swap_not_at_the_end(monkeypatch):
    # the first swap over a path of three or more edges reads a wrong
    # partner: the last path edge, which meets neither end of the first
    tree = companion(33, 890)
    rng = random.Random(891)
    target = permuted_leaves(tree, anchor_fixing_permutation(rng, tree.taxa()))
    faults = []

    def wrong_partner(k, ops):
        if not faults and len(ops) >= 5:
            wrong = ops[len(ops) // 2].e2
            ops[0] = NniOp(ops[0].e1, ops[0].e2, wrong)
            ops[-1] = NniOp(ops[-1].e1, ops[-1].e2, wrong)
            faults.append(k)

    swaps = recording_swaps(monkeypatch, wrong_partner)
    with pytest.raises(ReplayError) as info:
        sort_leaves(tree, target)
    # the replay stops at the kept move that stands for the faulty one
    (k,) = faults
    plan = [op for _, _, ops in swaps for op in ops]
    at = sum(len(ops) for _, _, ops in swaps[:k])
    kept, origin = shorten(plan)
    assert kept[origin.index(at)] == plan[at]
    assert str(info.value).startswith(f"operation {origin.index(at)} invalid")


@pytest.mark.parametrize("seed", range(5))
def test_sort_leaves_refuses_a_plan_missing_one_move(monkeypatch, seed):
    tree = companion(33, 900 + seed)
    rng = random.Random(910 + seed)
    target = permuted_leaves(tree, anchor_fixing_permutation(rng, tree.taxa()))
    swaps = recording_swaps(monkeypatch)
    sort_leaves(tree, target)
    k = rng.choice([k for k, (_, _, ops) in enumerate(swaps) if ops])
    drop = rng.randrange(len(swaps[k][2]))

    def drop_one(i, ops):
        if i == k:
            del ops[drop]

    recording_swaps(monkeypatch, drop_one)
    with pytest.raises(TreeError):
        sort_leaves(tree, target)


def test_sort_leaves_refuses_a_plan_missing_its_last_move(monkeypatch):
    # every kept move replays, so only the end comparison can catch this
    tree = companion(33, 920)
    rng = random.Random(921)
    target = permuted_leaves(tree, anchor_fixing_permutation(rng, tree.taxa()))
    swaps = recording_swaps(monkeypatch)
    sort_leaves(tree, target)
    last = max(k for k, (_, _, ops) in enumerate(swaps) if ops)

    def drop_last(i, ops):
        if i == last:
            del ops[-1]

    recording_swaps(monkeypatch, drop_last)
    with pytest.raises(TreeError, match="leaf sort failed to reach the target arrangement"):
        sort_leaves(tree, target)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
)
def test_each_swap_moves_only_its_two_leaf_edges(n, seed, repeats):
    tree = companion(n, seed, weights="small" if repeats else "distinct")
    rng = random.Random(seed)
    target = permuted_leaves(tree, anchor_fixing_permutation(rng, tree.taxa()))
    with pytest.MonkeyPatch.context() as monkeypatch:
        swaps = recording_swaps(monkeypatch)
        result = sort_leaves(tree, target)
    # each planned swap, applied after the ones before it, is an exact
    # transposition: every internal edge keeps its endpoints, and the two
    # leaf edges trade attachment nodes
    work = tree
    for x, y, ops in swaps:
        before, (work, _) = work, apply_sequence(work, ops)
        assert_transposition(before, work, x, y)
    assert work.canonical_equal(target)
    assert result.ops == shorten([op for _, _, ops in swaps for op in ops])[0]
    assert result.tree.canonical_equal(target)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 80),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
    explicit_roots=st.booleans(),
)
def test_sort_leaves_keeps_what_shorten_keeps_of_the_swaps(n, seed, repeats, explicit_roots):
    # the planner returns exactly the swap-by-swap oracle's moves, shortened
    tree = companion(n, seed, weights="small" if repeats else "distinct")
    rng = random.Random(seed)
    if explicit_roots:
        # the target keeps the source's node ids, so one node roots both
        root = rng.choice([v for v in tree.nodes() if not tree.is_leaf(v)])
        roots = (root, root)
        taxa = tree.taxa()
        target = permuted_leaves(tree, dict(zip(taxa, rng.sample(taxa, len(taxa)))))
    else:
        roots = (None, None)
        target = permuted_leaves(tree, anchor_fixing_permutation(rng, tree.taxa()))
    result = sort_leaves(tree, target, None, *roots)
    ops, end, cycles = sort_leaves_by_swaps(tree, target, *roots)
    assert result.ops == shorten(ops)[0]
    assert result.cycles == cycles
    assert result.tree.canonical_equal(end)
    assert all(a.e2 != b.e2 for a, b in zip(result.ops, result.ops[1:]))


def anchor_fixing_permutation(rng, taxa):
    rest = list(taxa[1:])
    rng.shuffle(rest)
    mapping = {taxa[0]: taxa[0]}
    mapping.update(dict(zip(taxa[1:], rest)))
    return mapping


@pytest.mark.parametrize("n", [4, 5, 8, 16, 33])
def test_sort_leaves_reaches_target(n):
    for seed in range(3):
        tree = companion(n, 820 + 10 * n + seed)
        rng = random.Random(830 + 10 * n + seed)
        mapping = anchor_fixing_permutation(rng, tree.taxa())
        target = permuted_leaves(tree, mapping)
        result = sort_leaves(tree, target)
        ok, cost, reason = verify_transform(tree, result.ops, target)
        assert ok, reason
        assert result.tree.canonical_equal(target)


def test_sort_leaves_identity_is_free():
    tree = companion(10, 840)
    result = sort_leaves(tree, tree.copy())
    assert result.ops == []
    assert result.cycles == 0


def test_sort_leaves_duplicate_weights():
    for seed in range(4):
        tree = companion(12, 850 + seed, weights="small")
        rng = random.Random(860 + seed)
        mapping = anchor_fixing_permutation(rng, tree.taxa())
        target = permuted_leaves(tree, mapping)
        result = sort_leaves(tree, target)
        ok, _, reason = verify_transform(tree, result.ops, target)
        assert ok, reason


def test_interchangeable_subtrees_cost_nothing():
    # identical internal weights everywhere: swapping the contents of two
    # same-shaped sibling subtrees is recognized as already in place
    edges = {
        0: (6, 0),
        1: (6, 1),
        2: (7, 2),
        3: (7, 3),
        4: (8, 6),
        5: (8, 7),
        6: (8, 4),
    }
    weights = {e: Fraction(w) for e, w in enumerate([1, 1, 1, 1, 2, 2, 1])}
    labels = {0: "a", 1: "b", 2: "c", 3: "d", 4: "e"}
    tree = Phylogeny(edges, weights, labels)
    # swap the two cherries wholesale: (a,b) <-> (c,d)
    mapping = {"a": "c", "b": "d", "c": "a", "d": "b", "e": "e"}
    target = permuted_leaves(tree, mapping)
    assert tree.canonical_equal(target)
    result = sort_leaves(tree, target)
    assert result.ops == []


def test_leaf_permutation_counts_fixed_points():
    tree = companion(9, 870)
    want = leaf_permutation(tree, tree)
    assert want == {t: t for t in tree.taxa()}


def test_leaf_permutation_rejects_mismatched_shapes():
    a = companion(8, 880)
    b = companion(9, 881)
    with pytest.raises(TreeError):
        leaf_permutation(a, b)


def with_taxon_renamed(tree, old, new):
    """The same tree with taxon ``old`` called ``new``."""
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    labels = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
    labels[tree.leaf_node(old)] = new
    return Phylogeny(edges, weights, labels)


@pytest.mark.parametrize("flip", [False, True], ids=["renamed-target", "renamed-source"])
def test_different_taxon_sets_are_refused(flip):
    a = caterpillar(8)
    b = with_taxon_renamed(a, "t003", "u003")
    a, b = (b, a) if flip else (a, b)
    only_a, only_b = (["u003"], ["t003"]) if flip else (["t003"], ["u003"])
    reason = f"taxon sets differ (only first: {only_a}, only second: {only_b})"
    for run in (leaf_permutation, sort_leaves):
        with pytest.raises(TreeError) as err:
            run(a, b)
        assert str(err.value) == reason


def test_sort_leaves_determinism():
    tree = companion(14, 890)
    rng = random.Random(891)
    mapping = anchor_fixing_permutation(rng, tree.taxa())
    target = permuted_leaves(tree, mapping)
    a = sort_leaves(tree, target)
    b = sort_leaves(tree, target)
    assert a.ops == b.ops


def subtree(kids, x):
    """``x`` and every node below it in the ranked view ``kids``."""
    nodes = [x]
    for v in nodes:
        nodes.extend(kids[v])
    return nodes


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
    explicit_root=st.booleans(),
)
def test_flat_signatures_rank_as_nested_tuples(n, seed, repeats, explicit_root):
    rng = random.Random(seed)
    tree = random_phylogeny(rng, n, "small" if repeats else "distinct")
    root = tree.root_handle()
    if explicit_root:
        root = rng.choice([v for v in tree.nodes() if not tree.is_leaf(v)])
    rank = {w: i for i, w in enumerate(sorted(set(tree.internal_weight_multiset())), 1)}
    view_root, kids, sig = ranked_view_flat(tree, root if explicit_root else None, rank)
    expect_kids, expect_sig = nested_signatures(tree, root)
    assert view_root == root
    assert kids == expect_kids
    # equal, less and size agree on every pair of nodes below the root, not
    # only on siblings: the matching compares nodes across the two trees
    below = [v for v in tree.nodes() if v != root]
    for x in below:
        assert len(sig[x]) == 2 * sum(tree.is_leaf(v) for v in subtree(kids, x)) - 1
        for y in below:
            assert (sig[x] == sig[y]) == (expect_sig[x] == expect_sig[y])
            assert (sig[x] < sig[y]) == (expect_sig[x] < expect_sig[y])


def check_interned_like_flat(trees, roots):
    """The interned ranking of ``trees`` against the flat oracle's, in one table.

    Children come in the same order, and two signatures, of one tree or of
    two, are one object exactly when the flat ones are equal; distinct ones
    order as the flat ones do.
    """
    ws = trees[0].internal_weight_multiset()
    rank = {w: i for i, w in enumerate(ws, 1)}
    interned = {}
    sigs, flats = [], []
    for tree, root in zip(trees, roots):
        view_root, kids, sig = ranked_view(tree, root, rank, interned)
        flat_root, flat_kids, flat = ranked_view_flat(tree, root, rank)
        assert view_root == flat_root
        assert kids == flat_kids
        sigs += sig.values()
        flats += flat.values()
    # every node below a root has two children: one table entry per distinct signature
    assert len(interned) == len({f for f in flats if len(f) > 1})
    for a, fa in zip(sigs, flats):
        for b, fb in zip(sigs, flats):
            assert (a is b) == (fa == fb)
            if a is not b and len(a) == len(b):
                assert _sorts_before(a, b) == (fa < fb)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 30),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 60),
    dup=st.booleans(),
    explicit_root=st.booleans(),
)
def test_interned_signatures_rank_as_flat_ones_on_gen_pairs(n, seed, moves, dup, explicit_root):
    t1, t2, _ = generate_pair(seed, n, moves, dup_weights=dup)
    roots = [None, None]
    if explicit_root:
        rng = random.Random(seed)
        roots = [rng.choice([v for v in t.nodes() if not t.is_leaf(v)]) for t in (t1, t2)]
    check_interned_like_flat([t1, t2], roots)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 10**6), repeats=st.booleans())
def test_interned_signatures_rank_as_flat_ones_on_caterpillars(n, seed, repeats):
    rng = random.Random(seed)
    pool = [1, 2] if repeats else list(range(1, n))
    weights = rng.sample(pool, n - 3) if not repeats else rng.choices(pool, k=n - 3)
    tree = caterpillar(n, weights)
    other = tree.copy()
    # the same caterpillar with its weights reversed end to end
    flipped = caterpillar(n, weights[::-1])
    check_interned_like_flat([tree, other, flipped], [None, None, None])


def deep_twins(k: int, bottom: int) -> Phylogeny:
    """Two caterpillars of k taxa under one root, equal except the bottom edge of the second.

    Every internal weight is 1 but that edge's, which is ``bottom``, so
    ordering the root's two big children must descend all k levels.
    """
    def cat(prefix, last):
        text = f"({prefix}0:1,{prefix}1:1)"
        for i in range(2, k):
            w = last if i == 2 else 1
            text = f"({text}:{w},{prefix}{i}:1)"
        return text
    return newick.parse(f"(a:1,{cat('b', 1)}:1,{cat('c', bottom)}:1);")


def test_ordering_deep_twins_needs_no_recursion():
    # nested tuples compared by Python's own < would recurse k levels
    for bottom in (1, 2):
        tree = deep_twins(2000, bottom)
        rank = {Fraction(1): 1, Fraction(2): 2}
        assert ranked_view(tree, None, rank, {})[1] == ranked_view_flat(tree, None, rank)[1]
        result = sort_leaves(tree, tree.copy())
        assert result.ops == [] and result.cycles == 0


def test_sort_leaves_on_deep_caterpillar():
    # signatures and matching are loops, so a 3000-deep tree sorts without
    # exhausting the stack
    tree = caterpillar(3000)
    result = sort_leaves(tree, tree.copy())
    assert result.ops == [] and result.cycles == 0
    swapped = with_taxa_swapped(tree, "t010", "t2000")
    result = sort_leaves(swapped, tree)
    assert result.cycles == 1
    assert result.tree.canonical_equal(tree)
    ok, _, reason = verify_transform(swapped, result.ops, tree)
    assert ok, reason


def shuffled_adjacency(rng, tree):
    """A copy of ``tree`` with every node's adjacency list in a random order."""
    out = tree.copy()
    for es in out._adj.values():
        rng.shuffle(es)
    return out


@pytest.mark.parametrize("n,seed", [(16, 1), (32, 2), (64, 3), (128, 4)])
def test_sort_leaves_plans_the_same_moves_on_any_adjacency_order(monkeypatch, n, seed):
    # a replay rebuilds the adjacency in edge-table order, a move edits it in
    # place, so the pipeline's balanced trees may list edges in either
    # order; the leaf sort's plan must not depend on it
    calls = []

    def recording(source, target, rt=None, source_root=None, target_root=None):
        result = sort_leaves(source, target, rt, source_root, target_root)
        calls.append((source, target, source_root, target_root, result.ops))
        return result

    monkeypatch.setattr(pipeline, "sort_leaves", recording)
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=5 * n)
    pipeline.approx_nni(t1, t2)
    assert calls
    rng = random.Random(seed)
    for source, target, source_root, target_root, ops in calls:
        for _ in range(3):
            got = sort_leaves(
                shuffled_adjacency(rng, source), shuffled_adjacency(rng, target),
                None, source_root, target_root)
            assert got.ops == ops
