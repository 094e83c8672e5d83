"""Exact search against an independent exhaustive DFS, a plain uniform-cost
search, and small-case laws; its heuristic against the consistency law."""

from __future__ import annotations

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist import newick
from nnidist.exact import (
    DEFAULT_STATE_LIMIT,
    SearchTable,
    StateLimitError,
    exact_dnni,
    neighbors,
    search,
)
from nnidist.gen import generate_pair
from nnidist.goodpairs import PairBound, decompose, find_good_edge_pairs, lower_bound
from nnidist.nni import NniOp, apply_nni, trace_lines, verify_transform
from nnidist.phylo import Phylogeny, TreeError
from nnidist.runtime import ParRuntime
from oracles import (
    SearchTableByView,
    caterpillar,
    neighbors_by_view,
    random_phylogeny,
    random_valid_op,
    search_by_view,
    splits_by_removal,
    uniform_cost_distance,
)

# keep Hypothesis' cache of source constants out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


def dfs_bound_oracle(t1: Phylogeny, t2: Phylogeny, bound: Fraction) -> Fraction:
    """Cheapest transformation below ``bound`` by exhaustive DFS.

    Explores every operand triplet (redundant ones included) with cost and
    dominance pruning; shares nothing with the searched implementation
    except the move semantics.
    """
    goal = newick.serialize(t2)
    best = [bound]
    cheapest: dict[str, Fraction] = {}

    def visit(tree: Phylogeny, cost: Fraction) -> None:
        key = newick.serialize(tree)
        if key in cheapest and cheapest[key] <= cost:
            return
        cheapest[key] = cost
        if key == goal:
            best[0] = min(best[0], cost)
            return
        for e2 in tree.internal_edges():
            u, v = tree.endpoints(e2)
            for e1 in tree.adjacent_edges(u):
                if e1 == e2:
                    continue
                for e3 in tree.adjacent_edges(v):
                    if e3 == e2:
                        continue
                    nxt = tree.copy()
                    step = apply_nni(nxt, NniOp(e1, e2, e3))
                    if cost + step < best[0]:
                        visit(nxt, cost + step)

    visit(t1, Fraction(0))
    return best[0]


def quartet(w: Fraction, pairing: str) -> Phylogeny:
    """4-taxon tree with internal weight w; pairing picks a's cherry mate."""
    others = {"b": ("c", "d"), "c": ("b", "d"), "d": ("b", "c")}[pairing]
    edges = {0: (0, 1), 1: (0, 2), 2: (0, 3), 3: (1, 4), 4: (1, 5)}
    weights = {0: w, 1: Fraction(1), 2: Fraction(1), 3: Fraction(1), 4: Fraction(1)}
    labels = {2: "a", 3: pairing, 4: others[0], 5: others[1]}
    return Phylogeny(edges, weights, labels)


def scrambled(seed: int, n: int, moves: int, weights: str = "small"):
    rng = random.Random(seed)
    t1 = random_phylogeny(rng, n, weights=weights)
    t2 = t1.copy()
    cost = Fraction(0)
    for _ in range(moves):
        op = random_valid_op(rng, t2)
        cost += apply_nni(t2, op)
    return t1, t2, cost


def test_identity_distance_is_zero():
    tree = random_phylogeny(random.Random(1), 5)
    d, ops = exact_dnni(tree, tree.copy())
    assert d == 0 and ops == []


def test_four_taxa_single_swap_is_forced():
    t1 = quartet(Fraction(7, 2), "b")
    t2 = quartet(Fraction(7, 2), "c")
    d, ops = exact_dnni(t1, t2)
    assert d == Fraction(7, 2)
    assert len(ops) == 1
    ok, cost, _ = verify_transform(t1, ops, t2)
    assert ok and cost == d


def test_non_decimal_weight_is_solved_but_not_traced():
    # the search needs only exact arithmetic; Newick text and traces need
    # weights with a finite decimal form
    t1 = quartet(Fraction(1, 3), "b")
    t2 = quartet(Fraction(1, 3), "c")
    d, ops = exact_dnni(t1, t2)
    assert d == Fraction(1, 3)
    assert verify_transform(t1, ops, t2)[:2] == (True, d)
    with pytest.raises(TreeError, match="weight 1/3"):
        trace_lines(t1, t2, ops)


def successors(tree: Phylogeny, table: SearchTable):
    """Each move of ``neighbors``, the tree it gives and the move's cost."""
    out = []
    for op, _, _, _ in neighbors(tree, table):
        nxt = tree.copy()
        cost = apply_nni(nxt, op)
        out.append((op, nxt, cost))
    return out


def test_four_taxa_has_two_neighbors_and_involution():
    t = quartet(Fraction(2), "b")
    moves = successors(t, SearchTable(t, t))
    assert len(moves) == 2
    seen = set()
    for op, nxt, cost in moves:
        assert cost == Fraction(2)
        assert not nxt.canonical_equal(t)
        seen.add(newick.serialize(nxt))
        undone = nxt.copy()
        apply_nni(undone, op)
        assert undone.canonical_equal(t)
    assert len(seen) == 2


def test_five_taxa_move_count_and_topology_closure():
    tree = random_phylogeny(random.Random(3), 5)
    frontier = [tree]
    states = {newick.serialize(tree)}
    shapes = {frozenset(splits_by_removal(tree).values())}
    table = SearchTable(tree, tree)
    while frontier:
        cur = frontier.pop()
        moves = successors(cur, table)
        assert len(moves) == 2 * (5 - 3)
        for _, nxt, _ in moves:
            key = newick.serialize(nxt)
            if key not in states:
                states.add(key)
                shapes.add(frozenset(splits_by_removal(nxt).values()))
                frontier.append(nxt)
    assert len(shapes) == 15


@pytest.mark.parametrize("seed", range(8))
def test_five_taxa_distance_matches_dfs_oracle(seed):
    t1, t2, applied = scrambled(seed, 5, 2)
    d, ops = exact_dnni(t1, t2)
    assert d <= applied
    assert d == dfs_bound_oracle(t1, t2, applied + 1)
    ok, cost, _ = verify_transform(t1, ops, t2)
    assert ok and cost == d


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_symmetry(seed):
    t1, t2, _ = scrambled(seed, 5, 3)
    assert exact_dnni(t1, t2)[0] == exact_dnni(t2, t1)[0]


def test_triangle_inequality_on_sampled_triples():
    for seed in (21, 22):
        rng = random.Random(seed)
        a = random_phylogeny(rng, 5, weights="small")
        b = a.copy()
        for _ in range(2):
            apply_nni(b, random_valid_op(rng, b))
        c = b.copy()
        for _ in range(2):
            apply_nni(c, random_valid_op(rng, c))
        dab = exact_dnni(a, b)[0]
        dbc = exact_dnni(b, c)[0]
        dac = exact_dnni(a, c)[0]
        assert dac <= dab + dbc


def test_internal_weight_sum_bounds_distance_without_good_pairs():
    checked = 0
    for seed in range(40):
        t1, t2, _ = scrambled(100 + seed, 5, 4)
        if t1.canonical_equal(t2) or find_good_edge_pairs(t1, t2).pairs:
            continue
        w = sum(t1.weight(e) for e in t1.internal_edges())
        assert exact_dnni(t1, t2)[0] >= w
        checked += 1
    assert checked >= 5


def test_state_limit_is_an_error_not_an_answer():
    t1, t2, _ = scrambled(9, 5, 3)
    assert not t1.canonical_equal(t2)
    with pytest.raises(StateLimitError):
        exact_dnni(t1, t2, state_limit=0)


def test_six_taxa_with_distinct_weights_have_630_states():
    # the pipeline's state limit for components of six taxa: 105 topologies
    # times 3! placements of three distinct internal weights, all reachable
    t1, _, _ = scrambled(17, 6, 0, "distinct")
    table = SearchTable(t1, t1)
    start = table.state(t1)[0]
    seen = {start}
    layer = [t1]
    while layer:
        following = []
        for tree in layer:
            for op, state, _, _ in neighbors(tree, table):
                if state not in seen:
                    seen.add(state)
                    nxt = tree.copy()
                    apply_nni(nxt, op)
                    following.append(nxt)
        layer = following
    assert len(seen) == 105 * 6


def test_a_recorded_search_is_one_round_of_its_settled_states(monkeypatch):
    import nnidist.exact as exact_mod

    expanded = []
    real = exact_mod.neighbors

    def counting(tree, table):
        expanded.append(tree)
        return real(tree, table)

    monkeypatch.setattr(exact_mod, "neighbors", counting)
    t1, t2, _ = scrambled(31, 6, 4)
    rt = ParRuntime()
    recorded = search(t1, t2, DEFAULT_STATE_LIMIT, rt)
    # every settled state but the goal was expanded once
    settled = len(expanded) + 1
    assert rt.snapshot() == {
        "exact": {"rounds": 1, "work": settled, "peak_parallelism": settled}
    }
    assert recorded == exact_dnni(t1, t2)


def test_a_witness_that_misses_the_target_is_refused(monkeypatch):
    # exact_dnni replays what the search returns: a witness without its last
    # move stops short of tree 2
    import nnidist.exact as exact_mod

    real = exact_mod.search

    def dropping(*args):
        distance, ops = real(*args)
        return distance, ops[:-1]

    monkeypatch.setattr(exact_mod, "search", dropping)
    t1, t2, _ = scrambled(31, 6, 4)
    with pytest.raises(TreeError, match="witness failed replay"):
        exact_dnni(t1, t2)


@pytest.mark.parametrize(
    "target, weights",
    [
        ([1, 2, 3, 4], [1, 2, 2, 4]),  # 3 is gone
        ([1, 2, 3, 4], [1, 2, 3, 5]),  # 5 has no field
        ([1, 2, 2, 3, 4], [1, 1, 2, 3, 4]),  # a second 1 would carry into 2's field
        ([1, 2, 3, 3, 4], [1, 2, 3, 4, 4]),  # a second 4 runs past the last field
    ],
)
def test_the_search_table_refuses_tree_1_with_other_multiplicities(target, weights):
    # the search's own key pass trusts the fields as the detection pass does
    t2 = caterpillar(len(target) + 3, target)
    t1 = caterpillar(len(weights) + 3, weights)
    with pytest.raises(TreeError, match="multiset differs"):
        SearchTable(t1, t2)
    with pytest.raises(TreeError, match="multiset differs"):
        search(t1, t2, DEFAULT_STATE_LIMIT)


def test_infinite_instances_are_rejected():
    t1 = random_phylogeny(random.Random(5), 5)
    t2 = random_phylogeny(random.Random(6), 5)
    with pytest.raises(TreeError):
        exact_dnni(t1, t2)


def test_witness_is_deterministic():
    t1, t2, _ = scrambled(31, 5, 3)
    d1, w1 = exact_dnni(t1, t2)
    d2, w2 = exact_dnni(t1, t2)
    assert d1 == d2 and w1 == w2


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 8),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 12),
    dup=st.booleans(),
)
def test_heuristic_is_zero_at_the_goal_and_consistent(n, seed, moves, dup):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    h = PairBound(t2)
    table = SearchTable(t1, t2)
    assert h(t2) == 0 and table.state(t2)[1] == 0
    # the start, its successors and theirs: every move s -> s' on the way
    layer = [t1]
    for _ in range(2):
        following = []
        for tree in layer:
            here = h(tree)
            for op, state, scaled_step, scaled_h in neighbors(tree, table):
                nxt = tree.copy()
                step = apply_nni(nxt, op)
                assert here <= step + h(nxt)
                # the search's incremental state, step and h are the moved tree's own
                assert Fraction(scaled_step, table.scale) == step
                assert Fraction(scaled_h, table.scale) == h(nxt)
                assert state == table.state(nxt)[0]
                following.append(nxt)
        layer = following[:6]


def test_lower_bound_never_exceeds_the_exact_distance():
    # acceptance criterion 2's instances
    for n in (4, 5, 6):
        for seed in range(1, 101):
            t1, t2, _ = generate_pair(seed=seed, n=n, moves=n - 1, dup_weights=seed % 3 == 0)
            bound = lower_bound(t1, t2)
            distance, _ = exact_dnni(t1, t2)
            assert bound <= distance, f"n={n} seed={seed}"
            # an edge set that all pairs up is the target itself
            assert (bound == 0) == (distance == 0), f"n={n} seed={seed}"


def test_distances_match_uniform_cost_search():
    # 100 instances
    for n in (5, 6):
        for seed in range(50):
            weights = "small" if seed % 2 else "distinct"
            t1, t2, _ = scrambled(200 + seed, n, n + seed % 4, weights)
            distance, witness = exact_dnni(t1, t2)
            reference, _ = uniform_cost_distance(t1, t2)
            assert distance == reference, f"n={n} seed={seed}"
            ok, cost, _ = verify_transform(t1, witness, t2)
            assert ok and cost == distance


def test_integer_costs_are_exact_for_mixed_denominators():
    # thirds, sevenths, tenths and a 40-digit decimal on the four internal
    # edges, one of them twice on odd seeds: the search scales by their lcm
    # and converts back once
    long = Fraction("1.000000000000000000000000000000000000007")
    pool = [Fraction(1, 3), Fraction(5, 7), Fraction("0.1"), long]
    checked = 0
    for seed in range(6):
        rng = random.Random(400 + seed)
        shape = random_phylogeny(rng, 7)
        internal = shape.internal_edges()
        ws = rng.sample(pool, len(pool))
        if seed % 2:
            ws[0] = ws[1]
        weights = {e: shape.weight(e) for e in shape.edge_ids()}
        weights.update(zip(internal, ws))
        t1 = Phylogeny(
            {e: shape.endpoints(e) for e in shape.edge_ids()},
            weights,
            {v: shape.leaf_label(v) for v in shape.nodes() if shape.is_leaf(v)},
        )
        t2 = t1.copy()
        for _ in range(5):
            apply_nni(t2, random_valid_op(rng, t2))
        distance, witness = exact_dnni(t1, t2)
        assert type(distance) is Fraction
        assert distance == uniform_cost_distance(t1, t2)[0], f"seed={seed}"
        ok, cost, _ = verify_transform(t1, witness, t2)
        assert ok and cost == distance
        checked += distance > 0
    assert checked >= 4


def search_outcome(searcher, t1, t2, state_limit):
    """What ``searcher`` gives: its answer and recorded rounds, or that it hit the limit."""
    rt = ParRuntime()
    try:
        answer = searcher(t1, t2, state_limit, rt)
    except StateLimitError:
        return "limit"
    return answer, rt.snapshot()


def check_kernel_like_the_view_oracle(t1, t2, state_limit=400):
    """The kernel's successors and search against the rooted-view reference.

    Successor lists must agree item for item (moves, states, steps, h) on
    the start tree and two layers of its successors, and the searches must
    give the same distance, witness and round, or both hit the limit.
    """
    table = SearchTable(t1, t2)
    oracle = SearchTableByView(t1, t2)
    assert table.goal == oracle.goal and table.scale == oracle.scale
    assert table.state(t1) == oracle.state(t1)
    layer = [t1]
    for _ in range(3):
        following = []
        for tree in layer:
            got = neighbors(tree, table)
            assert got == neighbors_by_view(tree, oracle)
            for op, _, _, _ in got[:3]:
                nxt = tree.copy()
                apply_nni(nxt, op)
                following.append(nxt)
        layer = following
    expected = search_outcome(search_by_view, t1, t2, state_limit)
    assert search_outcome(search, t1, t2, state_limit) == expected
    return expected


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(4, 9),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 12),
    dup=st.booleans(),
)
def test_kernel_matches_the_view_oracle_on_gen_pairs(n, seed, moves, dup):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    check_kernel_like_the_view_oracle(t1, t2)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(10, 40),
    seed=st.integers(0, 10**6),
    dup=st.booleans(),
)
def test_kernel_matches_the_view_oracle_on_components(n, seed, dup):
    # a component's :cut:k: pseudo-leaves sort before every t... taxon, so
    # the smallest taxon, whose neighbour roots both passes, is one of them
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=n // 2, dup_weights=dup)
    parts = [
        (c1, c2)
        for c1, c2 in decompose(t1, t2, find_good_edge_pairs(t1, t2))
        if 4 <= c1.n_taxa <= 8
    ]
    for c1, c2 in parts[:4]:
        check_kernel_like_the_view_oracle(c1, c2)


def test_kernel_oracle_meets_components_that_need_moves():
    # every component of a cut tree holds a pseudo-leaf, and ":cut:k:" sorts
    # before "t...", so both passes hang it from a pseudo-leaf's neighbour
    distances = []
    for seed in range(12):
        t1, t2, _ = generate_pair(seed=seed, n=24, moves=12, dup_weights=seed % 2 == 1)
        for c1, c2 in decompose(t1, t2, find_good_edge_pairs(t1, t2)):
            if 4 <= c1.n_taxa <= 7:
                assert min(c1.taxa()).startswith(":cut:")
                (distance, _), _ = check_kernel_like_the_view_oracle(c1, c2, DEFAULT_STATE_LIMIT)
                distances.append(distance)
    assert len(distances) >= 20 and all(distances)
