"""End-to-end tests for the approximation pipeline."""

import json
import math
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist import pipeline
from nnidist.edgesort import merge_sort_edges
from nnidist.exact import exact_dnni
from nnidist.gen import generate_pair
from nnidist.goodpairs import (
    GoodEdgePairSet,
    PairBound,
    decompose,
    find_good_edge_pairs,
    lower_bound,
    patch_sides,
    sides_below,
    walk,
)
from nnidist.labeling import augment_and_root, partition_labeling
from nnidist.leafsort import sort_leaves
from nnidist.linearize import endnode_paths, linearize
from nnidist.newick import parse
from nnidist.nni import move, verify_transform
from nnidist.phylo import Phylogeny, TreeError
from nnidist.pipeline import (
    PHASE_NAMES,
    ApproxResult,
    _component_sequence,
    approx_nni,
    pairing_pass,
)
from nnidist.runtime import ParRuntime

from oracles import caterpillar, leaf_edge_of, moved_key, pairing_pass_by_full_rounds

# Hypothesis caches the constants of local source files while the tests are
# collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


def test_identical_trees_cost_nothing():
    t1, _, _ = generate_pair(seed=3, n=8, moves=0)
    result = approx_nni(t1, t1.copy())
    assert result.cost == 0
    assert result.sequence == []
    # every internal edge pairs with itself, splitting the tree completely
    assert result.good_pairs == len(t1.internal_edges())
    assert all(v == 0 for v in result.phase_costs.values())


def test_three_taxon_trees_have_no_ratio():
    t1 = Phylogeny(
        edges={0: (0, 1), 1: (0, 2), 2: (0, 3)},
        weights={0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
        leaf_labels={1: "a", 2: "b", 3: "c"},
    )
    result = approx_nni(t1, t1.copy())
    assert result.cost == 0
    assert result.w == 0
    assert result.ratio_to_w is None
    assert result.lower_bound == 0
    assert result.ratio_to_lb is None


def test_phase_cost_keys_are_stable():
    t1, t2, _ = generate_pair(seed=5, n=16, moves=30)
    result = approx_nni(t1, t2)
    assert tuple(result.phase_costs) == PHASE_NAMES
    assert sum(result.phase_costs.values()) == result.cost


def test_sequence_replays_on_the_original_trees():
    for seed in range(1, 11):
        t1, t2, _ = generate_pair(seed=seed, n=20, moves=40,
                                  dup_weights=seed % 2 == 0)
        result = approx_nni(t1, t2)
        ok, cost, reason = verify_transform(t1, result.sequence, t2)
        assert ok, reason
        assert cost == result.cost


def test_cost_dominates_exact_distance():
    for n in (4, 5, 6):
        for seed in range(1, 9):
            t1, t2, _ = generate_pair(seed=seed, n=n, moves=4,
                                      dup_weights=seed % 3 == 0)
            result = approx_nni(t1, t2)
            distance, _ = exact_dnni(t1, t2)
            assert result.cost >= distance


def test_result_reports_the_lower_bound_and_its_ratio():
    for seed in range(1, 9):
        t1, t2, _ = generate_pair(seed=seed, n=12, moves=10, dup_weights=seed % 2 == 0)
        result = approx_nni(t1, t2)
        paired = sum((t1.weight(e1) for e1, _ in find_good_edge_pairs(t1, t2).pairs),
                     Fraction(0))
        assert result.lower_bound == result.w - paired
        assert 0 < result.lower_bound <= result.cost
        assert result.ratio_to_lb == result.cost / result.lower_bound
        payload = json.loads(json.dumps(result.as_dict()))
        assert Fraction(payload["lower_bound"]) == result.lower_bound
        assert payload["ratio_to_lb"] == float(result.ratio_to_lb)
        assert payload["ratio_to_w"] == float(result.ratio_to_w)


def test_cost_bound_on_instances_without_good_pairs():
    checked = 0
    for seed in range(1, 30):
        t1, t2, _ = generate_pair(seed=seed, n=16, moves=80)
        if find_good_edge_pairs(t1, t2).pairs:
            continue
        result = approx_nni(t1, t2)
        assert result.good_pairs == 0
        bound = 8 * (1 + math.ceil(math.log2(16)))
        assert result.ratio_to_w is not None
        assert result.ratio_to_w <= bound
        checked += 1
    assert checked >= 5


def test_good_pairs_are_counted_through_recursion():
    t1, t2, _ = generate_pair(seed=1, n=8, moves=18)
    pairs = find_good_edge_pairs(t1, t2)
    result = approx_nni(t1, t2)
    assert result.good_pairs >= len(pairs.pairs) > 0


def test_components_are_independent():
    # ops for distinct components commute: applying the blocks in reverse
    # component order must still reach the target
    found = 0
    for seed in range(1, 20):
        t1, t2, _ = generate_pair(seed=seed, n=12, moves=10)
        pairs = find_good_edge_pairs(t1, t2)
        if not pairs.pairs:
            continue
        parts = decompose(t1, t2, pairs)
        blocks = [approx_nni(a, b).sequence for a, b in parts]
        reordered = [op for block in reversed(blocks) for op in block]
        ok, _, reason = verify_transform(t1, reordered, t2)
        assert ok, reason
        found += 1
    assert found >= 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_component_is_solved_past_its_pseudo_leaves(seed):
    # a part cut at one pair still holds the other pairs, plus the
    # pseudo-leaf :cut:0:; approx_nni cuts it again and must number its own
    # cuts past that label instead of labeling a second leaf :cut:0:
    t1, t2, _ = generate_pair(seed=seed, n=16, moves=8)
    pairs = find_good_edge_pairs(t1, t2).pairs
    assert len(pairs) > 1
    for a, b in decompose(t1, t2, GoodEdgePairSet(pairs[:1])):
        result = approx_nni(a, b)
        assert verify_transform(a, result.sequence, b) == (True, result.cost, None)


@pytest.mark.parametrize("n,seed", [(16, 1), (16, 2), (32, 3), (48, 4)])
def test_a_component_maps_its_second_tree_onto_the_end_of_its_moves(n, seed):
    # stars, exact-search components and four-phase ones: the end map sends
    # each edge of c2 to the edge at its place in the tree the moves reach,
    # which a walk of that tree against c2 gives, and asking for it changes
    # no move
    t1, t2, _ = generate_pair(seed, n, 2 * n, dup_weights=seed % 2 == 0)
    kinds = Counter()
    for c1, c2 in decompose(t1, t2, find_good_edge_pairs(t1, t2)):
        end_map = {}
        ops, costs = _component_sequence(c1, c2, ParRuntime(), end_map)
        assert (ops, costs) == _component_sequence(c1, c2, ParRuntime())
        end = c1.copy()
        for op in ops:
            move(end, *op)
        assert end.canonical_equal(c2)
        assert end_map == pipeline._equal_tree_edge_map(end, c2)
        assert set(end_map) == set(c2.edge_ids())
        kinds["star" if not ops else "exact" if "exact" in costs else "phases"] += 1
    assert kinds["star"] and (kinds["exact"] and kinds["phases"] or n < 32)


def counter_of(calls: Counter):
    """A wrapper factory: ``counting(name, fn)`` counts each call in ``calls[name]``."""
    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted
    return counting


@pytest.mark.parametrize("n,seed", [(4, 1), (5, 1), (6, 1), (7, 3)])
def test_only_components_above_six_taxa_take_the_four_phases(n, seed, monkeypatch):
    # criterion 8's counters, per component size: one to three internal
    # edges the exact search answers alone, from four the companion is built
    # and checked and the trees are linearized.  The pairing pass pairs
    # edges of the 7-taxon pair before the cut and leaves smaller
    # components, so that pair, which has no good pair and is one
    # component, goes to the component solver directly
    import nnidist.pipeline as pipeline_mod

    t1, t2, _ = generate_pair(seed=seed, n=n, moves=2 * n)
    assert not find_good_edge_pairs(t1, t2).pairs
    calls = Counter()
    counting = counter_of(calls)

    monkeypatch.setattr(pipeline_mod, "check_auxiliary",
                        counting("aux", pipeline_mod.check_auxiliary))
    monkeypatch.setattr(pipeline_mod, "linearize", counting("linearize", pipeline_mod.linearize))
    monkeypatch.setattr(pipeline_mod.exact, "search",
                        counting("exact", pipeline_mod.exact.search))
    if n > 6:
        rt = ParRuntime()
        _, costs = _component_sequence(t1, t2, rt)
        assert calls["exact"] == 0
        assert calls["aux"] == 1 and calls["linearize"] > 0
        assert "exact" not in costs and costs
        assert "exact" not in rt.metrics
        return
    result = approx_nni(t1, t2)
    if n == 4:
        # a quartet's search settles the start and the goal
        assert calls == {"exact": 1}
        assert result.phase_costs["exact"] == result.cost > 0
        assert result.metrics["exact"]["rounds"] == 1
        assert result.metrics["exact"]["work"] == 2
    else:
        assert calls == {"exact": 1}
        assert result.phase_costs["exact"] == result.cost > 0
        assert result.metrics["exact"]["rounds"] == 1


# the three quartet topologies, each as the taxa at one end of the internal
# edge and the taxa at the other, by position in a list of four taxa
QUARTET_SPLITS = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
QUARTET_TAXA = [":cut:0:", ":cut:1:", ":cut:12:", "t000", "t001", "t007", "zeta"]


@st.composite
def quartet_pair(draw, first, second):
    """Two finite quartets over one draw of taxa and weights, with splits
    ``first`` and ``second``, each with its own edge and node ids, endpoint
    orders and edge-table order."""
    taxa = draw(st.lists(st.sampled_from(QUARTET_TAXA), min_size=4, max_size=4, unique=True))
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    leaf_w = {t: draw(weight) for t in taxa}
    mid_w = draw(weight)

    def tree(split):
        (a, b), (c, d) = split
        mid, *legs = draw(st.lists(st.integers(0, 30), min_size=5, max_size=5, unique=True))
        u, v, *leaves = draw(st.lists(st.integers(0, 30), min_size=6, max_size=6, unique=True))
        flips = draw(st.lists(st.booleans(), min_size=5, max_size=5))
        rows = [(mid, (v, u) if flips[0] else (u, v), mid_w)]
        labels = {}
        for leg, node, leaf, x, flip in zip(legs, (u, u, v, v), leaves, (a, b, c, d), flips[1:]):
            rows.append((leg, (leaf, node) if flip else (node, leaf), leaf_w[taxa[x]]))
            labels[leaf] = taxa[x]
        rows = [rows[i] for i in draw(st.permutations(range(5)))]
        return Phylogeny({e: ends for e, ends, _ in rows}, {e: w for e, _, w in rows}, labels)

    return tree(QUARTET_SPLITS[first]), tree(QUARTET_SPLITS[second])


@pytest.mark.parametrize("first,second", list(permutations(range(3), 2)))
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_quartet_takes_the_move_the_exact_search_finds(first, second, data):
    # every ordered pair of distinct quartet topologies: one move on the
    # internal edge e, at the bound w(e), settling the start and the goal
    c1, c2 = data.draw(quartet_pair(first, second))
    rt = ParRuntime()
    ops, costs = _component_sequence(c1, c2, rt)
    (e,) = c1.internal_edges()
    assert len(ops) == 1 and ops[0].e2 == e
    assert costs == {"exact": c1.weight(e)}
    assert verify_transform(c1, ops, c2) == (True, c1.weight(e), None)
    assert rt.snapshot() == {"exact": {"rounds": 1, "work": 2, "peak_parallelism": 2}}


def test_each_component_is_checked_once_and_the_answer_replayed_once(monkeypatch):
    # 10 stars, 5 quartets, one component of five taxa and one of nine:
    # approx_nni runs the one finiteness_check, on the full trees; detection
    # does not repeat it, decompose checks each component from count vectors,
    # and only approx_nni replays moves
    import nnidist.exact as exact_mod
    import nnidist.goodpairs as goodpairs_mod
    import nnidist.pipeline as pipeline_mod

    t1, t2, _ = generate_pair(2, 32, 16)
    sizes = Counter(a.n_taxa for a, _ in decompose(t1, t2, find_good_edge_pairs(t1, t2)))
    assert sizes == {3: 10, 4: 5, 5: 1, 9: 1}
    calls = Counter()
    counting = counter_of(calls)

    for name in ("finiteness_check", "verify_transform"):
        real = getattr(pipeline_mod, name)
        for module in (pipeline_mod, goodpairs_mod, exact_mod):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    approx_nni(t1, t2)
    assert calls == {"finiteness_check": 1, "verify_transform": 1}


def test_each_tree_is_walked_and_keyed_once_and_the_answer_replayed_once(monkeypatch):
    # both passes keep moves on this pair.  One layout keys both trees: each
    # input tree's sides are walked once and its keys read once, and T2′'s
    # table follows tree 2's moves with no further walk.  The answer is
    # replayed once through nni's replay core, every move once: tree 2's
    # moves are carried onto t1's ids before it, with no walk of a whole
    # tree.  The exact search walks its own small states through its own
    # imports, which are not counted here
    import nnidist.goodpairs as goodpairs_mod
    import nnidist.nni as nni_mod

    t1, t2, _ = generate_pair(seed=5, n=32, moves=64)
    walked, keyed, legs = [], [], []
    sides_below, edge_keys_of, replay = (
        goodpairs_mod.sides_below, goodpairs_mod.edge_keys_of, nni_mod.replay)

    def counted_sides(tree, *args):
        walked.append(tree)
        return sides_below(tree, *args)

    def counted_keys(tree, *args):
        keyed.append(tree)
        return edge_keys_of(tree, *args)

    def counted_replay(work, ops, target=None):
        legs.append(0)
        for step in replay(work, ops, target):
            legs[-1] += 1
            yield step

    monkeypatch.setattr(goodpairs_mod, "sides_below", counted_sides)
    monkeypatch.setattr(goodpairs_mod, "edge_keys_of", counted_keys)
    monkeypatch.setattr(nni_mod, "replay", counted_replay)
    result = approx_nni(t1, t2)
    assert result.phase_costs["pairing"] and result.phase_costs["pairing_2"]
    assert len(walked) == len(keyed) == 2
    assert walked[0] is keyed[0] is t1 and walked[1] is keyed[1] is t2
    assert legs == [len(result.sequence)]


def test_no_star_is_built_and_a_fully_paired_pair_is_not_decomposed(monkeypatch):
    # a three-leaf star needs no move, so decompose checks the stars' taxa
    # without building them: no part of three edges is built and none
    # reaches _component_sequence.  When the passes pair every internal
    # edge, every part is a star and decompose is not called at all
    built, solved, decomposed = [], [], []
    from_tables = Phylogeny._from_tables
    component_sequence, decompose_ = pipeline._component_sequence, pipeline.decompose

    def counted_tables(ends, weights, labels):
        built.append(len(ends))
        return from_tables(ends, weights, labels)

    def counted_sequence(c1, c2, *args):
        solved.append((c1.n_taxa, c2.n_taxa))
        return component_sequence(c1, c2, *args)

    def counted_decompose(*args, **kwargs):
        decomposed.append(decompose_(*args, **kwargs))
        return decomposed[-1]

    monkeypatch.setattr(Phylogeny, "_from_tables", staticmethod(counted_tables))
    monkeypatch.setattr(pipeline, "_component_sequence", counted_sequence)
    monkeypatch.setattr(pipeline, "decompose", counted_decompose)
    t1, t2, _ = generate_pair(1, 256, 256)
    result = approx_nni(t1, t2)
    assert len(decomposed) == 1 and len(decomposed[0]) == len(solved) > 0
    assert min(min(pair) for pair in solved) > 3
    assert len(built) == 2 * len(solved) and min(built) > 3
    assert verify_transform(t1, result.sequence, t2) == (True, result.cost, None)

    same = generate_pair(2, 64, 64)[0]
    small1, small2, _ = generate_pair(1, 7, 6)
    for a, b in ((same, same.copy()), (small1, small2)):
        for calls in (built, solved, decomposed):
            calls.clear()
        result = approx_nni(a, b)
        assert not (built or solved or decomposed)
        assert verify_transform(a, result.sequence, b) == (True, result.cost, None)
    # the passes alone answer the 7-taxon pair, with moves
    assert result.cost > 0 and result.phase_costs["exact"] == 0


def test_span_is_the_max_over_components():
    # components run side by side: per phase, rounds combine by max and
    # work and width by sum over the components of T1′ and T2′ solved
    # alone.  The two pairing passes run first, one after the other, on the
    # whole trees, so their rounds are their own.  On this pair each pass
    # keeps moves, one of them two-move pairs, and they leave two components
    # of more than six taxa, so every four-phase phase runs twice
    t1, t2, _ = generate_pair(seed=5, n=32, moves=64)
    pass_rt, back, forth = run_both(t1, t2)
    assert back.rounds and forth.rounds
    alone = []
    for a, b in decompose(forth.tree, back.tree, forth.pairs):
        part_rt = ParRuntime()
        _component_sequence(a, b, part_rt)
        alone.append(part_rt.snapshot())
    assert sum(1 for m in alone if m) >= 2
    assert any(key is None for p in (back, forth) for kept in p.rounds for _, key in kept)
    metrics = approx_nni(t1, t2).metrics
    assert metrics.pop("pairing") == pass_rt.snapshot()["pairing"]
    assert set(metrics) == set().union(*alone)
    summed_rounds = 0
    for phase, m in metrics.items():
        per_part = [a[phase] for a in alone if phase in a]
        assert m["rounds"] == max(p["rounds"] for p in per_part)
        assert m["work"] == sum(p["work"] for p in per_part)
        assert m["peak_parallelism"] == sum(p["peak_parallelism"] for p in per_part)
        summed_rounds += sum(p["rounds"] for p in per_part)
    assert sum(m["rounds"] for m in metrics.values()) < summed_rounds


def test_rounds_count_under_fixed_phase_names():
    # golden instance (64, 1) keeps pairing moves and has components on
    # both sides of the six-taxon cutoff, so it reports every phase the
    # pipeline records
    t1, t2, _ = generate_pair(seed=1, n=64, moves=192)
    assert set(approx_nni(t1, t2).metrics) == {
        "edgesort", "exact", "leafsort", "linearize", "linearize.paths", "pairing"}

    # each phase function records only its own names when called directly
    rt = ParRuntime()
    endnode_paths(t1, rt)
    assert set(rt.metrics) == {"linearize.paths"}

    lin = linearize(t1).tree
    rt = ParRuntime()
    order = sorted(lin.internal_edges(), key=lambda e: (lin.weight(e), e))
    merge_sort_edges(lin, order, rt)
    assert set(rt.metrics) == {"edgesort"}

    source = parse("((A:1,B:1):2,(C:1,D:1):3,(E:1,F:1):2);")
    target = parse("((A:1,C:1):2,(B:1,D:1):3,(E:1,F:1):2);")
    rt = ParRuntime()
    assert sort_leaves(source, target, rt).cycles == 1
    assert set(rt.metrics) == {"leafsort"}

    rt = ParRuntime()
    partition_labeling(augment_and_root(t1), augment_and_root(t2), rt)
    assert set(rt.metrics) == {"gep", "gep.pairing"}


def test_deterministic_across_fresh_runtimes():
    # repeated runs, each on a fresh runtime, agree byte for byte
    t1, t2, _ = generate_pair(seed=11, n=24, moves=50)
    runs = []
    for _ in range(3):
        result = approx_nni(t1, t2)
        runs.append((tuple(result.sequence),
                     json.dumps(result.metrics, sort_keys=True)))
    assert runs[0] == runs[1] == runs[2]


def test_result_serializes_to_plain_json():
    t1, t2, _ = generate_pair(seed=2, n=10, moves=12)
    result = approx_nni(t1, t2)
    payload = json.dumps(result.as_dict())
    parsed = json.loads(payload)
    assert parsed["cost"] == str(result.cost)
    assert parsed["ops"] == len(result.sequence)
    assert set(parsed["phase_costs"]) == set(PHASE_NAMES)


def test_infeasible_pairs_are_rejected():
    t1 = caterpillar(5, internal_weights=[1, 2])
    t2 = caterpillar(5, internal_weights=[1, 3])
    with pytest.raises(TreeError):
        approx_nni(t1, t2)


def test_w_and_the_bound_summed_in_ints_equal_the_fraction_sums():
    # eleven internal weights over four values of several denominators: w
    # and the lower bound are summed over the lcm and must equal the sums
    # that add one Fraction at a time
    pool = [Fraction(1, 3), Fraction(5, 4), Fraction(2, 7), Fraction(7, 10)]
    for seed in range(1, 5):
        t1, t2, _ = generate_pair(seed=seed, n=14, moves=6)
        internal = {e: pool[k % len(pool)] for k, e in enumerate(t1.internal_edges())}
        t1, t2 = (
            Phylogeny(
                {e: t.endpoints(e) for e in t.edge_ids()},
                {e: internal.get(e, t.weight(e)) for e in t.edge_ids()},
                {x: t.leaf_label(x) for x in t.nodes() if t.is_leaf(x)},
            )
            for t in (t1, t2)
        )
        result = approx_nni(t1, t2)
        assert result.w == sum(internal.values(), Fraction(0))
        paired = {e1 for e1, _ in find_good_edge_pairs(t1, t2).pairs}
        unpaired = [w for e, w in internal.items() if e not in paired]
        assert result.lower_bound == sum(unpaired, Fraction(0))
        assert result.w.denominator > 1 and unpaired


def test_costs_are_exact_fractions():
    t1, t2, _ = generate_pair(seed=9, n=14, moves=25)
    result = approx_nni(t1, t2)
    assert isinstance(result.cost, Fraction)
    assert all(isinstance(v, Fraction) for v in result.phase_costs.values())


def test_no_two_adjacent_moves_share_a_middle_edge():
    for n, seed in [(8, 1), (16, 2), (32, 3), (64, 4), (128, 5)]:
        t1, t2, _ = generate_pair(seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0)
        sequence = approx_nni(t1, t2).sequence
        assert sequence
        assert all(x.e2 != y.e2 for x, y in zip(sequence, sequence[1:]))


# ----------------------------------------------------------------------
# the pairing pass


def run_pass(t1, t2):
    """The pass as approx_nni runs it: (tree 2's table, the pass's runtime, its result)."""
    table = PairBound(t2)
    rt = ParRuntime()
    return table, rt, pairing_pass(t1, t2, table, table.edge_fields(t1), rt)


def run_both(t1, t2):
    """Both passes as approx_nni runs them: (their runtime, tree 2's pass, t1's pass against T2′)."""
    rt = ParRuntime()
    table1 = PairBound(t1)
    back = pairing_pass(t2, t1, table1, table1.edge_fields(t2), rt)
    table = PairBound(back.tree)
    forth = pairing_pass(t1, back.tree, table, table.edge_fields(t1), rt)
    return rt, back, forth


def units(kept):
    """A round's kept moves as units: a single move, or a helper move and its pairing move."""
    out = []
    for op, key in kept:
        if out and out[-1][-1][1] is None:
            out[-1].append((op, key))
        else:
            out.append([(op, key)])
    return out


def moved_edges(pairing):
    """The pass's pairing edges and its helper edges, in the order moved."""
    ops = [(op.e2, key) for kept in pairing.rounds for op, key in kept]
    return [e for e, key in ops if key is not None], [e for e, key in ops if key is None]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(7, 40),
    seed=st.integers(0, 10**6),
    moves=st.integers(1, 120),
    dup_weights=st.booleans(),
)
def test_the_pairing_pass_makes_the_pairs_it_predicts(n, seed, moves, dup_weights):
    t1, t2, _ = generate_pair(seed, n, moves, dup_weights=dup_weights)
    ends = dict(t1._ends)
    table, rt, pairing = run_pass(t1, t2)
    assert t1._ends == ends  # the moves are made on a copy
    assert pairing.detected == find_good_edge_pairs(t1, t2)

    # every move is on an edge unpaired in t1; an edge is paired at most
    # once and helps at most once, so it moves at most twice
    moved, helpers = moved_edges(pairing)
    assert not set(moved + helpers) & {e for e, _ in pairing.detected.pairs}
    assert len(moved) == len(set(moved)) and len(helpers) == len(set(helpers))

    # each unit ends with a pairing move, and a helper move on f is followed
    # by the pairing move (f, e, qj) on an edge e next to f
    before = t1.copy()
    for kept in pairing.rounds:
        for unit in units(kept):
            assert unit[-1][1] is not None and len(unit) in (1, 2)
            if len(unit) == 2:
                (helper, _), (op, _) = unit
                assert op.e1 == helper.e2
                assert set(before.endpoints(helper.e2)) & set(before.endpoints(op.e2))
        for op, _ in kept:
            move(before, *op)

    # each pairing move ends with the key its round predicted, one of tree 2's
    keys = table.edge_keys(pairing.tree)
    for kept in pairing.rounds:
        for op, key in kept:
            if key is not None:
                assert keys[op.e2] == key and key in table.target

    # the units of one round share no node and no key: single moves never
    # do, and the pass keeps a two-move unit only when it meets no other
    before = t1.copy()
    for kept in pairing.rounds:
        nodes = [x for unit in units(kept)
                 for x in {x for op, _ in unit for x in before.endpoints(op.e2)}]
        assert len(nodes) == len(set(nodes))
        assert len({key for _, key in kept if key is not None}) == len(units(kept))
        for op, _ in kept:
            move(before, *op)

    # the units of one round commute: in reverse order they give the same
    # edge table
    before = t1.copy()
    for kept in pairing.rounds:
        forward, backward = before.copy(), before.copy()
        for op, _ in kept:
            move(forward, *op)
        for unit in reversed(units(kept)):
            for op, _ in unit:
                move(backward, *op)
        assert forward._ends == backward._ends
        before = forward
    assert before._ends == pairing.tree._ends

    # T1′'s pairs are the good pairs of T1′, with no further key pass
    assert pairing.pairs == find_good_edge_pairs(pairing.tree, t2)
    assert len(pairing.pairs) == len(pairing.detected) + len(moved)

    # at most ⌈log₂ n⌉ judged rounds; every round but the last kept a move
    assert len(pairing.rounds) <= rt.span("pairing") <= math.ceil(math.log2(n))

    # the pairing moves cost at most the bound and so do the helper moves,
    # each moved edge its own weight each time it moves
    lb = lower_bound(t1, t2)
    assert sum((t1.weight(e) for e in moved), Fraction(0)) <= lb
    assert sum((t1.weight(e) for e in helpers), Fraction(0)) <= lb

    # approx_nni runs tree 2's pass first and t1's against its T2′: the
    # answer opens with t1's pass and ends with tree 2's, undone in reverse
    result = approx_nni(t1, t2)
    _, back, forth = run_both(t1, t2)
    forth_ops, back_ops = pipeline._moves(forth), pipeline._moves(back)
    assert result.lower_bound == lb and result.good_pairs == len(pairing.detected)
    assert result.phase_costs["pairing"] == sum(
        (t1.weight(op.e2) for op in forth_ops), Fraction(0))
    assert result.phase_costs["pairing_2"] == sum(
        (t2.weight(op.e2) for op in back_ops), Fraction(0))
    assert result.sequence[:len(forth_ops)] == forth_ops
    tail = result.sequence[len(result.sequence) - len(back_ops):]
    assert [t1.weight(op.e2) for op in tail] == [t2.weight(op.e2) for op in back_ops[::-1]]


@pytest.mark.parametrize("dup_weights", [False, True])
def test_the_pairing_pass_costs_at_most_twice_the_bound(dup_weights):
    # the guarantee, on corpus-sized pairs and one at n = 2048: an edge
    # unpaired in t1 moves at most once to pair and at most once to help,
    # so each kind of move weighs at most the bound and the pass twice it
    two_move = 0
    for n, seed in [(16, 1), (32, 2), (64, 3), (128, 4), (2048, 1)]:
        t1, t2, _ = generate_pair(seed, n, n, dup_weights=dup_weights)
        pairing = run_pass(t1, t2)[2]
        moved, helpers = moved_edges(pairing)
        assert max(Counter(moved + helpers).values(), default=0) <= 2
        assert len(helpers) == len(set(helpers)) and len(moved) == len(set(moved))
        unpaired = set(t1.internal_edges()) - {e for e, _ in pairing.detected.pairs}
        assert set(moved + helpers) <= unpaired
        lb = lower_bound(t1, t2)
        assert sum((t1.weight(e) for e in moved), Fraction(0)) <= lb
        assert sum((t1.weight(e) for e in helpers), Fraction(0)) <= lb
        two_move += len(helpers)
    assert two_move


@pytest.mark.parametrize("n", [4, 5, 6])
def test_the_pairing_pass_takes_no_round_up_to_six_taxa(n):
    # the exact search solves these pairs whole and optimally, so neither
    # tree's pass takes a round
    for seed in range(1, 6):
        t1, t2, _ = generate_pair(seed, n, 2 * n)
        _, rt, pairing = run_pass(t1, t2)
        assert pairing.tree is t1 and pairing.rounds == []
        assert pairing.pairs == pairing.detected
        assert "pairing" not in rt.metrics
        rt, back, forth = run_both(t1, t2)
        assert back.tree is t2 and forth.tree is t1 and not back.rounds and not forth.rounds
        assert "pairing" not in rt.metrics
        result = approx_nni(t1, t2)
        assert result.phase_costs["pairing"] == result.phase_costs["pairing_2"] == 0
        assert "pairing" not in result.metrics


def repeated_weights(t1, t2, seed):
    """``t1`` and ``t2`` with their internal weights drawn from three values.

    A move keeps every edge id with its weight, so the generator's two
    trees get one reweighting and stay a finite pair.
    """
    rng = Random(seed)
    internal = {e: Fraction(rng.choice((2, 3, 5))) for e in t1.internal_edges()}
    return tuple(
        Phylogeny(
            {e: t.endpoints(e) for e in t.edge_ids()},
            {e: internal.get(e, t.weight(e)) for e in t.edge_ids()},
            {x: t.leaf_label(x) for x in t.nodes() if t.is_leaf(x)},
        )
        for t in (t1, t2)
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(7, 48),
    seed=st.integers(0, 10**6),
    scale=st.integers(1, 3),
)
def test_both_passes_keep_moves_and_the_answer_still_replays(n, seed, scale):
    # with repeated weights, on pairs where each tree's pass keeps a move:
    # the answer replays from t1 to t2 at the reported cost, and each pass
    # costs at most twice the bound of the input pair
    t1, t2 = repeated_weights(*generate_pair(seed, n, scale * n)[:2], seed)
    result = approx_nni(t1, t2)
    costs = result.phase_costs
    assume(costs["pairing"] > 0 and costs["pairing_2"] > 0)
    assert verify_transform(t1, result.sequence, t2) == (True, result.cost, None)
    assert result.cost == sum(costs.values(), Fraction(0))
    lb = lower_bound(t1, t2)
    assert lb == result.lower_bound
    assert costs["pairing"] <= 2 * lb and costs["pairing_2"] <= 2 * lb


def test_the_pairing_pass_keeps_t1_when_no_move_pairs():
    # with shuffled internal weights no single move pairs an edge: the pass
    # judges one round, copies nothing and leaves the answer to the phases
    for seed in range(1, 30):
        t1, t2, _ = generate_pair(seed=seed, n=16, moves=80)
        _, rt, pairing = run_pass(t1, t2)
        if not pairing.rounds:
            break
    else:
        pytest.fail("every instance kept a pairing move")
    assert pairing.tree is t1
    assert rt.snapshot()["pairing"]["rounds"] == 1
    unpaired = len(t1.internal_edges()) - len(pairing.detected)
    assert rt.snapshot()["pairing"]["work"] == 2 * unpaired


def same_pass(t1, got, want):
    """Two pairing passes of t1 agree: pairs, rounds and T1′, whose edge table is compared."""
    return (got.detected == want.detected and got.rounds == want.rounds
            and got.pairs == want.pairs and (got.tree is t1) == (want.tree is t1)
            and got.tree._ends == want.tree._ends)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(7, 80),
    seed=st.integers(0, 10**6),
    scale=st.integers(1, 4),
    dup_weights=st.booleans(),
)
def test_the_pairing_pass_matches_full_rounds(n, seed, scale, dup_weights):
    # judging only the edges next to the last round's moves, on patched
    # sides, keeps every move and records every round of the full pass
    t1, t2, _ = generate_pair(seed, n, scale * n, dup_weights=dup_weights)
    table, rt, pairing = run_pass(t1, t2)
    want_rt = ParRuntime()
    want = pairing_pass_by_full_rounds(t1, t2, table, table.edge_fields(t1), want_rt)
    assert same_pass(t1, pairing, want)
    assert rt.snapshot() == want_rt.snapshot()


def test_patched_sides_give_the_moved_keys_of_fresh_sides():
    # replays each pass's kept rounds, patching one copy of t1's sides per
    # move as the pass does; after each round every move of every internal
    # edge must read the key that a fresh walk of the tree gives it
    turned = Counter()  # does f turn over, with v's parent edge moved to u
    moved_smallest = 0  # moves that carry the smallest taxon's leaf edge
    for n, seed in [(16, 1), (16, 2), (32, 3), (32, 4), (64, 5), (64, 6), (80, 7), (80, 8)]:
        t1, t2, _ = generate_pair(seed, n, 2 * n, dup_weights=seed % 2 == 0)
        table, _, pairing = run_pass(t1, t2)
        fields = table.edge_fields(t1)
        sides = table.sides(t1, fields)
        sides = sides._replace(parent_edge=dict(sides.parent_edge))
        smallest = leaf_edge_of(t1, min(t1.taxa()))
        work = t1.copy()
        for kept in pairing.rounds:
            for op, _ in kept:
                u, v = work.endpoints(op.e2)
                if sides.parent_edge[u] != op.e2:
                    u, v = v, u
                turned[sides.parent_edge[v] in (op.e1, op.e3)] += 1
                moved_smallest += smallest in (op.e1, op.e3)
                move(work, *op)
                patch_sides(work, sides, op.e2)
            fresh = sides_below(work, walk(work), table.bit, *fields)
            for e2 in fields[0]:
                u, v = work.endpoints(e2)
                for a in work.adjacent_edges(u):
                    for b in work.adjacent_edges(v):
                        if e2 not in (a, b):
                            assert (moved_key(work, sides, a, e2, b)
                                    == moved_key(work, fresh, a, e2, b))
    assert turned[True] and turned[False] and moved_smallest


def test_later_pairing_rounds_judge_only_the_edges_next_to_kept_moves(monkeypatch):
    # at n = 2048 a later round judges only the edges at or one edge from a
    # node that a kept move of the round before rewired, at most nine per
    # node, not every unpaired edge again (one edge away only along an edge
    # that can still help, so often fewer).  A judged edge checks each of
    # its two ends once, so the checks count the judged edges twice
    t1, t2, _ = generate_pair(1, 2048, 2048)
    checks = 0
    meets_one_part = pipeline._meets_one_part

    def counted(*args):
        nonlocal checks
        checks += 1
        return meets_one_part(*args)

    monkeypatch.setattr(pipeline, "_meets_one_part", counted)
    table, rt, pairing = run_pass(t1, t2)
    full_rt = ParRuntime()
    want = pairing_pass_by_full_rounds(t1, t2, table, table.edge_fields(t1), full_rt)
    assert same_pass(t1, pairing, want) and len(pairing.rounds) > 1
    assert any(key is None for kept in pairing.rounds for _, key in kept)

    assert checks % 2 == 0
    judged = checks // 2
    unpaired = len(t1.internal_edges()) - len(pairing.detected)
    # a single move rewires its edge's two ends, a two-move unit three nodes
    rewired = sum(len(unit) + 1 for kept in pairing.rounds for unit in units(kept))
    assert judged <= unpaired + 9 * rewired
    # the full pass judges every unpaired edge in every round, two tasks
    # each, which is the work both passes record
    work = full_rt.snapshot()["pairing"]["work"]
    assert rt.snapshot()["pairing"]["work"] == work
    assert judged < work // 2
