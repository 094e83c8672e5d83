"""Acceptance suite: one test per shipped criterion, in order.

Each test prints a one-line measured summary (visible with ``pytest -s``);
the pass/fail verdict per criterion is the test outcome itself.
"""

import json
import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from nnidist import newick
from nnidist.balance import build_auxiliary, check_auxiliary
from nnidist.edgesort import merge_sort_edges
from nnidist.exact import exact_dnni
from nnidist.gen import generate_pair, random_tree
from nnidist.goodpairs import find_good_edge_pairs
from nnidist.labeling import augment_and_root, partition_labeling
from nnidist.linearize import endnode_paths, is_linear, linearize
from nnidist.nni import check_trace, trace_lines, verify_transform, write_trace
from nnidist.phylo import Phylogeny
from nnidist.pipeline import approx_nni
from nnidist.runtime import ParRuntime

from oracles import good_pair_oracle, random_phylogeny

CORPUS_SIZES = (8, 16, 32, 64, 128)


def clg(x: int) -> int:
    return math.ceil(math.log2(x))


@pytest.fixture(scope="module")
def corpus200():
    """200 generated pairs: 5 sizes x seeds 1..40, mixed weight styles.

    Returns (rows, elapsed) where each row is (n, seed, t1, t2, approx
    result) and elapsed covers generation plus the approximation runs.
    """
    t0 = time.perf_counter()
    rows = []
    for n in CORPUS_SIZES:
        for seed in range(1, 41):
            t1, t2, _ = generate_pair(
                seed=seed, n=n, moves=3 * n, dup_weights=seed % 2 == 0
            )
            rows.append((n, seed, t1, t2, approx_nni(t1, t2)))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def corpus_small():
    """300 instances with n in {4, 5, 6}, 100 seeds per size."""
    rows = []
    for n in (4, 5, 6):
        for seed in range(1, 101):
            t1, t2, _ = generate_pair(
                seed=seed, n=n, moves=n - 1, dup_weights=seed % 3 == 0
            )
            rows.append((n, seed, t1, t2))
    return rows


def test_criterion_01_replay_correctness(corpus200, tmp_path):
    rows, build_elapsed = corpus200
    trace = tmp_path / "trace.jsonl"
    t0 = time.perf_counter()
    for n, seed, t1, t2, result in rows:
        write_trace(trace, t1, t2, result.sequence)
        ok, cost, reason = check_trace(trace, t1, t2)
        assert ok, f"n={n} seed={seed}: {reason}"
        assert cost == result.cost, f"n={n} seed={seed}: trace cost drifted"
    elapsed = build_elapsed + time.perf_counter() - t0
    assert len(rows) == 200
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    print(f"\ncriterion 1: 200/200 traces verified, {elapsed:.1f}s total")


def test_criterion_02_oracle_dominance(corpus_small):
    slowest = 0.0
    for n, seed, t1, t2 in corpus_small:
        result = approx_nni(t1, t2)
        t0 = time.time()
        distance, witness = exact_dnni(t1, t2)
        slowest = max(slowest, time.time() - t0)
        assert slowest < 5.0, f"n={n} seed={seed}: exact search too slow"
        ok, cost, reason = verify_transform(t1, witness, t2)
        assert ok, f"n={n} seed={seed}: witness broken: {reason}"
        assert cost == distance, f"n={n} seed={seed}: witness cost drifted"
        assert result.cost >= distance, f"n={n} seed={seed}: beat the optimum"
    print(
        f"\ncriterion 2: 300/300 instances dominated, "
        f"slowest exact search {slowest:.2f}s"
    )


def test_criterion_03_lower_bound_without_good_pairs(corpus_small):
    checked = 0
    for n, seed, t1, t2 in corpus_small:
        if find_good_edge_pairs(t1, t2).pairs:
            continue
        w = sum((t1.weight(e) for e in t1.internal_edges()), Fraction(0))
        distance, _ = exact_dnni(t1, t2)
        assert distance >= w, f"n={n} seed={seed}: exact {distance} below {w}"
        checked += 1
    assert checked >= 10, "corpus produced too few no-good-pair instances"
    print(f"\ncriterion 3: {checked} no-good-pair instances, zero violations")


def _shuffled_internal_weights(tree, rng):
    internal = tree.internal_edges()
    shuffled = [tree.weight(e) for e in internal]
    rng.shuffle(shuffled)
    weights = {e: tree.weight(e) for e in tree.edge_ids()}
    weights.update(zip(internal, shuffled))
    edges = {e: tree.endpoints(e) for e in tree.edge_ids()}
    labels = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
    return Phylogeny(edges, weights, labels)


def test_criterion_04_approximation_ratio(corpus200):
    rows, _ = corpus200
    ratios: dict[int, list[float]] = {n: [] for n in (16, 32, 64, 128)}
    for n, seed, t1, t2, result in rows:
        if n not in ratios or result.good_pairs:
            continue
        assert result.ratio_to_w is not None
        assert result.ratio_to_w <= 8 * (1 + clg(n)), f"n={n} seed={seed}"
        ratios[n].append(float(result.ratio_to_w))
    # top up sizes the corpus left thin; shuffling the scrambled tree's
    # internal weights (multiset preserved) reliably kills remaining pairs
    for n in ratios:
        rng = random.Random(n)
        seed = 100
        while len(ratios[n]) < 5 and seed < 200:
            seed += 1
            t1, t2, _ = generate_pair(seed=seed, n=n, moves=5 * n)
            t2 = _shuffled_internal_weights(t2, rng)
            if find_good_edge_pairs(t1, t2).pairs:
                continue
            result = approx_nni(t1, t2)
            assert result.ratio_to_w is not None
            assert result.ratio_to_w <= 8 * (1 + clg(n)), f"n={n} seed={seed}"
            ratios[n].append(float(result.ratio_to_w))
    print("\ncriterion 4: measured cost/W on no-good-pair instances")
    for n, values in sorted(ratios.items()):
        assert len(values) >= 5
        values.sort()
        mid = values[len(values) // 2]
        print(
            f"  n={n:<3} count={len(values):<3} min={values[0]:.2f} "
            f"median={mid:.2f} max={values[-1]:.2f} bound={8 * (1 + clg(n))}"
        )


def test_criterion_05_gep_matches_bruteforce():
    sizes = (5, 8, 12, 16, 24, 32, 48, 64, 96, 128)
    checked = 0
    for i, n in enumerate(sizes):
        for seed in range(1, 11):
            t1, t2, _ = generate_pair(
                seed=seed, n=n, moves=2 * n, dup_weights=(seed + i) % 2 == 0
            )
            found = set(find_good_edge_pairs(t1, t2).pairs)
            assert found == set(good_pair_oracle(t1, t2)), f"n={n} seed={seed}"
            checked += 1
    assert checked == 100
    print("\ncriterion 5: 100/100 pair sets equal the quadratic oracle")


def _leaf_multiset_keys(aug) -> dict[int, tuple]:
    """Canonical descendant-leaf-label multiset per internal node."""
    below: dict[int, Counter] = {}
    order = sorted(aug.children, key=lambda u: aug.pre[u], reverse=True)
    for u in order:
        acc = Counter()
        for child in aug.children[u]:
            if aug.is_leaf(child):
                acc[aug.label[child]] += 1
            else:
                acc += below[child]
        below[u] = acc
    return {u: tuple(sorted(c.items())) for u, c in below.items()}


def test_criterion_06_partition_labeling_iff():
    sizes = (6, 8, 12, 16, 24, 32, 48, 64)
    pairs_checked = 0
    node_pairs = 0
    seed = 0
    while pairs_checked < 50:
        n = sizes[pairs_checked % len(sizes)]
        seed += 1
        t1, t2, _ = generate_pair(
            seed=seed, n=n, moves=n, dup_weights=pairs_checked % 2 == 0
        )
        aug1, aug2 = augment_and_root(t1), augment_and_root(t2)
        lab = partition_labeling(aug1, aug2)
        keys1 = _leaf_multiset_keys(aug1)
        keys2 = _leaf_multiset_keys(aug2)
        for u, ku in keys1.items():
            for v, kv in keys2.items():
                same_label = lab.rho[u] == lab.rho_p[v]
                assert same_label == (ku == kv), f"n={n} seed={seed} {u},{v}"
                node_pairs += 1
        pairs_checked += 1
    print(
        f"\ncriterion 6: 50 tree pairs, {node_pairs} node pairs, "
        f"labels match multisets exactly"
    )


def test_criterion_07_span_counters(corpus200):
    rows, _ = corpus200
    for n, seed, t1, t2, _result in rows:
        rt = ParRuntime()
        endnode_paths(t1, rt)
        rounds = rt.metrics["linearize.paths"].rounds
        assert rounds <= clg(n) + 2, f"n={n} seed={seed}: paths {rounds}"

        lin = linearize(t1)
        assert lin.iterations <= clg(n), f"n={n} seed={seed}: linearize"

        order = sorted(
            lin.tree.internal_edges(), key=lambda e: (lin.tree.weight(e), e)
        )
        stages = merge_sort_edges(lin.tree, order).stages
        assert stages <= clg(n - 3) + 1, f"n={n} seed={seed}: merge {stages}"

        rt = ParRuntime()
        aug1, aug2 = augment_and_root(t1), augment_and_root(t2)
        partition_labeling(aug1, aug2, rt)
        distinct = len(set(aug1.label.values()))
        pairing = rt.metrics["gep.pairing"].rounds
        assert pairing <= clg(distinct), f"n={n} seed={seed}: pairing"
    print("\ncriterion 7: all span counters within bounds on 200 instances")


def test_criterion_08_structural_postconditions(corpus200, monkeypatch):
    import nnidist.pipeline as pipeline_mod

    rows, _ = corpus200

    # the pipeline must run its own checks, not rely on the test suite
    calls = Counter()
    real_check = pipeline_mod.check_auxiliary
    real_linearize = pipeline_mod.linearize

    def counting_check(source, aux):
        calls["aux"] += 1
        return real_check(source, aux)

    def counting_linearize(tree, rt=None):
        calls["linearize"] += 1
        return real_linearize(tree, rt)

    monkeypatch.setattr(pipeline_mod, "check_auxiliary", counting_check)
    monkeypatch.setattr(pipeline_mod, "linearize", counting_linearize)
    t1, t2, _ = generate_pair(seed=23, n=16, moves=80)
    approx_nni(t1, t2)
    assert calls["aux"] > 0, "pipeline skipped the companion-shape check"
    assert calls["linearize"] > 0
    monkeypatch.undo()

    # and the checked properties hold on every corpus instance
    for n, seed, t1, _t2, _result in rows:
        lin = linearize(t1)
        assert is_linear(lin.tree), f"n={n} seed={seed}: junction survived"
        check_auxiliary(t1, build_auxiliary(t1))
    print("\ncriterion 8: postconditions wired into the pipeline and hold")


def test_criterion_09_determinism_across_fresh_runtimes():
    plans = ((8, range(1, 8)), (16, range(1, 8)), (32, range(1, 7)))
    instances = 0
    for n, seeds in plans:
        for seed in seeds:
            t1, t2, _ = generate_pair(
                seed=seed, n=n, moves=2 * n, dup_weights=seed % 2 == 0
            )
            blobs = []
            for _ in range(3):
                result = approx_nni(t1, t2)
                blobs.append(
                    (
                        "\n".join(trace_lines(t1, t2, result.sequence)).encode(),
                        json.dumps(result.metrics, sort_keys=True).encode(),
                    )
                )
            assert blobs[0] == blobs[1] == blobs[2], f"n={n} seed={seed}"
            instances += 1
    assert instances == 20
    print("\ncriterion 9: 20/20 instances byte-identical across 3 fresh runtimes")


def test_criterion_10_newick_round_trip():
    corpus = sorted((Path(__file__).parent / "fixtures" / "newick").glob("*.nwk"))
    assert len(corpus) == 50
    for path in corpus:
        text = path.read_text().strip()
        assert newick.serialize(newick.parse(text)) == text, path.name

    rng = random.Random(424242)
    for i in range(500):
        n = rng.randrange(4, 40)
        if i % 2:
            style = "small" if i % 4 == 1 else "distinct"
            t = random_phylogeny(rng, n, weights=style)
        else:
            t = random_tree(rng, n, dup_weights=i % 4 == 0)
        assert newick.parse(newick.serialize(t)).canonical_equal(t), i
    print("\ncriterion 10: 50-file fixed point and 500/500 round-trips")
