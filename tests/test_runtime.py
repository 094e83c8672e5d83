"""Round accounting: per-phase metrics, side-by-side blocks, prefix sums."""

import itertools
import random

from nnidist.runtime import ParRuntime, par_prefix_sums


def test_round_merges_and_counts():
    rt = ParRuntime()
    rt.round("demo", {"a": 1, "b": 2})
    rt.round("demo", [3])
    m = rt.metrics["demo"]
    assert m.rounds == 2
    assert m.work == 3
    assert m.peak_parallelism == 2
    assert rt.span("demo") == 2
    assert rt.snapshot()["demo"]["work"] == 3


def test_empty_round_is_free():
    rt = ParRuntime()
    rt.round("idle", [])
    assert rt.span("idle") == 0
    assert rt.snapshot() == {"idle": {"rounds": 0, "work": 0, "peak_parallelism": 0}}


def test_side_by_side_takes_max_rounds_and_summed_work():
    a, b = ParRuntime(), ParRuntime()
    for width in (4, 1, 2):
        a.round("p", [0] * width)
    b.round("p", [0] * 3)
    b.round("q", [0] * 5)
    rt = ParRuntime()
    rt.round("p", [0] * 9)
    rt.add_side_by_side([a, b])
    assert rt.snapshot() == {
        "p": {"rounds": 1 + 3, "work": 9 + 7 + 3, "peak_parallelism": 9},
        "q": {"rounds": 1, "work": 5, "peak_parallelism": 5},
    }
    rt.add_side_by_side([a, b])
    assert rt.metrics["p"].peak_parallelism == 9
    assert rt.metrics["q"].peak_parallelism == 5


def test_prefix_sums_match_accumulate():
    rng = random.Random(441)
    rt = ParRuntime()
    for n in (0, 1, 2, 3, 7, 20, 64, 100):
        values = [rng.randint(-5, 9) for _ in range(n)]
        assert par_prefix_sums(rt, "scan", values) == list(
            itertools.accumulate(values)
        )


def test_prefix_sum_round_count_is_logarithmic():
    rt = ParRuntime()
    par_prefix_sums(rt, "scan64", [1] * 64)
    assert rt.metrics["scan64"].rounds == 6
