"""Property tests: Newick text is a fixed point of parse then serialize, every
pipeline trace checks, no corrupted trace crashes verify, and linearize's
terminals and rounds are those of pointer jumping.

Examples are derandomized and no example database is kept, so each run
draws the same examples.
"""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist import newick
from nnidist.cli import main
from nnidist.exact import exact_dnni
from nnidist.gen import generate_pair
from nnidist.goodpairs import find_good_edge_pairs
from nnidist.linearize import endnode_paths
from nnidist.nni import check_trace, verify_transform, write_trace
from nnidist.phylo import Phylogeny
from nnidist.pipeline import approx_nni
from nnidist.runtime import ParRuntime

from oracles import (
    caterpillar,
    classify_by_leaf_count,
    pointer_jumping_oracle,
    random_phylogeny,
)

SETTINGS = dict(derandomize=True, database=None, deadline=None)
# Hypothesis caches the constants of local source files while the tests are
# collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


@settings(max_examples=30, **SETTINGS)
@given(
    n=st.integers(4, 16),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 48),
    dup=st.booleans(),
)
def test_every_pipeline_trace_checks(n, seed, moves, dup):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    result = approx_nni(t1, t2)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.jsonl"
        write_trace(path, t1, t2, result.sequence)
        assert check_trace(path, t1, t2) == (True, result.cost, None)


@settings(max_examples=60, **SETTINGS)
@given(
    n=st.integers(4, 6),
    seed=st.integers(0, 10**6),
    moves=st.integers(1, 12),
    dup=st.booleans(),
)
def test_small_instances_are_solved_exactly(n, seed, moves, dup):
    # at most six taxa and no good pair: one component, answered by the
    # exact search, so the approximation is the distance
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    result = approx_nni(t1, t2)
    ok, cost, reason = verify_transform(t1, result.sequence, t2)
    assert ok and cost == result.cost, reason
    distance, witness = exact_dnni(t1, t2)
    assert result.cost >= distance
    if not find_good_edge_pairs(t1, t2).pairs:
        assert result.cost == distance
        assert result.sequence == witness


@settings(max_examples=60, **SETTINGS)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
    denominator=st.sampled_from([1, 2, 8, 10, 125]),
)
def test_parse_of_serialize_serializes_to_the_same_text(n, seed, repeats, denominator):
    tree = random_phylogeny(random.Random(seed), n, "small" if repeats else "distinct")
    tree = Phylogeny(
        {e: tree.endpoints(e) for e in tree.edge_ids()},
        {e: tree.weight(e) / denominator for e in tree.edge_ids()},
        {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)},
    )
    text = newick.serialize(tree)
    again = newick.parse(text)
    assert newick.serialize(again) == text
    assert again.canonical_equal(tree)


def _hung_from(tree: Phylogeny, leaf: int) -> Phylogeny:
    """``tree`` with ``leaf`` and the smallest taxon's leaf trading labels.

    The root handle, the internal node next to the smallest taxon, is then
    ``leaf``'s neighbour.
    """
    labels = {v: tree.leaf_label(v) for v in tree.nodes() if tree.is_leaf(v)}
    first = tree.leaf_node(min(tree.taxa()))
    labels[first], labels[leaf] = labels[leaf], labels[first]
    return Phylogeny(
        {e: tree.endpoints(e) for e in tree.edge_ids()},
        {e: tree.weight(e) for e in tree.edge_ids()},
        labels,
    )


@settings(max_examples=200, **SETTINGS)
@given(
    shape=st.sampled_from(["random", "caterpillar", "star", "quartet"]),
    n=st.integers(3, 80),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
    handle=st.sampled_from(["as drawn", "endnode", "pathnode"]),
)
@example(shape="caterpillar", n=40, seed=1, repeats=False, handle="pathnode")
@example(shape="random", n=80, seed=2, repeats=True, handle="endnode")
@example(shape="star", n=3, seed=3, repeats=False, handle="as drawn")
@example(shape="quartet", n=4, seed=4, repeats=True, handle="pathnode")
def test_terminals_and_rounds_match_pointer_jumping(shape, n, seed, repeats, handle):
    # the top-down pass must give the jump loop's terminals and record its
    # linearize.paths rounds, work and width exactly, wherever the root
    # handle sits: at an endnode, or a pathnode mid-chain
    rng = random.Random(seed)
    draw = "small" if repeats else "distinct"
    if shape == "caterpillar":
        n = max(n, 4)
        ws = [rng.randint(1, 4) if repeats else i + 1 for i in range(n - 3)]
        tree = caterpillar(n, ws)
    else:
        n = {"star": 3, "quartet": 4}.get(shape, n)
        tree = random_phylogeny(rng, n, draw)
    classes = classify_by_leaf_count(tree)
    leaves = [
        v for v in tree.nodes() if tree.is_leaf(v)
        and classes[tree.other_end(tree.adjacent_edges(v)[0], v)] == handle
    ]
    if leaves:
        tree = _hung_from(tree, rng.choice(leaves))

    expect, metrics = pointer_jumping_oracle(tree)
    rt = ParRuntime()
    parent_edge = {}
    assert endnode_paths(tree, rt, None, parent_edge) == expect
    assert rt.snapshot() == metrics
    view = tree.rooted_view().parent_edge
    assert parent_edge == {x: e for x, e in view.items() if e is not None}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Three tree-file pairs with the trace ``approx`` writes for each."""
    out = []
    for n, seed in ((6, 1), (10, 2), (16, 3)):
        d = tmp_path_factory.mktemp(f"pair{n}")
        t1, t2, _ = generate_pair(seed=seed, n=n, moves=2 * n, dup_weights=seed == 2)
        p1, p2, trace = d / "a.nwk", d / "b.nwk", d / "trace.jsonl"
        newick.write_tree(p1, t1)
        newick.write_tree(p2, t2)
        assert main(["approx", str(p1), str(p2), "--trace", str(trace)]) == 0
        out.append((str(p1), str(p2), trace.read_bytes()))
    return out


FIELD_VALUES = [None, -1, "x", 1.5, [], 10**30]
POSITION = st.integers(0, 10**6)
CORRUPTIONS = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(1, 255)),
    st.tuples(st.just("delete"), POSITION),
    st.tuples(st.just("duplicate"), POSITION),
    st.tuples(st.just("field"), POSITION, POSITION, st.sampled_from(FIELD_VALUES)),
)


def corrupt(data: bytes, how: tuple) -> bytes:
    kind, pos = how[0], how[1]
    if kind == "flip":
        out = bytearray(data)
        out[pos % len(out)] ^= how[2]
        return bytes(out)
    lines = data.decode().splitlines()
    k = pos % len(lines)
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    else:
        rec = json.loads(lines[k])
        rec[sorted(rec)[how[2] % len(rec)]] = how[3]
        lines[k] = json.dumps(rec)
    return ("\n".join(lines) + "\n").encode()


def parsed(data: bytes) -> list | None:
    """The non-blank lines as JSON values (or raw text), None if not UTF-8."""
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return None
    out = []
    for line in text.splitlines():
        if line.strip():
            try:
                out.append(json.loads(line))
            except ValueError:
                out.append(line)
    return out


@settings(max_examples=300, **SETTINGS)
@given(which=st.integers(0, 2), how=CORRUPTIONS)
def test_a_corrupted_trace_never_crashes_verify(traced, which, how):
    p1, p2, clean = traced[which]
    bad = corrupt(clean, how)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "trace.jsonl"
        path.write_bytes(bad)
        code = main(["verify", p1, str(path), p2])
    assert code in (0, 1, 2)
    if parsed(bad) != parsed(clean):
        assert code in (1, 2), f"{how} was accepted"
