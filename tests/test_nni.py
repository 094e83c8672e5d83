"""Operation semantics: the swap, costs, inverses, and trace files."""

import hashlib
import json
import random
import tempfile
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist import newick, nni, phylo
from nnidist.exact import exact_dnni
from nnidist.gen import generate_pair
from nnidist.nni import (
    _CANONICAL_RECORD,
    NniOp,
    ReplayError,
    TraceError,
    _parse_records,
    apply_nni,
    apply_sequence,
    check_trace,
    counted_cost,
    invert_sequence,
    move,
    replay,
    shorten,
    trace_lines,
    tree_digest,
    verify_transform,
    write_trace,
)
from nnidist.phylo import Phylogeny, TreeError
from nnidist.pipeline import approx_nni

from oracles import (
    leaf_edge_of,
    nni_by_rebuild,
    parse_records_by_json,
    random_phylogeny,
    random_valid_op,
    read_trace,
    trace_lines_by_json,
    trees_equal_by_splits,
    weighted_splits,
)

SETTINGS = dict(derandomize=True, database=None, deadline=None)
# Hypothesis caches the constants of local source files while the tests are
# collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


def quartet():
    return newick.parse("(a:1,b:2,(c:3,d:4):5);")


def test_swap_on_quartet():
    # swapping the subtrees under the outer edges exchanges a and c
    t = quartet()
    e_a = leaf_edge_of(t, "a")
    e_c = leaf_edge_of(t, "c")
    mid = t.internal_edges()[0]
    cost = apply_nni(t, NniOp(e_a, mid, e_c))
    assert cost == Fraction(5)
    assert t.validate() == []
    # leaf a moved next to d, leaf c next to b; keys are the side without "a"
    assert weighted_splits(t) == {frozenset({"b", "c"}): Fraction(5)}
    # weights stay glued to their edges
    assert t.leaf_weight_map() == {"a": 1, "b": 2, "c": 3, "d": 4}


def test_reversed_triplet_is_same_move():
    rng = random.Random(421)
    for _ in range(20):
        t = random_phylogeny(rng, rng.randint(4, 15))
        op = random_valid_op(rng, t)
        a, b = t.copy(), t.copy()
        apply_nni(a, op)
        apply_nni(b, NniOp(op.e3, op.e2, op.e1))
        assert a.canonical_equal(b)


def test_self_inverse():
    rng = random.Random(422)
    for _ in range(30):
        t = random_phylogeny(rng, rng.randint(4, 20))
        op = random_valid_op(rng, t)
        u = t.copy()
        apply_nni(u, op)
        apply_nni(u, op)
        assert u.canonical_equal(t)
        assert trees_equal_by_splits(u, t)


def test_move_changes_tree():
    rng = random.Random(423)
    for _ in range(20):
        t = random_phylogeny(rng, rng.randint(4, 12))
        op = random_valid_op(rng, t)
        u = t.copy()
        apply_nni(u, op)
        assert u.validate() == []
        # a single swap across an internal edge always changes the split set
        assert not u.canonical_equal(t)


def test_invariants_preserved_along_walks():
    rng = random.Random(424)
    for _ in range(10):
        t = random_phylogeny(rng, rng.randint(5, 25))
        u = t.copy()
        for _ in range(15):
            apply_nni(u, random_valid_op(rng, u))
        assert u.validate() == []
        assert u.leaf_weight_map() == t.leaf_weight_map()
        assert u.internal_weight_multiset() == t.internal_weight_multiset()


def test_invalid_operations_raise(tmp_path):
    t = quartet()
    mid = t.internal_edges()[0]
    e_a = leaf_edge_of(t, "a")
    e_b = leaf_edge_of(t, "b")
    e_c = leaf_edge_of(t, "c")
    with pytest.raises(TreeError, match="repeats"):
        apply_nni(t, NniOp(e_a, mid, e_a))
    # both outer edges on the same end of the middle edge
    with pytest.raises(TreeError, match="not an edge path"):
        apply_nni(t, NniOp(e_a, mid, e_b))
    # middle edge is a leaf edge: nothing can attach at its leaf end
    with pytest.raises(TreeError, match="not an edge path"):
        apply_nni(t, NniOp(mid, e_c, e_a))
    # an unknown middle edge is an invalid operation, not a KeyError
    unknown = [NniOp(e_a, 10**6, e_c)]
    with pytest.raises(TreeError, match="operation 0 invalid"):
        apply_sequence(t, unknown)
    with pytest.raises(TreeError, match="operation 0 invalid"):
        trace_lines(t, t, unknown)
    with pytest.raises(TreeError, match="operation 0 invalid"):
        write_trace(tmp_path / "x.jsonl", t, t, unknown)
    assert not (tmp_path / "x.jsonl").exists()
    ok, _, reason = verify_transform(t, unknown, t)
    assert not ok and reason.startswith("operation 0 invalid")


def _snapshot(tree):
    return (
        {e: tree.endpoints(e) for e in tree.edge_ids()},
        {x: tree.adjacent_edges(x) for x in tree.nodes()},
    )


@settings(max_examples=120, **SETTINGS)
@given(
    n=st.integers(4, 30),
    seed=st.integers(0, 10**6),
    repeats=st.booleans(),
    data=st.data(),
)
def test_apply_nni_matches_the_rebuilding_reference(n, seed, repeats, data):
    tree = random_phylogeny(random.Random(seed), n, "small" if repeats else "distinct")
    ids, internal = tree.edge_ids(), tree.internal_edges()
    unknown = [-1, len(ids)]
    for _ in range(12):
        e2 = data.draw(st.one_of(st.sampled_from(internal), st.sampled_from(ids + unknown[:1])))
        anywhere = st.sampled_from(ids + unknown)
        if e2 in ids:
            # other edges at e2's ends make paths likely; the wrong end, any
            # id (e2 too) and unknown ids give non-paths and repeats
            u, v = tree.endpoints(e2)
            at_u = st.sampled_from([f for f in tree.adjacent_edges(u) if f != e2] or [e2])
            at_v = st.sampled_from([f for f in tree.adjacent_edges(v) if f != e2] or [e2])
            e1 = data.draw(st.one_of(at_u, at_v, anywhere))
            e3 = data.draw(st.one_of(at_v, at_u, anywhere))
        else:
            e1, e3 = data.draw(anywhere), data.draw(anywhere)
        expected = nni_by_rebuild(tree, e1, e2, e3)
        before = _snapshot(tree)
        if expected is None:
            with pytest.raises((TreeError, KeyError)) as err:
                apply_nni(tree, NniOp(e1, e2, e3))
            if {e1, e2, e3} <= set(ids):
                assert err.type is TreeError
            assert _snapshot(tree) == before
        else:
            assert apply_nni(tree, NniOp(e1, e2, e3)) == tree.weight(e2)
            assert tree.validate() == []
            assert weighted_splits(tree) == weighted_splits(expected)
            assert tree.leaf_weight_map() == expected.leaf_weight_map()


@settings(max_examples=150, **SETTINGS)
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_counted_cost_is_the_fraction_sum(n, seed, data):
    # thirds and sevenths next to decimals and arbitrary fractions: the
    # integer sum over the lcm gives the very Fraction of the plain sum
    shape = random_phylogeny(random.Random(seed), n)
    ids = shape.edge_ids()
    weight = st.one_of(
        st.sampled_from([Fraction(1, 3), Fraction(1, 7), Fraction(5, 7), Fraction("0.1"), Fraction(2)]),
        st.fractions(min_value=Fraction(1, 10**4), max_value=10**6, max_denominator=10**4),
    )
    ws = data.draw(st.lists(weight, min_size=len(ids), max_size=len(ids)))
    tree = Phylogeny(
        {e: shape.endpoints(e) for e in ids},
        dict(zip(ids, ws)),
        {v: shape.leaf_label(v) for v in shape.nodes() if shape.is_leaf(v)},
    )
    counts = data.draw(st.dictionaries(st.sampled_from(ids), st.integers(1, 50)))
    got = counted_cost(tree, counts)
    assert type(got) is Fraction
    assert got == sum((tree.weight(e) * k for e, k in counts.items()), Fraction(0))
    empty = counted_cost(tree, {})
    assert type(empty) is Fraction and empty == 0


def test_apply_sequence_and_inverse():
    rng = random.Random(425)
    for _ in range(10):
        t = random_phylogeny(rng, rng.randint(5, 15))
        ops = []
        u = t.copy()
        for _ in range(rng.randint(1, 12)):
            op = random_valid_op(rng, u)
            apply_nni(u, op)
            ops.append(op)
        before = t.copy()
        v, cost = apply_sequence(t, ops)
        assert v is not t and t.canonical_equal(before)
        assert v.canonical_equal(u)
        assert cost == sum((t.weight(op.e2) for op in ops), Fraction(0))
        back, back_cost = apply_sequence(v, invert_sequence(ops))
        assert back.canonical_equal(t)
        assert back_cost == cost


def test_verify_transform():
    rng = random.Random(426)
    t = random_phylogeny(rng, 10)
    u = t.copy()
    ops = []
    for _ in range(6):
        op = random_valid_op(rng, u)
        apply_nni(u, op)
        ops.append(op)
    ok, cost, reason = verify_transform(t, ops, u)
    assert ok and reason is None
    ok, _, reason = verify_transform(t, ops, t)  # wrong target
    assert not ok and "match" in reason
    bad = ops[:-1] + [NniOp(9999, ops[-1].e2, ops[-1].e3)]
    ok, _, reason = verify_transform(t, bad, u)
    assert not ok and "invalid" in reason


def _quartet_edges():
    t = quartet()
    return t, t.internal_edges()[0], [leaf_edge_of(t, s) for s in "abcd"]


def _same_end(tree, ops, kept):
    return apply_sequence(tree, ops)[0].canonical_equal(apply_sequence(tree, kept)[0])


def test_shorten_cancels_an_exact_undo_in_both_directions():
    t, m, (a, _, c, _) = _quartet_edges()
    assert shorten([NniOp(a, m, c), NniOp(a, m, c)]) == ([], [])
    assert shorten([NniOp(a, m, c), NniOp(c, m, a)]) == ([], [])


def test_shorten_cancels_the_pair_that_only_swaps_node_ids():
    # a and b sit at one end of m, c and d at the other: swapping a with c
    # and then b with d pairs {a, b} and {c, d} off again at swapped ends
    t, m, (a, b, c, d) = _quartet_edges()
    ops = [NniOp(a, m, c), NniOp(b, m, d)]
    end, cost = apply_sequence(t, ops)
    assert end.canonical_equal(t) and cost == 2 * t.weight(m)
    assert {e: end.endpoints(e) for e in (a, b, c, d)} != {e: t.endpoints(e) for e in (a, b, c, d)}
    assert shorten(ops) == ([], [])


def test_shorten_merges_two_moves_sharing_one_outer_edge():
    t, m, (a, _, c, d) = _quartet_edges()
    # after (a, m, c), c sits beside b and a beside d; (c, m, d) then
    # leaves a with c and b with d, which (a, m, d) reaches in one move
    ops = [NniOp(a, m, c), NniOp(c, m, d)]
    kept, origin = shorten(ops)
    assert kept == [NniOp(a, m, d)] and origin == [0]
    assert _same_end(t, ops, kept)


def test_shorten_unwinds_nested_pairs():
    t = newick.parse("((a:1,b:1):5,c:1,(d:1,e:1):6);")
    a, c, d = (leaf_edge_of(t, s) for s in "acd")
    # ab spans the cherry {a, b} and de the cherry {d, e}; c meets both
    ab = next(x for x in t.internal_edges() if t.weight(x) == 5)
    de = next(x for x in t.internal_edges() if t.weight(x) == 6)
    first, inner = NniOp(a, ab, c), NniOp(a, de, d)
    # A B B A: the inner pair cancels, then the outer one meets its partner
    assert shorten([first, inner, inner, first]) == ([], [])
    # A B B A': after A, c sits beside b and de beside a; A' = (c, ab, de)
    # shares c with A, so the outer pair merges into one move at A's place
    ops = [first, inner, inner, NniOp(c, ab, de)]
    kept, origin = shorten(ops)
    assert kept == [NniOp(a, ab, de)] and origin == [0]
    assert _same_end(t, ops, kept)


def test_shorten_leaves_moves_on_different_middle_edges_alone():
    rng = random.Random(428)
    t = random_phylogeny(rng, 12)
    end, ops = _walk(rng, t, 40)
    ops = [op for i, op in enumerate(ops) if i == 0 or op.e2 != ops[i - 1].e2]
    assert len(ops) > 20
    assert shorten(ops) == (ops, list(range(len(ops))))


def _walk_with_repeats(rng, tree, moves, repeat):
    """A random valid walk from ``tree`` in which, with probability ``repeat``,
    a move reuses the middle edge of the move before it: (end tree, ops)."""
    end = tree.copy()
    ops = []
    for _ in range(moves):
        if ops and rng.random() < repeat:
            e2 = ops[-1].e2
            u, v = end.endpoints(e2)
            op = NniOp(rng.choice([x for x in end.adjacent_edges(u) if x != e2]), e2,
                       rng.choice([x for x in end.adjacent_edges(v) if x != e2]))
        else:
            op = random_valid_op(rng, end)
        apply_nni(end, op)
        ops.append(op)
    return end, ops


@settings(max_examples=150, **SETTINGS)
@given(
    n=st.integers(4, 14),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 40),
    repeat=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
)
def test_shortened_walks_reach_the_same_tree(n, seed, moves, repeat):
    rng = random.Random(seed)
    tree = random_phylogeny(rng, n, "small" if seed % 2 else "distinct")
    end, ops = _walk_with_repeats(rng, tree, moves, repeat)
    kept, origin = shorten(ops)
    reached, cost = apply_sequence(tree, kept)
    assert reached.canonical_equal(end)
    assert all(x.e2 != y.e2 for x, y in zip(kept, kept[1:]))
    assert len(kept) <= len(ops)
    assert cost <= apply_sequence(tree, ops)[1]
    assert len(origin) == len(kept) and origin == sorted(set(origin))
    assert all(k.e2 == ops[i].e2 for k, i in zip(kept, origin))


def test_trace_round_trip(tmp_path):
    rng = random.Random(427)
    t = random_phylogeny(rng, 12)
    u = t.copy()
    ops = []
    for _ in range(8):
        op = random_valid_op(rng, u)
        apply_nni(u, op)
        ops.append(op)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    header, got = read_trace(path)
    assert got == ops
    assert header["ops"] == 8
    ok, cost, reason = check_trace(path, t, u)
    assert ok, reason
    assert cost == sum((t.weight(op.e2) for op in ops), Fraction(0))


def test_trace_passes_build_each_rooted_view_once(tmp_path, monkeypatch):
    # writing builds the source's view (its digest), the target's (its digest
    # and the end-tree comparison) and the replayed tree's; the two trees keep
    # theirs, so checking builds only the replayed tree's
    rng = random.Random(426)
    t = random_phylogeny(rng, 12)
    u = t.copy()
    ops = []
    for _ in range(8):
        op = random_valid_op(rng, u)
        apply_nni(u, op)
        ops.append(op)
    built = []
    real = Phylogeny._build_view

    def counting_build(self, root):
        built.append(self)
        return real(self, root)

    monkeypatch.setattr(Phylogeny, "_build_view", counting_build)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    assert len(built) == 3 and built.count(t) == 1 and built.count(u) == 1
    built.clear()
    ok, _, reason = check_trace(path, t, u)
    assert ok, reason
    assert len(built) == 1 and built[0] is not t and built[0] is not u


def test_blank_lines_keep_file_line_numbers(tmp_path):
    # blank lines before the header and between records are skipped, and a
    # bad record is reported by its own line number in the file
    rng = random.Random(425)
    t = random_phylogeny(rng, 10)
    u = t.copy()
    ops = []
    for _ in range(4):
        op = random_valid_op(rng, u)
        apply_nni(u, op)
        ops.append(op)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    header, *records = path.read_text().splitlines()
    lines = ["", "  ", header, records[0], "", records[1], "\t", *records[2:]]
    path.write_text("\n".join(lines) + "\n")
    assert read_trace(path)[1] == ops
    assert check_trace(path, t, u)[0]
    lines[5] = records[1].replace('"u"', '"x"')
    path.write_text("\n".join(lines) + "\n")
    ok, _, reason = check_trace(path, t, u)
    assert not ok and reason.startswith("line 6: bad operation record")
    path.write_text("\n".join(lines[:-1]) + "\n")
    ok, _, reason = check_trace(path, t, u)
    assert (ok, reason) == (False, "header says 4 ops, file has 3")


def test_check_trace_catches_tampering(tmp_path):
    rng = random.Random(428)
    t = random_phylogeny(rng, 10)
    u = t.copy()
    ops = []
    for _ in range(5):
        op = random_valid_op(rng, u)
        apply_nni(u, op)
        ops.append(op)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)

    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    rec["w"] = "123456"
    tampered = tmp_path / "bad.jsonl"
    tampered.write_text("\n".join([lines[0], lines[1], json.dumps(rec), *lines[3:]]) + "\n")
    ok, _, reason = check_trace(tampered, t, u)
    assert not ok and "cost" in reason

    # wrong source tree
    other = random_phylogeny(random.Random(429), 10)
    ok, _, reason = check_trace(path, other, u)
    assert not ok and "digest" in reason


def test_write_trace_refuses_wrong_target(tmp_path):
    rng = random.Random(430)
    t = random_phylogeny(rng, 8)
    u = t.copy()
    op = random_valid_op(rng, u)
    apply_nni(u, op)
    with pytest.raises(TreeError):
        write_trace(tmp_path / "x.jsonl", t, t, [op])


def test_every_consumer_reports_one_end_tree_failure(tmp_path):
    rng = random.Random(431)
    t = random_phylogeny(rng, 9)
    u = t.copy()
    ops = []
    for _ in range(4):
        op = random_valid_op(rng, u)
        apply_nni(u, op)
        ops.append(op)
    _, _, reason = verify_transform(t, ops[:-1], u)
    assert "match" in reason
    with pytest.raises(ReplayError) as err:
        trace_lines(t, u, ops[:-1])
    assert str(err.value) == reason
    # the end tree is compared only once the last move has been yielded
    steps = replay(t.copy(), ops[:-1], u)
    for _ in ops[:-1]:
        next(steps)
    with pytest.raises(ReplayError, match="match"):
        next(steps)
    # a trace with its last record dropped replays cleanly to the wrong tree
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["ops"] = 3
    path.write_text("\n".join([json.dumps(header), *lines[1:-1]]) + "\n")
    ok, cost, got = check_trace(path, t, u)
    assert not ok and got == reason
    assert cost == sum((t.weight(op.e2) for op in ops[:-1]), Fraction(0))


def _halved(tree):
    """``tree`` with every weight halved, so odd weights read like 1.5."""
    return Phylogeny(
        {e: tree.endpoints(e) for e in tree.edge_ids()},
        {e: tree.weight(e) / 2 for e in tree.edge_ids()},
        {tree.leaf_node(s): s for s in tree.taxa()},
    )


def _walk(rng, tree, moves):
    """A random valid sequence from ``tree``: (end tree, ops)."""
    end = tree.copy()
    ops = []
    for _ in range(moves):
        op = random_valid_op(rng, end)
        apply_nni(end, op)
        ops.append(op)
    return end, ops


def _rewrite_records(path, change):
    """Rewrite each record of a trace file as ``change(index, record)`` gives it."""
    header, *records = path.read_text().splitlines()
    records = [json.dumps(change(i, json.loads(r))) for i, r in enumerate(records)]
    path.write_text("\n".join([header, *records]) + "\n")


def test_check_trace_rejects_a_wrong_cost_on_a_repeated_middle_edge(tmp_path):
    # six taxa have three internal edges, so twelve moves repeat middle edges
    rng = random.Random(432)
    t = random_phylogeny(rng, 6)
    u, ops = _walk(rng, t, 12)
    seen = set()
    j = next(i for i, op in enumerate(ops) if op.e2 in seen or seen.add(op.e2))
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    wrong = newick.format_weight(t.weight(ops[j].e2) + 1)
    _rewrite_records(path, lambda i, rec: {**rec, "w": wrong} if i == j else rec)
    ok, cost, reason = check_trace(path, t, u)
    assert not ok and reason.startswith(f"operation {j}: recorded cost {wrong} != ")
    assert cost == sum((t.weight(op.e2) for op in ops[:j]), Fraction(0))


def test_check_trace_accepts_equal_longer_spellings(tmp_path):
    # "07" for 7 and "0.50" for 0.5, on every other record, so each middle
    # edge is met under both spellings
    rng = random.Random(433)
    t = _halved(random_phylogeny(rng, 7, weights="small"))
    u, ops = _walk(rng, t, 16)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)

    def respell(i, rec):
        w = rec["w"]
        if i % 2:
            rec["w"] = w + "0" if "." in w else "0" + w
        return rec

    _rewrite_records(path, respell)
    spelled = {json.loads(r)["w"] for r in path.read_text().splitlines()[1:]}
    assert {"0.50", "0.5"} <= spelled and any(w.startswith("0") and "." not in w for w in spelled)
    ok, cost, reason = check_trace(path, t, u)
    assert ok, reason
    assert cost == sum((t.weight(op.e2) for op in ops), Fraction(0))


def test_an_invalid_move_reports_the_exact_prefix_cost(tmp_path):
    rng = random.Random(434)
    t = _halved(random_phylogeny(rng, 9, weights="small"))
    u, ops = _walk(rng, t, 14)
    j = 9
    prefix = sum((t.weight(op.e2) for op in ops[:j]), Fraction(0))
    bad = ops[:j] + [NniOp(ops[j].e1, ops[j].e2, ops[j].e1)] + ops[j + 1:]
    ok, cost, reason = verify_transform(t, bad, u)
    assert (ok, cost) == (False, prefix)
    assert reason.startswith(f"operation {j} invalid: ") and "repeats" in reason
    with pytest.raises(ReplayError) as err:
        apply_sequence(t, bad)
    assert str(err.value) == reason
    assert apply_sequence(t, ops[:j])[1] == prefix

    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    _rewrite_records(path, lambda i, rec: {**rec, "e3": rec["e1"]} if i == j else rec)
    assert check_trace(path, t, u) == (False, prefix, reason)


@pytest.mark.parametrize("op", [NniOp(True, 4, 2), NniOp(1, 4, 2.0)], ids=["bool-e1", "float-e3"])
def test_write_trace_refuses_a_non_integer_id(tmp_path, op):
    # the ids equal real edges, so the move replays; only their type is wrong
    t = quartet()
    u = t.copy()
    apply_nni(u, NniOp(1, 4, 2))
    path = tmp_path / "ops.jsonl"
    with pytest.raises(TreeError, match="integers"):
        write_trace(path, t, u, [op])
    assert not path.exists()


def _assert_json_writer_agrees(t1, t2, ops):
    lines = trace_lines(t1, t2, ops)
    assert lines == trace_lines_by_json(t1, t2, ops)
    # every record the writer makes is read by the reader's fast path
    assert all(_CANONICAL_RECORD.fullmatch(line) for line in lines[1:])


@settings(max_examples=20, **SETTINGS)
@given(
    n=st.integers(4, 16),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 48),
    dup=st.booleans(),
    halve=st.booleans(),
)
def test_trace_lines_match_the_json_writer_on_pipeline_sequences(n, seed, moves, dup, halve):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=dup)
    if halve:
        t1, t2 = _halved(t1), _halved(t2)
    _assert_json_writer_agrees(t1, t2, approx_nni(t1, t2).sequence)


@settings(max_examples=10, **SETTINGS)
@given(n=st.integers(5, 6), seed=st.integers(0, 10**6), moves=st.integers(1, 5))
def test_trace_lines_match_the_json_writer_on_exact_witnesses(n, seed, moves):
    t1, t2, _ = generate_pair(seed=seed, n=n, moves=moves, dup_weights=True)
    _assert_json_writer_agrees(t1, t2, exact_dnni(t1, t2)[1])


ID_KEYS = ("e1", "e2", "e3", "u", "v")
# spellings of an id that json.loads reads as another type or value, or refuses
ODD_IDS = {
    "float": "1.0", "bool": "true", "minus-zero": "-0", "leading-zero": "07",
    "5000-digits": "9" * 5000, "minus-5000-digits": "-" + "9" * 5000,
    "arabic-indic": "\u0661", "arabic-indic-tail": "1\u0661", "exponent": "1e3", "string": '"4"', "null": "null",
    "list": "[1]", "split-minus": "- 1",
}
# cost strings as they stand between the quotes: escapes, control and
# non-ASCII characters, malformed decimals
ODD_WS = {
    "integer": "1", "control": "1\x01", "non-ascii": "1\u00e9", "arabic-indic": "\u0661",
    "two-dots": "1..5", "empty": "", "trailing-zero": "0.50", "negative": "-1",
    "escape": "1\\u0030", "escaped-quote": '1\\"',
}
CHANGES = ["spaces", "order", "extra", "missing", "id", "w", "pad"]


@st.composite
def record_lines(draw):
    """A record line in the written spelling, or with one or two changes to it."""
    fields = {k: str(draw(st.integers(-2, 40))) for k in ID_KEYS}
    fields["w"] = draw(st.sampled_from(["1", "0.5", "12.25", "3"]))
    keys = ["e1", "e2", "e3", "w", "u", "v"]
    sep, colon, pad = ", ", ": ", ""
    for change in draw(st.lists(st.sampled_from(CHANGES), max_size=2)):
        if change == "spaces":
            sep, colon = draw(st.sampled_from([(",", ":"), (" , ", ": "), (", ", " :  ")]))
        elif change == "order":
            keys = list(draw(st.permutations(keys)))
        elif change == "extra":
            keys.insert(draw(st.integers(0, len(keys))), "x")
            fields["x"] = "0"
        elif change == "missing":
            keys.remove(draw(st.sampled_from(keys)))
        elif change == "id":
            fields[draw(st.sampled_from(ID_KEYS))] = draw(st.sampled_from(list(ODD_IDS.values())))
        elif change == "w":
            fields["w"] = draw(st.sampled_from(list(ODD_WS.values())))
        else:
            pad = draw(st.sampled_from([" ", "\t"]))
    body = sep.join(f'"{k}"{colon}' + (f'"{fields[k]}"' if k == "w" else fields[k]) for k in keys)
    return pad + "{" + body + "}" + pad


def _parsed(records):
    """(records with their exact types, failure reason or None) of one parse."""
    out = []
    try:
        for rec in records:
            out.append(tuple((type(x), x) for x in rec))
    except TraceError as exc:
        return out, str(exc)
    return out, None


def _parse_both(lines):
    """Both parses of record ``lines`` read after a header, as the file's lines 2 on."""
    lines = ['{"kind": "nni-trace"}', *lines]
    body = [(k, ln) for k, ln in enumerate(lines, start=1) if k > 1 and ln.strip()]
    return _parsed(_parse_records(lines, 1)), _parsed(parse_records_by_json(body))


@settings(max_examples=300, **SETTINGS)
@given(
    lines=st.lists(record_lines(), min_size=1, max_size=4),
    blanks=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["", " ", "\t "])), max_size=2),
)
def test_record_parse_matches_the_json_reference(lines, blanks):
    for at, blank in blanks:
        lines.insert(at, blank)
    ours, reference = _parse_both(lines)
    assert ours == reference


@pytest.mark.parametrize("key, text", [
    *[pytest.param(k, t, id=f"{k}-{name}") for k in ("e1", "v") for name, t in ODD_IDS.items()],
    *[pytest.param("w", f'"{t}"', id=f"w-{name}") for name, t in ODD_WS.items()],
])
def test_each_odd_spelling_parses_as_json_does(key, text):
    line = '{"e1": 3, "e2": 4, "e3": 5, "w": "2.5", "u": 6, "v": 7}'
    old = '"2.5"' if key == "w" else {"e1": "3", "v": "7"}[key]
    ours, reference = _parse_both([line, line.replace(f'"{key}": {old}', f'"{key}": {text}')])
    assert ours == reference


def test_a_repeated_id_spelling_reads_back_the_same():
    # every id string is converted once per trace and then looked up, so
    # each spelling must keep its own value in every field and every record;
    # "-0" and "0" are two spellings of one int
    rng = random.Random(436)
    spellings = ["0", "-0", "7", "-7", "70", "12345678901234567890"]
    lines = [
        '{"e1": %s, "e2": %s, "e3": %s, "w": "%s", "u": %s, "v": %s}' % (
            *(rng.choice(spellings) for _ in range(3)),
            rng.choice(["1", "2.5", "0.50"]),
            *(rng.choice(spellings) for _ in range(2)))
        for _ in range(500)
    ]
    ours, reference = _parse_both(lines)
    assert ours == reference and ours[1] is None and len(ours[0]) == 500
    for line, rec in zip(lines, ours[0]):
        assert tuple(x for _, x in rec[:5]) == tuple(json.loads(line)[k] for k in ID_KEYS)
        assert all(t is int for t, _ in rec[:5])


def test_an_overlong_id_is_refused_after_short_ones():
    # the id memo converts a new spelling with int(), so a 5000-digit id
    # fails with int()'s own message at its own line, whatever came before
    line = '{"e1": 3, "e2": 4, "e3": 5, "w": "2.5", "u": 6, "v": 7}'
    long_id = "9" * 5000
    with pytest.raises(ValueError) as err:
        int(long_id)
    lines = [line, "", line.replace('"e3": 5', f'"e3": {long_id}'), line]
    ours, reference = _parse_both(lines)
    assert ours == reference
    assert ours[1] == f"line 4: bad operation record: {err.value}"
    assert len(ours[0]) == 1


def test_replay_takes_operations_and_record_tuples():
    rng = random.Random(437)
    t = random_phylogeny(rng, 12)
    end, ops = _walk(rng, t, 20)
    a, b = t.copy(), t.copy()
    steps = list(replay(a, ops, end))
    records = [(*op, u, v, t.weight(op.e2)) for op, u, v in steps]
    assert [(rec, u, v) for rec, u, v in replay(b, records, end)] == [
        (rec, u, v) for rec, (_, u, v) in zip(records, steps)]
    assert a.canonical_equal(b)
    # an NniOp is a tuple of its three ids, so it equals the plain tuple
    assert ops[0] == tuple(ops[0]) and [op[:3] for op in records] == ops
    with pytest.raises(ReplayError, match="operation 0 invalid"):
        list(replay(t.copy(), [(ops[0].e1, ops[0].e2, ops[0].e1, 0, 0, Fraction(1))]))


def _adjacency_matches_table(tree):
    """Each node's adjacency list holds exactly the edges whose endpoint it is."""
    held = {x: [] for x in tree.nodes()}
    for e in tree.edge_ids():
        for x in tree.endpoints(e):
            if x not in held:
                return False
            held[x].append(e)
    return all(sorted(tree.adjacent_edges(x)) == sorted(es) for x, es in held.items())


def _one_move_case(tree, data):
    """(e1, e2, e3) of one drawn kind: valid, repeated ids, a non-path, or unknown ids."""
    kind = data.draw(st.sampled_from(["valid", "repeat", "non-path", "unknown"]))
    e2 = data.draw(st.sampled_from(tree.internal_edges()))
    u, v = tree.endpoints(e2)
    at_u = [f for f in tree.adjacent_edges(u) if f != e2]
    at_v = [f for f in tree.adjacent_edges(v) if f != e2]
    if data.draw(st.booleans()):
        at_u, at_v = at_v, at_u
    ids = [data.draw(st.sampled_from(at_u)), e2, data.draw(st.sampled_from(at_v))]
    if kind == "repeat":
        i, j = data.draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
        ids[j] = ids[i]
    elif kind == "non-path":
        # both outer edges at one end of the middle edge, or a leaf edge as
        # the middle edge
        ids = data.draw(st.sampled_from([
            [at_u[0], e2, at_u[1]],
            [e2, leaf_edge_of(tree, tree.taxa()[0]), at_u[0]],
        ]))
    elif kind == "unknown":
        # any non-empty set of positions, so the lookup order e2, e1, e3 shows
        unknown = [-1, max(tree.edge_ids()) + 1, -7]
        for k in data.draw(st.sets(st.sampled_from([0, 1, 2]), min_size=1)):
            ids[k] = unknown[k]
    return kind, tuple(ids)


@settings(max_examples=150, **SETTINGS)
@given(n=st.integers(4, 20), seed=st.integers(0, 10**6), data=st.data())
def test_a_one_move_replay_edits_the_table_as_move_does(n, seed, data):
    # replay inlines move's checks and table edit; the two copies must agree
    # on every operation, valid or not, and replay must leave a whole tree
    tree = random_phylogeny(random.Random(seed), n)
    kind, (e1, e2, e3) = _one_move_case(tree, data)
    by_move, by_replay = tree.copy(), tree.copy()
    try:
        stored, moved = move(by_move, e1, e2, e3), None
    except (TreeError, KeyError) as exc:
        stored, moved = None, exc
    if moved is None:
        assert kind == "valid"
        assert list(replay(by_replay, [(e1, e2, e3)])) == [((e1, e2, e3), *stored)]
    else:
        assert kind != "valid"
        with pytest.raises(ReplayError) as err:
            list(replay(by_replay, [(e1, e2, e3)]))
        assert str(err.value) == f"operation 0 invalid: {moved}"
        assert err.value.__cause__.__class__ is moved.__class__
        assert list(by_move._ends.items()) == list(tree._ends.items())
    assert list(by_replay._ends.items()) == list(by_move._ends.items())
    assert by_replay.validate() == [] and _adjacency_matches_table(by_replay)
    assert by_replay.canonical_equal(by_move)


@settings(max_examples=60, **SETTINGS)
@given(
    n=st.integers(4, 24),
    seed=st.integers(0, 10**6),
    moves=st.integers(0, 30),
    end=st.sampled_from(["complete", "fail", "close"]),
    data=st.data(),
)
def test_a_replay_leaves_a_valid_tree_however_it_ends(n, seed, moves, end, data):
    rng = random.Random(seed)
    tree = random_phylogeny(rng, n)
    _, ops = _walk(rng, tree, moves)
    k = data.draw(st.integers(0, moves))
    if end == "fail":
        # the move at k repeats an edge, so the replay stops before it
        e = tree.internal_edges()[0]
        ops = ops[:k] + [NniOp(e, e, e)]
    work = tree.copy()
    steps = replay(work, ops)
    if end == "complete":
        k = len(list(steps))
    elif end == "fail":
        with pytest.raises(ReplayError, match=f"operation {k} invalid"):
            list(steps)
    else:
        for _ in islice(steps, k):
            pass
        steps.close()
    expected = tree.copy()
    for op in ops[:k]:
        move(expected, *op)
    assert list(work._ends.items()) == list(expected._ends.items())
    assert work.validate() == [] and _adjacency_matches_table(work)
    assert work.canonical_equal(expected)


def _fresh_digest(tree):
    """The digest of a copy, which keeps no view."""
    return hashlib.sha256(newick.serialize(tree.copy()).encode()).hexdigest()


def test_check_trace_refuses_a_tree_moved_after_its_digest(tmp_path):
    # moving either tree after the write must give the moved tree's digest,
    # which the header does not name
    rng = random.Random(438)
    t = random_phylogeny(rng, 10)
    u, ops = _walk(rng, t, 6)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    assert check_trace(path, t, u)[0]
    for tree, side in ((u, "target"), (t, "source")):
        op = random_valid_op(rng, tree)
        apply_nni(tree, op)
        assert tree_digest(tree) == _fresh_digest(tree)
        assert check_trace(path, t, u) == (False, Fraction(0), f"{side} digest mismatch")
        apply_nni(tree, op)
    assert check_trace(path, t, u)[0]


def test_whole_answer_replays_build_the_adjacency_once(tmp_path, monkeypatch):
    # the copy each call replays on has no adjacency; the replay builds it once
    rng = random.Random(439)
    t = random_phylogeny(rng, 14)
    u, ops = _walk(rng, t, 10)
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    built = []
    real = phylo._adjacency

    def counting(ends):
        built.append(len(ends))
        return real(ends)

    monkeypatch.setattr(phylo, "_adjacency", counting)
    monkeypatch.setattr(nni, "_adjacency", counting)
    for call in (lambda: verify_transform(t, ops, u), lambda: trace_lines(t, u, ops),
                 lambda: check_trace(path, t, u), lambda: apply_sequence(t, ops)):
        built.clear()
        call()
        assert built == [len(t.edge_ids())]


def test_a_failing_replay_from_a_table_copy_leaves_a_whole_tree(tmp_path, monkeypatch):
    rng = random.Random(440)
    t = _halved(random_phylogeny(rng, 9, weights="small"))
    u, ops = _walk(rng, t, 14)
    j = 6
    bad = ops[:j] + [NniOp(ops[j].e1, ops[j].e2, ops[j].e1)] + ops[j + 1:]
    expected = t.copy()
    for op in ops[:j]:
        move(expected, *op)
    with pytest.raises(TreeError) as err:
        move(expected.copy(), *bad[j])
    reason = f"operation {j} invalid: {err.value}"
    prefix = sum((t.weight(op.e2) for op in ops[:j]), Fraction(0))
    path = tmp_path / "ops.jsonl"
    write_trace(path, t, u, ops)
    _rewrite_records(path, lambda i, rec: {**rec, "e3": rec["e1"]} if i == j else rec)

    copies = []
    real = Phylogeny._tables_copy

    def recording(self):
        copies.append(real(self))
        return copies[-1]

    monkeypatch.setattr(Phylogeny, "_tables_copy", recording)
    assert verify_transform(t, bad, u) == (False, prefix, reason)
    with pytest.raises(ReplayError) as err:
        trace_lines(t, u, bad)
    assert str(err.value) == reason
    assert check_trace(path, t, u) == (False, prefix, reason)
    monkeypatch.undo()
    assert len(copies) == 3
    for work in copies:
        assert work._adj == work.copy()._adj
        assert work.validate() == [] and work.canonical_equal(expected)
