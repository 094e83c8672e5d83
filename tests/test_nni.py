"""Operation semantics: the swap, costs, inverses, and trace files."""

import json
import random
from fractions import Fraction

import pytest

from nnidist import newick
from nnidist.nni import (
    NniOp,
    ReplayError,
    apply_nni,
    apply_sequence,
    check_trace,
    invert_sequence,
    read_trace,
    replay,
    trace_lines,
    verify_transform,
    write_trace,
)
from nnidist.phylo import TreeError

from oracles import (
    random_phylogeny,
    random_valid_op,
    trees_equal_by_splits,
    weighted_splits,
)


def quartet():
    return newick.parse("(a:1,b:2,(c:3,d:4):5);")


def test_swap_on_quartet():
    # swapping the subtrees under the outer edges exchanges a and c
    t = quartet()
    e_a = t.leaf_edge_of("a")
    e_c = t.leaf_edge_of("c")
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
    assert NniOp(7, 2, 4).canonical() == NniOp(4, 2, 7).canonical()


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
    e_a = t.leaf_edge_of("a")
    e_b = t.leaf_edge_of("b")
    e_c = t.leaf_edge_of("c")
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
