"""Self-test of the benchmark's checks: each must reject a corrupted answer.

    python3 perfbench/selftest.py

Solves a few small instances with the program, confirms that the genuine
answers pass :func:`checks.check`, then corrupts one thing at a time (an
operation, a cost, a pair, a trace line, the exact witness) and confirms
that the check meant to catch it fails with its own message.  Exits 1 if
any corruption slips through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from checks import CheckError, Outcome, check, check_ratio  # noqa: E402
from workloads import make_instance  # noqa: E402


def solve(inst, exact_too: bool):
    from nnidist import exact, goodpairs, newick, nni, pipeline

    p1, p2 = newick.parse(inst.text1), newick.parse(inst.text2)
    result = pipeline.approx_nni(p1, p2)
    trace = "\n".join(nni.trace_lines(p1, p2, result.sequence)) + "\n"
    verdict = (True, result.cost, None)
    solved = exact.exact_dnni(p1, p2) if exact_too else None
    pairs = goodpairs.find_good_edge_pairs(p1, p2).pairs
    return p1, p2, Outcome(result, pairs, trace, verdict, solved)


def last_op_changed(p1, sequence):
    """``sequence`` with its last move swapping the other subtree across the same edge.

    Every move stays valid and costs the same, but the end tree differs.
    """
    from nnidist.nni import NniOp, apply_sequence

    tree, _ = apply_sequence(p1, sequence[:-1])
    op = sequence[-1]
    u, v = tree.endpoints(op.e2)
    if u in tree.endpoints(op.e3):
        u, v = v, u
    e4 = next(e for e in tree.adjacent_edges(v) if e not in (op.e2, op.e3))
    return sequence[:-1] + [NniOp(op.e1, op.e2, e4)]


def retrace(out: Outcome, line: int, **changes) -> Outcome:
    lines = out.trace_text.splitlines()
    rec = json.loads(lines[line])
    rec.update(changes)
    lines[line] = json.dumps(rec)
    return dataclasses.replace(out, trace_text="\n".join(lines) + "\n")


def corruptions(inst, p1, p2, out):
    """(name, instance, p1, outcome, expected message) for one solved instance."""
    r = out.result
    bad_seq = copy.copy(r)
    bad_seq.sequence = last_op_changed(p1, r.sequence)
    bad_cost = copy.copy(r)
    bad_cost.cost = r.cost + 1
    bad_count = copy.copy(r)
    bad_count.good_pairs = r.good_pairs + 1
    bad_phase = copy.copy(r)
    bad_phase.phase_costs = dict(r.phase_costs, leaf_sort=r.phase_costs["leaf_sort"] + 1)
    first_w = json.loads(out.trace_text.splitlines()[1])["w"]
    yield "operation changed", inst, p1, dataclasses.replace(out, result=bad_seq), "sequence does not reach tree 2"
    yield "cost off by one", inst, p1, dataclasses.replace(out, result=bad_cost), "replayed cost"
    yield "phase cost off by one", inst, p1, dataclasses.replace(out, result=bad_phase), "replayed cost"
    yield "pair count off by one", inst, p1, dataclasses.replace(out, result=bad_count), "the result counts"
    yield "trace rejected", inst, p1, dataclasses.replace(out, trace_verdict=(False, r.cost, "x")), "check_trace rejected"
    yield "trace cost off by one", inst, p1, retrace(out, 1, w=str(Fraction(first_w) + 1)), "trace line 2"
    yield "trace operation changed", inst, p1, retrace(out, 1, e2=r.sequence[0].e2 + 1), "trace line 2"
    yield "tree 1 misread", inst, p2, out, "parse of tree 1"
    if out.pairs:
        yield "pair dropped", inst, p1, dataclasses.replace(out, pairs=out.pairs[1:]), "not reported"
        (a, b), rest = out.pairs[0], out.pairs[1:]
        wrong = next(e for e in p2.internal_edges() if e != b)
        yield "pair mismatched", inst, p1, dataclasses.replace(out, pairs=[(a, wrong)] + rest), "not good pairs"
    if out.exact is not None:
        d, witness = out.exact
        if witness:
            changed = last_op_changed(p1, witness)
            yield "witness operation changed", inst, p1, dataclasses.replace(out, exact=(d, changed)), "witness does not reach"
        yield "distance off by one", inst, p1, dataclasses.replace(out, exact=(d + 1, witness)), "witness does not cost"
        low = dataclasses.replace(inst, scramble_cost=d - 1)
        yield "distance above the generator's cost", low, p1, out, "above the generator"
        # a witness of the approximation's own moves, the last one undone and redone
        detour = r.sequence + r.sequence[-1:] * 2
        cost = r.cost + 2 * p1.weight(r.sequence[-1].e2)
        high = dataclasses.replace(inst, scramble_cost=cost)
        yield "approximation below exact", high, p1, dataclasses.replace(out, exact=(cost, detour)), "below the exact"


def main() -> int:
    cases = [
        (make_instance(7, 16, 16), False),              # six good pairs
        (make_instance(8, 16, 16, dup=True), False),    # repeated weights, four pairs
        (make_instance(3, 6, 5), True),                 # exact search, no pair
        (make_instance(2, 7, 6), True),                 # exact search, one pair
    ]
    caught = []
    for inst, exact_too in cases:
        p1, p2, out = solve(inst, exact_too)
        check(inst, p1, p2, out)   # genuine answers pass
        for name, inst_, p1_, out_, expect in corruptions(inst, p1, p2, out):
            caught.append((name, _fires(expect, check, inst_, p1_, p2, out_)))

    # the no-good-pair workload's checks
    inst = make_instance(1001, 16, 80, shuffle=True)
    p1, p2, out = solve(inst, False)
    check(inst, p1, p2, out, no_pairs=True)
    inst, _ = cases[0]
    caught.append(("good pair in a pair-free workload",
                   _fires("has a good pair", check, inst, *solve(inst, False), no_pairs=True)))
    caught.append(("cost below W", _fires("outside", check_ratio, Fraction(9), Fraction(10), 16)))
    caught.append(("cost above the ratio bound",
                   _fires("outside", check_ratio, Fraction(401), Fraction(10), 16)))

    for name, verdict in caught:
        if verdict:
            print(f"FAIL {name}: {verdict}")
    missed = sum(1 for _, verdict in caught if verdict)
    print(f"{len(caught) - missed}/{len(caught)} corruptions caught")
    return 1 if missed else 0


def _fires(expect: str, fn, *args, **kwargs) -> str | None:
    """None when ``fn`` raises CheckError matching ``expect``, else what went wrong."""
    try:
        fn(*args, **kwargs)
    except CheckError as exc:
        return None if re.search(expect, str(exc)) else f"wrong check fired: {exc}"
    return "no check fired"


if __name__ == "__main__":
    sys.exit(main())
