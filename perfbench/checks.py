"""Checks on every operation of a run, computed by the benchmark itself.

They compare the program's outputs with :mod:`reference`, which reads the
Newick text and replays operations on its own edge table, or with
properties the method must have.  They never compare with stored outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from reference import CheckError, EdgeTable, decimal, good_pairs, newick_shape, replay


@dataclass
class Outcome:
    """What the program returned for one instance."""

    result: object                 # nnidist.pipeline.ApproxResult
    pairs: list[tuple[int, int]]   # find_good_edge_pairs(t1, t2).pairs
    trace_text: str                # the file write_trace wrote
    trace_verdict: tuple           # check_trace(...) -> (ok, cost, reason)
    exact: tuple | None = None     # exact_dnni(...) -> (distance, witness)


@dataclass
class Tally:
    """Per-instance figures the benchmark aggregates into its metrics."""

    ops: int
    cost: Fraction
    w: Fraction
    distance: Fraction | None


def check(inst, p1, p2, out: Outcome, no_pairs: bool = False) -> Tally:
    """Raise CheckError unless ``out`` is a correct answer for ``inst``.

    ``p1`` and ``p2`` are the program's parses of the two texts; the edge
    ids of every returned operation and pair refer to them.
    """
    target = newick_shape(inst.text2)
    table = EdgeTable.from_phylogeny(p1)
    start = table.shape(partitions=True)
    end = EdgeTable.from_phylogeny(p2).shape(partitions=True)
    if not start.same_tree(newick_shape(inst.text1)):
        raise CheckError("the parse of tree 1 is not the tree its text describes")
    if not end.same_tree(target):
        raise CheckError("the parse of tree 2 is not the tree its text describes")
    r = out.result

    # the sequence replays to T2, at the cost the program reports
    costs = replay(table, r.sequence)
    if not table.shape().same_tree(target):
        raise CheckError("the sequence does not reach tree 2")
    cost = sum(costs, Fraction(0))
    if not cost == r.cost == sum(r.phase_costs.values(), Fraction(0)):
        raise CheckError(
            f"replayed cost {cost}, reported {r.cost}, phases {sum(r.phase_costs.values())}")

    # the good pairs are exactly the pairs the definition gives
    pairs = set(out.pairs)
    truth = good_pairs(start, end)
    if pairs - truth:
        raise CheckError(f"reported pairs {sorted(pairs - truth)} are not good pairs")
    if truth - pairs:
        raise CheckError(f"good pairs {sorted(truth - pairs)} were not reported")
    if len(out.pairs) != r.good_pairs:
        raise CheckError(f"{len(out.pairs)} pairs found, the result counts {r.good_pairs}")

    w = start.w
    if no_pairs:
        if truth:
            raise CheckError("the instance has a good pair")
        check_ratio(cost, w, len(start.taxa))

    _check_trace(out, r.sequence, costs, cost)

    distance = None
    if out.exact is not None:
        distance, witness = out.exact
        table = EdgeTable.from_phylogeny(p1)
        if sum(replay(table, witness), Fraction(0)) != distance:
            raise CheckError("the exact witness does not cost the exact distance")
        if not table.shape().same_tree(target):
            raise CheckError("the exact witness does not reach tree 2")
        if distance > inst.scramble_cost:
            raise CheckError(f"exact {distance} above the generator's {inst.scramble_cost}")
        if r.cost < distance:
            raise CheckError(f"approximation {r.cost} below the exact {distance}")
        if not truth and distance < w:
            raise CheckError(f"exact {distance} below W = {w} without a good pair")
    return Tally(len(r.sequence), cost, w, distance)


def check_ratio(cost: Fraction, w: Fraction, n: int) -> None:
    """W <= cost <= 8(1 + ceil(log2 n)) W, the paper's guarantee without good pairs."""
    bound = 8 * (1 + math.ceil(math.log2(n))) * w
    if not w <= cost <= bound:
        raise CheckError(f"cost {cost} outside [W, 8(1+ceil(log2 n))W] = [{w}, {bound}]")


def _check_trace(out: Outcome, sequence, costs: list[Fraction], cost: Fraction) -> None:
    ok, total, reason = out.trace_verdict
    if not ok or total != cost:
        raise CheckError(f"check_trace rejected the written trace: {reason}")
    lines = out.trace_text.splitlines()
    header = json.loads(lines[0])
    if header.get("kind") != "nni-trace" or not header.get("ops") == len(sequence) == len(lines) - 1:
        raise CheckError("the trace header does not describe the sequence")
    for i, (line, op, c) in enumerate(zip(lines[1:], sequence, costs)):
        rec = json.loads(line)
        if (rec["e1"], rec["e2"], rec["e3"]) != (op.e1, op.e2, op.e3) or decimal(rec["w"]) != c:
            raise CheckError(f"trace line {i + 2} does not record operation {i}")
