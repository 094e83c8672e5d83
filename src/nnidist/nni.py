"""The nearest-neighbor-interchange move, sequences of moves, and trace files.

An operation names three edges (e1, e2, e3) forming a path.  Applying it
detaches e1 from the shared node with e2 and reattaches it at the far node,
and symmetrically for e3, so the subtrees hanging off the two outer edges
swap places.  The cost is the weight of the middle edge e2.  Every operation
is its own inverse, and (e1, e2, e3) and (e3, e2, e1) are the same move.

Every sequence is applied by one replay core, :func:`replay`, which raises
:class:`ReplayError` at the first invalid move or a wrong end tree; sequence
application, verification, trace writing and trace checking all consume it.

Traces are JSON lines: a header with digests of the canonical source and
target trees, then one record per operation in order.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from nnidist import newick
from nnidist.phylo import Phylogeny, TreeError

TRACE_FORMAT = 1


@dataclass(frozen=True)
class NniOp:
    e1: int
    e2: int
    e3: int

    def canonical(self) -> tuple[int, int, int]:
        """Direction-independent form: the smaller outer edge first."""
        if self.e1 <= self.e3:
            return (self.e1, self.e2, self.e3)
        return (self.e3, self.e2, self.e1)


def apply_nni(tree: Phylogeny, op: NniOp) -> Fraction:
    """Apply ``op`` to ``tree`` in place and return its cost.

    Raises TreeError unless (e1, e2, e3) is a path of three distinct edges.
    """
    e1, e2, e3 = op.e1, op.e2, op.e3
    if len({e1, e2, e3}) != 3:
        raise TreeError(f"operation ({e1},{e2},{e3}) repeats an edge")
    u, v = tree.endpoints(e2)
    if v in tree.endpoints(e1):
        u, v = v, u
    ends1, ends3 = tree.endpoints(e1), tree.endpoints(e3)
    if u not in ends1 or v in ends1 or v not in ends3 or u in ends3:
        raise TreeError(f"operation ({e1},{e2},{e3}) is not an edge path")
    far1 = tree.other_end(e1, u)
    far3 = tree.other_end(e3, v)
    tree._reattach(e1, u, v)
    tree._reattach(e3, v, u)
    assert far1 != far3
    return tree.weight(e2)


class ReplayError(TreeError):
    """An operation of a sequence is invalid, or the end tree is not the target."""


def replay(
    work: Phylogeny, ops: Iterable[NniOp], target: Phylogeny | None = None
) -> Iterator[tuple[NniOp, int, int, Fraction]]:
    """Apply ``ops`` to ``work`` in place, yielding (op, u, v, cost) per move.

    (u, v) are the middle edge's endpoints before the move.  Raises
    ReplayError at the first invalid operation and, once all are applied,
    when ``target`` is given and ``work`` does not match it.
    """
    for i, op in enumerate(ops):
        try:
            u, v = work.endpoints(op.e2)
            cost = apply_nni(work, op)
        except (TreeError, KeyError) as exc:
            raise ReplayError(f"operation {i} invalid: {exc}") from exc
        yield op, u, v, cost
    if target is not None and not work.canonical_equal(target):
        raise ReplayError("replay does not match the target tree")


def apply_sequence(tree: Phylogeny, ops: Iterable[NniOp]) -> tuple[Phylogeny, Fraction]:
    """Apply operations in order to a copy; returns (resulting tree, total cost)."""
    out = tree.copy()
    return out, sum((cost for _, _, _, cost in replay(out, ops)), Fraction(0))


def invert_sequence(ops: Sequence[NniOp]) -> list[NniOp]:
    """A sequence undoing ``ops``: each move is self-inverse, so just reverse."""
    return list(reversed(ops))


def verify_transform(
    source: Phylogeny, ops: Sequence[NniOp], target: Phylogeny
) -> tuple[bool, Fraction, str | None]:
    """Replay ``ops`` on a copy of ``source`` and compare against ``target``.

    Returns (ok, total cost, reason).  The cost is the cost of the prefix
    that could be applied, so failures still report where the money went.
    """
    total = Fraction(0)
    try:
        for _, _, _, cost in replay(source.copy(), ops, target):
            total += cost
    except ReplayError as exc:
        return False, total, str(exc)
    return True, total, None


def tree_digest(tree: Phylogeny) -> str:
    return hashlib.sha256(newick.serialize(tree).encode()).hexdigest()


def trace_lines(
    source: Phylogeny, target: Phylogeny, ops: Sequence[NniOp]
) -> list[str]:
    """JSON lines for a trace, validating the sequence while recording it."""
    header = {
        "kind": "nni-trace",
        "format": TRACE_FORMAT,
        "source": tree_digest(source),
        "target": tree_digest(target),
        "ops": len(ops),
    }
    return [json.dumps(header)] + [
        json.dumps(
            {"e1": op.e1, "e2": op.e2, "e3": op.e3,
             "w": newick.format_weight(cost), "u": u, "v": v}
        )
        for op, u, v, cost in replay(source.copy(), ops, target)
    ]


def write_trace(
    path: str | Path, source: Phylogeny, target: Phylogeny, ops: Sequence[NniOp]
) -> None:
    """Write a replayable trace, validating the sequence while recording it."""
    Path(path).write_text("\n".join(trace_lines(source, target, ops)) + "\n")


class TraceError(ValueError):
    """Raised when a trace file is malformed or does not replay."""


def _trace_body(path: str | Path) -> tuple[dict, list[tuple[int, str]]]:
    """Read a trace and check its header; returns (header, numbered record lines).

    Blank lines are skipped; the numbers are the file's own line numbers.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace is not text: {exc}") from exc
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise TraceError("empty trace file")
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError as exc:
        raise TraceError(f"header is not JSON: {exc}") from exc
    if (
        not isinstance(header, dict)
        or header.get("kind") != "nni-trace"
        or header.get("format") != TRACE_FORMAT
    ):
        raise TraceError("not an nni-trace header")
    if header.get("ops") != len(lines) - 1:
        raise TraceError(f"header says {header.get('ops')} ops, file has {len(lines) - 1}")
    return header, lines[1:]


# A parsed operation record: the move, its middle edge's recorded endpoints and
# its recorded cost.  replay() reads only e1, e2 and e3, so it takes a record as
# the move itself; a tuple is cheaper to build than an NniOp.
_Record = namedtuple("_Record", "e1 e2 e3 u v w")


def _parse_record(k: int, line: str) -> _Record:
    try:
        rec = json.loads(line)
        e1, e2, e3, u, v, w = rec["e1"], rec["e2"], rec["e3"], rec["u"], rec["v"], rec["w"]
        if not type(e1) is type(e2) is type(e3) is type(u) is type(v) is int:
            raise TypeError("edge and node ids must be integers")
        if not isinstance(w, str):
            raise TypeError(f"cost {w!r} is not a decimal string")
        return _Record(e1, e2, e3, u, v, newick.parse_weight(w))
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"line {k}: bad operation record: {exc}") from exc


def read_trace(path: str | Path) -> tuple[dict, list[NniOp]]:
    """Load a trace file; returns (header, operations). Structural checks only."""
    header, body = _trace_body(path)
    return header, [NniOp(r.e1, r.e2, r.e3) for r in starmap(_parse_record, body)]


def check_trace(
    path: str | Path, source: Phylogeny, target: Phylogeny
) -> tuple[bool, Fraction, str | None]:
    """Full verification of a trace against two trees.

    Checks the header digests, replays every operation, compares recorded
    costs and middle-edge endpoints, and requires the final tree to match
    the target canonically.  Records are parsed one at a time as the replay
    reaches them, so a long trace is never held parsed in full.
    """
    try:
        header, body = _trace_body(path)
    except TraceError as exc:
        return False, Fraction(0), str(exc)
    if header.get("source") != tree_digest(source):
        return False, Fraction(0), "source digest mismatch"
    if header.get("target") != tree_digest(target):
        return False, Fraction(0), "target digest mismatch"
    total = Fraction(0)
    steps = replay(source.copy(), starmap(_parse_record, body), target)
    try:
        for i, (rec, u, v, cost) in enumerate(steps):
            if {rec.u, rec.v} != {u, v}:
                return False, total, f"operation {i}: recorded endpoints do not match replay"
            if rec.w != cost:
                return False, total, f"operation {i}: recorded cost {newick.format_weight(rec.w)} != {cost}"
            total += cost
    except (TraceError, ReplayError) as exc:
        return False, total, str(exc)
    return True, total, None
