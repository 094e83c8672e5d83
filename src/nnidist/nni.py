"""The nearest-neighbor-interchange move, sequences of moves, and trace files.

An operation names three edges (e1, e2, e3) forming a path.  Applying it
detaches e1 from the shared node with e2 and reattaches it at the far node,
and symmetrically for e3, so the subtrees hanging off the two outer edges
swap places.  The cost is the weight of the middle edge e2.  Every operation
is its own inverse, and (e1, e2, e3) and (e3, e2, e1) are the same move.

Traces are JSON lines: a header with digests of the canonical source and
target trees, then one record per operation in order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

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


def apply_sequence(
    tree: Phylogeny, ops: Iterable[NniOp], in_place: bool = False
) -> tuple[Phylogeny, Fraction]:
    """Apply operations in order; returns (resulting tree, total cost)."""
    out = tree if in_place else tree.copy()
    total = Fraction(0)
    for op in ops:
        total += apply_nni(out, op)
    return out, total


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
    work = source.copy()
    total = Fraction(0)
    for i, op in enumerate(ops):
        try:
            total += apply_nni(work, op)
        except (TreeError, KeyError) as exc:
            return False, total, f"operation {i} invalid: {exc}"
    if not work.canonical_equal(target):
        return False, total, "result does not match the target tree"
    return True, total, None


def tree_digest(tree: Phylogeny) -> str:
    return hashlib.sha256(newick.serialize(tree).encode()).hexdigest()


def trace_lines(
    source: Phylogeny, target: Phylogeny, ops: Sequence[NniOp]
) -> list[str]:
    """JSON lines for a trace, validating the sequence while recording it."""
    work = source.copy()
    lines = [
        json.dumps(
            {
                "kind": "nni-trace",
                "format": TRACE_FORMAT,
                "source": tree_digest(source),
                "target": tree_digest(target),
                "ops": len(ops),
            }
        )
    ]
    for op in ops:
        u, v = work.endpoints(op.e2)
        cost = apply_nni(work, op)
        lines.append(
            json.dumps(
                {
                    "e1": op.e1,
                    "e2": op.e2,
                    "e3": op.e3,
                    "w": newick.format_weight(cost),
                    "u": u,
                    "v": v,
                }
            )
        )
    if not work.canonical_equal(target):
        raise TreeError("trace does not reach the target tree")
    return lines


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


def _parse_record(k: int, line: str) -> tuple[NniOp, int, int, Fraction]:
    """One operation record: (operation, u, v, recorded cost)."""
    try:
        rec = json.loads(line)
        op = NniOp(int(rec["e1"]), int(rec["e2"]), int(rec["e3"]))
        u, v = int(rec["u"]), int(rec["v"])
        if not isinstance(rec["w"], str):
            raise TypeError(f"cost {rec['w']!r} is not a decimal string")
        return op, u, v, newick.parse_weight(rec["w"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"line {k}: bad operation record: {exc}") from exc


def read_trace(path: str | Path) -> tuple[dict, list[NniOp]]:
    """Load a trace file; returns (header, operations). Structural checks only."""
    header, body = _trace_body(path)
    return header, [_parse_record(k, line)[0] for k, line in body]


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
    work = source.copy()
    total = Fraction(0)
    for i, (k, line) in enumerate(body):
        try:
            op, u, v, w = _parse_record(k, line)
            if {u, v} != set(work.endpoints(op.e2)):
                return False, total, f"operation {i}: recorded endpoints do not match replay"
            cost = apply_nni(work, op)
        except TraceError as exc:
            return False, total, str(exc)
        except (TreeError, KeyError) as exc:
            return False, total, f"operation {i} invalid: {exc}"
        if w != cost:
            return False, total, f"operation {i}: recorded cost {newick.format_weight(w)} != {cost}"
        total += cost
    if not work.canonical_equal(target):
        return False, total, "replay does not reach the target tree"
    return True, total, None
