"""The nearest-neighbor-interchange move, sequences of moves, and trace files.

An operation names three edges (e1, e2, e3) forming a path.  Applying it
detaches e1 from the shared node with e2 and reattaches it at the far node,
and symmetrically for e3, so the subtrees hanging off the two outer edges
swap places.  The cost is the weight of the middle edge e2.  Every operation
is its own inverse, and (e1, e2, e3) and (e3, e2, e1) are the same move.
So two back-to-back moves on one middle edge are worth at most one, and
:func:`shorten` cancels or merges every such pair in one pass over the
names, without a tree.

Two writers apply moves, with the same checks and the same edits to the
edge table.  :func:`move` checks the three edge ids, then edits the tree's
edge table and adjacency lists in place, a handful of dict operations per
move, and returns the middle edge's endpoints: it is the kernel of the
phases, which read the tree between moves.  :func:`apply_nni` is a thin
wrapper over it that takes an :class:`NniOp` and returns the move's cost.
Every whole sequence is applied by one replay core, :func:`replay`, which
writes the edge table alone, inline, and builds the adjacency once when it
ends; until then the adjacency is stale.  It raises :class:`ReplayError` at
the first invalid move or a wrong end tree; sequence application,
verification, trace writing, trace checking, the leaf sort's kept moves,
the rebalance and the exact search's witness all consume it.  The four
whole-answer replays here (:func:`apply_sequence`, :func:`verify_transform`,
:func:`trace_lines` and :func:`check_trace`) start from a copy of the edge,
weight and label tables alone, with no adjacency to throw away.
``replay`` reads a move as its first three items, so it takes an
:class:`NniOp` or a trace record tuple alike.  :class:`NniOp` is a
``NamedTuple`` of (e1, e2, e3), so an operation equals the plain tuple of
its three ids.

A move never changes an edge's weight, so a sequence's cost is counted per
middle-edge id and totalled once as ``sum(count[e] * w(e))``
(:func:`counted_cost`): still an exact ``Fraction``, equal to the sum of the
moves' costs, with no ``Fraction`` arithmetic per move.  The total itself
is summed in ints over the lcm of the counted weights' denominators, so one
``Fraction`` is built per sequence.

Traces are JSON lines: a header with digests of the canonical source and
target trees, then one record per operation in order.  :func:`trace_lines`
writes every record in one fixed spelling,
``{"e1": A, "e2": B, "e3": C, "w": "W", "u": U, "v": V}``, the bytes
``json.dumps`` gives, built from pieces cached per middle edge.  The reader
matches that spelling with one regular expression first and tests a line
for blank only when that match fails; any other filled line goes through
``json.loads``.  A canonical line decodes to exactly what the expression
captures, so both routes accept the same records with the same failure
reasons.  The expression admits only canonical JSON integers, so each
distinct id string is converted to an int once per trace and looked up
afterwards.  Records are plain ``(e1, e2, e3, u, v, w)`` tuples that go
straight through :func:`replay`.  :func:`check_trace` compares a record's
cost with the tree's weight once per middle edge and recorded value: a
later record whose parsed cost is the very object already verified for
that edge needs no second comparison.  A tree keeps its rooted view until
its next move, so each trace function builds the target's view once: the
header digest and the end-tree comparison both read it.  Digests and
records spell weights as Newick decimals, so a trace needs every weight to
have a finite decimal form; for a weight such as 1/3 the trace functions
raise :class:`TreeError`.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from nnidist import newick
from nnidist.phylo import Phylogeny, TreeError, _adjacency

TRACE_FORMAT = 1


class NniOp(NamedTuple):
    e1: int
    e2: int
    e3: int


def move(tree: Phylogeny, e1: int, e2: int, e3: int) -> tuple[int, int]:
    """Apply the move (e1, e2, e3) to ``tree`` in place; return e2's stored endpoints.

    Raises TreeError unless (e1, e2, e3) is a path of three distinct edges,
    and KeyError for an unknown edge id (looked up in the order e2, e1, e3);
    either is raised before the tree changes.  It writes the edge table and
    the adjacency lists, for callers that read the tree between moves, and
    drops the tree's kept rooted view.  :func:`replay` makes the same checks
    and table edits inline and leaves the adjacency to its end.  The move
    does not change e2's endpoints.
    """
    if e1 == e2 or e2 == e3 or e1 == e3:
        raise TreeError(f"operation ({e1},{e2},{e3}) repeats an edge")
    ends, adj = tree._ends, tree._adj
    stored = u, v = ends[e2]
    a1, b1 = ends[e1]
    a3, b3 = ends[e3]
    if v == a1 or v == b1:
        u, v = v, u
    # e1 must meet e2 at u only and e3 meet it at v only; a far end equal
    # to the other middle endpoint marks the failure
    far1 = b1 if a1 == u else a1 if b1 == u else v
    far3 = b3 if a3 == v else a3 if b3 == v else u
    if far1 == v or far3 == u:
        raise TreeError(f"operation ({e1},{e2},{e3}) is not an edge path")
    assert far1 != far3
    tree._view = None
    ends[e1] = (v, far1) if a1 == u else (far1, v)
    ends[e3] = (u, far3) if a3 == v else (far3, u)
    adj[u].remove(e1)
    adj[v].append(e1)
    adj[v].remove(e3)
    adj[u].append(e3)
    return stored


def apply_nni(tree: Phylogeny, op: NniOp) -> Fraction:
    """Apply ``op`` to ``tree`` in place and return its cost; see :func:`move`."""
    e1, e2, e3 = op
    move(tree, e1, e2, e3)
    return tree._wt[e2]


class ReplayError(TreeError):
    """An operation of a sequence is invalid, or the end tree is not the target."""


def replay(
    work: Phylogeny, ops: Iterable[tuple], target: Phylogeny | None = None
) -> Iterator[tuple[tuple, int, int]]:
    """Apply ``ops`` to ``work`` in place, yielding (op, u, v) per move.

    An operation is any sequence whose first three items are e1, e2 and e3:
    an :class:`NniOp`, or a record tuple of a trace.  (u, v) are the middle
    edge's endpoints, which the move does not change.  Raises ReplayError at
    the first invalid operation and, once all are applied, when ``target``
    is given and ``work`` does not match it.  ``work`` may be a tables-only
    copy (:meth:`Phylogeny._tables_copy`): nothing here reads its adjacency.

    Each move gets the checks :func:`move` makes, with the same messages,
    but only the two changed rows of the edge table are written: the
    adjacency lists are stale until the replay ends, so a caller reads
    nothing of ``work`` but its weights between two yields.  The adjacency
    is built from the edge table once, in edge-table order as
    :meth:`Phylogeny.copy` builds it, when the replay ends, fails or is
    closed early, so ``work`` is a valid tree afterwards in every case.
    """
    ends = work._ends
    work._view = None
    try:
        # move's checks and table edit, inlined: a call per move costs more
        # than the edit itself on a whole-answer replay.  A property test in
        # tests/test_nni.py holds the two copies to the same tables and errors
        for i, op in enumerate(ops):
            e1, e2, e3 = op[0], op[1], op[2]
            try:
                if e1 == e2 or e2 == e3 or e1 == e3:
                    raise TreeError(f"operation ({e1},{e2},{e3}) repeats an edge")
                su, sv = u, v = ends[e2]
                a1, b1 = ends[e1]
                a3, b3 = ends[e3]
                if v == a1 or v == b1:
                    u, v = v, u
                far1 = b1 if a1 == u else a1 if b1 == u else v
                far3 = b3 if a3 == v else a3 if b3 == v else u
                if far1 == v or far3 == u:
                    raise TreeError(f"operation ({e1},{e2},{e3}) is not an edge path")
            except (TreeError, KeyError) as exc:
                raise ReplayError(f"operation {i} invalid: {exc}") from exc
            assert far1 != far3
            ends[e1] = (v, far1) if a1 == u else (far1, v)
            ends[e3] = (u, far3) if a3 == v else (far3, u)
            yield op, su, sv
    finally:
        work._adj = _adjacency(ends)
    if target is not None and not work.canonical_equal(target):
        raise ReplayError("replay does not match the target tree")


def counted_cost(tree: Phylogeny, counts: Mapping[int, int]) -> Fraction:
    """Exact total ``sum(counts[e] * w(e))`` of moves counted per middle-edge id.

    Summed in ints over the lcm of the counted weights' denominators, so one
    ``Fraction`` is built, at the end, and it is the same exact value.
    """
    weights = [(tree.weight(e), k) for e, k in counts.items()]
    scale = math.lcm(*(w.denominator for w, _ in weights))
    return Fraction(
        sum(w.numerator * (scale // w.denominator) * k for w, k in weights), scale)


def apply_sequence(tree: Phylogeny, ops: Iterable[NniOp]) -> tuple[Phylogeny, Fraction]:
    """Apply operations in order to a copy; returns (resulting tree, total cost)."""
    out = tree._tables_copy()
    counts = Counter(op.e2 for op, _, _ in replay(out, ops))
    return out, counted_cost(tree, counts)


def invert_sequence(ops: Sequence[NniOp]) -> list[NniOp]:
    """A sequence undoing ``ops``: each move is self-inverse, so just reverse."""
    return list(reversed(ops))


def shorten(ops: Iterable[NniOp]) -> tuple[list[NniOp], list[int]]:
    """Cancel or merge back-to-back moves on one middle edge, in one pass.

    Returns ``(kept, origin)``: a sequence with the same end tree, no longer
    and no dearer than ``ops``, in which no two adjacent moves share a middle
    edge; ``origin[i]`` is the index in ``ops`` of the first move that
    ``kept[i]`` stands for, so ``origin`` increases.

    A move on e swaps one edge at one end of e with one edge at the other
    end and changes nothing else.  So two back-to-back moves on e leave the
    four edges around e in one of the three ways of pairing them off at e's
    two ends.  If that is the starting pairing, no move is needed: this
    covers the exact undo, and also ``(e1, e, e3), (x, e, y)`` with x and y
    the two other edges, which leaves every edge adjacency as it was but
    swaps the node ids at e's ends (a key on the edge endpoint table misses
    that revisit).  That pair shares no outer edge; the undo shares both.
    For either other pairing the two moves share exactly one outer edge,
    and the single move swapping the two unshared edges, ``(a - b, e, b - a)``
    for outer-edge sets a and b, reaches it.  Later moves name edges only,
    so they stay valid.

    The kept moves form a stack in which no two neighbours share a middle
    edge, so a merged move never meets another kept move on its own edge;
    after a cancel the next move meets the one below.  A move whose middle
    edge differs from the top's is pushed as it is.  No tree is touched.
    """
    kept: list[NniOp] = []
    origin: list[int] = []
    for i, op in enumerate(ops):
        if not kept or kept[-1].e2 != op.e2:
            kept.append(op)
            origin.append(i)
            continue
        last = kept.pop()
        first = origin.pop()
        a = {last.e1, last.e3}
        b = {op.e1, op.e3}
        if len(a & b) == 1:
            (x,), (y,) = a - b, b - a
            kept.append(NniOp(x, op.e2, y))
            origin.append(first)
    return kept, origin


def verify_transform(
    source: Phylogeny, ops: Sequence[NniOp], target: Phylogeny
) -> tuple[bool, Fraction, str | None]:
    """Replay ``ops`` on a copy of ``source`` and compare against ``target``.

    Returns (ok, total cost, reason).  The cost is the cost of the prefix
    that could be applied, so failures still report where the money went.
    The replay loop only counts the moves applied; their middle edges are
    counted once, afterwards.
    """
    applied, reason = 0, None
    try:
        for applied, _ in enumerate(replay(source._tables_copy(), ops, target), 1):
            pass
    except ReplayError as exc:
        reason = str(exc)
    counts = Counter(op.e2 for op in islice(ops, applied))
    return reason is None, counted_cost(source, counts), reason


def tree_digest(tree: Phylogeny) -> str:
    return hashlib.sha256(newick.serialize(tree).encode()).hexdigest()


def trace_lines(
    source: Phylogeny, target: Phylogeny, ops: Sequence[NniOp]
) -> list[str]:
    """JSON lines for a trace, validating the sequence while recording it.

    Raises TreeError for an operation whose edge ids are not all ``int``
    (``True`` would replay as edge 1 but be written as ``true``).
    """
    header = {
        "kind": "nni-trace",
        "format": TRACE_FORMAT,
        "source": tree_digest(source),
        "target": tree_digest(target),
        "ops": len(ops),
    }
    # per middle edge, the record text between e2's key and e3's value and
    # between w's key and u's value; a positive weight's format_weight is
    # digits and ".", which a JSON string holds unescaped
    pieces: dict[int, tuple[str, str]] = {}
    lines = [json.dumps(header)]
    for i, (op, u, v) in enumerate(replay(source._tables_copy(), ops, target)):
        e1, e2, e3 = op
        if not type(e1) is type(e2) is type(e3) is int:
            raise TreeError(f"operation {i} ({e1!r},{e2!r},{e3!r}): edge ids must be integers")
        piece = pieces.get(e2)
        if piece is None:
            w = newick.format_weight(source.weight(e2))
            piece = pieces[e2] = (f', "e2": {e2}, "e3": ', f', "w": "{w}", "u": ')
        lines.append(f'{{"e1": {e1}{piece[0]}{e3}{piece[1]}{u}, "v": {v}}}')
    return lines


def write_trace(
    path: str | Path, source: Phylogeny, target: Phylogeny, ops: Sequence[NniOp]
) -> None:
    """Write a replayable trace, validating the sequence while recording it."""
    Path(path).write_text("\n".join(trace_lines(source, target, ops)) + "\n")


class TraceError(ValueError):
    """Raised when a trace file is malformed or does not replay."""


def _trace_body(path: str | Path) -> tuple[dict, list[str], int]:
    """Read a trace and check its header; returns (header, lines, first record index).

    The records are the non-blank lines from that index on; a line's index
    plus one is its line number in the file.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise TraceError(f"trace is not text: {exc}") from exc
    filled = sum(map(bool, map(str.strip, lines)))
    if not filled:
        raise TraceError("empty trace file")
    first = next(k for k, ln in enumerate(lines) if ln.strip())
    try:
        header = json.loads(lines[first])
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer too long to convert
        raise TraceError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "nni-trace":
        raise TraceError("not an nni-trace header")
    # like record ids, these must be JSON integers: true and 1.0 equal 1 in Python
    for key in ("format", "ops"):
        if type(header.get(key)) is not int:
            raise TraceError(f"header {key} {header.get(key)!r} is not an integer")
    if header["format"] != TRACE_FORMAT:
        raise TraceError(f"unsupported trace format {header['format']}")
    if header["ops"] != filled - 1:
        raise TraceError(f"header says {header['ops']} ops, file has {filled - 1}")
    return header, lines, first + 1


# The one spelling trace_lines writes a record in.  The ids are JSON integers
# ([0-9], not \d, which also matches digits int() takes and JSON refuses) and
# the cost a JSON string with no escape, so a matching line decodes under
# json.loads to exactly the captured ints and text.
_INT = r"(-?(?:0|[1-9][0-9]*))"
_CANONICAL_RECORD = re.compile(
    rf'\{{"e1": {_INT}, "e2": {_INT}, "e3": {_INT}, "w": "([^"\\\x00-\x1f]*)", '
    rf'"u": {_INT}, "v": {_INT}\}}'
)


def _parse_records(
    lines: list[str], start: int
) -> Iterator[tuple[int, int, int, int, int, Fraction]]:
    """Parse the record lines from ``lines[start]`` on into (e1, e2, e3, u, v, w) tuples.

    Records are handed out one at a time and blank lines are skipped.  A line
    in the canonical spelling is read off the regular expression; only when
    that match fails is the line tested for blank, and a filled one goes
    through ``json.loads`` and its type checks.  Each distinct id string is
    converted once per trace, as is each distinct cost string: the
    expression admits only canonical JSON integers, so an id string names
    one int wherever it stands, and every record with one cost string holds
    the same ``Fraction`` object.
    """
    ids: dict[str, int] = {}
    weights: dict[str, Fraction] = {}
    canonical = _CANONICAL_RECORD.fullmatch
    for k, line in enumerate(islice(lines, start, None), start + 1):
        try:
            m = canonical(line)
            if m is not None:
                e1, e2, e3, w, u, v = m.groups()
                try:
                    rec = ids[e1], ids[e2], ids[e3], ids[u], ids[v], weights[w]
                except KeyError:
                    for s in (e1, e2, e3, u, v):
                        if s not in ids:
                            ids[s] = int(s)
                    if w not in weights:
                        weights[w] = newick.parse_weight(w)
                    rec = ids[e1], ids[e2], ids[e3], ids[u], ids[v], weights[w]
            elif not line.strip():
                continue
            else:
                r = json.loads(line)
                e1, e2, e3, u, v, w = r["e1"], r["e2"], r["e3"], r["u"], r["v"], r["w"]
                if not type(e1) is type(e2) is type(e3) is type(u) is type(v) is int:
                    raise TypeError("edge and node ids must be integers")
                if not isinstance(w, str):
                    raise TypeError(f"cost {w!r} is not a decimal string")
                value = weights.get(w)
                if value is None:
                    value = weights[w] = newick.parse_weight(w)
                rec = e1, e2, e3, u, v, value
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TraceError(f"line {k}: bad operation record: {exc}") from exc
        yield rec


def check_trace(
    path: str | Path, source: Phylogeny, target: Phylogeny
) -> tuple[bool, Fraction, str | None]:
    """Full verification of a trace against two trees.

    Checks the header digests, replays every operation, compares recorded
    costs and middle-edge endpoints, and requires the final tree to match
    the target canonically.  Records are parsed one at a time as the replay
    reaches them, so a long trace is never held parsed in full.  On failure
    the cost is that of the records checked before the failing one.
    """
    try:
        header, lines, start = _trace_body(path)
    except TraceError as exc:
        return False, Fraction(0), str(exc)
    if header.get("source") != tree_digest(source):
        return False, Fraction(0), "source digest mismatch"
    if header.get("target") != tree_digest(target):
        return False, Fraction(0), "target digest mismatch"
    counts: Counter[int] = Counter()
    # middle edge -> the parsed cost object already found equal to its weight;
    # _parse_records hands out one object per distinct cost string
    verified: dict[int, Fraction] = {}
    steps = replay(source._tables_copy(), _parse_records(lines, start), target)
    try:
        for i, ((_, e2, _, ru, rv, w), u, v) in enumerate(steps):
            if not (ru == u and rv == v or ru == v and rv == u):
                return False, counted_cost(source, counts), (
                    f"operation {i}: recorded endpoints do not match replay")
            if verified.get(e2) is not w:
                cost = source.weight(e2)
                if w != cost:
                    return False, counted_cost(source, counts), (
                        f"operation {i}: recorded cost {newick.format_weight(w)} != {cost}")
                verified[e2] = w
            counts[e2] += 1
    except (TraceError, ReplayError) as exc:
        return False, counted_cost(source, counts), str(exc)
    return True, counted_cost(source, counts), None
