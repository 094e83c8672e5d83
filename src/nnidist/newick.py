"""Newick reading and writing with exact decimal branch lengths.

The accepted dialect is strict: bare labels (no quotes, no structural
characters), mandatory positive branch lengths written as plain decimals
(no sign, no exponent, at most ``MAX_WEIGHT_DIGITS`` digits), and an
unweighted root with two or three children.
A two-child root is treated as a subdivision point and suppressed on parse,
summing the two incident lengths into one edge.

Serialization is canonical: it writes :meth:`Phylogeny.rooted_view`, the
tree rooted at the internal node next to the smallest taxon with children
ordered by the smallest taxon they contain, so equal phylogenies always
produce byte-identical text.  It reads the view the tree keeps, so a tree
that was already compared or keyed is serialized without a second walk.
Both directions are iterative, so tree depth is bounded by memory, not by
the recursion limit.

Newick text holds decimals only, so a tree can be written, digested or
traced only if every weight has a finite decimal form: a library-built
weight such as 1/3 makes :func:`format_weight` raise :class:`TreeError`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from nnidist.phylo import Phylogeny, TreeError

class ParseError(ValueError):
    """Syntax error with the byte offset where parsing failed."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


_DECIMAL = frozenset("0123456789.")

# Most digits a branch length may have, leading zeros before the point and
# trailing zeros after it not counted.  A cost, bound or ratio built from
# such lengths has a few thousand digits at most, below Python's limit on
# int/str conversion (4300 by default), so every accepted tree can be
# solved, traced and printed.
MAX_WEIGHT_DIGITS = 1000


def parse_weight(text: str, offset: int = 0) -> Fraction:
    """Parse a positive plain-decimal string (``7``, ``0.25``) into a Fraction.

    Only the ASCII digits 0-9 count: ``str.isdigit`` also passes ``²``,
    which ``int`` refuses, and ``١``, which ``int`` reads as 1.  Zeros that
    do not change the value are dropped before ``int`` reads the digits, and
    a length with more than :data:`MAX_WEIGHT_DIGITS` others is refused.
    """
    if text.count(".") > 1 or not set(text) <= _DECIMAL or not text.strip("."):
        raise ParseError(offset, f"malformed branch length {text!r}")
    whole, _, frac = text.partition(".")
    whole, frac = whole.lstrip("0"), frac.rstrip("0")
    if len(whole) + len(frac) > MAX_WEIGHT_DIGITS:
        raise ParseError(offset, f"branch length has more than {MAX_WEIGHT_DIGITS} digits")
    # no sign can get past the character check, so zero is the only nonpositive value
    if not whole and not frac:
        raise ParseError(offset, f"branch length {text!r} is not positive")
    den = 10 ** len(frac)
    return Fraction(int(whole or "0") * den + int(frac or "0"), den)


def format_weight(w: Fraction) -> str:
    """Render a Fraction as the shortest plain decimal, e.g. 13/4 -> ``3.25``.

    Raises TreeError for a weight with no finite decimal form, such as 1/3.
    """
    den = w.denominator
    if den == 1:
        return str(w.numerator)
    a = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    b = 0
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        raise TreeError(f"weight {w} has no finite decimal form for Newick text or traces")
    k = max(a, b)
    scaled = w.numerator * 10**k // w.denominator
    digits = str(scaled).rjust(k + 1, "0")
    if k == 0:
        return digits
    tail = digits[-k:].rstrip("0")
    return digits[:-k] + ("." + tail if tail else "")


# One match per token: a structural character, a colon with the branch
# length after it (whitespace between the two allowed), or a taxon label.
# Every character that is not whitespace belongs to a token, so findall
# drops exactly the whitespace between tokens, and a label or a length
# ends at the first whitespace or structural character, as the dialect says.
_TOKEN = re.compile(r"[(),;]|:\s*[^\s(),:;]*|[^\s(),:;]+")


def _offset(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, or the end of the text past the last."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == i:
            return m.start()
    return len(text)


def parse(text: str) -> Phylogeny:
    """Parse one Newick document into a phylogeny.

    The text is split into tokens by one regular expression, and one pass
    over them builds the tables, without recursion.  Nodes are numbered in
    preorder and edges as their branch lengths are read; trace files name
    these ids.  Open nodes sit on a stack as [parent, node, children read];
    the root, node 0, has no parent and takes two or three children.  Each
    distinct length string goes through :func:`parse_weight` once.  The
    tree is built from its tables and checked with
    :meth:`Phylogeny.validate`, which a two-leaf tree can still fail.
    Error offsets are those of the offending token.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # the end of the text
    ends: dict[int, tuple[int, int]] = {}
    wt: dict[int, Fraction] = {}
    labels: dict[int, str] = {}
    lengths: dict[str, Fraction] = {}

    def length(i: int) -> Fraction:
        # a length string not seen before: token i must be ':' and a length
        tok = tokens[i]
        if tok[:1] != ":":
            raise ParseError(_offset(text, i), "expected ':'")
        digits = tok[1:].lstrip()
        try:
            w = lengths[tok] = parse_weight(digits)
        except ParseError as exc:
            raise ParseError(_offset(text, i) + len(tok) - len(digits), exc.message) from None
        return w

    if tokens[0] != "(":
        raise ParseError(_offset(text, 0), "expected '('")
    stack: list[list] = [[None, 0, 0]]
    node = edge = 0
    i = 1
    while stack:
        tok = tokens[i]
        if tok == "(":
            node += 1
            stack.append([stack[-1][1], node, 0])
            i += 1
            continue
        if not tok or tok[0] in "(),:;":
            raise ParseError(_offset(text, i), "expected a taxon label or '('")
        node += 1
        labels[node] = tok
        w = lengths.get(tokens[i + 1])
        wt[edge] = length(i + 1) if w is None else w
        ends[edge] = (stack[-1][1], node)
        edge += 1
        i += 2
        while stack:
            frame = stack[-1]
            frame[2] += 1
            tok = tokens[i]
            i += 1
            if frame[0] is not None and frame[2] == 1:
                if tok != ",":
                    raise ParseError(_offset(text, i - 1), "expected ','")
                break
            if tok == ",":
                if frame[0] is not None:
                    raise ParseError(
                        _offset(text, i - 1), "internal nodes take exactly two children")
                break
            if tok != ")":
                raise ParseError(_offset(text, i - 1), "expected ')'")
            stack.pop()
            if stack:
                w = lengths.get(tokens[i])
                wt[edge] = length(i) if w is None else w
                ends[edge] = (frame[0], frame[1])
                edge += 1
                i += 1
    children = frame[2]
    if children not in (2, 3):
        raise ParseError(_offset(text, i), f"root has {children} children, expected 2 or 3")
    if tokens[i] != ";":
        raise ParseError(_offset(text, i), "expected ';'")
    if i + 2 != len(tokens):
        raise ParseError(_offset(text, i + 1), "trailing characters after ';'")
    end = len(text)
    if children == 2:
        # a subdivision point: the root's two edges, the ones from node 0,
        # become one edge at the next id, weighing their sum
        (e1, (_, a)), (e2, (_, b)) = [(e, uv) for e, uv in ends.items() if uv[0] == 0]
        w = wt.pop(e1) + wt.pop(e2)
        # the sum may have more digits than either term; it must read back
        # like any other length, or a trace of this tree could not be checked
        parse_weight(format_weight(w), end)
        del ends[e1], ends[e2]
        ends[edge] = (a, b)
        wt[edge] = w
    tree = Phylogeny._from_tables(ends, wt, labels)
    dup = len(labels) - len(tree._label_leaf)
    if dup:
        raise ParseError(end, f"{dup} duplicate taxon label(s)")
    problems = tree.validate()
    if problems:
        raise ParseError(end, "not a valid phylogeny: " + "; ".join(problems))
    return tree


def serialize(tree: Phylogeny) -> str:
    """Canonical Newick text for ``tree`` (see module docstring)."""
    order, parent_edge, children = tree.rooted_view()
    label, wt = tree._leaf_label, tree._wt
    text: dict[int, str] = {}
    for x in reversed(order[1:]):
        kids = children[x]
        w = wt[parent_edge[x]]
        # most weights are whole numbers, which format_weight writes as str does
        length = str(w.numerator) if w.denominator == 1 else format_weight(w)
        body = "(" + ",".join([text[c] for c in kids]) + "):" if kids else label[x] + ":"
        text[x] = body + length
    return "(" + ",".join([text[c] for c in children[order[0]]]) + ");"


def read_tree(path: str | Path) -> Phylogeny:
    return parse(Path(path).read_text())


def write_tree(path: str | Path, tree: Phylogeny) -> None:
    Path(path).write_text(serialize(tree) + "\n")
