"""Newick reading and writing with exact decimal branch lengths.

The accepted dialect is strict: bare labels (no quotes, no structural
characters), mandatory positive branch lengths written as plain decimals
(no sign, no exponent), and an unweighted root with two or three children.
A two-child root is treated as a subdivision point and suppressed on parse,
summing the two incident lengths into one edge.

Serialization is canonical: it writes :meth:`Phylogeny.rooted_view`, the
tree rooted at the internal node next to the smallest taxon with children
ordered by the smallest taxon they contain, so equal phylogenies always
produce byte-identical text.  Both directions are iterative, so tree depth
is bounded by memory, not by the recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from nnidist.phylo import Phylogeny, RootedView, TreeError

_STRUCTURAL = set("():,;")


class ParseError(ValueError):
    """Syntax error with the byte offset where parsing failed."""

    def __init__(self, offset: int, message: str) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.message = message


_DECIMAL = frozenset("0123456789.")


def parse_weight(text: str, offset: int = 0) -> Fraction:
    """Parse a positive plain-decimal string (``7``, ``0.25``) into a Fraction.

    Only the ASCII digits 0-9 count: ``str.isdigit`` also passes ``²``,
    which ``int`` refuses, and ``١``, which ``int`` reads as 1.
    """
    if text.count(".") > 1 or not set(text) <= _DECIMAL or not text.strip("."):
        raise ParseError(offset, f"malformed branch length {text!r}")
    if "." in text:
        whole, frac = text.split(".")
        den = 10 ** len(frac)
        num = int(whole or "0") * den + int(frac or "0")
    else:
        num, den = int(text), 1
    # no sign can get past the character check, so zero is the only nonpositive value
    if num == 0:
        raise ParseError(offset, f"branch length {text!r} is not positive")
    return Fraction(num, den)


def format_weight(w: Fraction) -> str:
    """Render a Fraction as the shortest plain decimal, e.g. 13/4 -> ``3.25``."""
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
        raise ValueError(f"{w} has no finite decimal form")
    k = max(a, b)
    scaled = w.numerator * 10**k // w.denominator
    digits = str(scaled).rjust(k + 1, "0")
    if k == 0:
        return digits
    tail = digits[-k:].rstrip("0")
    return digits[:-k] + ("." + tail if tail else "")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.edges: dict[int, tuple[int, int]] = {}
        self.weights: dict[int, Fraction] = {}
        self.labels: dict[int, str] = {}
        self.next_node = 0
        self.next_edge = 0

    def error(self, message: str) -> ParseError:
        return ParseError(self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def new_node(self) -> int:
        v = self.next_node
        self.next_node += 1
        return v

    def add_edge(self, u: int, v: int, w: Fraction) -> int:
        e = self.next_edge
        self.next_edge += 1
        self.edges[e] = (u, v)
        self.weights[e] = w
        return e

    def read_label(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in _STRUCTURAL or c.isspace():
                break
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a taxon label or '('")
        return self.text[start:self.pos]

    def read_weight(self) -> Fraction:
        self.skip_ws()
        self.expect(":")
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        return parse_weight(self.text[start:self.pos], start)

    def read_nodes(self) -> int:
        """Read the parenthesized tree, without recursion; returns the root's child count.

        Nodes are numbered in preorder and edges as their branch lengths are
        read.  Open nodes sit on a stack as [parent, node, children read];
        the root, node 0, has no parent and takes any number of children.
        """
        self.skip_ws()
        self.expect("(")
        stack: list[list] = [[None, self.new_node(), 0]]
        while True:
            self.skip_ws()
            if self.peek() == "(":
                self.pos += 1
                stack.append([stack[-1][1], self.new_node(), 0])
                continue
            node = self.new_node()
            self.labels[node] = self.read_label()
            self.add_edge(stack[-1][1], node, self.read_weight())
            while True:
                frame = stack[-1]
                frame[2] += 1
                self.skip_ws()
                if frame[0] is not None and frame[2] == 1:
                    self.expect(",")
                    break
                if self.peek() == ",":
                    if frame[0] is not None:
                        raise self.error("internal nodes take exactly two children")
                    self.pos += 1
                    break
                self.expect(")")
                stack.pop()
                if not stack:
                    return frame[2]
                self.add_edge(frame[0], frame[1], self.read_weight())

    def parse(self) -> Phylogeny:
        children = self.read_nodes()
        if children not in (2, 3):
            raise self.error(f"root has {children} children, expected 2 or 3")
        self.skip_ws()
        self.expect(";")
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters after ';'")
        if children == 2:
            self._suppress_root()
        dup = len(self.labels) - len(set(self.labels.values()))
        if dup:
            raise self.error(f"{dup} duplicate taxon label(s)")
        try:
            return Phylogeny(self.edges, self.weights, self.labels)
        except TreeError as exc:
            raise ParseError(self.pos, f"not a valid phylogeny: {exc}") from exc

    def _suppress_root(self) -> None:
        # edges are stored (parent, child), so the root's two are those from node 0
        (e1, (_, a)), (e2, (_, b)) = [(e, uv) for e, uv in self.edges.items() if uv[0] == 0]
        w = self.weights.pop(e1) + self.weights.pop(e2)
        del self.edges[e1], self.edges[e2]
        self.add_edge(a, b, w)


def parse(text: str) -> Phylogeny:
    """Parse one Newick document into a phylogeny."""
    return _Parser(text).parse()


def serialize(tree: Phylogeny, view: RootedView | None = None) -> str:
    """Canonical Newick text for ``tree`` (see module docstring).

    ``view``, when given, must be ``tree.rooted_view()``.
    """
    if view is None:
        view = tree.rooted_view()
    order, parent_edge, children, _ = view
    text: dict[int, str] = {}
    for x in reversed(order[1:]):
        kids = children[x]
        body = "(" + ",".join([text[c] for c in kids]) + ")" if kids else tree.leaf_label(x)
        text[x] = body + ":" + format_weight(tree.weight(parent_edge[x]))
    return "(" + ",".join([text[c] for c in children[order[0]]]) + ");"


def read_tree(path: str | Path) -> Phylogeny:
    return parse(Path(path).read_text())


def write_tree(path: str | Path, tree: Phylogeny) -> None:
    Path(path).write_text(serialize(tree) + "\n")
