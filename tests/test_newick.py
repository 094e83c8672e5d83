"""Newick parsing, canonical serialization, exact decimal weights."""

import random
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from nnidist import newick
from nnidist.gen import generate_pair
from nnidist.newick import (
    MAX_WEIGHT_DIGITS,
    ParseError,
    format_weight,
    parse,
    parse_weight,
    serialize,
)
from nnidist.nni import check_trace, trace_lines
from nnidist.phylo import TreeError

from oracles import (
    caterpillar,
    parse_by_characters,
    random_phylogeny,
    splits_by_removal,
    weighted_splits,
)

# Hypothesis caches the constants of local source files while the tests are
# collected; keep that cache out of the working tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "nnidist-hypothesis")


def test_parse_simple_quartet():
    t = parse("(a:1,b:2,(c:3,d:4):5);")
    assert t.taxa() == ("a", "b", "c", "d")
    assert t.leaf_weight_map() == {"a": 1, "b": 2, "c": 3, "d": 4}
    assert weighted_splits(t) == {frozenset({"c", "d"}): Fraction(5)}


def test_parse_numbers_nodes_in_preorder_and_edges_as_lengths_are_read():
    # trace files name these ids, so the numbering is part of the format
    t = parse("((a:1,b:2):3,c:4,(d:5,e:6):7);")
    assert {e: t.endpoints(e) for e in t.edge_ids()} == {
        0: (1, 2), 1: (1, 3), 2: (0, 1), 3: (0, 4), 4: (5, 6), 5: (5, 7), 6: (0, 5),
    }
    assert {s: t.leaf_node(s) for s in t.taxa()} == {"a": 2, "b": 3, "c": 4, "d": 6, "e": 7}


def test_parse_decimal_weights():
    t = parse("(a:0.5,b:12.25,c:3);")
    assert t.leaf_weight_map() == {
        "a": Fraction(1, 2),
        "b": Fraction(49, 4),
        "c": Fraction(3),
    }


def test_binary_root_is_suppressed():
    t = parse("((a:1,b:2):3,(c:4,d:5):6);")
    # the two root edges merge into one internal edge of weight 9
    assert weighted_splits(t) == {frozenset({"c", "d"}): Fraction(9)}
    assert t.leaf_weight_map() == {"a": 1, "b": 2, "c": 4, "d": 5}


def test_parse_allows_whitespace_between_tokens():
    t = parse("(a:1, b:2, (c:3, d:4):5);\n")
    assert t.taxa() == ("a", "b", "c", "d")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(a:1,b:2,c:3)",            # missing ;
        "(a:1,b:2,c:3);x",          # trailing garbage
        "(a:1,b:2,c);",             # leaf without length
        "(a:1,b:2,(c:3,d:4));",     # internal edge without length
        "(a:1,b:2,c:-3);",          # signed length
        "(a:1,b:2,c:0);",           # zero length
        "(a:1,b:2,c:0.000);",       # zero length in decimal clothing
        "(a:1,b:2,c:1e3);",         # exponent notation
        "(a:1,b:2,c:1.2.3);",       # two dots
        "(a:1,b:2,c:.);",           # no digits
        "(a:1,b:2,c:\u00b2);",       # superscript two: isdigit() but not int()
        "(a:1,b:2,c:\u0661);",       # Arabic-Indic one: int() reads it as 1
        "(a:1;b:2,c:3);",           # stray ;
        "(a:1,b:2,(c:3):4);",       # one-child internal node
        "((a:1,b:2,c:3):4,d:5);",   # three-child internal (non-root)
        "(a:1,b:2,c:3,d:4);",       # four-child root
        "(a:1);",                   # one-child root
        "(a:1,b:2,(c:3,d:4):5",     # unbalanced
        "(a:1,a:2,c:3);",           # duplicate taxa
        "(a:1,b:2,:5:3);",          # a length where a label belongs
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse("(a:1,b:2,c:0);")
    assert info.value.offset == 11
    assert "positive" in info.value.message


@pytest.mark.parametrize(
    "text,expected",
    [
        ("7", Fraction(7)),
        ("0.25", Fraction(1, 4)),
        ("10.100", Fraction(101, 10)),
        (".5", Fraction(1, 2)),
        ("3.", Fraction(3)),
    ],
)
def test_parse_weight_values(text, expected):
    assert parse_weight(text) == expected


def test_parse_weight_takes_lengths_up_to_the_digit_limit():
    assert parse_weight("9" * MAX_WEIGHT_DIGITS) == 10**MAX_WEIGHT_DIGITS - 1
    tiny = "." + "0" * (MAX_WEIGHT_DIGITS - 1) + "1"
    assert parse_weight(tiny) == Fraction(1, 10**MAX_WEIGHT_DIGITS)
    # zeros that do not change the value do not count
    assert parse_weight("0" * 5000 + "1.1" + "0" * 5000) == Fraction(11, 10)


@pytest.mark.parametrize(
    "text",
    [
        f"(a:1.{'1' * 5000},b:1,c:1);",
        f"(a:{'1' * 5000},b:1,c:1);",
        f"(a:{'1' * 4000}.{'1' * 4000},b:1,c:1);",
        f"((a:1,b:1):{'9' * 4300},(c:1,d:1):{'9' * 4300},e:1);",
        f"(a:{'1' * MAX_WEIGHT_DIGITS}1,b:1,c:1);",
        # each root length fits, but the edge they merge into is 10**1000
        f"((a:1,b:1):{'9' * MAX_WEIGHT_DIGITS},(c:1,d:1):1);",
    ],
    ids=["long-fraction", "long-integer", "long-both", "two-long-internal", "one-over",
         "long-merged-root"],
)
def test_parse_rejects_a_too_long_length(text):
    with pytest.raises(ParseError, match=f"more than {MAX_WEIGHT_DIGITS} digits"):
        parse(text)


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(5), "5"),
        (Fraction(13, 4), "3.25"),
        (Fraction(1, 10), "0.1"),
        (Fraction(1, 8), "0.125"),
        (Fraction(101, 10), "10.1"),
        (Fraction(1200), "1200"),
    ],
)
def test_format_weight_values(value, expected):
    assert format_weight(value) == expected


def test_format_weight_rejects_non_decimal():
    with pytest.raises(TreeError, match="weight 1/3"):
        format_weight(Fraction(1, 3))


def test_serialize_is_canonical_for_quartet():
    # same tree, different construction orders, same bytes
    a = parse("(a:1,b:2,(c:3,d:4):5);")
    b = parse("((d:4,c:3):2.5,(b:2,a:1):2.5);")
    assert serialize(a) == "(a:1,b:2,(c:3,d:4):5);"
    assert serialize(b) == serialize(a)


def test_round_trip_random_trees():
    rng = random.Random(411)
    for _ in range(25):
        t = random_phylogeny(rng, rng.randint(3, 30))
        text = serialize(t)
        u = parse(text)
        assert t.canonical_equal(u)
        assert serialize(u) == text
        assert splits_by_removal(u) is not None  # sanity: parse yields a real tree


def test_file_round_trip(tmp_path):
    rng = random.Random(412)
    t = random_phylogeny(rng, 9)
    path = tmp_path / "t.nwk"
    newick.write_tree(path, t)
    assert newick.read_tree(path).canonical_equal(t)
    assert path.read_text().endswith(");\n")


def test_deep_caterpillar_round_trips_and_traces(tmp_path):
    # 3000 nested parentheses: reading, writing and tracing use no recursion
    t = caterpillar(3000)
    text = serialize(t)
    u = parse(text)
    assert serialize(u) == text
    assert u.canonical_equal(t)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(trace_lines(t, t, [])) + "\n")
    assert check_trace(path, t, t) == (True, Fraction(0), None)


# ----------------------------------------------------------------------
# the token parser against the character-by-character reader

# length spellings, so that values repeat and fractional lengths appear in
# several spellings of one value
LENGTHS = ["1", "2", "2.5", "2.50", "02.5", "0.125", ".5", "3.", "10", "7"]
SPACES = ["", "", "", " ", "  ", "\t", "\n", "\u00a0", " \r\n"]
EDITS = list("(),:;0123456789. ") + ["\u00b2", "\u00a0"]


def top_level_children(text):
    """The child texts of a serialized tree's root, lengths included."""
    depth, start, out = 0, 1, []
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if (c == "," and depth == 1) or (c == ")" and depth == 0):
            out.append(text[start:i])
            start = i + 1
    return out


@st.composite
def newick_texts(draw):
    """A generator tree as Newick text, reshaped, respelled and spaced at random."""
    n = draw(st.integers(3, 14))
    seed = draw(st.integers(0, 10**6))
    tree, _, _ = generate_pair(seed, n, 0, dup_weights=draw(st.booleans()))
    text = serialize(tree)
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        # every length respelled from a small pool: repeated and fractional
        text = re.sub(r"(?<=:)[0-9.]+", lambda m: rng.choice(LENGTHS), text)
    if draw(st.booleans()):
        # the root's first two children under a new node: a two-child root
        a, b, c = top_level_children(text)
        text = f"(({a},{b}):{rng.choice(LENGTHS)},{c});"
    # whitespace between tokens, never inside a label or a length
    pieces = re.split(r"([(),:;])", text)
    text = "".join(p + rng.choice(SPACES) for p in pieces if p)
    return rng.choice(SPACES) + text


def parsed(parse_fn, text):
    """The tables ``parse_fn`` builds from ``text`` item for item, or the error type."""
    try:
        tree = parse_fn(text)
    except ParseError:
        return ParseError
    return [list(tree._ends.items()), list(tree._wt.items()), list(tree._leaf_label.items())]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=newick_texts())
def test_parse_builds_the_tables_the_character_reader_builds(text):
    got = parsed(parse, text)
    assert got is not ParseError
    assert got == parsed(parse_by_characters, text)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(
    text=newick_texts(),
    edit=st.sampled_from(["insert", "delete", "replace"]),
    where=st.floats(0, 1, exclude_max=True),
    char=st.sampled_from(EDITS),
)
def test_parse_accepts_and_refuses_one_edit_as_the_character_reader_does(
    text, edit, where, char
):
    i = int(where * len(text))
    if edit == "insert":
        text = text[:i] + char + text[i:]
    elif edit == "delete":
        text = text[:i] + text[i + 1:]
    else:
        text = text[:i] + char + text[i + 1:]
    assert parsed(parse, text) == parsed(parse_by_characters, text)
