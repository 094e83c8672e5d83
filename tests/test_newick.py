"""Newick parsing, canonical serialization, exact decimal weights."""

import random
from fractions import Fraction

import pytest

from nnidist import newick
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
    random_phylogeny,
    splits_by_removal,
    weighted_splits,
)


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
