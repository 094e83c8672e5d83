"""CLI behavior: subcommands, exit codes, and file outputs."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nnidist import cli, newick
from nnidist.cli import main
from nnidist.exact import DEFAULT_MAX_TAXA, DEFAULT_STATE_LIMIT
from nnidist.gen import generate_pair


@pytest.fixture
def pair_files(tmp_path):
    t1, t2, cost = generate_pair(seed=4, n=10, moves=12)
    p1 = tmp_path / "a.nwk"
    p2 = tmp_path / "b.nwk"
    newick.write_tree(p1, t1)
    newick.write_tree(p2, t2)
    return str(p1), str(p2), cost


def test_approx_writes_a_verifiable_trace(pair_files, tmp_path, capsys):
    p1, p2, _ = pair_files
    trace = str(tmp_path / "trace.jsonl")
    assert main(["approx", p1, p2, "--trace", trace]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert Fraction(summary["cost"]) >= Fraction(summary["lower_bound"]) > 0
    assert main(["verify", p1, trace, p2]) == 0


def test_approx_metrics_report(pair_files, tmp_path):
    p1, p2, _ = pair_files
    report = tmp_path / "metrics.json"
    assert main(["approx", p1, p2, "--report-metrics", str(report)]) == 0
    metrics = json.loads(report.read_text())
    assert metrics
    for phase in metrics.values():
        assert {"rounds", "work", "peak_parallelism"} <= set(phase)


def test_approx_traces_match_across_runs(pair_files, tmp_path):
    # two runs of the command write byte-identical traces
    p1, p2, _ = pair_files
    blobs = []
    for run in ("1", "2"):
        trace = tmp_path / f"t{run}.jsonl"
        assert main(["approx", p1, p2, "--trace", str(trace)]) == 0
        blobs.append(trace.read_bytes())
    assert blobs[0] == blobs[1]


def test_exact_prints_distance_and_witness(tmp_path, capsys):
    t1, t2, cost = generate_pair(seed=1, n=4, moves=1)
    p1 = tmp_path / "a.nwk"
    p2 = tmp_path / "b.nwk"
    newick.write_tree(p1, t1)
    newick.write_tree(p2, t2)
    assert main(["exact", str(p1), str(p2)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    distance = Fraction(json.loads(lines[0])["distance"])
    assert distance <= cost
    header = json.loads(lines[1])
    assert header["kind"] == "nni-trace"
    assert len(lines) == 2 + header["ops"]


def test_exact_state_limit_failure_exits_one(pair_files, capsys):
    p1, p2, _ = pair_files
    assert main(["exact", p1, p2, "--state-limit", "1"]) == 1
    assert "state" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_exact_state_limit_below_one_is_a_usage_error(pair_files, limit, capsys):
    p1, p2, _ = pair_files
    with pytest.raises(SystemExit) as err:
        main(["exact", p1, p2, "--state-limit", limit])
    assert err.value.code == 2
    assert "--state-limit" in capsys.readouterr().err


def test_exact_refuses_a_pair_above_the_taxa_cap_before_searching(pair_files, monkeypatch, capsys):
    p1, p2, _ = pair_files

    def no_search(*args, **kwargs):
        raise AssertionError("searched a pair above the cap")

    monkeypatch.setattr(cli, "exact_dnni", no_search)
    assert main(["exact", p1, p2, "--max-taxa", "9"]) == 1
    err = capsys.readouterr().err
    assert "10 taxa" in err and "cap of 9" in err and "--max-taxa" in err
    # the state limit still applies below the cap, and the default cap admits the pair
    assert DEFAULT_MAX_TAXA >= 10
    monkeypatch.undo()
    assert main(["exact", p1, p2, "--max-taxa", "10", "--state-limit", "1"]) == 1
    assert "settled more than 1 states" in capsys.readouterr().err


def test_exact_far_pair_exits_one_at_the_default_state_limit(tmp_path):
    # 3n moves apart, this 9-taxon pair needs 131,915 settled states, more
    # than the default limit: about 18 s and 610 MiB to reach the limit with
    # Python 3.11.  Under a 2 GiB address-space cap the search must stop at
    # the limit with exit 1 and say so, not run out of memory first
    resource = pytest.importorskip("resource")
    t1, t2, _ = generate_pair(seed=3, n=9, moves=27)
    p1, p2 = tmp_path / "a.nwk", tmp_path / "b.nwk"
    newick.write_tree(p1, t1)
    newick.write_tree(p2, t2)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-m", "nnidist.cli", "exact", str(p1), str(p2)],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=600)
    assert done.returncode == 1, done.stderr
    assert f"settled more than {DEFAULT_STATE_LIMIT} states" in done.stderr
    assert "Traceback" not in done.stderr and not done.stdout


def test_exact_takes_a_pair_at_the_taxa_cap(tmp_path, capsys):
    t1, t2, _ = generate_pair(seed=1, n=4, moves=1)
    p1, p2 = tmp_path / "a.nwk", tmp_path / "b.nwk"
    newick.write_tree(p1, t1)
    newick.write_tree(p2, t2)
    assert main(["exact", str(p1), str(p2), "--max-taxa", "4"]) == 0
    assert "distance" in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        main(["exact", str(p1), str(p2), "--max-taxa", "2"])
    assert err.value.code == 2
    assert "--max-taxa" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--trace", "--report-metrics"])
def test_approx_unwritable_output_is_a_usage_error(pair_files, tmp_path, flag, capsys):
    p1, p2, _ = pair_files
    out = str(tmp_path / "missing" / "out")
    assert main(["approx", p1, p2, flag, out]) == 2
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out1", "--out2"])
def test_gen_unwritable_output_is_a_usage_error(tmp_path, flag, capsys):
    out = {"--out1": str(tmp_path / "x.nwk"), "--out2": str(tmp_path / "y.nwk")}
    out[flag] = str(tmp_path / "missing" / "t.nwk")
    args = [a for pair in out.items() for a in pair]
    assert main(["gen", "--taxa", "4", "--moves", "1", *args]) == 2
    assert out[flag] in capsys.readouterr().err


def test_verify_rejects_a_wrong_target(pair_files, tmp_path, capsys):
    p1, p2, _ = pair_files
    trace = str(tmp_path / "trace.jsonl")
    assert main(["approx", p1, p2, "--trace", trace]) == 0
    capsys.readouterr()
    assert main(["verify", p1, trace, p1]) == 1
    assert "failed" in capsys.readouterr().err


def test_gep_reports_pairs_and_components(tmp_path, capsys):
    t1, _, _ = generate_pair(seed=2, n=8, moves=0)
    p1 = tmp_path / "a.nwk"
    newick.write_tree(p1, t1)
    assert main(["gep", str(p1), str(p1)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]) == len(t1.internal_edges())
    assert len(payload["components"]) == len(payload["pairs"]) + 1
    for pair in payload["pairs"]:
        assert pair["t1_edge"] == pair["t2_edge"]


def test_gen_then_exact_respects_move_budget(tmp_path, capsys):
    out1 = str(tmp_path / "x.nwk")
    out2 = str(tmp_path / "y.nwk")
    assert main(["gen", "--taxa", "4", "--seed", "6", "--moves", "1",
                 "--out1", out1, "--out2", out2]) == 0
    budget = Fraction(json.loads(capsys.readouterr().out)["cost_upper_bound"])
    assert main(["exact", out1, out2]) == 0
    first = capsys.readouterr().out.strip().splitlines()[0]
    assert Fraction(json.loads(first)["distance"]) <= budget


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.nwk")
    assert main(["gep", missing, missing]) == 2
    assert "error" in capsys.readouterr().err
    binary = tmp_path / "binary.nwk"
    binary.write_bytes(b"\xff\xfe(a:1,b:1,c:1);")
    for argv in (["approx"], ["exact"], ["gep"], ["verify", str(binary)]):
        assert main([*argv, str(binary), str(binary)]) == 2
        assert "is not text" in capsys.readouterr().err


def test_malformed_tree_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.nwk"
    bad.write_text("((a:1,b:2)")
    assert main(["gep", str(bad), str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    bad.write_text(f"(a:{'1' * 5000},b:1,c:1);")
    assert main(["approx", str(bad), str(bad)]) == 2
    assert f"more than {newick.MAX_WEIGHT_DIGITS} digits" in capsys.readouterr().err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"], ids=["superscript-two", "arabic-indic-one"])
def test_non_ascii_digit_length_is_a_usage_error(tmp_path, capsys, digit):
    bad = tmp_path / "bad.nwk"
    good = tmp_path / "good.nwk"
    bad.write_text(f"((a:1,b:1):{digit},c:1,d:1);\n", encoding="utf-8")
    good.write_text("((a:1,c:1):1,b:1,d:1);\n")
    assert main(["approx", str(bad), str(good)]) == 2
    assert "malformed branch length" in capsys.readouterr().err


def test_trees_with_lengths_at_the_digit_limit_solve_trace_and_print(tmp_path, capsys):
    # the longest lengths parse accepts, as large and as small as they go;
    # the cost and bound sum them and the exact search compares them
    big = "9" * newick.MAX_WEIGHT_DIGITS
    mid = "9" * (newick.MAX_WEIGHT_DIGITS // 2) + "." + "9" * (newick.MAX_WEIGHT_DIGITS // 2)
    tiny = "0." + "0" * (newick.MAX_WEIGHT_DIGITS - 1) + "1"
    a, b, trace = tmp_path / "a.nwk", tmp_path / "b.nwk", str(tmp_path / "t.jsonl")
    a.write_text(f"((a:{tiny},b:{big}):{big},(c:{mid},d:1):{tiny},e:{mid});")
    b.write_text(f"((a:{tiny},c:{mid}):{big},(b:{big},d:1):{tiny},e:{mid});")
    report = str(tmp_path / "m.json")
    assert main(["approx", str(a), str(b), "--trace", trace, "--report-metrics", report]) == 0
    cost = Fraction(json.loads(capsys.readouterr().out)["cost"])
    assert main(["verify", str(a), trace, str(b)]) == 0
    assert Fraction(json.loads(capsys.readouterr().out)["cost"]) == cost
    assert main(["exact", str(a), str(b)]) == 0
    assert Fraction(json.loads(capsys.readouterr().out.splitlines()[0])["distance"]) <= cost
    assert main(["gep", str(a), str(b)]) == 0


def test_infeasible_pair_exits_one(tmp_path, capsys):
    a = tmp_path / "a.nwk"
    b = tmp_path / "b.nwk"
    a.write_text("((x:1,y:1):3,(z:1,w:1):3);\n")
    b.write_text("((x:1,y:1):3,(z:1,w:1):5);\n")
    assert main(["approx", str(a), str(b)]) == 1
    assert "infinite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["approx", "exact", "gep"])
def test_taxon_set_mismatch_exits_one(tmp_path, capsys, command):
    a = tmp_path / "a.nwk"
    b = tmp_path / "b.nwk"
    a.write_text("(a:1,b:1,c:1);\n")
    b.write_text("((a:1,b:1):2,(c:1,d:1):2);\n")
    assert main([command, str(a), str(b)]) == 1
    err = capsys.readouterr().err
    assert "taxon sets differ" in err and "Traceback" not in err


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as err:
        main(["approx", "only-one-file"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "1"]])
def test_approx_rejects_removed_flags(pair_files, flag):
    p1, p2, _ = pair_files
    with pytest.raises(SystemExit) as err:
        main(["approx", p1, p2, *flag])
    assert err.value.code == 2


@pytest.mark.parametrize("flags", [["--taxa", "2", "--moves", "1"],
                                   ["--taxa", "5", "--moves", "-3"],
                                   ["--taxa", "five", "--moves", "1"]])
def test_gen_rejects_out_of_range_counts(tmp_path, flags, capsys):
    out = ["--out1", str(tmp_path / "x.nwk"), "--out2", str(tmp_path / "y.nwk")]
    with pytest.raises(SystemExit) as err:
        main(["gen", *flags, *out])
    assert err.value.code == 2
    assert "--" in capsys.readouterr().err
    assert not (tmp_path / "x.nwk").exists()


def test_gen_rejects_moves_on_three_taxa(tmp_path, capsys):
    out = ["--out1", str(tmp_path / "x.nwk"), "--out2", str(tmp_path / "y.nwk")]
    assert main(["gen", "--taxa", "3", "--moves", "1", *out]) == 2
    assert "--moves" in capsys.readouterr().err
    assert not (tmp_path / "x.nwk").exists()


def test_gen_accepts_the_smallest_counts(tmp_path):
    out = ["--out1", str(tmp_path / "x.nwk"), "--out2", str(tmp_path / "y.nwk")]
    assert main(["gen", "--taxa", "3", "--moves", "0", *out]) == 0


@pytest.fixture
def traced_pair(pair_files, tmp_path, capsys):
    p1, p2, _ = pair_files
    trace = tmp_path / "trace.jsonl"
    assert main(["approx", p1, p2, "--trace", str(trace)]) == 0
    capsys.readouterr()
    return p1, p2, trace


def _rewrite_record(trace, change):
    """Apply ``change`` to the first operation record of ``trace``."""
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[1])
    change(rec)
    lines[1] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")


def test_verify_ignores_a_blank_line(traced_pair, capsys):
    p1, p2, trace = traced_pair
    assert main(["verify", p1, str(trace), p2]) == 0
    clean = capsys.readouterr().out
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join([lines[0], lines[1], "", *lines[2:]]) + "\n")
    assert main(["verify", p1, str(trace), p2]) == 0
    assert capsys.readouterr().out == clean


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda rec: rec.update(e2=10**6), "invalid"),
        (lambda rec: rec.pop("u"), "bad operation record"),
        (lambda rec: rec.update(w=3), "bad operation record"),
        (lambda rec: rec.update(w="1..5"), "bad operation record"),
        (lambda rec: rec.update(u=rec["u"] + 0.5), "bad operation record"),
        (lambda rec: rec.update(e1=str(rec["e1"])), "bad operation record"),
        (lambda rec: rec.update(w="\u00b2"), "malformed branch length"),
        (lambda rec: rec.update(w="\u0661"), "malformed branch length"),
        # each half fits int(), but the value would not print in a mismatch message
        (lambda rec: rec.update(w="1" * 4000 + "." + "1" * 4000),
         f"more than {newick.MAX_WEIGHT_DIGITS} digits"),
    ],
    ids=["unknown-e2", "missing-u", "integer-w", "malformed-w", "fractional-u", "string-e1",
         "superscript-two-w", "arabic-indic-one-w", "long-w"],
)
def test_verify_reports_a_corrupt_record(traced_pair, capsys, change, reason):
    p1, p2, trace = traced_pair
    _rewrite_record(trace, change)
    assert main(["verify", p1, str(trace), p2]) == 1
    assert reason in capsys.readouterr().err


def test_verify_reports_a_deeply_nested_record(traced_pair, capsys):
    # behind a valid header, so the record is parsed: json.loads runs out of stack
    p1, p2, trace = traced_pair
    lines = trace.read_text().splitlines()
    trace.write_text("\n".join([lines[0], "[" * 200_000 + "]" * 200_000, *lines[2:]]) + "\n")
    assert main(["verify", p1, str(trace), p2]) == 1
    assert "verification failed: line 2: bad operation record" in capsys.readouterr().err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0661"], ids=["superscript-two", "arabic-indic-one"])
def test_verify_reports_a_non_ascii_digit_cost_in_the_written_spelling(traced_pair, capsys, digit):
    # unescaped, as trace_lines spells a record, so the reader's pattern takes it
    p1, p2, trace = traced_pair
    lines = trace.read_text().splitlines()
    lines[1] = re.sub(r'"w": "[^"]*"', f'"w": "{digit}"', lines[1])
    trace.write_text("\n".join(lines) + "\n")
    assert main(["verify", p1, str(trace), p2]) == 1
    assert "line 2: bad operation record: offset 0: malformed branch length" in capsys.readouterr().err


def test_verify_missing_trace_is_a_usage_error(pair_files, tmp_path, capsys):
    p1, p2, _ = pair_files
    assert main(["verify", p1, str(tmp_path / "nope.jsonl"), p2]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        b"\xff\xfe\x00",
        b"[]\n",
        b'{"kind": "nni-trace", "format": 1, "ops": 1}\n[1, 2]\n',
        b"[" * 5000 + b"]" * 5000 + b"\n",
        b'{"kind": "nni-trace", "format": 1, "ops": ' + b"1" * 5000 + b"}\n",
    ],
    ids=["not-utf8", "list-header", "list-record", "deep-header", "long-int-header"],
)
def test_verify_reports_a_corrupt_file(pair_files, tmp_path, capsys, text):
    p1, p2, _ = pair_files
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(text)
    assert main(["verify", p1, str(trace), p2]) == 1
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("ops", True), ("ops", 1.0), ("format", True), ("format", 1.0)],
    ids=["bool-ops", "float-ops", "bool-format", "float-format"],
)
def test_verify_rejects_a_non_integer_header_field(tmp_path, capsys, key, value):
    # a one-move pair, so both fields hold 1 and only their JSON type is wrong
    t1, t2, _ = generate_pair(seed=2, n=6, moves=1)
    p1, p2, trace = tmp_path / "a.nwk", tmp_path / "b.nwk", tmp_path / "trace.jsonl"
    newick.write_tree(p1, t1)
    newick.write_tree(p2, t2)
    assert main(["approx", str(p1), str(p2), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    assert header[key] == 1 and len(lines) == 2
    header[key] = value
    trace.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(["verify", str(p1), str(trace), str(p2)]) == 1
    assert f"header {key} {value!r} is not an integer" in capsys.readouterr().err
