"""Benchmark of nnidist: one workload, one process, one thread, a closed loop.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run builds the workload's instances from the seed, then
handles them one at a time, round after round over the same set, until
``--seconds`` have passed.  One operation takes one instance from Newick
text through the solve, the trace write and the trace check (and on
``exact_small`` also the exact search); the benchmark's own checks run on
every operation outside the timed region.  Times are wall seconds scaled
to a reference speed of the machine (see calibration.py).

The last line printed is a JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from checks import CheckError, Outcome, check  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

LAYER_SECONDS = {
    "goodpairs.find_s": "goodpairs.find",
    "goodpairs.decompose_s": "goodpairs.decompose",
    "linearize.linearize_s": "linearize.linearize",
    "edgesort.merge_sort_s": "edgesort.merge_sort",
    "leafsort.sort_leaves_s": "leafsort.sort_leaves",
    "runtime.round_s": "runtime.round",
    "balance.build_s": "balance.build",
    "balance.check_s": "balance.check",
    "pipeline.approx_nni_s": "pipeline.approx_nni",
    "nni.verify_transform_s": "nni.verify_transform",
    "nni.apply_sequence_s": "nni.apply_sequence",
    "nni.trace_lines_s": "nni.trace_lines",
    "nni.check_trace_s": "nni.check_trace",
    "newick.parse_s": "newick.parse",
    "newick.serialize_s": "newick.serialize",
    "phylo.finiteness_check_s": "phylo.finiteness_check",
    "phylo.copy_s": "phylo.copy",
    "phylo.canonical_equal_s": "phylo.canonical_equal",
    "exact.exact_dnni_s": "exact.exact_dnni",
    "exact.neighbors_s": "exact.neighbors",
}
LAYER_CALLS = {
    "newick.parse_calls": "newick.parse",
    "newick.serialize_calls": "newick.serialize",
    "phylo.copy_calls": "phylo.copy",
    "exact.expanded": "exact.neighbors",
}
LAYER_COUNTS = ("goodpairs.pairs", "goodpairs.components", "linearize.ops",
                "edgesort.ops", "leafsort.ops", "runtime.rounds", "runtime.work")


def time_import() -> float:
    """Seconds to import the package, in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import nnidist, nnidist.gen; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


class Round:
    """Sums over one pass through the instance set."""

    def __init__(self) -> None:
        self.solve_s = self.trace_write_s = self.trace_check_s = 0.0
        self.attempted = self.failed = self.ops = 0
        self.cost = self.w = self.approx_on_exact = self.distance = Fraction(0)
        self.errors: list[str] = []     # operations that raised
        self.wrong: list[str] = []      # answers that failed a check


def _solve(workload: str, inst):
    """The timed answer: both parses, the approximation, on exact_small the exact search."""
    from nnidist import exact, newick, pipeline

    p1, p2 = newick.parse(inst.text1), newick.parse(inst.text2)
    result = pipeline.approx_nni(p1, p2)
    solved = exact.exact_dnni(p1, p2) if workload == "exact_small" else None
    return p1, p2, result, solved


def _stage(probe, tracer, step):
    """Run ``step`` as one timed part of ``probe``: (its result, reference seconds)."""
    mark = tracer.mark()
    out = step()
    seconds, factor = probe.lap()
    tracer.rescale(mark, factor)
    return out, seconds


def run_round(workload: str, instances, tracer) -> Round:
    from nnidist import goodpairs, nni

    trace_file = OUT / f"trace-{workload}.jsonl"
    rnd = Round()
    for k, inst in enumerate(instances):
        rnd.attempted += 1
        # collect the previous checks' garbage now, so that the collections
        # inside the timed region are the program's own
        gc.collect()
        try:
            with calibration.SpeedProbe() as probe:
                (p1, p2, result, solved), solve_s = _stage(
                    probe, tracer, lambda: _solve(workload, inst))
                _, write_s = _stage(
                    probe, tracer, lambda: nni.write_trace(trace_file, p1, p2, result.sequence))
                verdict, check_s = _stage(
                    probe, tracer, lambda: nni.check_trace(trace_file, p1, p2))
        except Exception as exc:  # a failed operation is counted, not fatal
            rnd.failed += 1
            rnd.errors.append(f"instance {k}: {type(exc).__name__}: {exc}")
            continue
        rnd.solve_s += solve_s
        rnd.trace_write_s += write_s
        rnd.trace_check_s += check_s

        active, tracer.active = tracer.active, False
        try:
            out = Outcome(result, goodpairs.find_good_edge_pairs(p1, p2).pairs,
                          trace_file.read_text(), verdict, solved)
            tally = check(inst, p1, p2, out, no_pairs=workload == "one_component")
        except CheckError as exc:
            rnd.wrong.append(f"instance {k}: check failed: {exc}")
            continue
        finally:
            tracer.active = active
        rnd.ops += tally.ops
        rnd.cost += tally.cost
        rnd.w += tally.w
        if tally.distance is not None:
            rnd.approx_on_exact += tally.cost
            rnd.distance += tally.distance
    return rnd


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nnidist" / "__init__.py").is_file():
        print(f"no nnidist sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    imports = []
    for _ in range(SETUP_REPEATS):
        with calibration.SpeedProbe() as probe:
            seconds = time_import()
            imports.append(seconds * probe.lap()[1])
    from tracing import Tracer, install

    tracer = Tracer()
    if args.trace:
        install(tracer)
    tracer.active = bool(args.trace)
    builds = []
    for _ in range(SETUP_REPEATS):
        with calibration.SpeedProbe() as probe:
            instances, seconds = _stage(probe, tracer, lambda: build(args.workload, args.seed))
        builds.append(seconds)
    generate_s = tracer.seconds["gen.generate_pair"] / SETUP_REPEATS
    tracer.active = False
    tracer.reset()
    OUT.mkdir(exist_ok=True)

    untraced = run_round(args.workload, instances, tracer) if args.trace else None
    tracer.active = bool(args.trace)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(args.workload, instances, tracer))
    tracer.active = False

    wrong = [e for r in rounds for e in r.wrong]
    for line in [e for r in rounds for e in r.errors + r.wrong][:20]:
        print(line, file=sys.stderr)
    first = rounds[0]

    def median(attr):
        return statistics.median(getattr(r, attr) for r in rounds)

    if args.trace:
        n = len(rounds)
        metrics = {"gen.generate_pair_s": (generate_s, "s")}
        metrics.update({name: (tracer.seconds[span] / n, "s") for name, span in LAYER_SECONDS.items()})
        metrics["pipeline.self_s"] = (tracer.self_seconds["pipeline.approx_nni"] / n, "s")
        metrics.update({name: (tracer.calls[span] // n, "count") for name, span in LAYER_CALLS.items()})
        metrics.update({name: (tracer.counts[name] // n, "count") for name in LAYER_COUNTS})
        metrics["goodpairs.largest_component_taxa"] = (
            tracer.peaks["goodpairs.largest_component_taxa"], "count")
        ratio = first.approx_on_exact / first.distance if first.distance else 0
        metrics["exact.approx_over_opt"] = (float(ratio), "ratio")
        metrics["tracing.solve_untraced_s"] = (untraced.solve_s, "s")
        metrics["tracing.solve_traced_s"] = (median("solve_s"), "s")
        metrics["tracing.overhead_s"] = (median("solve_s") - untraced.solve_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
            "solve_s": (median("solve_s"), "s"),
            "trace_write_s": (median("trace_write_s"), "s"),
            "trace_check_s": (median("trace_check_s"), "s"),
            "ops": (first.ops, "count"),
            "cost_per_w": (float(first.cost / first.w) if first.w else 0.0, "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    report = {
        "correct": not wrong,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(report)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
