"""Command-line interface.

Exit codes: 0 on success, 1 when a verification or distance computation
fails, 2 on usage errors (bad arguments, unreadable or malformed input, an
output file that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from nnidist import newick
from nnidist.exact import DEFAULT_MAX_TAXA, DEFAULT_STATE_LIMIT, StateLimitError, exact_dnni
from nnidist.gen import generate_pair
from nnidist.goodpairs import decompose, find_good_edge_pairs
from nnidist.nni import check_trace, trace_lines, write_trace
from nnidist.phylo import Phylogeny, TreeError
from nnidist.pipeline import approx_nni


class _UsageError(Exception):
    pass


def _load_tree(path: str) -> Phylogeny:
    try:
        return newick.read_tree(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not text: {exc}") from exc
    except (newick.ParseError, TreeError) as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _cmd_approx(args: argparse.Namespace) -> int:
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    result = approx_nni(t1, t2)
    if args.trace:
        write_trace(args.trace, t1, t2, result.sequence)
    if args.report_metrics:
        Path(args.report_metrics).write_text(
            json.dumps(result.metrics, indent=2, sort_keys=True) + "\n"
        )
    print(json.dumps(result.as_dict(), sort_keys=True))
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    taxa = max(t1.n_taxa, t2.n_taxa)
    if taxa > args.max_taxa:
        print(f"error: {taxa} taxa is more than the exact search's cap of {args.max_taxa} "
              "(--max-taxa)", file=sys.stderr)
        return 1
    distance, witness = exact_dnni(t1, t2, state_limit=args.state_limit)
    print(json.dumps({"distance": newick.format_weight(distance)}))
    for line in trace_lines(t1, t2, witness):
        print(line)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    try:
        ok, cost, reason = check_trace(args.trace, t1, t2)
    except OSError as exc:
        raise _UsageError(f"cannot read {args.trace}: {exc}") from exc
    if not ok:
        print(f"verification failed: {reason}", file=sys.stderr)
        return 1
    print(json.dumps({"ok": True, "cost": newick.format_weight(cost)}))
    return 0


def _cmd_gep(args: argparse.Namespace) -> int:
    t1 = _load_tree(args.tree1)
    t2 = _load_tree(args.tree2)
    pair_set = find_good_edge_pairs(t1, t2)
    parts = decompose(t1, t2, pair_set)
    manifest = []
    for c1, _ in parts:
        taxa = sorted(lab for lab in c1.taxa() if not lab.startswith(":"))
        manifest.append({"size": c1.n_taxa, "taxa": taxa})
    payload = {
        "pairs": [
            {
                "t1_edge": e1,
                "t2_edge": e2,
                "weight": newick.format_weight(t1.weight(e1)),
            }
            for e1, e2 in pair_set.pairs
        ],
        "components": manifest,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.taxa == 3 and args.moves:
        raise _UsageError("--moves must be 0 for --taxa 3: a 3-taxon tree has no internal edge")
    t1, t2, cost = generate_pair(
        seed=args.seed, n=args.taxa, moves=args.moves, dup_weights=args.dup_weights
    )
    newick.write_tree(args.out1, t1)
    newick.write_tree(args.out2, t2)
    print(
        json.dumps(
            {
                "out1": args.out1,
                "out2": args.out2,
                "cost_upper_bound": newick.format_weight(cost),
            }
        )
    )
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnidist",
        description="Approximate NNI distances between weighted phylogenies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="run the approximation pipeline")
    p.add_argument("tree1")
    p.add_argument("tree2")
    p.add_argument("--trace", help="write the operation sequence as JSON lines")
    p.add_argument("--report-metrics", help="write runtime metrics as JSON")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("exact", help="exact distance by A* search (small trees only)")
    p.add_argument("tree1")
    p.add_argument("tree2")
    p.add_argument(
        "--state-limit",
        type=_int_at_least(1),
        default=DEFAULT_STATE_LIMIT,
        help="give up (exit 1) once the A* search has settled more than this many "
        "distinct trees without reaching tree2 (default: %(default)s)",
    )
    p.add_argument(
        "--max-taxa",
        type=_int_at_least(3),
        default=DEFAULT_MAX_TAXA,
        help="refuse (exit 1) a pair with more taxa than this before searching "
        "(default: %(default)s)",
    )
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("verify", help="replay a trace between two trees")
    p.add_argument("tree1")
    p.add_argument("trace")
    p.add_argument("tree2")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gep", help="list good edge pairs and components")
    p.add_argument("tree1")
    p.add_argument("tree2")
    p.set_defaults(fn=_cmd_gep)

    p = sub.add_parser("gen", help="generate a random tree pair")
    p.add_argument("--taxa", type=_int_at_least(3), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--moves", type=_int_at_least(0), required=True)
    p.add_argument("--dup-weights", action="store_true")
    p.add_argument("--out1", default="t1.nwk")
    p.add_argument("--out2", default="t2.nwk")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, OSError) as exc:
        # reads wrap their OSError in a _UsageError, so this one is a write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
