"""Weighted-phylogeny NNI distance toolkit.

Approximate and exact minimum-cost nearest-neighbor-interchange sequences
between edge-weighted phylogenies, plus the supporting machinery: Newick
I/O with exact decimal lengths, replayable operation traces, a good-edge-pair
decomposition, and per-phase counters that record the paper's CRCW-PRAM
schedule of the parallel phases (rounds = span, tasks = work), not what
Python executes.
"""

from nnidist.exact import exact_dnni
from nnidist.goodpairs import decompose, find_good_edge_pairs, lower_bound
from nnidist.nni import NniOp, apply_nni, apply_sequence, verify_transform
from nnidist.phylo import NodeClass, Phylogeny, TreeError, finiteness_check
from nnidist.pipeline import ApproxResult, approx_nni
from nnidist.runtime import ParRuntime

__all__ = [
    "ApproxResult",
    "NodeClass",
    "NniOp",
    "ParRuntime",
    "Phylogeny",
    "TreeError",
    "approx_nni",
    "apply_nni",
    "apply_sequence",
    "decompose",
    "exact_dnni",
    "find_good_edge_pairs",
    "finiteness_check",
    "lower_bound",
    "verify_transform",
]
