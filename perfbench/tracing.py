"""Per-layer spans, recorded from outside the program.

:func:`install` replaces the public functions of each nnidist module, in
every namespace the program looks them up in, by wrappers that time the
call and count its work.  Spans are aggregated in memory by name: total
time, self time (the part no wrapped callee covers), calls, and counts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._open: list[list[float]] = []   # callee time of each open span

    def reset(self) -> None:
        for c in (self.seconds, self.self_seconds, self.calls, self.counts, self.peaks):
            c.clear()

    def mark(self) -> tuple[Counter, Counter]:
        return Counter(self.seconds), Counter(self.self_seconds)

    def rescale(self, since: tuple[Counter, Counter], factor: float) -> None:
        """Multiply the span time recorded after the :meth:`mark` ``since`` by ``factor``."""
        for now, then in zip((self.seconds, self.self_seconds), since):
            for name in now:
                now[name] = then[name] + (now[name] - then[name]) * factor

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            inner = [0.0]
            self._open.append(inner)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += took
                self.seconds[name] += took
                self.self_seconds[name] += took - inner[0]
                self.calls[name] += 1
            if count is not None:
                count(self, args, out)
            return out

        return span


def _ops(key):
    def count(tracer, args, out):
        tracer.counts[key] += len(out.ops)
    return count


def _pairs(tracer, args, out):
    tracer.counts["goodpairs.pairs"] += len(out.pairs)


def _components(tracer, args, out):
    tracer.counts["goodpairs.components"] += len(out)
    largest = max(c1.n_taxa for c1, _ in out)
    tracer.peaks["goodpairs.largest_component_taxa"] = max(
        tracer.peaks["goodpairs.largest_component_taxa"], largest)


def _round(tracer, args, out):
    tasks = args[2]
    if tasks:
        tracer.counts["runtime.rounds"] += 1
        tracer.counts["runtime.work"] += len(tasks)


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points where the program calls them."""
    from nnidist import (balance, edgesort, exact, gen, goodpairs, leafsort,
                         linearize, newick, nni, phylo, pipeline, runtime)

    spans = [
        # span name, owner, attribute, namespaces it is looked up in, counter
        ("gen.generate_pair", gen, "generate_pair", [gen], None),
        ("newick.parse", newick, "parse", [newick], None),
        ("newick.serialize", newick, "serialize", [newick], None),
        ("pipeline.approx_nni", pipeline, "approx_nni", [pipeline], None),
        ("phylo.finiteness_check", phylo, "finiteness_check", [pipeline, goodpairs, exact], None),
        ("phylo.copy", phylo.Phylogeny, "copy", [phylo.Phylogeny], None),
        ("phylo.canonical_equal", phylo.Phylogeny, "canonical_equal", [phylo.Phylogeny], None),
        ("goodpairs.find", goodpairs, "find_good_edge_pairs", [pipeline], _pairs),
        ("goodpairs.decompose", goodpairs, "decompose", [pipeline], _components),
        ("linearize.linearize", linearize, "linearize", [pipeline], _ops("linearize.ops")),
        ("edgesort.merge_sort", edgesort, "merge_sort_edges", [pipeline], _ops("edgesort.ops")),
        ("leafsort.sort_leaves", leafsort, "sort_leaves", [pipeline], _ops("leafsort.ops")),
        ("balance.build", balance, "build_auxiliary", [pipeline], None),
        ("balance.check", balance, "check_auxiliary", [pipeline, balance], None),
        ("runtime.round", runtime.ParRuntime, "round", [runtime.ParRuntime], _round),
        ("nni.verify_transform", nni, "verify_transform", [pipeline, exact], None),
        ("nni.apply_sequence", nni, "apply_sequence", [pipeline], None),
        ("nni.trace_lines", nni, "trace_lines", [nni], None),
        ("nni.check_trace", nni, "check_trace", [nni], None),
        ("exact.exact_dnni", exact, "exact_dnni", [exact], None),
        ("exact.neighbors", exact, "neighbors", [exact], None),
    ]
    for name, owner, attr, namespaces, count in spans:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count)
        for ns in namespaces:
            if getattr(ns, attr) is not original:
                raise RuntimeError(f"{ns.__name__}.{attr} is not {name}")
            setattr(ns, attr, wrapped)
