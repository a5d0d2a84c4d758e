"""Span tracing from outside the package.

`traced(rec, namespaces)` replaces each function in TRACED, under its
name, in every package module and every given namespace that holds it,
so calls between modules are caught, and puts the originals back on
exit.  Each call records a span: name, start, end and the index of the
enclosing span.  The wrappers pass arguments and results through
untouched, so traced and untraced runs produce the same bytes.

`layer_metrics` turns the spans and the counts taken from returned
objects into the per-layer metrics listed in BENCHMARK.json.
"""

import math
import sys
import time
from contextlib import contextmanager

import erdos_rogers

# (module, attribute path) of every traced function.
TRACED = [
    ("efr", "efr_hypergraph"),
    ("efr", "efr_certificate"),
    ("hypergraphs", "hypergraph_is_linear"),
    ("hypergraphs", "hypergraph_is_triangle_free"),
    ("hypergraphs", "line_intersection_graph"),
    ("hypergraphs", "find_loose_cycles"),
    ("hypergraphs", "hypergraph_girth_at_least"),
    ("covers", "CliqueCover.edge_clique_map"),
    ("covers", "CliqueCover.validate"),
    ("blowup", "random_blowup"),
    ("blowup", "square_clique_cover"),
    ("blowup", "is_hom_free"),
    ("graphs", "triangle_witness"),
    ("graphs", "find_short_cycle"),
    ("graphs", "random_regular_bipartite"),
    ("graphs", "induced_subgraph"),
    ("subgraph", "contains_subgraph"),
    ("search", "max_f_free_subset"),
    ("search", "max_independent_set"),
    ("search", "list_k_cycles"),
    ("pipelines", "random_girth_hypergraph"),
    ("pipelines", "canonical_form"),
    ("pipelines", "gfree_graph_reps"),
    ("pipelines", "brute_force_f"),
    ("pipelines", "theorem1_build"),
    ("pipelines", "theorem4_part1_build"),
    ("pipelines", "theorem4_part2_build"),
    ("pipelines", "ckfree_subset"),
    ("certificates", "Certificate.to_json_bytes"),
]


class Recorder:
    """Spans of one traced pass, plus counts read off returned objects."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [name, time.perf_counter(), 0.0, parent]
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        _count(self, name, args, result)
        return result

    def self_and_total(self):
        """{name: [self seconds, inclusive seconds, calls]}.  No traced
        function calls itself, so inclusive times of one name never nest."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, [0.0, 0.0, 0])
            row[0] += end - start - child[i]
            row[1] += end - start
            row[2] += 1
        return out


def _count(rec, name, args, result):
    if name == "subgraph.contains_subgraph":
        rec.add("subgraph.contains_subgraph.nodes", result.nodes)
        rec.add("subgraph.contains_subgraph.unknown", result.status == "unknown")
    elif name == "search.max_f_free_subset":
        rec.add("search.max_f_free_subset.nodes", result.nodes)
        rec.add("search.max_f_free_subset.lower_bound", result.status == "lower-bound")
    elif name == "search.max_independent_set":
        rec.add("search.max_independent_set.nodes", result.nodes)
    elif name == "efr.efr_hypergraph":
        rec.add("hypergraphs.hyperedges", result.hypergraph.m)
    elif name == "pipelines.random_girth_hypergraph":
        t, r = args[0], args[1]
        rec.add("rng.draws", math.comb(t, r))
        rec.add("girth.initial_edges", result[1].initial_edges)
    elif name == "pipelines.gfree_graph_reps":
        counts = result[2]
        # level `size` augments every representative on `size` vertices
        # by each of the 2^size neighbourhoods of the new vertex
        rec.add("pipelines.gfree_graph_reps.candidates",
                sum(c << size for size, c in enumerate(counts[:-1], start=1)))
        rec.add("gfree.kept", sum(counts[1:]))
    elif name == "certificates.Certificate.to_json_bytes":
        rec.add("certificates.bytes", len(result))


def _resolve(module_name, path):
    module = getattr(erdos_rogers, module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def traced(rec, namespaces):
    """Wrap every TRACED function in the package modules and in the given
    extra namespaces (module objects) for the duration of the block."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "erdos_rogers"]
    modules += list(namespaces)
    undo = []
    for module_name, path in TRACED:
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        name = f"{module_name}.{path}"
        wrapper = _wrap(rec, name, original)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for m in modules if vars(m).get(attr) is original]
        for target in targets:
            undo.append((target, attr, original))
            setattr(target, attr, wrapper)
    try:
        yield rec
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def _wrap(rec, name, fn):
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = fn.__doc__
    return wrapper


SELF_TIMED = [f"{module}.{path}" for module, path in TRACED]


def layer_metrics(rec):
    """Per-layer metrics of one traced pass; functions the workload never
    calls read 0."""
    table = rec.self_and_total()

    def self_s(name):
        return table.get(name, [0.0, 0.0, 0])[0]

    def total_s(name):
        return table.get(name, [0.0, 0.0, 0])[1]

    def calls(name):
        return table.get(name, [0.0, 0.0, 0])[2]

    c = rec.counts.get
    out = {f"{name}.self_s": (self_s(name), "s") for name in SELF_TIMED}
    draws = c("rng.draws", 0)
    girth_s = self_s("pipelines.random_girth_hypergraph")
    mff_nodes = c("search.max_f_free_subset.nodes", 0)
    mff_ms = total_s("search.max_f_free_subset") * 1000.0
    candidates = c("pipelines.gfree_graph_reps.candidates", 0)
    out.update({
        "hypergraphs.hyperedges": (c("hypergraphs.hyperedges", 0), "count"),
        "hypergraphs.find_loose_cycles.calls": (calls("hypergraphs.find_loose_cycles"), "count"),
        "graphs.find_short_cycle.calls": (calls("graphs.find_short_cycle"), "count"),
        "graphs.induced_subgraph.calls": (calls("graphs.induced_subgraph"), "count"),
        "rng.draws": (draws, "count"),
        "rng.draws_per_s": (draws / girth_s if girth_s else 0.0, "1/s"),
        "pipelines.random_girth_hypergraph.edges_per_draw": (
            c("girth.initial_edges", 0) / draws if draws else 0.0, "ratio"),
        "subgraph.contains_subgraph.calls": (calls("subgraph.contains_subgraph"), "count"),
        "subgraph.contains_subgraph.nodes": (c("subgraph.contains_subgraph.nodes", 0), "count"),
        "subgraph.contains_subgraph.unknown": (c("subgraph.contains_subgraph.unknown", 0), "count"),
        "search.max_f_free_subset.nodes": (mff_nodes, "count"),
        "search.max_f_free_subset.nodes_per_ms": (mff_nodes / mff_ms if mff_ms else 0.0, "1/ms"),
        "search.max_f_free_subset.lower_bound": (c("search.max_f_free_subset.lower_bound", 0), "count"),
        "search.max_independent_set.nodes": (c("search.max_independent_set.nodes", 0), "count"),
        "pipelines.canonical_form.calls": (calls("pipelines.canonical_form"), "count"),
        "pipelines.gfree_graph_reps.candidates": (candidates, "count"),
        "pipelines.gfree_graph_reps.kept_per_candidate": (
            c("gfree.kept", 0) / candidates if candidates else 0.0, "ratio"),
        "certificates.bytes": (c("certificates.bytes", 0), "B"),
    })
    return out
