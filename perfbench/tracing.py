"""Spans around uqgraph's public functions, installed from the benchmark.

`Tracer.install` replaces each traced function in every uqgraph module that
holds it, because `cli`, `chi`, `construction` and `spectral` import names
directly, and `uninstall` puts the originals back. Each call records a span
(name, start, end, parent, and the id of the CLI command it belongs to) in
memory. The FieldCtx scalar methods run once per field element, so they
are counted and timed instead of getting a span each. tracemalloc runs only
inside the first span per arguments of the functions whose peak memory is
reported.
"""

from __future__ import annotations

import importlib
import tracemalloc
from time import perf_counter

SCALAR_METHODS = ("add", "sub", "neg", "mul", "pow", "inv", "quadratic_character", "abs_trace")
TABLE_METHODS = ("digits_matrix", "add_table", "square_vector", "trace_vector")
MODULES = ("field", "graph", "construction", "chi", "spectral", "cli")


class Span:
    __slots__ = ("id", "parent", "command", "name", "start", "end", "child_s", "attrs")

    def __init__(self, id_, parent, command, name):
        self.id, self.parent, self.command, self.name = id_, parent, command, name
        self.start = self.end = 0.0
        self.child_s = 0.0  # time covered by child spans and outermost scalar calls
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    def record(self) -> dict:
        return {"id": self.id, "parent": self.parent, "command": self.command,
                "name": self.name, "start": self.start, "end": self.end, **self.attrs}


class _CountingSink:
    """Forwards writes to a stream and counts the characters written."""

    def __init__(self, sink):
        self.sink = sink
        self.chars = 0

    def write(self, data):
        written = self.sink.write(data)
        self.chars += len(data)
        return written


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.command = None
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self.spectra = {}  # method -> eigenvalues, for the current command
        self._stack: list[Span] = []
        self._scalar_depth = 0
        self._memory_seen = set()
        self._patches = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.command, name)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.seconds

    def reset(self) -> None:
        """Forget spans and counters; a traced pass starts from zero."""
        self.spans = []
        self.scalar_calls = 0
        self.scalar_s = 0.0
        self._memory_seen = set()

    def _spanned(self, name, fn, measure=None, memory=False, sink_arg=None):
        def traced(*args, **kwargs):
            sink = None
            if sink_arg is not None:
                args = list(args)
                sink = args[sink_arg] = _CountingSink(args[sink_arg])
            # tracemalloc slows every allocation, so only the first call with
            # given arguments in a pass (the first build of each graph) pays it
            own_memory = memory and not tracemalloc.is_tracing()
            if own_memory:
                key = (name, repr(args))
                own_memory = key not in self._memory_seen
                self._memory_seen.add(key)
            if own_memory:
                tracemalloc.start()
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
                if own_memory:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if sink is not None:
                span.attrs["bytes"] = sink.chars
            if measure is not None:
                span.attrs.update(measure(result, *args, **kwargs))
            return result

        return traced

    def _counted(self, fn):
        def counted(*args, **kwargs):
            self.scalar_calls += 1
            if self._scalar_depth:
                self._scalar_depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._scalar_depth -= 1
            self._scalar_depth = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                self._scalar_depth = 0
                self.scalar_s += seconds
                if self._stack:
                    self._stack[-1].child_s += seconds

        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"uqgraph.{name}") for name in MODULES}
        field_ctx = modules["field"].FieldCtx
        for attr in SCALAR_METHODS:
            self._patch(field_ctx, attr, self._counted(getattr(field_ctx, attr)))
        for attr in TABLE_METHODS:
            self._patch(field_ctx, attr, self._spanned(f"field.{attr}", getattr(field_ctx, attr)))
        for module, attr, options in self._targets():
            original = getattr(modules[module], attr)
            replacement = self._spanned(f"{module}.{attr}", original, **options)
            for holder in modules.values():
                if getattr(holder, attr, None) is original:
                    self._patch(holder, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _targets(self):
        def edges(graph, *args, **kwargs):  # graph is build_graph's result
            return {"edges": graph.n_edges}

        def chi_result(result, graph, time_limit=None, node_limit=None):
            if node_limit is None:
                node_limit = importlib.import_module("uqgraph.chi").DEFAULT_NODE_LIMIT
            return {"nodes": result.nodes, "status": result.status, "node_limit": node_limit}

        def dense_kept(spectrum, *args, **kwargs):
            self.spectra["dense"] = spectrum.eigenvalues
            return {}

        def cayley_terms(spectrum, ctx, m=2, *args, **kwargs):
            self.spectra["cayley"] = spectrum.eigenvalues
            # N * |S| * m; the largest eigenvalue of the Cayley graph is |S|
            return {"terms": spectrum.n * round(spectrum.lambda1) * m}

        return [
            ("graph", "build_graph", {"measure": edges, "memory": True}),
            ("graph", "unit_circle", {}),
            ("graph", "triangle_count", {}),
            ("graph", "export_dimacs", {"sink_arg": 1}),
            ("construction", "make_plan", {}),
            ("construction", "build_coloring_md", {}),
            ("construction", "verify_coloring", {}),
            ("construction", "write_coloring", {}),
            ("construction", "read_coloring", {}),
            ("construction", "count_Aq", {}),
            ("chi", "exact_chromatic", {"measure": chi_result}),
            ("chi", "greedy_bound", {}),
            ("chi", "clique_lower", {}),
            ("spectral", "cayley_spectrum", {"measure": cayley_terms}),
            ("spectral", "dense_spectrum", {"measure": dense_kept, "memory": True}),
        ]

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over the spans recorded since the last reset."""
        by_id = {s.id: s for s in self.spans}
        sums, counts, attrs = {}, {}, {}
        for span in self.spans:
            sums[span.name] = sums.get(span.name, 0.0) + span.seconds
            counts[span.name] = counts.get(span.name, 0) + 1
            for key, value in span.attrs.items():
                attrs.setdefault((span.name, key), []).append(value)

        def total(name):
            return sums.get(name, 0.0)

        def values(name, key):
            return attrs.get((name, key), [])

        def peak_mib(name):
            return max(values(name, "peak_bytes"), default=0) / (1 << 20)

        table_names = {f"field.{attr}" for attr in TABLE_METHODS}
        tables = sum(s.seconds for s in self.spans if s.name in table_names
                     and (s.parent is None or by_id[s.parent].name not in table_names))
        chi_spans = [s for s in self.spans if s.name == "chi.exact_chromatic"]
        search_s = sum(s.self_s for s in chi_spans)
        nodes = sum(values("chi.exact_chromatic", "nodes"))
        return {
            "field.scalar.calls": self.scalar_calls,
            "field.scalar.s": self.scalar_s,
            "field.tables.s": tables,
            "graph.build_graph.s": total("graph.build_graph"),
            "graph.build_graph.calls": counts.get("graph.build_graph", 0),
            "graph.build_graph.peak_mb": peak_mib("graph.build_graph"),
            "graph.unit_circle.s": total("graph.unit_circle"),
            "graph.triangle_count.s": total("graph.triangle_count"),
            "graph.export_dimacs.s": total("graph.export_dimacs"),
            "graph.export_dimacs.bytes": sum(values("graph.export_dimacs", "bytes")),
            "graph.edges": sum(values("graph.build_graph", "edges")),
            "construction.make_plan.s": total("construction.make_plan"),
            "construction.build_coloring_md.s": total("construction.build_coloring_md"),
            "construction.verify_coloring.s": total("construction.verify_coloring"),
            "construction.write_coloring.s": total("construction.write_coloring"),
            "construction.read_coloring.s": total("construction.read_coloring"),
            "construction.count_Aq.s": total("construction.count_Aq"),
            "construction.count_Aq.calls": counts.get("construction.count_Aq", 0),
            "chi.exact_chromatic.s": total("chi.exact_chromatic"),
            "chi.greedy_bound.s": total("chi.greedy_bound"),
            "chi.clique_lower.s": total("chi.clique_lower"),
            "chi.search.s": search_s,
            "chi.nodes": nodes,
            "chi.nodes_per_s": nodes / search_s if search_s else 0.0,
            "chi.budget_hit": sum(1 for s in chi_spans if s.attrs["status"] == "bounded"
                                  and s.attrs["nodes"] >= s.attrs["node_limit"]),
            "spectral.cayley_spectrum.s": total("spectral.cayley_spectrum"),
            "spectral.cayley_spectrum.terms": sum(values("spectral.cayley_spectrum", "terms")),
            "spectral.dense_spectrum.s": total("spectral.dense_spectrum"),
            "spectral.dense_spectrum.peak_mb": peak_mib("spectral.dense_spectrum"),
            "cli.self_s": sum(s.self_s for s in self.spans if s.parent is None),
        }
