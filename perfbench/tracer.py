"""Spans recorded around calls into earring's public functions.

The benchmark wraps module attributes from its own files; the program is
not changed.  Only functions called a bounded number of times per op are
wrapped: per-letter internals such as `Vertex.step` and `classify` are
left alone, so a traced op does the same work as an untraced one plus a
fixed cost per span.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of
the enclosing span in the same process (-1 at top level), `op` the id of
the benchmark op it belongs to.  Spans stay in memory until the process
hands them back.
"""

from __future__ import annotations

import functools
import time

# Module attributes wrapped in a traced process.  Names a module imports
# from another are wrapped there, so cross-layer calls show up: corefree
# -> words and lifting, cli -> corefree, lifting.in_k -> endpoint.  The
# words functions are not wrapped in their own module, because graph
# reaches them through `anchor` once per candidate island; the benchmark
# puts spans around its own calls to them instead.
WRAPPED = {
    "graph": ("survives", "island_of", "e_set"),
    "lifting": ("lift_word", "in_k", "endpoint"),
    "corefree": ("witness_conjugator", "core_free_scan", "index_of", "anchor",
                 "nth_word", "lift_word", "in_k"),
    "charts": ("q_point", "charts_containing", "local_inverse"),
}
# Span name for a wrapped attribute: the module that defines the function.
_HOME = {"index_of": "words", "anchor": "words", "nth_word": "words",
         "lift_word": "lifting", "in_k": "lifting", "endpoint": "lifting"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.op = -1

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        spans = self.spans
        idx = len(spans)
        spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self, earring) -> None:
        """Wrap the functions in WRAPPED on the loaded earring modules."""
        originals = {}
        for mod, names in WRAPPED.items():
            module = getattr(earring, mod)
            for attr in names:
                fn = getattr(module, attr)
                home = _HOME.get(attr, mod)
                key = f"{home}.{attr}"
                if key not in originals:
                    originals[key] = self.wrap(fn, key)
                setattr(module, attr, originals[key])


def self_times(spans: list) -> list:
    """Per span, its duration minus the durations of its direct children,
    in nanoseconds."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans: list) -> dict:
    """name -> (calls, total seconds, self seconds)."""
    selfs = self_times(spans)
    table: dict = {}
    for (name, start, end, _, _), s in zip(spans, selfs):
        calls, total, own = table.get(name, (0, 0.0, 0.0))
        table[name] = (calls + 1, total + (end - start) / 1e9, own + s / 1e9)
    return table
