"""In-memory tracing of benchmark operations.

`Tracer.installed()` wraps the gevrey_kit functions and methods listed in
TARGETS for the duration of a `with` block and puts the originals back
afterwards, so untraced operations run the unmodified program.  A wrapped
call records a span (id, parent id, name, start, end, tag) in a list; hot
helpers only bump a counter.  `Tracer.collect()` turns the spans and
counters of one operation into the PER_LAYER metrics and starts the next
operation afresh.  A span's self time is its duration minus the durations
of its direct children (calls run on one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

#: What is wrapped: (module, attribute, span or counter name, kind).
#: "span" records a span; "count" only counts calls; "listed" is a span
#: that also counts the items of the returned list; "generator" times each
#: step of a generator and counts the items; "property" wraps the first
#: (computing) access of a cached property; "peak" is a span that also
#: records the tracemalloc peak of the call.  Spans without a metric of
#: their own keep `cli.self_s` to the CLI's own work and fill the layer
#: tables of the BENCH files.
TARGETS = [
    ("gevrey_kit.combinatorics", "multi_index_compositions",
     "combinatorics.multi_index_compositions", "listed"),
    ("gevrey_kit.combinatorics", "set_partitions", "combinatorics.set_partitions", "generator"),
    ("gevrey_kit.implicit_diff", "solve_residual", "implicit_diff.solve_residual", "span"),
    ("gevrey_kit.implicit_diff", "derivative_table", "implicit_diff.derivative_table", "span"),
    ("gevrey_kit.implicit_diff", "first_derivative", "implicit_diff.first_derivative", "span"),
    ("gevrey_kit.implicit_diff", "higher_derivative", "implicit_diff.higher_derivative", "span"),
    ("gevrey_kit.implicit_diff", "finite_difference_check",
     "implicit_diff.finite_difference_check", "span"),
    ("gevrey_kit.parametric", "verify_derivative_bounds",
     "parametric.verify_derivative_bounds", "span"),
    ("gevrey_kit.parametric", "parametric_derivative_table",
     "parametric.derivative_table", "span"),
    ("gevrey_kit.parametric", "parametric_solution_derivative",
     "parametric.solution_derivative", "span"),
    ("gevrey_kit.parametric", "TildeData.partial", "parametric.data_partial", "span"),
    ("gevrey_kit.pde1d", "newton_solve", "pde1d.newton_solve", "span"),
    ("gevrey_kit.pde1d", "estimate_constants", "pde1d.estimate_constants", "peak"),
    ("gevrey_kit.pde1d", "solution_bound_check", "pde1d.solution_bound_check", "span"),
    ("gevrey_kit.pde1d", "monotonicity_probe", "pde1d.monotonicity_probe", "span"),
    ("gevrey_kit.pde1d", "assemble_residual", "pde1d.assemble_residual", "span"),
    ("gevrey_kit.pde1d", "apply_residual_derivative", "pde1d.residual_derivative", "span"),
    ("gevrey_kit.pde1d", "linearization_matrix", "pde1d.linearization_matrix", "span"),
    ("gevrey_kit.pde1d", "PdeOracle.solve_linearized", "pde1d.solve_linearized", "span"),
    ("gevrey_kit.pde1d", "Mesh1D.at_quad", "pde1d.at_quad.calls", "count"),
    ("gevrey_kit.pde1d", "Mesh1D.poincare_constant", "pde1d.mesh_constants", "property"),
    ("gevrey_kit.pde1d", "Mesh1D.embedding_constant", "pde1d.mesh_constants", "property"),
    ("gevrey_kit.pde1d", "Mesh1D.trace_constant", "pde1d.mesh_constants", "property"),
    # pde1d factorizes through `scipy.sparse.linalg.splu`, looked up at call time.
    ("scipy.sparse.linalg", "splu", "pde1d.lu_factorization", "span"),
]

#: Span tags: the order r of a residual derivative, |alpha| of a
#: parametric solution partial.
TAGS = {
    "pde1d.residual_derivative": lambda args: args[4],
    "parametric.solution_derivative": lambda args: args[3].order(),
}

MAX_PARAMETRIC_ORDER = 5
MAX_RESIDUAL_ORDER = 6

#: Per-layer metrics of one operation, with units.
PER_LAYER = (
    [
        ("combinatorics.multi_index_compositions.s", "s"),
        ("combinatorics.multi_index_compositions.calls", "count"),
        ("combinatorics.compositions_listed", "count"),
        ("combinatorics.set_partitions.s", "s"),
        ("combinatorics.set_partitions_listed", "count"),
    ]
    + [(f"parametric.order{n}.s", "s") for n in range(1, MAX_PARAMETRIC_ORDER + 1)]
    + [
        ("parametric.data_partial.calls", "count"),
        ("parametric.data_partial.s", "s"),
        ("pde1d.residual_derivative.s", "s"),
        ("pde1d.residual_derivative.calls", "count"),
    ]
    + [(f"pde1d.residual_derivative.r{r}.calls", "count")
       for r in range(1, MAX_RESIDUAL_ORDER + 1)]
    + [
        ("pde1d.at_quad.calls", "count"),
        ("pde1d.solve_linearized.calls", "count"),
        ("pde1d.solve_linearized.s", "s"),
        ("pde1d.lu_factorizations", "count"),
        ("implicit_diff.solve_residual.calls", "count"),
        ("implicit_diff.solve_residual.s", "s"),
        ("implicit_diff.newton_iterations", "count"),
        ("implicit_diff.residual_evals", "count"),
        ("implicit_diff.finite_difference_check.s", "s"),
        ("implicit_diff.higher_derivative.calls", "count"),
        ("implicit_diff.higher_derivative.s", "s"),
        ("pde1d.newton_solve.s", "s"),
        ("pde1d.estimate_constants.s", "s"),
        ("pde1d.mesh_constants.s", "s"),
        ("pde1d.estimate_constants.peak_mib", "MiB"),
        ("cli.self_s", "s"),
    ]
)

ROOT_SPAN = "cli.main"

#: Per-layer metrics whose value is not "<span>.s", "<span>.calls" or a
#: counter of the same name.
ALIASES = {
    "combinatorics.compositions_listed": "combinatorics.multi_index_compositions.listed",
    "combinatorics.set_partitions_listed": "combinatorics.set_partitions.listed",
    "pde1d.lu_factorizations": "pde1d.lu_factorization.calls",
}


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [0]
        self._ids = itertools.count(1)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, listed: bool = False, peak: bool = False):
        spans, stack, ids, counters = self.spans, self._stack, self._ids, self.counters
        clock = time.perf_counter
        tag = TAGS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            if peak:
                tracemalloc.start()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tag(args) if tag else None))
                if peak:
                    counters[name + ".peak_mib"] = max(
                        counters[name + ".peak_mib"], tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if listed:
                counters[name + ".listed"] += len(out)
            return out

        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name: str, fn):
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    counters[name + ".s"] += clock() - t0
                    return
                counters[name + ".s"] += clock() - t0
                counters[name + ".listed"] += 1
                yield item

        return wrapper

    def call(self, fn, *args):
        """Run fn(*args) as the root span of one operation."""
        return self._span(ROOT_SPAN, fn)(*args)

    @contextmanager
    def installed(self):
        """Wrap every target; restore the originals on exit."""
        undo = []
        try:
            for module_name, attr, name, kind in TARGETS:
                owner, key = _resolve(module_name, attr)
                original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
                if kind == "property":
                    undo.append((original, "func", original.func))
                    original.func = self._span(name, original.func)
                    continue
                if kind == "count":
                    wrapped = self._count(name, original)
                elif kind == "generator":
                    wrapped = self._generator(name, original)
                else:
                    wrapped = self._span(name, original, listed=kind == "listed",
                                         peak=kind == "peak")
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [m for n, m in list(sys.modules.items())
                               if (n == "gevrey_kit" or n.startswith("gevrey_kit."))
                               and getattr(m, key, None) is original] + [owner]
                for holder in holders:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    # -- aggregation ---------------------------------------------------------

    def collect(self) -> tuple[dict[str, float], dict[str, dict], list[tuple]]:
        """Per-layer metrics, a per-span-name table (calls, total and self
        seconds) and the spans, with times relative to the first start, of
        the operation traced since the last collect."""
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            child_time[parent] += t1 - t0
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        derived: dict[str, float] = defaultdict(float)
        for sid, parent, name, t0, t1, tag in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child_time[sid]
            parent_name = names.get(parent)
            if parent_name == "implicit_diff.solve_residual":
                if name == "pde1d.solve_linearized":
                    derived["implicit_diff.newton_iterations"] += 1
                elif name == "pde1d.assemble_residual":
                    derived["implicit_diff.residual_evals"] += 1
            if name == "pde1d.residual_derivative":
                derived[f"pde1d.residual_derivative.r{tag}.calls"] += 1
            elif name == "parametric.solution_derivative":
                derived[f"parametric.order{tag}.s"] += t1 - t0

        values = dict(self.counters, **derived)
        for name, row in table.items():
            values[f"{name}.s"] = row["total_s"]
            values[f"{name}.calls"] = row["calls"]
        if ROOT_SPAN in table:
            values["cli.self_s"] = table[ROOT_SPAN]["self_s"]
        out = {name: float(values.get(ALIASES.get(name, name), 0.0)) for name, _ in PER_LAYER}
        origin = min((t0 for _, _, _, t0, _, _ in self.spans), default=0.0)
        spans = [(sid, parent, name, t0 - origin, t1 - origin, tag)
                 for sid, parent, name, t0, t1, tag in self.spans]
        self.spans.clear()
        self.counters.clear()
        return out, {name: dict(row) for name, row in table.items()}, spans
