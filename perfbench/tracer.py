"""Spans and counters recorded around kinterdict's public functions.

The library itself carries no tracing.  ``Tracer.install`` replaces each
traced function by a wrapper in every ``kinterdict`` module that holds it
under its own name (``fractional_value`` lives in ``dual``, ``fptas`` and
``cli``, for example), so calls made through any import path are recorded.
``Tracer.uninstall`` puts the originals back.

A span is ``(name, start_ns, end_ns, parent_span, request_id)``.  Spans are
kept in memory; a layer's self time is its span time minus the time of its
direct child spans.  Counters are taken at the same wrappers.  Calls made in
forked pool workers go straight to the original function: only spans of the
benchmark process are recorded.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter_ns


def _count_dp_cells(counts, args, kwargs, table):
    counts["fptas.dp_build.cells"] += table.states


def _count_zero_units(counts, args, kwargs, units):
    counts["fptas.round.items"] += len(units)
    counts["fptas.round.zero_units"] += sum(1 for u in units if u == 0)


def _count_useful_candidate(counts, args, kwargs, ev):
    inst, _, point = args
    if ev.value is not None and ev.value <= point.z + inst.n * point.delta:
        counts["fptas.candidate.useful"] += 1


def _count_passed_level(counts, args, kwargs, level):
    counts["fptas.level.passed"] += int(level.passed)


def _count_points(counts, args, kwargs, candidate_set):
    counts["dual.candidates.points"] += len(candidate_set)


def _count_useful_solution(counts, args, kwargs, sol):
    if sol is not None and all(v >= 0 for v in sol):
        counts["linalg.solve.useful"] += 1


def _count_knapsack_cells(counts, args, kwargs, answer):
    profits, _, budget = args
    counts["nominal.knapsack.cells"] += len(profits) * (budget + 1)


# (layer, module, attribute, counter).  An attribute "Class.method" patches
# the class, which every module shares.
TARGETS = (
    ("fptas.dp_build", "kinterdict.fptas", "min_budget_table", _count_dp_cells),
    ("fptas.traceback", "kinterdict.fptas", "BudgetTable.traceback", None),
    ("fptas.round", "kinterdict.fptas", "rounded_profit_units", _count_zero_units),
    ("fptas.candidate", "kinterdict.fptas", "rounded_dual_bound", _count_useful_candidate),
    ("fptas.level", "kinterdict.fptas", "accept_level", _count_passed_level),
    ("fptas.search", "kinterdict.fptas", "search_optimum_guess", None),
    ("fptas.split_grid", "kinterdict.fptas", "split_accuracy", None),
    ("fptas.split_grid", "kinterdict.fptas", "GeometricGrid.build", None),
    ("dual.candidates", "kinterdict.dual", "dual_breakpoints", _count_points),
    ("dual.candidates", "kinterdict.dual", "dual_vertex_candidates", _count_points),
    ("dual.fractional_value", "kinterdict.dual", "fractional_value", None),
    ("dual.exact_scan", "kinterdict.dual", "exact_fractional_optimum", None),
    ("dual.bound_exact", "kinterdict.dual", "dual_bound_exact", None),
    ("linalg.solve", "kinterdict.linalg", "solve_square_system", _count_useful_solution),
    ("nominal.knapsack", "kinterdict.nominal", "knapsack_max_budget", _count_knapsack_cells),
    ("nominal.fractional_knapsack", "kinterdict.nominal", "fractional_knapsack", None),
    ("instance.parse", "kinterdict.instance", "parse_instance", None),
    ("instance.preprocess", "kinterdict.instance", "preprocess", None),
    ("cli.main", "kinterdict.cli", "main", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))


class Tracer:
    """Records spans and counts while installed; one request at a time."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request_id = None
        self._stack: list[int] = []
        self._undo: list = []
        self.holders: dict[str, list[str]] = {}  # function -> modules patched

    def _wrap(self, layer, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (layer, start, end, parent, tracer.request_id)
            tracer.counts[layer + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, attr, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, raw.__func__, counter))
                else:
                    new = self._wrap(layer, raw, counter)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, counter)
            holders = sorted(
                name
                for name, mod in list(sys.modules.items())
                if name.startswith("kinterdict")
                and getattr(mod, attr, None) is original
            )
            self.holders[attr] = holders
            for name in holders:
                self._undo.append((sys.modules[name], attr, original))
                setattr(sys.modules[name], attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_ns(self) -> Counter:
        """Self time per layer: span time minus direct child span time."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total: Counter = Counter()
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[sid]
        return total
