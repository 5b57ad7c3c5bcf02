"""Span tracer that wraps dblab's public entry points from outside the package.

Installing the tracer rebinds every module-level binding of each public
function defined in a ``dblab.*`` module (including the copies other
modules imported with ``from .x import y`` and the builder registries),
plus a few public methods, to a wrapper that records a span
``[name, layer, start, end, parent]``.  The layer is the defining module
without the package prefix (``_parallel`` becomes ``parallel``).  Spans
stay in memory; the caller writes them out when the run ends.

Self time of a span is its duration minus the duration of its direct
children.  Counters that the per-layer metrics need (points, series
term-points, integrand points, ...) are taken at the same boundaries.
Nothing under ``src/`` is modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

# Public methods traced alongside the module-level functions.
METHODS = (
    ("dblab.expressions", "FunctionExpr", "eval_array"),
    ("dblab.domains", "SampledDomain", "points"),
    ("dblab.examples", "ExampleInstance", "check_claims"),
    ("dblab.majorization", "Majorant", "values"),
    ("dblab.model", "InnerFunction", "values"),
    ("dblab.model", "InnerFunction", "at"),
)


def _layer(module_name: str) -> str:
    return module_name.split(".", 1)[1].lstrip("_")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []          # indices of open spans
        self._open = defaultdict(int)   # open spans per name
        self._child: list = []          # child time accumulated per open span
        self._patches: list = []        # callables that restore one binding each
        self._main = threading.get_ident()
        self.active = True              # cleared while the benchmark checks results
        self._series_len = weakref.WeakKeyDictionary()
        self._real_line: list = []      # per open integrate_real_line call
        self.reset()

    # -- counters -----------------------------------------------------------

    def reset(self):
        """Zero the counters (spans are kept)."""
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)   # time inside the outermost span of a layer
        self.calls = defaultdict(int)
        self.in_layer = defaultdict(int)
        self.tail_shares: list = []
        self.halfwidths: list = []

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "outer_s": dict(self.outer_s), "calls": dict(self.calls),
                "tail_shares": list(self.tail_shares),
                "halfwidths": list(self.halfwidths)}

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str, layer: str):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self._child.append(0.0)
        self.in_layer[layer] += 1
        self._open[name] += 1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])

    def exit(self) -> float:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        child = self._child.pop()
        span[3] = end
        dur = end - span[2]
        layer = span[1]
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        self.in_layer[layer] -= 1
        self._open[span[0]] -= 1
        if self.in_layer[layer] == 0:
            self.outer_s[layer] += dur
        if self._child:
            self._child[-1] += dur
        return dur

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself."""
        self.enter(name, layer)
        try:
            yield
        finally:
            self.exit()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        around = getattr(self, "_around_" + name.replace(".", "_"), None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            if around is not None:
                return around(fn, name, layer, args, kwargs)
            tracer.enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("dblab.") and m is not None]
        wrappers = {}
        for m in modules:
            layer = _layer(m.__name__)
            for attr, obj in vars(m).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != m.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", layer))
        package = sys.modules["dblab"]
        for m in modules + [package]:
            for attr, obj in list(vars(m).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._rebind(m, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._rebind_item(obj, key, wrappers[id(val)][1])
        for mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            layer = _layer(mod)
            self._rebind(cls, meth,
                         self._wrap(vars(cls)[meth], f"{layer}.{cls_name}.{meth}", layer))

    def _rebind(self, owner, attr, new):
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._patches.append(lambda: setattr(owner, attr, old))

    def _rebind_item(self, d, key, new):
        old = d[key]
        d[key] = new
        self._patches.append(lambda: d.__setitem__(key, old))

    def uninstall(self):
        while self._patches:
            self._patches.pop()()

    # -- counters taken at layer boundaries -----------------------------------

    def series_length(self, expr) -> int:
        """Total terms of the product/series nodes in an expression tree."""
        try:
            return self._series_len[expr]
        except KeyError:
            pass
        seq = getattr(expr, "seq", None)
        total = len(seq) if seq is not None else 0
        for attr in ("child", "num", "den"):
            sub = getattr(expr, attr, None)
            if sub is not None:
                total += self.series_length(sub)
        for sub in getattr(expr, "children", ()):
            total += self.series_length(sub)
        self._series_len[expr] = total
        return total

    def _hook_expressions_FunctionExpr_eval_array(self, args, kwargs, result, dur):
        points = int(np.size(args[1]))
        c = self.counts
        c["expressions.eval_calls"] += 1
        c["expressions.eval_points"] += points
        terms = self.series_length(args[0])
        if terms:
            c["expressions.series_term_points"] += terms * points
            c["expressions.series_eval_s"] += dur
        if self.in_layer["model"]:
            c["model.eval_calls"] += 1
            c["model.eval_points"] += points
        if self._open["space.kernel_diagonal_values"]:
            c["space.ring_points"] += points

    def _hook_domains_SampledDomain_points(self, args, kwargs, result, dur):
        self.counts["domains.points"] += int(np.size(result))

    def _hook_majorization_test_majorization(self, args, kwargs, result, dur):
        self.counts["majorization.tests"] += 1
        self.counts["majorization.points"] += int(result.z.size)

    def _hook_parallel_ordered_chunk_map(self, args, kwargs, result, dur):
        self.counts["parallel.points"] += int(np.size(args[1]))

    def _hook_space_nabla_values(self, args, kwargs, result, dur):
        self.counts["space.nabla_points"] += int(np.size(args[1]))

    def _hook_space_nabla(self, args, kwargs, result, dur):
        self.counts["space.nabla_points"] += 1

    def _hook_space_mean_type(self, args, kwargs, result, dur):
        self.counts["space.meantype_calls"] += 1

    def _hook_cli_main(self, args, kwargs, result, dur):
        self.counts["cli.calls"] += 1

    def _hook_theorems_verify_theorem(self, args, kwargs, result, dur):
        self.counts["theorems.reports"] += 1

    def _hook_examples_a38_g_sequence(self, args, kwargs, result, dur):
        self.counts["examples.sequence_terms"] += len(result)

    _hook_examples_a38_gtilde_sequence = _hook_examples_a38_g_sequence
    _hook_examples_a45_zero_sequence = _hook_examples_a38_g_sequence
    _hook_examples_a41_pole_sequence = _hook_examples_a38_g_sequence

    def _around_quadrature_integrate_real_line(self, fn, name, layer, args, kwargs):
        ctx = {"intervals": 0, "core": 0.0}
        self._real_line.append(ctx)
        self.enter(name, layer)
        try:
            res = fn(*args, **kwargs)
        finally:
            self.exit()
            self._real_line.pop()
        self.counts["quadrature.integrals"] += 1
        self.halfwidths.append(res.halfwidth)
        if res.value != 0:
            self.tail_shares.append(abs(res.value - ctx["core"]) / abs(res.value))
        return res

    def _around_quadrature_integrate_interval(self, fn, name, layer, args, kwargs):
        ctx = self._real_line[-1] if self._real_line else None
        tail = ctx is not None and ctx["intervals"] > 0
        if ctx is not None:
            ctx["intervals"] += 1
        counts = self.counts
        integrand = args[0]

        def counted(x):
            n = int(np.size(x))
            counts["quadrature.integrand_points"] += n
            if tail:
                counts["quadrature.tail_points"] += n
            return integrand(x)

        self.enter(name, layer)
        try:
            res = fn(counted, *args[1:], **kwargs)
        finally:
            self.exit()
        counts["quadrature.interval_calls"] += 1
        if ctx is not None and not tail:
            ctx["core"] = res[0]
        return res
