"""Tracing from outside the library: spans and counts per module.

``Tracer.install`` replaces every public function of each splitquat
module, and the public methods, properties and arithmetic operators of
the classes defined there, with a wrapper that records a span.  The
wrapper is put wherever the original is bound (the defining module, the
modules that imported it, the package), so calls between modules are
seen too.  Fraction arithmetic and construction are counted, not
spanned, because they are too many and too short.  ``uninstall`` puts
every original back.

A layer's self time is the time of its spans minus the time of their
child spans, accumulated on the fly from a stack.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = ("core", "parsing", "matrices", "solvers", "pinv", "roots", "similarity", "consimilarity", "cli")

#: Operators wrapped as methods, besides public names.
_OPERATORS = frozenset(
    "__init__ __add__ __radd__ __sub__ __rsub__ __neg__ __mul__ __rmul__ "
    "__truediv__ __matmul__".split()
)

_FRACTION_OPS = (
    "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ __rtruediv__ "
    "__floordiv__ __rfloordiv__ __mod__ __rmod__ __pow__ __rpow__ __neg__ __pos__ __abs__".split()
)

#: Named counts taken at a span, keyed by the span's qualified name.
_ELIMINATIONS = {
    "matrices.Mat4.rank",
    "matrices.Mat4.det",
    "matrices.mat_mp_inverse",
    "matrices.nullspace_basis",
    "matrices.linear_system_consistent",
}
_WITNESS_SEARCHES = {"similarity.is_similar", "similarity.canonical_form"}

#: Spans kept in memory for writing out; counts and self time are kept for all.
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, op id)
        self.names = []
        self.op_id = 0
        self.recording = True
        self._stack = []  # [child_ns, span index]
        self._search_depth = 0
        self._patches = []  # (owner, attribute, original, wrapper)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------

    def per_op(self, ops: int, self_ns=None):
        """Every per-layer count and self time, divided by ops.

        self_ns, if given, replaces the recorded self times (the caller
        passes them scaled to reference speed).
        """
        self_ns = self.self_ns if self_ns is None else self_ns
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] / ops
            out[f"{layer}.self_us"] = self_ns[layer] / 1000 / ops
        c = self.counts
        out["scalars.fraction_calls"] = c["fraction"] / ops
        out["matrices.eliminations"] = c["eliminations"] / ops
        out["matrices.term_decompositions"] = c["term_decompositions"] / ops
        out["solvers.family_matrix_builds"] = c["family_matrix_builds"] / ops
        out["similarity.witness_probes"] = c["witness_probes"] / ops
        out["similarity.witness_hit_ratio"] = (
            c["witness_hits"] / c["witness_probes"] if c["witness_probes"] else 0.0
        )
        out["similarity.exactness_escalations"] = c["escalations"] / ops
        return out

    def counts_only(self):
        """The counts, which repeat exactly for the same inputs."""
        out = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        out.update(self.counts)
        return out

    # ------------------------------------------------------------------
    # the wrapper
    # ------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        counter = None
        if name in _ELIMINATIONS:
            counter = "eliminations"
        elif name == "matrices.quaternion_term_decomposition":
            counter = "term_decompositions"
        elif name == "solvers.SolutionFamily.linear_matrix":
            counter = "family_matrix_builds"
        search = name in _WITNESS_SEARCHES
        probe = name == "solvers.SolutionFamily.at"
        canonical = name == "similarity.canonical_form"
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = -1
            if tracer.recording and len(tracer.spans) < SPAN_CAP:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            if counter:
                tracer.counts[counter] += 1
            if probe and tracer._search_depth:
                tracer.counts["witness_probes"] += 1
            if search:
                tracer._search_depth += 1
                probes_before = tracer.counts["witness_probes"]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if search:
                    tracer._search_depth -= 1
                duration = end - start
                tracer.self_ns[layer] += duration - frame[0]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    tracer.spans[index] = (name_id, start, end, parent, tracer.op_id)
            if search and tracer.counts["witness_probes"] > probes_before:
                tracer.counts["witness_hits"] += 1
            if canonical and type(args[0].q0) is not float and not result.exact:
                tracer.counts["escalations"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr], value))

    def install(self):
        """Put the wrappers in place; they are built on the first call."""
        if not self._patches:
            self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self):
        for layer in LAYERS:
            importlib.import_module(f"splitquat.{layer}")
        modules = [m for n, m in sys.modules.items() if n == "splitquat" or n.startswith("splitquat.")]
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"splitquat.{layer}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not name.startswith("_"):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(module, name, replaced[id(obj)])
        self._count_fractions()

    def _wrap_class(self, layer, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(layer, qual, attr))
            elif isinstance(attr, property) and attr.fget is not None:
                self._patch(cls, name, property(self._wrap(layer, qual, attr.fget)))
            elif isinstance(attr, classmethod):
                self._patch(cls, name, classmethod(self._wrap(layer, qual, attr.__func__)))

    def _count_fractions(self):
        counts = self.counts

        def counting(fn):
            def wrapper(*args, **kwargs):
                counts["fraction"] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in _FRACTION_OPS:
            if name in vars(Fraction):
                self._patch(Fraction, name, counting(vars(Fraction)[name]))
        original_new = vars(Fraction)["__new__"].__func__
        self._patch(Fraction, "__new__", staticmethod(counting(original_new)))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write_spans(self, path):
        """Spans as tab-separated lines: op, name, start_ns, end_ns, parent line."""
        with open(path, "w") as out:
            out.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for span in self.spans:
                if span is None:  # opened but never closed
                    continue
                name_id, start, end, parent, op = span
                out.write(f"{op}\t{self.names[name_id]}\t{start}\t{end}\t{parent}\n")
