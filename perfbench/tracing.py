"""Spans and counters wrapped around quasifold's layers from outside.

A wrapper is installed on every module attribute through which a caller
looks a function up (``cli`` imports ``parse_polytope`` by name,
``HPolytope.vertices`` calls ``quasifold.polytope.enumerate_vertices``,
``classify`` calls ``quasifold.construction.vertex_structure_group``,
``run_verification`` reaches its checks through ``quasifold.verify``'s
globals), and on the class for methods.  Spans stay in memory as
[name, start, end, parent index, op id].  Counters are plain integers.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy.random

# (defining module, function, span name).  Spans of linalg and lattices
# record only the outermost call of their layer.
_FUNCTION_SPANS = (
    ("quasifold.polytope", "parse_polytope", "polytope.parse"),
    ("quasifold.polytope", "enumerate_vertices", "polytope.enumerate"),
    ("quasifold.polytope", "check_simple", "polytope.check_simple"),
    ("quasifold.polytope", "check_rational", "polytope.check_rational"),
    ("quasifold.polytope", "check_delzant", "polytope.check_delzant"),
    ("quasifold.lattices", "span_certificate", "lattices.span_certificate"),
    ("quasifold.lattices", "rational_rank", "lattices.rational_rank"),
    ("quasifold.lattices", "quotient_order", "lattices.quotient_order"),
    ("quasifold.lattices", "integer_det", "lattices.integer_det"),
    ("quasifold.construction", "build_construction", "construction.build"),
    ("quasifold.construction", "classify", "construction.classify"),
    ("quasifold.construction", "vertex_structure_group", "construction.structure_group"),
    ("quasifold.construction", "construction_report", "construction.report"),
    ("quasifold.verify", "run_verification", "verify.run"),
    ("quasifold.verify", "sample_level_set", "verify.sample"),
    ("quasifold.verify", "verify_moment_image", "verify.image"),
    ("quasifold.verify", "check_regular_value", "verify.regular"),
    ("quasifold.verify", "_hamiltonian_residuals", "verify.hamiltonian"),
    ("quasifold.verify", "check_invariance", "verify.invariance"),
)
_OUTERMOST_ONLY = ("linalg", "lattices")
_MATRIX_METHODS = ("rank", "echelon", "kernel", "solve", "det", "inverse")


class Tracer:
    """Installs wrappers on the loaded quasifold modules until ``uninstall``."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules        # name -> module, all of quasifold
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[tuple[int, str]] = []  # (span index, layer)
        self._fields: list = []
        self._uniform_sizes: list = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module: str, name: str, wrapper_for, sites=None) -> None:
        original = getattr(self.modules[module], name)
        wrapper = wrapper_for(original)
        for mod_name, mod in self.modules.items():
            if sites is not None and mod_name not in sites:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        m = self.modules
        hooks = {"polytope.enumerate": self._vertices_found, "verify.sample": self._draws_seen}
        for module, name, span in _FUNCTION_SPANS:
            self._patch_function(module, name, lambda fn, span=span: self._span(
                span, fn, hooks.get(span)))
        # cli evaluates Phi for the CSV itself; inside the verifier the same
        # function is part of each check's span.
        self._patch_function("quasifold.construction", "induced_moment",
                             lambda fn: self._span("construction.moment", fn),
                             sites={"quasifold.cli"})
        self._patch_function("quasifold.lattices", "smith_invariant_factors",
                             lambda fn: self._counter("lattices.smith_calls", fn))
        matrix = m["quasifold.linalg"].Matrix
        for method in _MATRIX_METHODS:
            self._patch(matrix, method, self._span(f"linalg.{method}", getattr(matrix, method)))
        scalar = m["quasifold.scalars"].Scalar
        mul = self._counter("scalars.mul", scalar.__mul__)
        self._patch(scalar, "__mul__", mul)
        self._patch(scalar, "__rmul__", mul)
        self._patch(scalar, "inverse", self._counter("scalars.inverse", scalar.inverse))
        self._patch(scalar, "sign", self._counter("scalars.sign", scalar.sign))
        field = m["quasifold.scalars"].Field
        self._patch(field, "__init__",
                    self._span("scalars.field", field.__init__, self._field_made))
        self._patch(numpy.random, "default_rng", self._default_rng(numpy.random.default_rng))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def entry(self, main):
        """The CLI entry point as a span; its self time is cli's own work."""
        return self._span("cli.main", main)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None):
        layer = name.split(".", 1)[0]
        outermost_only = layer in _OUTERMOST_ONLY
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op]
            spans.append(record)
            stack.append((index, layer))
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _field_made(self, args, _result) -> None:
        self._fields.append(args[0])

    def _vertices_found(self, _args, result) -> None:
        self.counts["polytope.vertices_found"] += len(result)

    def _default_rng(self, original):
        def default_rng(*args, **kwargs):
            generator = original(*args, **kwargs)
            if self._stack and self.spans[self._stack[-1][0]][0] == "verify.sample":
                return _CountingGenerator(generator, self._uniform_sizes)
            return generator

        return default_rng

    def _draws_seen(self, args, result) -> None:
        # Candidate points live in R^n; the phase draws are d > n wide.
        n = args[0].dim
        self.counts["verify.candidate_rows"] += sum(
            size[0] for size in self._uniform_sizes
            if isinstance(size, tuple) and len(size) == 2 and size[1] == n
        )
        self.counts["verify.accepted_samples"] += len(result)
        self._uniform_sizes.clear()

    # -- per-op bookkeeping --------------------------------------------------

    def end_op(self) -> None:
        """Add the isolator bisections of every field parsed during the op:
        each one halves the isolating interval."""
        for fld in self._fields:
            if fld.degree > 1:
                lo, hi = fld.root_interval
                ilo, ihi = fld.isolator()
                self.counts["scalars.bisections"] += round(math.log2((hi - lo) / (ihi - ilo)))
        self._fields.clear()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Spans and counts recorded since the last call."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


class _CountingGenerator:
    """A numpy Generator that records the size of every uniform draw."""

    def __init__(self, generator, sizes: list) -> None:
        self._generator = generator
        self._sizes = sizes

    def uniform(self, *args, **kwargs):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self._sizes.append(tuple(size) if isinstance(size, (tuple, list)) else size)
        return self._generator.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._generator, name)


def quasifold_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "quasifold" or name.startswith("quasifold.")}


# --------------------------------------------------------------------------
# Per-layer metrics of one pass
# --------------------------------------------------------------------------

LAYER_METRICS = {
    # name: (unit, better, the end-to-end metric and workload it should move)
    "scalars.mul": ("count", "lower", "pass_s on analyze-wide and construct-simplex"),
    "scalars.inverse": ("count", "lower", "pass_s on analyze-wide and construct-simplex"),
    "scalars.sign": ("count", "lower", "pass_s on analyze-wide"),
    "scalars.bisections": ("count", "lower", "op_ms_geomean on inputs over a field"),
    "scalars.field_setup_s": ("s", "lower", "op_ms_geomean"),
    "linalg.calls": ("count", "lower", "pass_s on analyze-wide"),
    "linalg.time_s": ("s", "lower", "pass_s on analyze-wide and construct-simplex"),
    "lattices.time_s": ("s", "lower", "pass_s on construct-simplex (weighted family)"),
    "lattices.smith_calls": ("count", "lower", "pass_s on construct-simplex (weighted family)"),
    "polytope.enumerate_s": ("s", "lower", "pass_s on analyze-wide"),
    "polytope.vertices_per_linalg_call": ("ratio", "higher", "pass_s on analyze-wide"),
    "polytope.parse_self_s": ("s", "lower", "op_ms_geomean"),
    "polytope.checks_s": ("s", "lower", "pass_s on analyze-wide"),
    "construction.build_self_s": ("s", "lower", "pass_s on construct-simplex"),
    "construction.classify_s": ("s", "lower", "pass_s on construct-simplex"),
    "construction.structure_group_calls": ("count", "lower", "pass_s on construct-simplex"),
    "construction.report_self_s": ("s", "lower", "pass_s on construct-simplex"),
    "verify.sample_s": ("s", "lower", "pass_s and verify_max_dim on verify-csv"),
    "verify.sample_calls": ("count", "lower", "pass_s and verify_max_dim on verify-csv"),
    "verify.draws_per_sample": ("ratio", "lower", "pass_s and verify_max_dim on verify-csv"),
    "verify.image_s": ("s", "lower", "op_ms_geomean on verify-csv"),
    "verify.regular_s": ("s", "lower", "op_ms_geomean on verify-csv"),
    "verify.hamiltonian_s": ("s", "lower", "op_ms_geomean on verify-csv"),
    "verify.invariance_s": ("s", "lower", "op_ms_geomean on verify-csv"),
    "cli.self_s": ("s", "lower", "op_ms_geomean on verify-csv"),
    "cli.bytes_written": ("count", "lower", "op_ms_geomean on verify-csv"),
}


def pass_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """LAYER_METRICS for one pass.  A self time is a span's duration minus
    the time covered by its direct child spans."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    linalg_in_enumerate = 0
    for k, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[k]
        calls[name] += 1
        if name.startswith("linalg.") and parent >= 0 and spans[parent][0] == "polytope.enumerate":
            linalg_in_enumerate += 1

    def layer_total(prefix: str) -> float:
        return sum(v for k, v in total.items() if k.startswith(prefix))

    def layer_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    accepted = counts.get("verify.accepted_samples", 0)
    return {
        "scalars.mul": counts.get("scalars.mul", 0),
        "scalars.inverse": counts.get("scalars.inverse", 0),
        "scalars.sign": counts.get("scalars.sign", 0),
        "scalars.bisections": counts.get("scalars.bisections", 0),
        "scalars.field_setup_s": total["scalars.field"],
        "linalg.calls": layer_calls("linalg."),
        "linalg.time_s": layer_total("linalg."),
        "lattices.time_s": layer_total("lattices."),
        "lattices.smith_calls": counts.get("lattices.smith_calls", 0),
        "polytope.enumerate_s": total["polytope.enumerate"],
        "polytope.vertices_per_linalg_call": (
            counts.get("polytope.vertices_found", 0) / linalg_in_enumerate
            if linalg_in_enumerate else 0.0),
        "polytope.parse_self_s": own["polytope.parse"],
        "polytope.checks_s": layer_total("polytope.check_"),
        "construction.build_self_s": own["construction.build"],
        "construction.classify_s": total["construction.classify"],
        "construction.structure_group_calls": calls["construction.structure_group"],
        "construction.report_self_s": own["construction.report"],
        "verify.sample_s": total["verify.sample"],
        "verify.sample_calls": calls["verify.sample"],
        "verify.draws_per_sample": (
            counts.get("verify.candidate_rows", 0) / accepted if accepted else 0.0),
        "verify.image_s": total["verify.image"],
        "verify.regular_s": total["verify.regular"],
        "verify.hamiltonian_s": total["verify.hamiltonian"],
        "verify.invariance_s": total["verify.invariance"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
    }
