"""Spans and counts at the package's layer boundaries, recorded from outside.

``Tracer.install`` wraps the public functions of each module and the memo
methods of ``DunklContext``.  The package binds names with
``from .poly import ...``, so every wrapper is patched into each namespace
(and registry dict) that holds the original object.  Spans are kept in
memory as parallel arrays: name, start, end and parent.  A layer's self time
is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> the objects it covers, as (module, attribute path).
LAYERS = {
    "poly.mul": [("poly", "Poly.__mul__")],
    "poly.compose_reflection": [("poly", "compose_reflection")],
    "poly.divide_linear": [("poly", "divide_exact_by_linear")],
    "poly.divide_norm_sq": [("poly", "try_divide_norm_sq"), ("poly", "divide_exact_by_norm_sq")],
    "poly.parse": [("poly", "parse_poly")],
    "poly.format": [("poly", "format_poly")],
    "roots.build": [("roots", "build_root_system")],
    "operators.context": [("operators", "DunklContext.__init__")],
    "operators.quotient": [("operators", "DunklContext._quotient")],
    "operators.coord_image": [("operators", "DunklContext._coord_image")],
    "operators.laplacian_image": [("operators", "DunklContext._laplacian_image")],
    "operators.laplacian_sq": [("operators", "dunkl_laplacian_sq")],
    "operators.laplacian_expr": [("operators", "dunkl_laplacian_expr")],
    "operators.apply": [("operators", "dunkl_apply"), ("operators", "apply_coord")],
    "radial.hobson": [("radial", "hobson_lhs"), ("radial", "hobson_rhs"), ("radial", "hobson_residual")],
    "radial.inv_r_ddr": [("radial", "inv_r_ddr")],
    "harmonic.project": [("harmonic", "clebsch_project_series"), ("harmonic", "clebsch_project_maxwell")],
    "harmonic.decompose": [("harmonic", "harmonic_decompose")],
    "harmonic.hermite": [("harmonic", "hermite_poly"), ("harmonic", "rodrigues_residual"),
                         ("harmonic", "gaussian_series_residual")],
    "integrate.pizzetti": [("integrate", "pizzetti_mean")],
    "integrate.oracle": [("integrate", "sphere_oracle_z2d")],
    "integrate.gaussian_moment": [("integrate", "gaussian_moment")],
    "util.pochhammer": [("util", "pochhammer")],
    "transform.bessel": [("transform", "normalized_bessel"), ("transform", "bessel_j")],
    "transform.scaled_bessel": [("transform", "scaled_normalized_bessel")],
    "transform.hankel": [("transform", "hankel_numeric")],
    "transform.sphere_pairing": [("transform", "sphere_pairing")],
    "transform.gauss_poly": [("transform", "dunkl_transform_gauss_poly")],
    "transform.kernel": [("transform", "dunkl_kernel_z2d")],
    "cli.main": [("cli", "main")],
}

# Memo methods: span name -> the DunklContext table whose misses it counts.
MEMO_TABLES = {
    "operators.quotient": "_quotients",
    "operators.coord_image": "_coord_images",
    "operators.laplacian_image": "_laplacian_images",
}

SUITES = (
    "hobson", "commutativity", "laplacian-routes", "laplacian-commutator",
    "adjoint-formula", "projection", "pizzetti", "hermite", "mean-value",
    "transforms",
)

# Per-layer metric -> (span name, what): "calls", "self_s", "total_s" or "misses".
SPAN_METRICS = {
    "poly.mul_calls": ("poly.mul", "calls"),
    "poly.mul_s": ("poly.mul", "self_s"),
    "poly.compose_reflection_calls": ("poly.compose_reflection", "calls"),
    "poly.compose_reflection_s": ("poly.compose_reflection", "self_s"),
    "poly.divide_linear_calls": ("poly.divide_linear", "calls"),
    "poly.divide_linear_s": ("poly.divide_linear", "self_s"),
    "poly.divide_norm_sq_s": ("poly.divide_norm_sq", "self_s"),
    "poly.parse_s": ("poly.parse", "self_s"),
    "poly.format_s": ("poly.format", "self_s"),
    "roots.build_calls": ("roots.build", "calls"),
    "roots.build_s": ("roots.build", "self_s"),
    "operators.contexts": ("operators.context", "calls"),
    "operators.quotient_calls": ("operators.quotient", "calls"),
    "operators.quotient_misses": ("operators.quotient", "misses"),
    "operators.coord_image_misses": ("operators.coord_image", "misses"),
    "operators.laplacian_image_misses": ("operators.laplacian_image", "misses"),
    "operators.laplacian_sq_calls": ("operators.laplacian_sq", "calls"),
    "operators.laplacian_sq_s": ("operators.laplacian_sq", "self_s"),
    "operators.laplacian_expr_s": ("operators.laplacian_expr", "self_s"),
    "operators.apply_s": ("operators.apply", "self_s"),
    "radial.hobson_s": ("radial.hobson", "self_s"),
    "radial.inv_r_ddr_calls": ("radial.inv_r_ddr", "calls"),
    "harmonic.project_s": ("harmonic.project", "self_s"),
    "harmonic.decompose_s": ("harmonic.decompose", "self_s"),
    "harmonic.hermite_s": ("harmonic.hermite", "self_s"),
    "integrate.pizzetti_calls": ("integrate.pizzetti", "calls"),
    "integrate.pizzetti_s": ("integrate.pizzetti", "self_s"),
    "integrate.oracle_calls": ("integrate.oracle", "calls"),
    "integrate.oracle_s": ("integrate.oracle", "self_s"),
    "integrate.gaussian_moment_s": ("integrate.gaussian_moment", "self_s"),
    "util.pochhammer_calls": ("util.pochhammer", "calls"),
    "util.pochhammer_s": ("util.pochhammer", "self_s"),
    "transform.bessel_calls": ("transform.bessel", "calls"),
    "transform.bessel_s": ("transform.bessel", "self_s"),
    "transform.scaled_bessel_calls": ("transform.scaled_bessel", "calls"),
    "transform.hankel_calls": ("transform.hankel", "calls"),
    "transform.hankel_s": ("transform.hankel", "self_s"),
    "transform.sphere_pairing_calls": ("transform.sphere_pairing", "calls"),
    "transform.sphere_pairing_s": ("transform.sphere_pairing", "self_s"),
    "transform.gauss_poly_s": ("transform.gauss_poly", "self_s"),
    "transform.kernel_s": ("transform.kernel", "self_s"),
    "cli.main_calls": ("cli.main", "calls"),
    "cli.main_s": ("cli.main", "self_s"),
}
# The suites sit at the top of the stack, so their spans are reported whole.
SPAN_METRICS.update({f"verify.suite_s.{s}": (f"verify.suite.{s}", "total_s") for s in SUITES})

# Metrics read from the memo tables after the pass, and the derived ratio.
STATE_METRICS = (
    "operators.memo_entries",
    "operators.quotient_hit_ratio",
    "transform.sphere_mean_cache_entries",
)

LAYER_METRICS = tuple(SPAN_METRICS) + STATE_METRICS


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is a count, which repeats exactly."""
    return metric.endswith(("_calls", "_misses", "_entries")) or metric == "operators.contexts"


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wraps the package's layer functions and records a span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.misses: dict[str, int] = {}
        self.contexts: list = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        stack, parent, name_of = self._stack, self.parent, self.name_of
        start, end, clock = self.start, self.end, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_memo(self, fn, name: str, table: str):
        """Like _wrap, and counts the calls whose key is not yet in the table."""
        spanned = self._wrap(fn, name)
        misses = self.misses
        misses[name] = 0

        def wrapper(ctx, *args):
            if (args if len(args) > 1 else args[0]) not in getattr(ctx, table):
                misses[name] += 1
            return spanned(ctx, *args)

        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace original by wrapper in every dunklcalc namespace and dict."""
        for modname, module in list(sys.modules.items()):
            if modname != "dunklcalc" and not modname.startswith("dunklcalc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, item))
                            value[key] = wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib

        from dunklcalc import cli  # noqa: F401  (loads every module)

        for name, targets in LAYERS.items():
            for modname, path in targets:
                module = importlib.import_module(f"dunklcalc.{modname}")
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    table = MEMO_TABLES.get(name)
                    wrapper = (self._wrap_memo(original, name, table) if table
                               else self._wrap(original, name))
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                else:
                    self._patch_everywhere(original, self._wrap(original, name))
        from dunklcalc.operators import DunklContext

        init = DunklContext.__init__
        contexts = self.contexts

        def keep_context(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            contexts.append(ctx)

        self._patches.append((DunklContext, "__init__", init))
        DunklContext.__init__ = keep_context
        from dunklcalc.verify import SUITES as registry

        for suite, fn in list(registry.items()):
            self._patch_everywhere(fn, self._wrap(fn, f"verify.suite.{suite}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and total_s (outermost spans only)."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            row = out[name]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += (dur - child[i]) * 1e-9
            p = parent[i]
            if p < 0 or self.names[self.name_of[p]] != name:
                row["total_s"] += dur * 1e-9
        for name, count in self.misses.items():
            out[name]["misses"] = count
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the recorded pass."""
        from dunklcalc import transform

        totals = self.totals()
        out = {metric: totals[span][what] for metric, (span, what) in SPAN_METRICS.items()}
        tables = MEMO_TABLES.values()
        out["operators.memo_entries"] = sum(
            len(getattr(ctx, table)) for ctx in self.contexts for table in tables
        )
        calls = out["operators.quotient_calls"]
        out["operators.quotient_hit_ratio"] = (
            (calls - out["operators.quotient_misses"]) / calls if calls else 0.0
        )
        out["transform.sphere_mean_cache_entries"] = len(transform._SPHERE_MEAN_CACHE)
        return out
