"""Spans and work counters recorded from outside the fraclab package.

:func:`install` replaces every public function of each layer module with a
wrapper that records one span per call, in the benchmark process only.
The package's own files are not touched.  A layer's self time is its
span time minus the time of the spans it called, so ``riesz_potential``
inside ``frac_lap_at`` inside ``suite_fraclap`` is charged once.

Work counters come from wrapping each ``ScalarField`` when it is built:
``fields.points`` counts rows passed to ``func`` and
``fields.radial_points`` counts radii passed to ``radial_profile``.  Both
are also charged to the innermost open span.  Counts depend only on the
inputs, so they repeat exactly for one seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

#: The layers, in the order the per-layer metrics list them; ``cli`` is
#: charged to ``reports``.
LAYERS = ("fracops", "extension", "green", "movingsphere", "bubbles",
          "constants", "construction", "solver", "reports")
MODULES = LAYERS + ("cli",)

#: Functions whose calls and self time are per-layer metrics.
FUNCTIONS = (
    "fracops.riesz_potential", "fracops.frac_lap_at",
    "fracops.riesz_ball_indicator", "extension.extend",
    "extension.conormal_derivative", "green.phi_potential",
    "green.phi_conormal", "green.check_bbl_inequalities",
    "green.check_g3_bound", "movingsphere.lambda_star_sweep",
    "movingsphere.b_coefficient", "bubbles.bubble_identity_residuals",
    "construction.plan_sequences", "construction.validate_plan",
    "construction.bubble_sum", "construction.k_assemble",
    "solver.build_problem", "solver.monotone_iterate", "solver.solve_linear",
)

SUITES = ("constants", "fraclap", "bubble", "extend", "green", "msphere",
          "construct", "solver")


class Tracer:
    """In-memory span statistics and counters for one process."""

    def __init__(self):
        # qualified name -> [calls, self seconds, total seconds, self points]
        self.stats = {}
        self.counts = {"fields.points": 0, "fields.radial_points": 0,
                       "solver.build_problem.matrix_bytes": 0,
                       "solver.monotone_iterate.iters": 0}
        self._stack = []        # open spans: [stats entry, child seconds]

    # --- recording -------------------------------------------------------

    def _wrap(self, qualname, fn):
        entry = self.stats.setdefault(qualname, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        hook = _RESULT_HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [entry, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += span - frame[1]
                entry[2] += span
                if stack:
                    stack[-1][1] += span
            if hook is not None:
                hook(self.counts, result)
            return result
        return traced

    def _counted(self, key, fn, size):
        """Wrap a field function so each call adds its point count."""
        @functools.wraps(fn)
        def counted(x):
            amount = size(x)
            self.counts[key] += amount
            if self._stack:
                self._stack[-1][0][3] += amount
            return fn(x)
        return counted

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and count field evaluations.

        There is no uninstall: a traced pass runs in a process of its own.
        """
        originals = {}
        for name in MODULES:
            mod = importlib.import_module(f"fraclab.{name}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(f"{name}.{attr}", obj))
        # rebind every reference: names imported into other modules and
        # module-level tables such as reports.SUITE_FUNCS
        for modname, mod in list(sys.modules.items()):
            if modname != "fraclab" and not modname.startswith("fraclab."):
                continue
            self._rebind(vars(mod), originals)
            for table in list(vars(mod).values()):
                if isinstance(table, dict):
                    self._rebind(table, originals)

        from fraclab.fields import ScalarField
        post_init = ScalarField.__post_init__
        tracer = self

        def counted_post_init(field):
            post_init(field)
            field.func = tracer._counted("fields.points", field.func, len)
            if field.radial_profile is not None:
                field.radial_profile = tracer._counted(
                    "fields.radial_points", field.radial_profile, np.size)
        ScalarField.__post_init__ = counted_post_init
        return self

    @staticmethod
    def _rebind(namespace, originals):
        for key, obj in list(namespace.items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                namespace[key] = hit[1]

    # --- metrics ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for qualname in FUNCTIONS:
            calls, self_s, _, _ = self.stats.get(qualname, [0, 0.0, 0.0, 0])
            out[f"{qualname}.calls"] = (calls, "count")
            out[f"{qualname}.self_s"] = (self_s, "s")
        calls, _, _, points = self.stats.get("fracops.riesz_potential",
                                             [0, 0.0, 0.0, 0])
        out["fracops.riesz_potential.points_per_call"] = (
            points / calls if calls else 0.0, "points/call")
        out["fields.points"] = (self.counts["fields.points"], "count")
        out["fields.radial_points"] = (self.counts["fields.radial_points"],
                                       "count")
        out["solver.build_problem.matrix_bytes"] = (
            self.counts["solver.build_problem.matrix_bytes"], "B_computed")
        out["solver.monotone_iterate.iters"] = (
            self.counts["solver.monotone_iterate.iters"], "count")
        for suite in SUITES:
            entry = self.stats.get(f"reports.suite_{suite}", [0, 0.0, 0.0, 0])
            out[f"reports.suite_{suite}.s"] = (entry[2], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self._layer_self_s(layer), "s")
        out["trace.spans"] = (sum(e[0] for e in self.stats.values()), "count")
        return out

    def _layer_self_s(self, layer):
        owners = (layer, "cli") if layer == "reports" else (layer,)
        return sum(entry[1] for name, entry in self.stats.items()
                   if name.split(".", 1)[0] in owners)

    def counters(self):
        """Every deterministic count: calls per function, points, bytes."""
        out = dict(self.counts)
        for name, entry in self.stats.items():
            if entry[0]:
                out[f"{name}.calls"] = entry[0]
                out[f"{name}.points"] = entry[3]
        return out


def _matrix_bytes(counts, prob):
    # computed, not measured: the dense float64 operator matrix is N x N
    counts["solver.build_problem.matrix_bytes"] += 8 * len(prob.grid) ** 2


def _iters(counts, trace):
    counts["solver.monotone_iterate.iters"] += len(trace.residuals)


_RESULT_HOOKS = {"solver.build_problem": _matrix_bytes,
                 "solver.monotone_iterate": _iters}
