"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces public functions at the module attribute
where their caller looks them up (``limitcycle.solver.lu_factor``,
``limitcycle.cli.sweep``, ...) with wrappers that record one span per
call: name, parent span, start and end.  The model factories the CLI
calls are wrapped so that the systems they return carry timed ``rhs`` and
``jac`` callables.  Spans stay in memory in flat arrays and are written
out at the end; per-layer metrics are computed from them.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans come from one thread's call stack, so the
children of a span are disjoint and the covered part is the sum of the
children's durations, each clipped to the parent's interval.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from collections import Counter

import numpy as np

SPAN_NAMES = (
    "cli.main",
    "continuation.sweep",
    "continuation.extract_extrema",
    "spectral.trig_interpolate",
    "spectral.diff_matrix",
    "system.build",
    "system.residual",
    "system.jacobian",
    "system.rhs_stack",  # Newton's tolerance scale; keeps its rhs calls
                         # out of solver.self_s, reported by no metric
    "solver.newton_solve",
    "solver.lu_factor",
    "solver.lu_solve",
    "models.rhs",
    "models.jac",
    "models.diode",
    "warmstart.rk4_transient",
)

# metrics derived from sizes rather than measured
COMPUTED = {
    "solver.lu_flops": "computed: 2/3 n^3 per LU factorization of size n",
    "solver.lu_gflops_per_s": "computed flops over measured lu_factor time",
}


def self_times(name_id, parent, start, end, n_names: int):
    """Per-name (count, total seconds, self seconds) of a span tree.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    """
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    dur = end - start
    child = parent >= 0
    p = parent[child]
    covered = np.clip(np.minimum(end[child], end[p])
                      - np.maximum(start[child], start[p]), 0.0, None)
    own = dur - np.bincount(p, weights=covered, minlength=dur.size)
    return (np.bincount(name_id, minlength=n_names),
            np.bincount(name_id, weights=dur, minlength=n_names),
            np.bincount(name_id, weights=own, minlength=n_names))


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self):
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, on_call=None):
        """Timed stand-in for ``fn``; ``on_call(args, result)`` adds counts."""
        nid = SPAN_NAMES.index(name)
        clock = time.perf_counter
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def _wrap_factory(self, factory):
        def traced_factory(*args, **kwargs):
            system = factory(*args, **kwargs)
            jac = system.jac
            return dataclasses.replace(
                system,
                rhs=self.wrap("models.rhs", system.rhs),
                jac=None if jac is None else self.wrap("models.jac", jac),
            )
        return traced_factory

    def _targets(self):
        import limitcycle.cli as cli
        import limitcycle.continuation as continuation
        import limitcycle.models as models
        import limitcycle.solver as solver
        import limitcycle.system as system

        counts = self.counts

        def newton_done(args, result):
            counts["solver.iterations"] += result.iterations

        def sweep_done(args, branch):
            counts["continuation.points"] += len(branch.points)

        def interp_done(args, result):
            counts["spectral.trig_interpolate_points"] += np.size(args[2])

        def lu_done(args, result):
            n = args[0].shape[0]
            counts["solver.lu_flops"] += 2.0 * n**3 / 3.0

        def rk4_done(args, result):
            cfg = args[1]
            counts["warmstart.steps"] += cfg.cycles * cfg.steps_per_cycle

        wrap = self.wrap
        build = system.CollocationProblem.__dict__["build"]
        return [
            (cli, "main", wrap("cli.main", cli.main)),
            (cli, "sweep", wrap("continuation.sweep", cli.sweep, sweep_done)),
            (cli, "extract_extrema",
             wrap("continuation.extract_extrema", cli.extract_extrema)),
            (cli, "newton_solve",
             wrap("solver.newton_solve", cli.newton_solve, newton_done)),
            (continuation, "newton_solve",
             wrap("solver.newton_solve", continuation.newton_solve,
                  newton_done)),
            (continuation, "trig_interpolate",
             wrap("spectral.trig_interpolate", continuation.trig_interpolate,
                  interp_done)),
            (system, "diff_matrix_equispaced",
             wrap("spectral.diff_matrix", system.diff_matrix_equispaced)),
            (system.CollocationProblem, "build",
             classmethod(wrap("system.build", build.__func__))),
            (solver, "residual", wrap("system.residual", solver.residual)),
            (solver, "jacobian", wrap("system.jacobian", solver.jacobian)),
            (solver, "rhs_stack", wrap("system.rhs_stack", solver.rhs_stack)),
            (solver, "lu_factor", wrap("solver.lu_factor", solver.lu_factor,
                                       lu_done)),
            (solver, "lu_solve", wrap("solver.lu_solve", solver.lu_solve)),
            (models, "diode_voltage",
             wrap("models.diode", models.diode_voltage)),
            (cli, "circuit_system", self._wrap_factory(cli.circuit_system)),
            (cli, "pendulum_system", self._wrap_factory(cli.pendulum_system)),
            (cli, "linear_system", self._wrap_factory(cli.linear_system)),
            (cli, "rk4_transient",
             wrap("warmstart.rk4_transient", cli.rk4_transient, rk4_done)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        targets = self._targets()
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in targets]
        try:
            for owner, attr, traced in targets:
                setattr(owner, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=float),
                np.frombuffer(self.end, dtype=float))

    def save(self, path: str) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(SPAN_NAMES), name_id=name_id,
                 parent=parent, start=start, end=end)

    def layer_metrics(self, jobs: int, csv_bytes: int) -> dict:
        """Per-layer metrics, per traced job where the unit says /job."""
        name_id, parent, start, end = self.arrays()
        n_names = len(SPAN_NAMES)
        calls, total, own = self_times(name_id, parent, start, end, n_names)
        k = {name: i for i, name in enumerate(SPAN_NAMES)}

        def c(name):
            return int(calls[k[name]])

        def t(name):
            return float(total[k[name]])

        def s(name):
            return float(own[k[name]])

        parent_name = np.where(parent >= 0,
                               name_id[np.maximum(parent, 0)], -1)
        in_sweep = parent_name == k["continuation.sweep"]
        attempts = int(np.sum(in_sweep
                              & (name_id == k["solver.newton_solve"])))
        in_newton = parent_name == k["solver.newton_solve"]
        residuals_in_newton = int(np.sum(in_newton
                                         & (name_id == k["system.residual"])))
        cnt = self.counts
        points = cnt["continuation.points"]
        lu_flops = cnt["solver.lu_flops"]
        steps = cnt["warmstart.steps"]
        per = 1.0 / jobs

        def ratio(num, den):
            return num / den if den else 0.0

        raw = {
            "cli.jobs": (jobs, "count"),
            "cli.self_s": (s("cli.main") * per, "s/job"),
            "cli.csv_bytes": (csv_bytes * per, "B/job"),
            "continuation.points": (points * per, "1/job"),
            "continuation.solve_attempts": (attempts * per, "1/job"),
            "continuation.rejected_steps": ((attempts - points) * per,
                                            "1/job"),
            "continuation.useful_ratio": (ratio(points, attempts), "1"),
            "continuation.sweep_self_s": (s("continuation.sweep") * per,
                                          "s/job"),
            "continuation.extrema_calls": (c("continuation.extract_extrema")
                                           * per, "1/job"),
            "continuation.extrema_self_s": (
                s("continuation.extract_extrema") * per, "s/job"),
            "spectral.trig_interpolate_calls": (
                c("spectral.trig_interpolate") * per, "1/job"),
            "spectral.trig_interpolate_points": (
                cnt["spectral.trig_interpolate_points"] * per, "1/job"),
            "spectral.trig_interpolate_s": (
                t("spectral.trig_interpolate") * per, "s/job"),
            "spectral.diff_matrix_calls": (c("spectral.diff_matrix") * per,
                                           "1/job"),
            "spectral.diff_matrix_s": (t("spectral.diff_matrix") * per,
                                       "s/job"),
            "solver.newton_calls": (c("solver.newton_solve") * per, "1/job"),
            "solver.iterations": (cnt["solver.iterations"] * per, "1/job"),
            "solver.line_search_trials": (
                (residuals_in_newton - c("solver.newton_solve")) * per,
                "1/job"),
            "solver.lu_factor_calls": (c("solver.lu_factor") * per, "1/job"),
            "solver.lu_factor_s": (t("solver.lu_factor") * per, "s/job"),
            "solver.lu_solve_s": (t("solver.lu_solve") * per, "s/job"),
            "solver.lu_flops": (lu_flops * per, "flop/job"),
            "solver.lu_gflops_per_s": (
                ratio(lu_flops, t("solver.lu_factor")) * 1e-9, "GFLOP/s"),
            "solver.self_s": (s("solver.newton_solve") * per, "s/job"),
            "system.build_calls": (c("system.build") * per, "1/job"),
            "system.build_s": (t("system.build") * per, "s/job"),
            "system.residual_calls": (c("system.residual") * per, "1/job"),
            "system.residual_s": (t("system.residual") * per, "s/job"),
            "system.jacobian_calls": (c("system.jacobian") * per, "1/job"),
            "system.jacobian_self_s": (s("system.jacobian") * per, "s/job"),
            "models.rhs_calls": (c("models.rhs") * per, "1/job"),
            "models.rhs_self_s": (s("models.rhs") * per, "s/job"),
            "models.jac_calls": (c("models.jac") * per, "1/job"),
            "models.jac_s": (t("models.jac") * per, "s/job"),
            "models.diode_calls": (c("models.diode") * per, "1/job"),
            "models.diode_s": (t("models.diode") * per, "s/job"),
            "warmstart.transient_calls": (c("warmstart.rk4_transient") * per,
                                          "1/job"),
            "warmstart.steps": (steps * per, "1/job"),
            "warmstart.transient_self_s": (
                s("warmstart.rk4_transient") * per, "s/job"),
            "warmstart.steps_per_s": (
                ratio(steps, t("warmstart.rk4_transient")), "1/s"),
        }
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in raw.items()}
