"""Spans and counters around the program's layer functions.

``Tracer.install`` replaces functions of the ``koopmanhj`` modules, methods
of its classes and the maps of the systems it builds with recording
wrappers, in this process only, and returns the list that puts the
originals back.  No file of the program is changed.

Every wrapped call adds to per-layer statistics (calls, points, inclusive
and self time; self time is the span's duration minus the time its traced
children took).  Calls at the granularity of a solve, a fit, a rollout or a
file write are also kept as spans (id, name, start, end, parent); per-point
calls (system maps, basis evaluations, controller and manifold calls) are
only aggregated, since a run makes millions of them.
"""
from __future__ import annotations

import dataclasses
import math
import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter


def _rows(Z) -> int:
    """Points in an array of shape (..., dim); a bare vector is one point."""
    shape = getattr(Z, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.shape(Z)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _one(args, kwargs):
    return 1


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last.startswith("us_per_") or metric.startswith("simulate.us_per_step"):
        return "us"
    if last.endswith("_s"):
        return "s"
    if last == "csv_bytes":
        return "B"
    if last in ("points_per_call", "basis_passes_per_sample", "calls_per_solution"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # name -> [calls, points, inclusive seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.spans = []
        self._child = []  # child-time accumulator per open span
        self._recorded = [None]  # ids of open recorded spans
        self._galerkin_depth = 0
        self._seen_sample_arrays = weakref.WeakValueDictionary()

    # ------------------------------------------------------------------
    def wrap(self, name, fn, points=None, record=False, before=None, after=None):
        """Return ``fn`` wrapped so each call is timed and counted under ``name``.

        ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
        ``after(args, kwargs, result, seconds)`` may return a replacement result.
        """
        tracer = self
        galerkin = name.startswith("galerkin.")

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            child = tracer._child
            child.append(0.0)
            if record:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._recorded[-1]
                tracer._recorded.append(span_id)
            if galerkin:
                tracer._galerkin_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if galerkin:
                    tracer._galerkin_depth -= 1
                inner = child.pop()
                seconds = t1 - t0
                if child:
                    child[-1] += seconds
                st = tracer.stats[name]
                st[0] += 1
                st[2] += seconds
                st[3] += seconds - inner
                if points is not None:
                    st[1] += points(args, kwargs)
                if record:
                    tracer._recorded.pop()
                    tracer.spans[span_id] = (span_id, name, t0, t1, parent)
            if after is not None:
                replaced = after(args, kwargs, result, seconds)
                if replaced is not None:
                    return replaced
            return result

        return traced

    # ------------------------------------------------------------------
    def _basis_rows(self):
        """Point counter for basis evaluations; inside a galerkin call it also
        counts the evaluated rows and the distinct sample arrays they come
        from (jacobian passes are not counted there)."""
        tracer = self

        def count(args, kwargs):
            Z = args[1] if len(args) > 1 else next(iter(kwargs.values()))
            rows = _rows(Z)
            if tracer._galerkin_depth and hasattr(Z, "base"):
                tracer.counters["galerkin.basis_rows"] += rows
                owner = Z if Z.base is None else Z.base
                key = id(owner)
                if tracer._seen_sample_arrays.get(key) is not owner:
                    tracer._seen_sample_arrays[key] = owner
                    tracer.counters["galerkin.sample_rows"] += owner.size // Z.shape[-1]
            return rows

        return count

    def _wrap_system(self, sys_):
        """Wrap the maps of one system instance (frozen dataclass)."""
        for attr in ("f", "g", "q", "jacobian_f", "grad_q"):
            name = "systems.f" if attr == "f" else "systems.other_maps"
            object.__setattr__(sys_, attr, self.wrap(name, getattr(sys_, attr), points=_one))
        return sys_

    def _wrap_controllers(self, args, kwargs):
        controllers = _arg(args, kwargs, 1, "controllers")
        wrapped = []
        for cname, ctrl in controllers:
            w = self.wrap("simulate.controller", ctrl, points=_one)
            w.controller_name = cname
            wrapped.append((cname, w))
        if len(args) > 1:
            args = args[:1] + (wrapped,) + args[2:]
        else:
            kwargs = dict(kwargs, controllers=wrapped)
        return args, kwargs

    def _after_closed_loop(self, args, kwargs, traj, seconds):
        ctrl = _arg(args, kwargs, 1, "controller")
        cname = getattr(ctrl, "controller_name", "other")
        steps = len(traj.times) - 1
        self.counters["simulate.rk4_steps"] += steps
        self.counters[f"simulate.steps.{cname}"] += steps
        self.counters[f"simulate.loop_s.{cname}"] += seconds

    def _file_bytes(self, path_index):
        def after(args, kwargs, result, seconds):
            path = _arg(args, kwargs, path_index, "path")
            self.counters["io.csv_bytes"] += os.path.getsize(path)
        return after

    # ------------------------------------------------------------------
    def install(self):
        """Wrap the program's layer functions; returns the undo list."""
        from koopmanhj import (  # noqa: F401 — loads every layer module
            _commands, basis, config, galerkin, procedure1, procedure2,
            simulate, spectral, systems,
        )

        modules = [m for k, m in sys.modules.items() if k.startswith("koopmanhj")]
        undo = []

        def everywhere(module, attr, name, **kw):
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, **kw)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, orig))

        def method(cls, attr, name, **kw):
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig, **kw))
            undo.append((cls, attr, orig))

        rec = {"record": True}
        one_arg_rows = lambda a, k: _rows(_arg(a, k, 1, "x"))  # noqa: E731

        for cls in (basis.BasisSet, basis.Procedure2Basis):
            method(cls, "eval", "basis.eval", points=self._basis_rows())
            method(cls, "jacobian", "basis.jacobian",
                   points=lambda a, k: _rows(a[1] if len(a) > 1 else next(iter(k.values()))))
        for attr in ("xi1", "xi2"):
            method(basis.Procedure2Basis, attr, "basis.eval", points=self._basis_rows())
        for attr in ("monomial_basis", "procedure2_basis", "value_basis_xi3"):
            everywhere(basis, attr, "basis.build", **rec)

        everywhere(config, "load_config", "config.load", **rec)
        everywhere(config, "build_system", "config.build_system", record=True,
                   after=lambda a, k, s, t: self._wrap_system(s))
        everywhere(config, "write_resolved", "io.report", **rec)

        everywhere(systems, "linearize", "systems.linearize", **rec)
        everywhere(systems, "hj_residual", "systems.hj_residual", points=_one)
        everywhere(
            systems, "hamiltonian_vector_field", "systems.lift_build", record=True,
            after=lambda a, k, ham, t: dataclasses.replace(
                ham, F=self.wrap("systems.lift", ham.F, points=_one)
            ),
        )

        everywhere(spectral, "real_spectral_decomposition", "spectral.decomposition", **rec)
        everywhere(spectral, "solve_riccati", "spectral.riccati", **rec)
        everywhere(spectral, "unstable_left_subspace", "spectral.unstable_subspace", **rec)
        everywhere(spectral, "lagrangian_subspace", "spectral.lagrangian", **rec)

        everywhere(galerkin, "sample_domain", "galerkin.sample", **rec)
        everywhere(galerkin, "_field_values", "galerkin.field_values", record=True,
                   points=lambda a, k: len(a[1]) if callable(a[0]) else 0)
        everywhere(galerkin, "assemble_galerkin", "galerkin.assemble", record=True,
                   points=lambda a, k: _arg(a, k, 4, "samples").L)
        everywhere(galerkin, "solve_coefficients", "galerkin.solve", **rec)
        everywhere(galerkin, "pde_residual_rms", "galerkin.residual", record=True,
                   points=lambda a, k: len(_arg(a, k, 5, "points")))
        everywhere(galerkin, "approximate_eigenfunction_set", "galerkin.fit", **rec)
        everywhere(galerkin, "convergence_study", "galerkin.converge", **rec)

        everywhere(procedure1, "procedure1_solve", "procedure1.solve", **rec)
        everywhere(procedure1, "compute_R1_Q1", "procedure1.transport", **rec)
        method(procedure1.HJSolution1, "control", "procedure1.control", points=one_arg_rows)
        method(procedure1.HJSolution1, "grad_value", "procedure1.grad_value",
               points=one_arg_rows)
        method(procedure1.HJSolution1, "value", "procedure1.value", points=one_arg_rows)

        everywhere(procedure2, "procedure2_solve", "procedure2.solve", **rec)
        everywhere(procedure2, "unstable_eigfns", "procedure2.unstable_eigfns", **rec)
        everywhere(procedure2, "fit_value_Jn", "procedure2.fit_value", **rec)
        everywhere(procedure2, "default_phase_box", "procedure2.phase_box", **rec)
        everywhere(procedure2, "linear_manifold", "procedure2.linear_manifold", points=_one)
        everywhere(procedure2, "nonlinear_manifold", "procedure2.nonlinear_manifold",
                   points=_one)
        method(procedure2.HJSolution2, "control", "procedure2.control", points=_one)
        method(procedure2.HJSolution2, "p_star", "procedure2.p_star", points=_one)
        method(procedure2.HJSolution2, "value", "procedure2.value", points=_one)

        everywhere(simulate, "compare_controllers", "simulate.compare", record=True,
                   before=self._wrap_controllers)
        everywhere(simulate, "closed_loop", "simulate.closed_loop", record=True,
                   after=self._after_closed_loop)
        everywhere(simulate, "lqr_controller", "simulate.lqr", **rec)
        everywhere(simulate, "pendulum_ic_cloud", "simulate.ic_cloud", **rec)
        everywhere(simulate, "write_trajectory_csv", "io.csv", record=True,
                   after=self._file_bytes(1))
        everywhere(simulate, "write_comparison_csv", "io.csv", record=True,
                   after=self._file_bytes(1))
        everywhere(_commands, "_write_csv", "io.csv", record=True, after=self._file_bytes(0))
        everywhere(_commands, "_write_report", "io.report", **rec)
        everywhere(_commands, "_grid_points", "grid.points", **rec)
        return undo

    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Per-layer figures of everything recorded since the last reset."""
        s, c = self.stats, self.counters

        def calls(n):
            return s[n][0]

        def pts(n):
            return s[n][1]

        def self_s(n):
            return s[n][3]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        steps_p1 = c["simulate.steps.procedure1"]
        steps_lqr = c["simulate.steps.lqr"]
        n_solve2 = calls("procedure2.solve")
        return {
            "systems.f.calls": calls("systems.f"),
            "systems.f.self_s": self_s("systems.f"),
            "systems.f.us_per_point": per(s["systems.f"][2], pts("systems.f"), 1e6),
            "systems.other_maps.calls": calls("systems.other_maps"),
            "systems.other_maps.self_s": self_s("systems.other_maps"),
            "systems.lift.points": pts("systems.lift"),
            "systems.lift.self_s": self_s("systems.lift"),
            "systems.lift.us_per_point": per(s["systems.lift"][2], pts("systems.lift"), 1e6),
            "systems.hj_residual.calls": calls("systems.hj_residual"),
            "systems.hj_residual.self_s": self_s("systems.hj_residual"),
            "basis.eval.calls": calls("basis.eval"),
            "basis.eval.points": pts("basis.eval"),
            "basis.eval.self_s": self_s("basis.eval"),
            "basis.jacobian.calls": calls("basis.jacobian"),
            "basis.jacobian.points": pts("basis.jacobian"),
            "basis.jacobian.self_s": self_s("basis.jacobian"),
            "basis.jacobian.points_per_call": per(pts("basis.jacobian"),
                                                  calls("basis.jacobian")),
            "galerkin.field_values.points": pts("galerkin.field_values"),
            "galerkin.field_values.self_s": self_s("galerkin.field_values"),
            "galerkin.assemble.calls": calls("galerkin.assemble"),
            "galerkin.assemble.samples": pts("galerkin.assemble"),
            "galerkin.assemble.self_s": self_s("galerkin.assemble"),
            "galerkin.solve.calls": calls("galerkin.solve"),
            "galerkin.solve.self_s": self_s("galerkin.solve"),
            "galerkin.residual.calls": calls("galerkin.residual"),
            "galerkin.residual.points": pts("galerkin.residual"),
            "galerkin.residual.self_s": self_s("galerkin.residual"),
            "galerkin.basis_passes_per_sample": per(c["galerkin.basis_rows"],
                                                    c["galerkin.sample_rows"]),
            "spectral.decomposition.calls": calls("spectral.decomposition"),
            "spectral.decomposition.self_s": self_s("spectral.decomposition"),
            "spectral.riccati.calls": calls("spectral.riccati"),
            "spectral.riccati.self_s": self_s("spectral.riccati"),
            "procedure1.solve.self_s": self_s("procedure1.solve"),
            "procedure1.control.calls": calls("procedure1.control"),
            "procedure1.control.points": pts("procedure1.control"),
            "procedure1.control.self_s": self_s("procedure1.control"),
            "procedure1.control.us_per_point": per(s["procedure1.control"][2],
                                                   pts("procedure1.control"), 1e6),
            "procedure1.grad_value.calls": calls("procedure1.grad_value"),
            "procedure1.grad_value.points": pts("procedure1.grad_value"),
            "procedure2.unstable_eigfns.self_s": self_s("procedure2.unstable_eigfns"),
            "procedure2.fit_value.self_s": self_s("procedure2.fit_value"),
            "procedure2.control.calls": calls("procedure2.control"),
            "procedure2.control.us_per_call": per(s["procedure2.control"][2],
                                                  calls("procedure2.control"), 1e6),
            "procedure2.p_star.calls": calls("procedure2.p_star"),
            "procedure2.linear_manifold.calls_per_solution": per(
                calls("procedure2.linear_manifold"), n_solve2),
            "simulate.closed_loop.calls": calls("simulate.closed_loop"),
            "simulate.closed_loop.self_s": self_s("simulate.closed_loop"),
            "simulate.rk4_steps": c["simulate.rk4_steps"],
            "simulate.us_per_step.procedure1": per(c["simulate.loop_s.procedure1"],
                                                   steps_p1, 1e6),
            "simulate.us_per_step.lqr": per(c["simulate.loop_s.lqr"], steps_lqr, 1e6),
            "simulate.controller.calls": calls("simulate.controller"),
            "simulate.controller.self_s": self_s("simulate.controller"),
            "io.csv_bytes": c["io.csv_bytes"],
            "io.write_s": self_s("io.csv"),
        }
