"""The names the benchmark harness relies on.

``bench/tracing.py`` wraps program functions and methods by name, and
``bench/worker.py`` reads attributes of the solutions it captures.  A
rename in the program fails here, in the test suite, instead of in a
benchmark run.  Both files are loaded by path; neither is changed.
"""
import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from koopmanhj.basis import monomial_basis, procedure2_basis
from koopmanhj.galerkin import EigenfunctionSet, approximate_eigenfunction_set, sample_domain
from koopmanhj.procedure1 import procedure1_solve
from koopmanhj.procedure2 import default_phase_box, procedure2_solve
from koopmanhj.systems import builtin_example1, linearize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every module attribute of the package and every attribute of its classes."""
    seen = {}
    for name, mod in sorted(sys.modules.items()):
        if name.split(".")[0] != "koopmanhj":
            continue
        for key, val in vars(mod).items():
            seen[(name, key)] = val
            if isinstance(val, type) and val.__module__.startswith("koopmanhj"):
                for attr, member in vars(val).items():
                    seen[(val.__module__, val.__qualname__, attr)] = member
    return seen


def test_tracer_installs_and_its_undo_list_restores_every_original():
    tracer = _load("tracing").Tracer()
    import koopmanhj._commands  # noqa: F401 — the tracer loads every layer module

    before = _bindings()
    undo = tracer.install()
    try:
        assert undo
        for owner, attr, orig in undo:
            assert getattr(owner, attr) is not orig
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_counters_see_the_streamed_reference():
    """With the dense reference streamed CHUNK rows at a time, the tracer
    still counts every field row once (``L_ref`` plus every trial sample)
    and one basis evaluation per sample."""
    from koopmanhj import galerkin

    tracer = _load("tracing").Tracer()
    undo = tracer.install()
    try:
        sys1 = builtin_example1(1.0)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        galerkin.convergence_study(
            sys1.f, linearize(sys1).A, monomial_basis(2, 2, 3), box, [100, 300], 2, 0,
            block_index=1,
        )
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    layers = tracer.layer_metrics()
    assert layers["galerkin.field_values.points"] == 100 * 300 + 2 * (100 + 300)
    assert layers["galerkin.basis_passes_per_sample"] == 1.0


def test_traced_route2_basis_counts_each_jacobian_row_once():
    """The tracer wraps ``eval``/``jacobian`` in the class dict of both
    ``BasisSet`` and ``Procedure2Basis``; a route-2 fit evaluates the
    jacobian on the training rows twice (fit and training residual) and on
    the held-out rows once, and each row must be counted once."""
    tracer = _load("tracing").Tracer()
    undo = tracer.install()
    try:
        sys2 = builtin_example1(1.0)
        phase = default_phase_box(sys2, 0.4 * np.array([[-1.0, 1.0], [-1.0, 1.0]]), margin=1.0)
        L = 1500
        procedure2_solve(sys2, procedure2_basis(2, 3, 2), sample_domain(phase, L, 4))
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    assert tracer.layer_metrics()["basis.jacobian.points"] == 2 * L + L // 5
    assert tracer.stats["procedure2.unstable_eigfns"][0] == 1


@pytest.fixture(scope="module")
def solutions():
    sys1 = builtin_example1(0.5)
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eig = approximate_eigenfunction_set(
        sys1.f, linearize(sys1).A, monomial_basis(2, 2, 3), sample_domain(box, 500, 3)
    )
    sys2 = builtin_example1(1.0)
    phase = default_phase_box(sys2, 0.4 * box, margin=1.0)
    sol2 = procedure2_solve(sys2, procedure2_basis(2, 3, 2), sample_domain(phase, 1500, 4))
    return procedure1_solve(sys1, eig), sol2


def test_solutions_carry_what_the_worker_captures(solutions, tmp_path):
    """``save_captured`` reads ``riccati_embedding``, ``eig.Vt/Theta/Lambda``
    and ``L`` of route 1, ``Jl``, ``eigs.Wu_t/U/n`` and ``p_star`` of route
    2, and tells the routes apart by ``riccati_embedding``.  Route 2's
    ``eigs`` is an ``EigenfunctionSet`` on z = (x, p) whose ``Wu_t``/``U``
    are its ``Vt``/``Theta``."""
    sol1, sol2 = solutions
    assert hasattr(sol1, "riccati_embedding")
    assert not hasattr(sol2, "riccati_embedding")
    assert isinstance(sol2.eigs, EigenfunctionSet)
    assert sol2.eigs.n == 2
    assert sol2.eigs.Wu_t is sol2.eigs.Vt and sol2.eigs.Wu_t.shape == (2, 4)
    assert sol2.eigs.U is sol2.eigs.Theta

    out = tmp_path / "op1"
    out.mkdir()
    X = np.array([[0.1, -0.2], [0.3, 0.0], [-0.4, 0.4]])
    with open(out / "value_grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value", "u1"])
        writer.writerows([[*x, 0.0, 0.0] for x in X])
    plan = {"ops": [{"out": str(tmp_path / "op0")}, {"out": str(out)}]}
    _load("worker").save_captured(plan, {0: [sol1], 1: [sol2]}, tmp_path / "captured.npz")
    cap = np.load(tmp_path / "captured.npz")
    np.testing.assert_array_equal(cap["op0_Vt"], sol1.eig.Vt)
    np.testing.assert_array_equal(cap["op0_Theta"], sol1.eig.Theta)
    np.testing.assert_array_equal(cap["op0_L"], sol1.L)
    np.testing.assert_array_equal(cap["op0_Lambda"], sol1.eig.Lambda)
    np.testing.assert_array_equal(cap["op1_Jl"], sol2.Jl)
    np.testing.assert_array_equal(cap["op1_Wu_t"], sol2.eigs.Wu_t)
    np.testing.assert_array_equal(cap["op1_U"], sol2.eigs.U)
    np.testing.assert_array_equal(cap["op1_grid"], X)
    np.testing.assert_array_equal(cap["op1_p_star"], np.array([sol2.p_star(x) for x in X]))
