"""Tests for the fixed-step rollout, cost accumulation, and comparisons.

Oracles: exact solutions of scalar linear dynamics, energy conservation of
the undamped oscillator, the closed-form regulator cost-to-go
``0.5 x0^T P x0`` on linear-quadratic problems, and trapezoid-rule error
bounds for the accumulated running cost.
"""
import csv
import dataclasses
import functools
import multiprocessing
import operator
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitwise import assert_same_bits, state_rows
from koopmanhj import simulate
from koopmanhj.basis import BasisSet, Polynomial, monomial_basis, procedure2_basis
from koopmanhj.galerkin import (
    approximate_eigenfunction_set,
    linear_eigenfunction_set,
    sample_domain,
)
from koopmanhj.procedure1 import example1_eigenfunction_set, procedure1_solve
from koopmanhj.procedure2 import HJSolution2, default_phase_box, procedure2_solve
from koopmanhj.simulate import (
    Trajectory,
    closed_loop,
    compare_controllers,
    integrate_rk4,
    linear_controller,
    lqr_controller,
    pendulum_ic_cloud,
    write_comparison_csv,
    write_table_csv,
    write_trajectory_csv,
)
from koopmanhj.spectral import solve_riccati
from koopmanhj.systems import (
    ControlAffineSystem,
    _feedback_terms,
    _momentum_length_error,
    builtin_example1,
    builtin_pendulum,
    control_affine_system,
    feedback,
    feedback_of,
    linearize,
    polynomial_system,
)


def _left_to_right(K, x):
    """``-K @ x`` with each entry summed left to right in IEEE floats,
    ``(-K_j0) x_0 + (-K_j1) x_1 + ...``, on Python floats."""
    return np.array([functools.reduce(operator.add, (-k * xi for k, xi in zip(row, x)))
                     for row in np.atleast_2d(K).tolist()])


def _linear_system():
    A = np.array([[-1.0, 0.3], [0.0, -2.5]])
    B = np.array([[1.0], [0.5]])
    return control_affine_system(
        2, 1,
        f=lambda x: A @ x,
        g=lambda x: B,
        D=np.eye(1),
        q=lambda x: 0.5 * float(x @ x),
        jacobian_f=lambda x: A,
        grad_q=lambda x: np.asarray(x, dtype=float),
        hess_q0=np.eye(2),
    ), A, B


class TestIntegrator:
    def test_exponential_decay(self):
        traj = integrate_rk4(lambda x: -x, [1.0], dt=1e-3, T=10.0)
        assert abs(traj.states[-1, 0] - np.exp(-10.0)) < 1e-10
        assert traj.converged and not traj.diverged
        assert traj.times.shape == (10001,)
        np.testing.assert_allclose(np.diff(traj.times), 1e-3, atol=1e-14)

    def test_oscillator_conserves_energy(self):
        field = lambda z: np.array([z[1], -z[0]])  # noqa: E731
        traj = integrate_rk4(field, [1.0, 0.0], dt=1e-3, T=10.0)
        energy = 0.5 * np.sum(traj.states**2, axis=1)
        assert np.max(np.abs(energy - energy[0])) < 1e-8
        assert not traj.converged  # the orbit never enters the ball

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_time_blowup_truncates(self):
        traj = integrate_rk4(lambda x: x**2, [3.0], dt=1e-3, T=1.0)
        assert traj.diverged and not traj.converged
        assert traj.t_fail is not None and 0.2 < traj.t_fail < 0.5
        assert np.all(np.isfinite(traj.states))
        assert traj.times.size == traj.states.shape[0]
        assert traj.diagnostic == "diverged"

    def test_step_validation(self):
        with pytest.raises(ValueError, match="dt"):
            integrate_rk4(lambda x: -x, [1.0], dt=0.0, T=1.0)
        with pytest.raises(ValueError, match="T"):
            integrate_rk4(lambda x: -x, [1.0], dt=0.1, T=0.01)


class TestClosedLoop:
    def test_uncontrolled_cost_matches_quadrature(self):
        """u = 0 on xdot = -x gives cost 0.25 (1 - e^{-2T}) exactly."""
        sys_ = control_affine_system(
            1, 1,
            f=lambda x: -x,
            g=lambda x: np.array([[1.0]]),
            D=np.array([[2.0]]),
            q=lambda x: 0.5 * float(x @ x),
        )
        traj = closed_loop(sys_, lambda x: np.zeros(1), [1.0], dt=1e-3, T=5.0)
        assert abs(traj.running_cost - 0.25 * (1 - np.exp(-10.0))) < 1e-6
        assert traj.cumulative_costs[0] == 0.0
        assert np.all(np.diff(traj.cumulative_costs) >= 0.0)
        assert traj.cumulative_costs[-1] == traj.running_cost
        assert traj.inputs.shape == (5000, 1)
        assert traj.final_input is not None and traj.final_input.shape == (1,)

    def test_origin_is_a_fixed_point(self):
        sys_, _, _ = _linear_system()
        traj = closed_loop(sys_, lambda x: np.zeros(1), np.zeros(2), dt=1e-3, T=1.0)
        assert traj.converged
        assert traj.running_cost == 0.0
        assert np.max(np.abs(traj.states)) == 0.0

    def test_controller_exception_truncates_with_diagnostic(self):
        sys_, _, _ = _linear_system()

        def bad(x):
            if x[0] < 0.5:
                raise RuntimeError("lookup table exhausted")
            return np.zeros(1)

        traj = closed_loop(sys_, bad, [1.0, 0.0], dt=1e-3, T=5.0)
        assert traj.diverged and not traj.converged
        assert "controller failed at t=" in traj.diagnostic
        assert "lookup table exhausted" in traj.diagnostic
        assert traj.t_fail is not None and traj.t_fail > 0.0

    def test_cost_at_a_failure_node_is_the_previous_node_cost(self):
        """The node whose controller call raised costs what the node before
        it cost, whatever the allocator hands out: memory freed after
        holding either of two sentinels gives identical costs."""
        sys_, _, _ = _linear_system()

        def bad(x):
            if x[0] < 0.5:
                raise RuntimeError("lookup table exhausted")
            return np.zeros(1)

        costs = []
        for sentinel in (7.0, -3.0e5):
            freed = [np.full(5001, sentinel) for _ in range(8)]
            del freed
            traj = closed_loop(sys_, bad, [1.0, 0.0], dt=1e-3, T=5.0)
            costs.append(traj.cumulative_costs)
        np.testing.assert_array_equal(costs[0], costs[1])
        k = traj.times.size - 1
        assert k > 1 and traj.t_fail == k * 1e-3
        x = traj.states[k - 1]
        previous = 0.5 * float(x @ x)  # u = 0 at every node
        assert np.diff(traj.cumulative_costs)[-1] == pytest.approx(1e-3 * previous, rel=1e-12)
        assert traj.running_cost == traj.cumulative_costs[-1]

    def test_dimension_mismatch_rejected(self):
        sys_, _, _ = _linear_system()
        with pytest.raises(ValueError, match="x0 has dimension"):
            closed_loop(sys_, lambda x: np.zeros(1), [1.0, 0.0, 0.0])


class TestRegulator:
    def test_example_gain_pin(self):
        K, P = lqr_controller(linearize(builtin_example1(0.5)))
        np.testing.assert_allclose(
            K, [[5.05996487, 5.74165739]], atol=1e-6
        )
        np.testing.assert_allclose(
            P, [[2.52998244, 2.87082869], [2.87082869, 7.59549878]], atol=1e-6
        )

    def test_rollout_cost_equals_cost_to_go(self):
        """On a linear-quadratic problem the regulator's running cost from
        x0 is 0.5 x0^T P x0; the rollout must reproduce it to quadrature
        accuracy."""
        sys_, _, _ = _linear_system()
        lin = linearize(sys_)
        K, P = lqr_controller(lin)
        x0 = np.array([0.8, -0.6])
        traj = closed_loop(sys_, linear_controller(K), x0, dt=1e-3, T=15.0)
        assert traj.converged
        cost_ref = 0.5 * x0 @ P @ x0
        assert abs(traj.running_cost - cost_ref) < 1e-6 * (1 + cost_ref)

    def test_linear_controller_accepts_vector_gain(self):
        ctrl = linear_controller(np.array([2.0, 3.0]))
        np.testing.assert_allclose(ctrl(np.array([1.0, 1.0])), [-5.0])

    def test_linear_controller_equals_negated_product(self):
        """The gain negated once at construction gives ``-K @ x`` summed
        left to right in IEEE floats, bit for bit, and BLAS's ``-K @ x``
        to within 4 ulp of ``|K| |x|``."""
        rng = np.random.default_rng(8)
        K = rng.normal(size=(2, 3))
        ctrl = linear_controller(K)
        for x in rng.normal(size=(20, 3)):
            want = _left_to_right(K, x.tolist())
            assert_same_bits(ctrl(x), want)
            assert_same_bits(ctrl(list(x)), want)
            assert (np.abs(ctrl(x) - (-K @ x)) <= 4 * np.spacing(np.abs(K) @ np.abs(x))).all()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_linear_controller_on_a_closed_loop_and_a_batch(self, data):
        """For a ``(p, n)`` gain, ``p <= 3`` and ``n <= 4``: a closed loop's
        stage-1 inputs and final input are the one-state call's bits; each
        row of a ``(B, n)`` batch has its state's bits; and a gain with a
        wrong row count stops a pendulum rollout with one diagnostic on
        its float plant and on the array plant of its maps."""
        n, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        K = np.array(data.draw(st.lists(
            st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n), min_size=p, max_size=p)))
        X = data.draw(state_rows(n))
        ctrl = linear_controller(K)
        with np.errstate(all="ignore"):
            batch = ctrl(X)
            assert batch.shape == (len(X), p)
            for x, u in zip(X, batch):
                assert_same_bits(u, ctrl(x))
                assert_same_bits(u, _left_to_right(K, x.tolist()))
            B = np.linspace(1.0, 0.5, n * p).reshape(n, p)
            sys_ = control_affine_system(
                n, p, f=lambda x: -x, g=lambda x: B, D=np.eye(p),
                q=lambda x: 0.5 * float(x @ x), jacobian_f=lambda x: -np.eye(n),
                grad_q=lambda x: x, hess_q0=np.eye(n),
            )
            for x0 in X:
                traj = closed_loop(sys_, ctrl, x0, dt=1e-2, T=0.05)
                for x, u in zip(traj.states, traj.inputs):
                    assert_same_bits(u, ctrl(x))
                if traj.final_input is not None:
                    assert_same_bits(traj.final_input, ctrl(traj.states[-1]))
        rows = data.draw(st.integers(2, 3))
        wrong = linear_controller(np.resize(K, (rows, 3)))
        pend = builtin_pendulum(9.81)
        wrapped = dataclasses.replace(pend, f=lambda x: pend.f(x), g=lambda x: pend.g(x))
        want = f"controller failed at t=0: controller returned shape ({rows},), expected 1 entries"
        for s in (pend, wrapped):
            assert closed_loop(s, wrong, [0.3, -0.5, 0.4], dt=1e-2, T=0.1).diagnostic == want

    def test_route1_reduces_to_regulator_on_linear_problems(self):
        sys_, A, _ = _linear_system()
        eig = linear_eigenfunction_set(A, np.array([[-1.0, 1.0]] * 2))
        sol = procedure1_solve(sys_, eig)
        K, _ = lqr_controller(linearize(sys_))
        lqr = linear_controller(K)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            np.testing.assert_allclose(sol.control(x), lqr(x), atol=1e-8)


class TestControllerComparison:
    def test_nonlinear_law_beats_regulator_on_the_example(self):
        """The transported-coordinates law is closer to optimal than the
        linearization-based regulator; its accumulated cost must win on
        (nearly) every draw, and must agree with its own value function."""
        sys_ = builtin_example1(1.0)
        sol = procedure1_solve(sys_, example1_eigenfunction_set())
        K, _ = lqr_controller(linearize(sys_))
        rows = compare_controllers(
            sys_,
            [("route1", sol.control), ("lqr", linear_controller(K))],
            np.random.default_rng(2025).uniform(-0.5, 0.5, size=(10, 2)),
            dt=1e-3,
            T=10.0,
        )
        by_name = {}
        for r in rows:
            by_name.setdefault(r.controller, []).append(r)
        assert all(r.converged for r in rows)
        wins = sum(
            a.running_cost <= b.running_cost + 1e-6
            for a, b in zip(by_name["route1"], by_name["lqr"])
        )
        assert wins >= 9
        for r in by_name["route1"]:
            v0 = sol.value(r.x0)
            assert abs(r.running_cost - v0) <= max(0.02 * v0, 1e-3)

    def test_table_order(self):
        sys_, _, _ = _linear_system()
        K, _ = lqr_controller(linearize(sys_))
        rows = compare_controllers(
            sys_,
            [("a", linear_controller(K)), ("b", lambda x: np.zeros(1))],
            [[0.1, 0.0], [0.0, 0.1]],
            dt=1e-2,
            T=1.0,
        )
        assert [(r.controller, r.ic_index) for r in rows] == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 1)
        ]

    def test_rollout_error_stays_in_its_cell(self):
        sys_, _, _ = _linear_system()
        rows = compare_controllers(
            sys_,
            [("a", lambda x: np.zeros(1))],
            [[0.1, 0.0], [0.1, 0.0, 0.0]],  # second has the wrong dimension
            dt=1e-2,
            T=1.0,
        )
        assert len(rows) == 2
        assert not rows[0].diverged
        assert rows[1].diverged and not rows[1].converged
        assert rows[1].diagnostic.startswith("rollout failed:")
        assert np.isnan(rows[1].running_cost)


    def test_single_state_controllers_get_one_state(self, tmp_path):
        """A controller written for one state is called on one state: an
        output with as many entries as inputs times initial conditions is
        not mistaken for a batch, and each cell's file is its rollout alone."""
        sys_, _, _ = _linear_system()
        G = np.array([[0.4, 0.1]])
        x0s = [[1.0, -0.5], [-0.3, 0.8]]
        for ctrl in (lambda x: -G @ x, lambda x: np.array([-x[0]])):
            rows = compare_controllers(
                sys_, [("c", ctrl)], x0s, dt=1e-2, T=1.0,
                trajectory_csv=lambda name, i: str(tmp_path / f"{name}_{i}.csv"),
            )
            for i, x0 in enumerate(x0s):
                alone = closed_loop(sys_, ctrl, x0, dt=1e-2, T=1.0)
                assert (tmp_path / f"c_{i}.csv").read_bytes() == _csv_bytes(alone, tmp_path)
                assert rows[i].running_cost == alone.running_cost
                assert alone.inputs[0] == pytest.approx(ctrl(np.array(x0, dtype=float)))


def _csv_bytes(traj, tmp_path):
    """The bytes :func:`write_trajectory_csv` writes for ``traj``."""
    path = tmp_path / "alone.csv"
    write_trajectory_csv(traj, str(path))
    return path.read_bytes()


def _single_state_system():
    """A nonlinear system from maps of one state, with a state-dependent
    input map, and a route-1 solution on its linear eigenfunctions."""
    A = np.array([[-0.5, 1.0], [0.3, 0.8]])
    sys_ = control_affine_system(
        2, 1,
        f=lambda x: A @ x + np.array([0.0, -x[0] ** 3]),
        g=lambda x: np.array([[1.0 + 0.5 * np.sin(x[1])], [0.5]]),
        D=np.array([[1.5]]),
        q=lambda x: 0.5 * float(x @ x),
        jacobian_f=lambda x: A + np.array([[0.0, 0.0], [-3.0 * x[0] ** 2, 0.0]]),
        grad_q=lambda x: np.asarray(x, dtype=float),
        hess_q0=np.eye(2),
    )
    return sys_, procedure1_solve(sys_, linear_eigenfunction_set(A, np.array([[-1.0, 1.0]] * 2)))


def _cubic_system():
    """The scalar cubic ``xdot = -x + x^3 + u`` of the shipped route-2 config."""
    return polynomial_system([[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]])


def _two_input_system():
    """A two-state polynomial system with two inputs, a full input map and a
    full control weight, so that ``g(x) @ u`` and ``D^{-1} g^T p`` are sums
    of rounded products."""
    return polynomial_system(
        [[(-1.0, (1, 0)), (0.5, (0, 2))], [(0.5, (1, 0)), (-2.0, (0, 1)), (1.0, (1, 1))]],
        [[1.0, 0.3], [0.2, 0.7]], [[1.0, 0.2], [0.2, 2.0]], [[1.0, 0.1], [0.1, 0.5]],
    )


@pytest.fixture(scope="module")
def stage_cases():
    """(system, box, {controller name: controller}) per system: the pendulum
    with route 1 and LQR, example 1 with routes 1 and 2 and LQR, a system
    built from maps of one state, the scalar cubic and a two-input
    polynomial system, each with route 1 and LQR."""
    pend = builtin_pendulum(9.81)
    pend_box = np.array([[-0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0]])
    pend_eig = approximate_eigenfunction_set(
        pend.f, linearize(pend).A, monomial_basis(3, 2, 2), sample_domain(pend_box, 3000, 5)
    )
    ex1 = builtin_example1(1.0)
    ex1_box = np.array([[-0.4, 0.4], [-0.4, 0.4]])
    ex1_eig = approximate_eigenfunction_set(
        ex1.f, linearize(ex1).A, monomial_basis(2, 2, 3), sample_domain(ex1_box, 2000, 3)
    )
    phase_box = default_phase_box(ex1, ex1_box, margin=1.0)
    ex1_p2 = procedure2_solve(ex1, procedure2_basis(2, 3, 2), sample_domain(phase_box, 2000, 0))
    user, user_p1 = _single_state_system()
    cubic, cubic_box = _cubic_system(), np.array([[-0.35, 0.35]])
    two, two_box = _two_input_system(), np.array([[-0.5, 0.5]] * 2)
    two_eig = approximate_eigenfunction_set(
        two.f, linearize(two).A, monomial_basis(2, 2, 3), sample_domain(two_box, 2000, 7)
    )

    def lqr(sys_):
        return linear_controller(lqr_controller(linearize(sys_))[0])

    return {
        "pendulum": (pend, pend_box, {
            "route1": procedure1_solve(pend, pend_eig).control, "lqr": lqr(pend)}),
        "example1": (ex1, ex1_box, {
            "route1": procedure1_solve(ex1, ex1_eig).control,
            "route2": ex1_p2.control, "lqr": lqr(ex1)}),
        "single_state_maps": (user, np.array([[-0.5, 0.5]] * 2), {
            "route1": user_p1.control, "lqr": lqr(user)}),
        "cubic": (cubic, cubic_box, {
            "route1": procedure1_solve(
                cubic, linear_eigenfunction_set(linearize(cubic).A, cubic_box)).control,
            "lqr": lqr(cubic)}),
        "two_inputs": (two, two_box, {
            "route1": procedure1_solve(two, two_eig).control, "lqr": lqr(two)}),
    }


def _field(f, g, u):
    """The closed loop's field ``f + g u`` for one state, with ``g u``
    summed over the inputs left to right from +0.0; for one input it has
    the bits of ``f + g @ u``."""
    g = np.asarray(g, dtype=float)
    gu = np.zeros(g.shape[0])
    for k in range(g.shape[1]):
        gu = gu + g[:, k] * u[k]
    return np.asarray(f, dtype=float) + gu


def _reference_rollout(sys_, controller, x0, dt, K):
    """States and stage-1 inputs of RK4 on the stage ``f(x) + g(x) u``
    (:func:`_field`), ``u = controller(x)``, with every map called as
    written."""
    def stage(x):
        u = np.asarray(controller(x), dtype=float).ravel()
        return _field(sys_.f(x), sys_.g(x), u), u

    x = np.array(x0, dtype=float)
    states, inputs = [x], []
    for _ in range(K):
        k1, u = stage(x)
        k2, _ = stage(x + 0.5 * dt * k1)
        k3, _ = stage(x + 0.5 * dt * k2)
        k4, _ = stage(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
        inputs.append(u)
    return np.array(states), np.array(inputs)


class _CountingMaps:
    """Wrap a system's ``f`` and ``g`` with call counters."""

    def __init__(self, sys_):
        self.calls = {"f": 0, "g": 0}

        def counted(name, fn):
            def call(x):
                self.calls[name] += 1
                return fn(x)
            return call

        self.sys = dataclasses.replace(
            sys_, f=counted("f", sys_.f), g=counted("g", sys_.g)
        )


class TestOnePlantEvaluationPerStage:
    """Each RK4 stage evaluates the plant once, an HJ feedback reuses the
    stage's g(x), and every rollout keeps the bits of ``f(x) + g(x) u``."""

    DT, K = 1e-2, 25

    @pytest.mark.parametrize("case, name", [
        ("pendulum", "route1"), ("pendulum", "lqr"),
        ("example1", "route1"), ("example1", "route2"), ("example1", "lqr"),
        ("single_state_maps", "route1"), ("single_state_maps", "lqr"),
        ("cubic", "route1"), ("cubic", "lqr"),
        ("two_inputs", "route1"), ("two_inputs", "lqr"),
    ])
    @settings(max_examples=6, deadline=None)
    @given(unit=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_rollouts_equal_the_reference_stage(self, stage_cases, case, name, unit):
        sys_, box, controllers = stage_cases[case]
        ctrl = controllers[name]
        x0 = box[:, 0] + (box[:, 1] - box[:, 0]) * np.array(unit[: sys_.n])
        states, inputs = _reference_rollout(sys_, ctrl, x0, self.DT, self.K)
        runs = [closed_loop(sys_, c, x0, dt=self.DT, T=self.K * self.DT)
                for c in (ctrl, lambda x: ctrl(x))]
        for traj in runs:
            assert traj.diagnostic is None
            np.testing.assert_array_equal(traj.states, states)
            np.testing.assert_array_equal(traj.inputs, inputs)
        for attr in ("cumulative_costs", "final_input"):
            np.testing.assert_array_equal(getattr(runs[0], attr), getattr(runs[1], attr))

    @pytest.mark.parametrize("case", [
        "example1", "single_state_maps", "cubic", "wrapped_pendulum", "two_inputs"])
    def test_every_rollout_runs_the_compiled_loop(self, stage_cases, case, monkeypatch):
        """Every closed loop runs the compiled loop, on the model's float
        plant or on the system's own ``f`` and ``g``, whatever the
        controller and the number of inputs: the array loop is never
        called."""
        if case == "wrapped_pendulum":
            pend, box, controllers = stage_cases["pendulum"]
            sys_ = dataclasses.replace(pend, f=lambda x: pend.f(x), g=lambda x: pend.g(x))
            sol = dataclasses.replace(controllers["route1"].__self__, sys=sys_)
            controllers = {"route1": sol.control, "lqr": controllers["lqr"]}
        else:
            sys_, box, controllers = stage_cases[case]

        def array_loop(*args, **kwargs):
            raise AssertionError("a closed loop ran the array loop")

        monkeypatch.setattr(simulate, "_rk4", array_loop)
        for ctrl in [*controllers.values(), lambda x: -0.5 * x[: sys_.p]]:
            traj = closed_loop(sys_, ctrl, box[:, 1] / 2, dt=self.DT, T=self.K * self.DT)
            assert traj.diagnostic is None and traj.states.shape == (self.K + 1, sys_.n)

    @pytest.mark.parametrize("case, route", [
        ("example1", "route1"), ("example1", "route2"), ("two_inputs", "route1")])
    def test_hj_feedback_evaluates_g_once_per_stage(self, stage_cases, case, route):
        """K steps call g 4K times, plus once for the final node's feedback,
        for one input as for two."""
        sys_, box, controllers = stage_cases[case]
        counting = _CountingMaps(sys_)
        own = controllers[route].__self__
        sol = (dataclasses.replace(own, sys=counting.sys) if route == "route1"
               else HJSolution2(own.eigs, counting.sys, own.value_fit))
        counting.calls.update(f=0, g=0)
        traj = closed_loop(counting.sys, sol.control, box[:, 1], dt=self.DT, T=self.K * self.DT)
        assert traj.diagnostic is None
        assert counting.calls == {"f": 4 * self.K, "g": 4 * self.K + 1}

    def test_any_polynomial_momentum_takes_its_compiled_code(self, stage_cases):
        """A solution of any type whose marked ``control`` names a
        ``Polynomial`` momentum passes that polynomial's ``floats`` to the
        ``momentum`` law, and rolls out the bits of the same feedback
        called as ``controller(x)``."""
        sys_, box, _ = stage_cases["two_inputs"]
        P_r = lqr_controller(linearize(sys_))[1]

        class LinearMomentum:
            def __init__(self):
                self.sys = sys_
                self.momentum = Polynomial(BasisSet(np.eye(sys_.n, dtype=int)), P_r)

            @feedback_of("momentum")
            def control(self, x):
                return feedback(self.sys, x, self.momentum(x))

        sol = LinearMomentum()
        law = simulate._float_stage(sys_, sol.control, simulate._checked_control(sol.control, 2))
        assert law[0] == "momentum" and law[2] is sol.momentum.floats
        marked, generic = (closed_loop(sys_, c, box[:, 1], dt=self.DT, T=self.K * self.DT)
                           for c in (sol.control, lambda x: sol.control(x)))
        assert marked.diagnostic is None
        assert_same_bits(marked.states, generic.states)
        assert_same_bits(marked.inputs, generic.inputs)

    def test_two_input_stages_take_the_compiled_laws(self, stage_cases):
        """With two inputs, LQR's ``(2, n)`` gain takes the ``control`` law
        with its compiled ``floats`` and route 1 the ``momentum`` law with
        the rows of ``D^{-1}``."""
        sys_, _, controllers = stage_cases["two_inputs"]
        laws = {name: simulate._float_stage(sys_, c, simulate._checked_control(c, 2))
                for name, c in controllers.items()}
        assert laws["lqr"][0] == "control" and laws["lqr"][2] is controllers["lqr"].floats
        assert laws["route1"][0] == "momentum" and laws["route1"][3] == sys_.D_inv.tolist()

    def test_pendulum_stages_evaluate_the_shared_plant(self, stage_cases, monkeypatch):
        """Each stage calls the model's float entry once, as the system
        exposes it; the final node's feedback calls ``g`` instead."""
        sys_, box, controllers = stage_cases["pendulum"]
        calls = []
        entry = sys_.f_and_g_floats
        monkeypatch.setattr(
            ControlAffineSystem, "f_and_g_floats",
            property(lambda s: lambda xs: calls.append(1) or entry(xs)),
        )
        for name in ("route1", "lqr"):
            calls.clear()
            closed_loop(sys_, controllers[name], box[:, 1] / 4, dt=self.DT, T=self.K * self.DT)
            assert len(calls) == 4 * self.K

    @settings(max_examples=60, deadline=None)
    @given(X=state_rows(3))
    def test_float_stage_has_the_bits_of_the_array_stage(self, stage_cases, X):
        """The pendulum's compiled stage, run for one step from each state,
        gives ``u = controller(x)`` and the ``x_1`` of the array step on
        ``f(x) + g(x) @ u`` bit for bit, signed zeros, nan and infinities
        included; a non-finite ``x_1`` stops it as it stops the array loop."""
        sys_, _, controllers = stage_cases["pendulum"]

        def array_stage(ctrl):
            def field(x):
                u = ctrl(x)
                return sys_.f(x) + sys_.g(x) @ u, u
            return field

        with np.errstate(all="ignore"):
            for name, ctrl in controllers.items():
                stage = simulate._float_stage(sys_, ctrl, simulate._checked_control(ctrl, 1))
                assert stage[0] == {"route1": "momentum", "lqr": "control"}[name]
                if name == "lqr":
                    assert stage[2] is ctrl.floats
                for x in X:
                    run = simulate._float_rk4(x, self.DT, 1, 1, *stage)
                    want, want_u = simulate._rk4_step(array_stage(ctrl), x, self.DT)
                    assert_same_bits(run.inputs[0], want_u)
                    finite = bool(np.isfinite(want).all())
                    assert int(run.kept) == int(finite) and run.error is None
                    if finite:
                        assert_same_bits(run.states[1], want)

    def test_wrong_length_controller_output_truncates(self):
        sys_, _, _ = _linear_system()
        traj = closed_loop(sys_, lambda x: np.zeros((1, 2)), [1.0, 0.0], dt=1e-2, T=1.0)
        assert traj.diverged and traj.t_fail == 0.0
        assert traj.diagnostic == (
            "controller failed at t=0: controller returned shape (1, 2), expected 1 entries"
        )

    def test_wrong_length_at_the_final_node(self):
        """The final node's feedback is checked as well: call 4K + 1 fails."""
        sys_, _, _ = _linear_system()
        calls = []

        def ctrl(x):
            calls.append(1)
            return [0.0] if len(calls) <= 4 * 100 else [0.0, 0.0]

        traj = closed_loop(sys_, ctrl, [1.0, 0.0], dt=1e-2, T=1.0)
        assert traj.diagnostic == (
            "controller failed at t=1: controller returned shape (2,), expected 1 entries"
        )
        assert traj.t_fail == 100 * 1e-2 and traj.final_input is None
        assert traj.states.shape == (101, 2) and not traj.converged

    @pytest.mark.parametrize("fails", [
        ("momentum",), ("g",), ("f",), ("momentum", "g"), ("momentum", "f"),
        ("g", "f"), ("momentum", "g", "f"),
    ])
    def test_failures_report_what_the_generic_path_reports(self, fails):
        """Where the momentum and plant maps raise for 0.1 < x1 < 0.5, the
        marked feedback reports the error, time and node costs of the same
        feedback called as ``controller(x)``."""
        def raising(name, fn):
            def call(x):
                if name in fails and 0.1 < np.asarray(x)[..., 0].min() < 0.5:
                    raise RuntimeError(f"{name} failed")
                return fn(x)
            return call

        base, A, _ = _linear_system()
        sys_ = dataclasses.replace(base, f=raising("f", base.f), g=raising("g", base.g))
        sol = procedure1_solve(sys_, linear_eigenfunction_set(A, np.array([[-1.0, 1.0]] * 2)))
        sol.grad_poly.floats = raising("momentum", sol.grad_poly.floats)
        marked = closed_loop(sys_, sol.control, [1.0, 0.2], dt=1e-2, T=3.0)
        generic = closed_loop(sys_, lambda x: sol.control(x), [1.0, 0.2], dt=1e-2, T=3.0)
        assert marked.diagnostic.endswith(f"{fails[0]} failed")
        assert marked.diagnostic == generic.diagnostic
        assert marked.t_fail == generic.t_fail
        np.testing.assert_array_equal(marked.cumulative_costs, generic.cumulative_costs)
        # a controller that calls neither map: the field calls f, then g
        plain = closed_loop(sys_, lambda x: np.zeros(1), [1.0, 0.2], dt=1e-2, T=3.0)
        first = next((m for m in ("f", "g") if m in fails), None)
        assert plain.diagnostic == (
            None if first is None else f"controller failed at t={plain.t_fail:.6g}: {first} failed"
        )


# Float plants of n = 1..4 coordinates: f as n floats and g as n rows of
# one float (the first four) or of two.
def _decay(xs):
    n = len(xs)
    return tuple(-(i + 1.0) * xs[i] + 0.5 * xs[-1] for i in range(n)), ((1.0,),) * n


def _coupled(xs):
    n = len(xs)
    f = tuple(xs[(i + 1) % n] * xs[(i + 2) % n] - 0.25 * xs[i] for i in range(n))
    return f, ((xs[0] - 3.0 * xs[-1],),) * n


def _constant(xs):
    return (1.0, -0.0, 1e300, -2.5)[: len(xs)], ((0.0,),) * len(xs)


def _square(xs):
    return tuple(x * x for x in xs), tuple((x,) for x in reversed(xs))


def _decay_two(xs):
    f, _ = _decay(xs)
    return f, tuple((1.0, 0.3 - 0.1 * i) for i in range(len(xs)))


def _coupled_two(xs):
    f, g = _coupled(xs)
    return f, tuple((g0, 0.7 * xs[i] + 0.2) for i, (g0,) in enumerate(g))


def _constant_two(xs):
    return (1.0, -0.0, 1e300, -2.5)[: len(xs)], ((0.0, -0.0),) * len(xs)


def _square_two(xs):
    return tuple(x * x for x in xs), tuple((x, -x * y) for x, y in zip(reversed(xs), xs))


_GAIN = np.array([[0.3, -1.2, 2.5, -0.7], [-0.4, 0.9, 0.1, 1.6]])
_D_INV = {1: [[0.5]], 2: [[0.5, -0.2], [-0.2, 0.8]]}


def _law(case, n, p, plant, momentum_fault_at=None):
    """The compiled loop's law and arguments for ``case`` on ``plant`` with
    ``p`` inputs, and the array stage ``x -> (f(x) + g(x) u, u)`` with the
    same ``u``, computed as the array loop's stage computes it and ``g(x) u``
    summed as :func:`_field` sums it.  ``"gain"`` is the ``control`` law
    with a linear controller's compiled ``floats``, whose ``u`` the array
    stage sums as :func:`_left_to_right` does.  ``momentum_fault_at``
    (1-based) names the momentum call that returns ``n + 1`` entries."""
    law = "momentum" if case == "momentum" else "control"
    if case == "momentum":
        calls = [0]

        def momentum(xs):
            calls[0] += 1
            m = tuple(2.0 * x - 1.0 for x in xs)
            return m + (0.0,) if calls[0] == momentum_fault_at else m

        args = (plant, momentum, _D_INV[p])

        def u_of(x, g):
            m = momentum(tuple(x.tolist()))
            if len(m) != n:
                raise _momentum_length_error(n, len(m))
            return np.array(_feedback_terms(_D_INV[p], [list(r) for r in g], list(m)))
    elif case == "gain":
        K = _GAIN[:p, :n].copy()
        args = (plant, linear_controller(K).floats)
        u_of = lambda x, g: _left_to_right(K, x.tolist())  # noqa: E731
    else:
        control = lambda x: np.array([x[0] - 0.5 * x[-1], 0.25 * x[-1] * x[0]][:p])  # noqa: E731
        args = (plant, control)
        u_of = lambda x, g: control(x)  # noqa: E731

    def array_field(x):
        f, g = plant(tuple(x.tolist()))
        u = u_of(x, g)
        return _field(f, g, u), u

    return law, args, array_field


def _raising_at(plant, at):
    """``plant`` raising at call ``at`` (1-based)."""
    calls = [0]

    def call(xs):
        calls[0] += 1
        if calls[0] == at:
            raise RuntimeError(f"plant call {at} failed")
        return plant(xs)

    return call


class TestFloatStep:
    """One state's compiled RK4 loop has the bits of the array loop on the
    same field, for one input and for two: a pendulum rollout on its float
    plant and one on the array plant of its maps each equal the array
    loop's on its maps, faults included."""

    FIELDS = [(_decay, 1), (_coupled, 1), (_constant, 1), (_square, 1),
              (_decay_two, 2), (_coupled_two, 2), (_constant_two, 2), (_square_two, 2)]
    LAWS = ["momentum", "gain", "control"]

    @settings(max_examples=60, deadline=None)
    @given(X=state_rows(3), dt=st.sampled_from([1e-3, 0.25, 1e3]))
    def test_float_step_has_the_bits_of_the_array_step(self, X, dt):
        """One compiled step: the stage-1 ``u`` and a finite ``x_{k+1}`` of
        :func:`_rk4_step`; a non-finite one keeps no step."""
        with np.errstate(all="ignore"):
            for plant, p in self.FIELDS:
                for case in self.LAWS:
                    law, args, array_field = _law(case, 3, p, plant)
                    for x in X:
                        want, want_u = simulate._rk4_step(array_field, x, dt)
                        got = simulate._float_rk4(x, dt, 1, p, law, *args)
                        assert_same_bits(got.inputs[0], want_u)
                        finite = bool(np.isfinite(want).all())
                        assert int(got.kept) == int(finite) and got.error is None
                        if finite:
                            assert_same_bits(got.states[1], want)

    @settings(max_examples=40, deadline=None)
    @given(X=st.integers(1, 4).flatmap(state_rows), dt=st.sampled_from([1e-3, 0.25, 1e3]),
           fault=st.sampled_from([None, ("plant", 1), ("plant", 3), ("plant", 4 * 2 + 2),
                                  ("momentum", 1), ("momentum", 4 * 2 + 3)]))
    def test_float_kernel_stops_where_the_array_kernel_stops(self, X, dt, fault):
        """The compiled loop keeps the steps, states, inputs and error of
        the array loop for ``n`` = 1..4, one or two inputs and each law: a
        non-finite ``x_{k+1}`` (an infinity or a nan) stops both, and so
        does a stage whose plant raises, or whose momentum has ``n + 1``
        entries, at call ``at`` of that map."""
        K, n = 4, X.shape[1]
        which, at = fault or (None, None)
        with np.errstate(all="ignore"):
            for plant, p in self.FIELDS:
                for case in self.LAWS:
                    for x in X:
                        runs = []
                        for kernel in ("array", "float"):
                            faulty = _raising_at(plant, at) if which == "plant" else plant
                            law, args, array_field = _law(
                                case, n, p, faulty, at if which == "momentum" else None)
                            runs.append(
                                simulate._rk4(array_field, x, dt, K, p=p) if kernel == "array"
                                else simulate._float_rk4(x, dt, K, p, law, *args)
                            )
                        want, got = runs
                        kept = int(want.kept)
                        assert int(got.kept) == kept
                        assert repr(got.error) == repr(want.error)
                        stopped = kept < K and want.error is None
                        assert got.states.shape == (kept + 1, n)
                        assert got.inputs.shape == (kept + stopped, p)
                        assert_same_bits(got.states, want.states[: kept + 1])
                        assert_same_bits(got.inputs, want.inputs[: kept + stopped])

    @pytest.mark.parametrize("K", [[0.8, -1.5, 2.0], [[0.8, -1.5, 2.0]]])
    @settings(max_examples=40, deadline=None)
    @given(X=state_rows(3))
    def test_linear_law_keeps_the_bits_of_its_product(self, K, X):
        """``linear_controller(K)`` on the compiled stage, 1-D or 2-D ``K``:
        the ``control`` law runs its compiled ``floats``, and its ``u`` is
        ``control(np.array(x))`` and the left-to-right sum bit for bit."""
        sys_ = builtin_pendulum(9.81)
        ctrl = linear_controller(K)
        stage = simulate._float_stage(sys_, ctrl, simulate._checked_control(ctrl, 1))
        assert stage[0] == "control" and stage[2] is ctrl.floats
        with np.errstate(all="ignore"):
            for x in X:
                run = simulate._float_rk4(x, 1e-2, 1, 1, *stage)
                assert_same_bits(run.inputs[0], ctrl(np.array(x.tolist())))
                assert_same_bits(run.inputs[0], _left_to_right(K, x.tolist()))

    @pytest.mark.parametrize("K", [np.ones((1, 2)), np.ones((2, 3))])
    def test_a_gain_of_another_shape_is_called_as_a_controller(self, K):
        """A gain not of shape ``(p, n)`` takes the ``control`` law, which
        reports its error as on the array plant."""
        sys_ = builtin_pendulum(9.81)
        ctrl = linear_controller(K)
        assert simulate._float_stage(sys_, ctrl, simulate._checked_control(ctrl, 1))[0] == "control"
        wrapped = dataclasses.replace(sys_, f=lambda x: sys_.f(x), g=lambda x: sys_.g(x))
        got, want = (closed_loop(s, ctrl, [0.3, -0.5, 0.4], dt=1e-2, T=0.1)
                     for s in (sys_, wrapped))
        assert got.diagnostic == want.diagnostic is not None
        assert_same_bits(got.states, want.states)

    DT = 1e-2

    @pytest.fixture(scope="class")
    def pendulum_paths(self, stage_cases):
        """The pendulum (float plant) and the same plant with ``f`` and ``g``
        wrapped (array plant), the route-1 solution and LQR."""
        pend, _, controllers = stage_cases["pendulum"]
        wrapped = dataclasses.replace(pend, f=lambda x: pend.f(x), g=lambda x: pend.g(x))
        assert pend.f_and_g_floats is not None and wrapped.f_and_g_floats is None
        sol = controllers["route1"].__self__
        return pend, wrapped, sol, controllers["lqr"]

    @staticmethod
    def _faulty(fn, at, fault):
        """``fn`` with call ``at`` (1-based) replaced: ``raise`` raises, ``huge``
        returns 1e308 in every entry, ``long`` and ``short`` return one entry
        more or less."""
        calls = [0]

        def call(x):
            calls[0] += 1
            out = fn(x)
            if calls[0] == at:
                if fault == "raise":
                    raise RuntimeError(f"call {at} failed")
                n = len(out)
                size = {"huge": n, "long": n + 1, "short": n - 1}[fault]
                vals = [1e308] * n if fault == "huge" else (list(out) * 2)[:size]
                out = np.array(vals) if isinstance(out, np.ndarray) else tuple(vals)
            return out

        return call

    def _array_loop(self, sys_, ctrl, x0, K):
        """``closed_loop`` with the array loop in place of the compiled one:
        :func:`_rk4` on ``f(x) + g(x) @ ctrl(x)``, every map called as
        written, then the closed loop's own truncation and costs."""
        control = simulate._checked_control(ctrl, 1)

        def field(xs):
            u = control(xs)
            return sys_.f(xs) + sys_.g(xs) @ u, u

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_float_rk4",
                       lambda x, dt, K, p, *stage: simulate._rk4(field, x, dt, K, p=p))
            return closed_loop(sys_, ctrl, x0, dt=self.DT, T=K * self.DT)

    def _rollouts(self, paths, name, x0, K, at=None, fault=None):
        """The rollouts of controller ``name`` in the compiled loop on the
        pendulum's float plant and on the array plant of its wrapped maps,
        and last the reference: the array loop on the pendulum's maps."""
        pend, wrapped, sol, lqr = paths
        runs = []
        for sys_, array_loop in ((pend, False), (wrapped, False), (pend, True)):
            if name == "route1":
                # the marked feedback: both plants reach the compiled gradient
                s = dataclasses.replace(sol, sys=sys_)
                code = s.momentum.floats
                if fault is not None:
                    s.momentum.floats = self._faulty(code, at, fault)
                ctrl = s.control
            elif name == "route1_contraction":
                # no collapsed gradient: both plants pack the momentum's array
                s = dataclasses.replace(sol, sys=sys_)
                object.__setattr__(s, "grad_poly", None)
                assert getattr(s.momentum, "floats", None) is None
                if fault is not None:
                    object.__setattr__(s, "momentum", self._faulty(s.momentum, at, fault))
                ctrl = s.control
            else:
                law = lqr if name == "lqr" else (
                    lambda x: lqr(x) + 0.1 * np.sin(x[:1]) * x[:1]
                )
                ctrl = law if fault is None else self._faulty(law, at, fault)
            runs.append(self._array_loop(sys_, ctrl, x0, K) if array_loop
                        else closed_loop(sys_, ctrl, x0, dt=self.DT, T=K * self.DT))
        return runs

    @staticmethod
    def _assert_same_trajectory(got, want):
        for f in dataclasses.fields(Trajectory):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, (np.ndarray, float)):
                assert_same_bits(a, b)
            else:
                assert a == b, f.name

    def _assert_same_as_reference(self, runs):
        """Both compiled-loop rollouts equal the array loop's, field by field."""
        *got, want = runs
        for run in got:
            self._assert_same_trajectory(run, want)

    CONTROLLERS = ["route1", "route1_contraction", "lqr", "lambda"]

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_converging_rollout(self, pendulum_paths, name):
        runs = self._rollouts(pendulum_paths, name, [0.1, -0.2, 0.15], 1000)
        assert runs[-1].converged
        self._assert_same_as_reference(runs)

    @pytest.mark.parametrize("name", CONTROLLERS)
    @pytest.mark.parametrize("at", [1, 3, 4 * 7 + 2, 4 * 40 + 1])
    def test_controller_raising_at_a_stage(self, pendulum_paths, name, at):
        runs = self._rollouts(pendulum_paths, name, [0.3, -0.5, 0.4], 40, at, "raise")
        assert runs[-1].diagnostic.endswith(f"call {at} failed")
        self._assert_same_as_reference(runs)

    @pytest.mark.parametrize("name", CONTROLLERS)
    @pytest.mark.parametrize("at", [1, 4 * 5 + 1, 4 * 5 + 3])
    def test_huge_output_makes_the_next_state_nonfinite(self, pendulum_paths, name, at):
        with np.errstate(all="ignore"):
            runs = self._rollouts(pendulum_paths, name, [0.3, -0.5, 0.4], 40, at, "huge")
        assert runs[-1].diagnostic == "diverged"
        self._assert_same_as_reference(runs)

    @pytest.mark.parametrize("name", CONTROLLERS)
    @pytest.mark.parametrize("at", [2, 4 * 9 + 1, 4 * 40 + 1])
    def test_wrong_length_output(self, pendulum_paths, name, at):
        """A short or long output raises, during the steps and at the final
        node (call 4K + 1): an unmarked controller's ``u``, and for route 1,
        whose feedback forms ``u`` itself, the momentum, with the diagnostic
        of :func:`feedback` on both stages."""
        for fault, size in (("short", 2), ("long", 4)):
            runs = self._rollouts(pendulum_paths, name, [0.3, -0.5, 0.4], 40, at, fault)
            if name.startswith("route1"):
                assert runs[-1].diagnostic.endswith(
                    f"momentum has {size} entries per state, expected n=3"
                )
            else:
                assert "expected 1 entries" in runs[-1].diagnostic
            self._assert_same_as_reference(runs)

    def test_a_numpy_step_runs_on_python_floats(self, stage_cases, monkeypatch):
        """``dt`` and ``T`` of numpy's scalar type give the trajectory of
        Python floats bit for bit, and every stage point is Python floats."""
        sys_, _, controllers = stage_cases["pendulum"]
        entry = sys_.f_and_g_floats
        types = set()

        def recording(xs):
            types.update(map(type, xs))
            return entry(xs)

        monkeypatch.setattr(ControlAffineSystem, "f_and_g_floats", property(lambda s: recording))
        x0 = [0.3, -0.5, 0.4]
        for ctrl in controllers.values():
            want = closed_loop(sys_, ctrl, x0, dt=1e-2, T=2.0)
            types.clear()
            got = closed_loop(sys_, ctrl, x0, dt=np.float64(1e-2), T=np.float64(2.0))
            assert types == {float}
            self._assert_same_trajectory(got, want)


def _pid_controller(x):
    """Zero input until ``x1 < 0.5``, then an error naming the process."""
    if x[0] < 0.5:
        raise RuntimeError(f"pid {os.getpid()}")
    return np.zeros(1)


class TestConcurrentTable:
    """The cells of a table run in forked workers, one per usable CPU."""

    X0S = [[1.0, 0.0], [0.8, -0.3], [0.1, 0.0, 0.0]]  # the last has the wrong dimension

    def _table(self, tmp_path, controllers, x0s=None):
        """The table's rows and, per cell that wrote its trajectory file, its bytes."""
        paths = {}

        def path(name, i):
            paths[name, i] = tmp_path / f"{name}_{i}.csv"
            return str(paths[name, i])

        rows = compare_controllers(
            _linear_system()[0], controllers, self.X0S if x0s is None else x0s,
            dt=1e-2, T=3.0, trajectory_csv=path,
        )
        return rows, {cell: p.read_bytes() for cell, p in paths.items() if p.exists()}

    def test_pooled_table_equals_the_per_cell_rollouts(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sys_, _, _ = _linear_system()
        K, _ = lqr_controller(linearize(sys_))

        def truncating(x):
            if x[0] < 0.5:
                raise RuntimeError("lookup table exhausted")
            return np.zeros(1)

        controllers = [("lqr", linear_controller(K)), ("truncating", truncating)]
        rows, files = self._table(tmp_path, controllers)
        assert [(r.controller, r.ic_index) for r in rows] == [
            (name, i) for name, _ in controllers for i in range(3)
        ]
        assert sorted(files) == [(name, i) for name, _ in controllers for i in range(2)]
        assert multiprocessing.active_children() == []
        for row in rows:
            ctrl = dict(controllers)[row.controller]
            x0 = self.X0S[row.ic_index]
            np.testing.assert_array_equal(row.x0, x0)
            if row.ic_index == 2:
                with pytest.raises(ValueError) as info:
                    closed_loop(sys_, ctrl, x0, dt=1e-2, T=3.0)
                assert row.diagnostic == f"rollout failed: {info.value}"
                assert row.diverged and not row.converged
                assert np.isnan(row.running_cost) and np.isnan(row.max_abs_state)
                continue
            alone = closed_loop(sys_, ctrl, x0, dt=1e-2, T=3.0)
            assert files[row.controller, row.ic_index] == _csv_bytes(alone, tmp_path)
            assert row.converged == alone.converged and row.diverged == alone.diverged
            assert row.diagnostic == (alone.diagnostic or "")
            assert row.running_cost == alone.running_cost
            assert row.max_abs_state == np.max(np.abs(alone.states))
        assert "lookup table exhausted" in rows[3].diagnostic

    def test_pooled_cells_run_in_worker_processes(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        rows, _ = self._table(tmp_path, [("pid", _pid_controller)], self.X0S[:2])
        pids = {int(r.diagnostic.rsplit(" ", 1)[1]) for r in rows}
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, x0s", [({0}, X0S[:2]), ({0, 1}, X0S[:1])])
    def test_one_cpu_or_one_cell_runs_in_the_calling_process(
        self, monkeypatch, tmp_path, cpus, x0s
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        rows, _ = self._table(tmp_path, [("pid", _pid_controller)], x0s)
        assert len(rows) == len(x0s)
        for r in rows:
            assert r.diagnostic.endswith(f"pid {os.getpid()}")

    def test_an_interrupt_starts_no_further_cell(self, monkeypatch, tmp_path):
        """A Ctrl-C (``SIGINT``) to the calling process cancels the cells
        not yet started and joins the pool before it propagates."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        table = os.getpid()

        def slow(x):
            if x[1] == 0.0:  # only the first stage of a cell is at x0 = (k, 0)
                (tmp_path / f"{x[0]:g}").touch()
                if x[0] == 1.0:  # cell 1, in a worker, interrupts the table
                    os.kill(table, signal.SIGINT)
            time.sleep(1e-3)
            return np.ones(1)

        x0s = [[float(k), 0.0] for k in range(40)]
        with pytest.raises(KeyboardInterrupt):
            compare_controllers(_linear_system()[0], [("slow", slow)], x0s, dt=1e-2, T=1.0)
        assert multiprocessing.active_children() == []
        assert 1 <= len(os.listdir(tmp_path)) < len(x0s)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_workers_exit_when_the_table_process_is_killed(self, tmp_path):
        """A table process killed mid-run leaves no worker running."""
        script = f"""
import os, time
import numpy as np
from koopmanhj.simulate import compare_controllers
from koopmanhj.systems import control_affine_system

def slow(x):
    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
    time.sleep(0.01)
    return np.zeros(1)

sys_ = control_affine_system(1, 1, f=lambda x: -x, g=lambda x: np.array([[1.0]]),
                             D=np.eye(1), q=lambda x: 0.5 * float(x @ x))
os.sched_getaffinity = lambda pid: {{0, 1}}
compare_controllers(sys_, [("slow", slow)], [[1.0]] * 4, dt=0.1, T=100.0)
"""
        src = str(Path(simulate.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, "-c", script],
                                env=dict(os.environ, PYTHONPATH=src))
        try:
            deadline = time.monotonic() + 60.0
            while len(os.listdir(tmp_path)) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [int(name) for name in os.listdir(tmp_path)]
            assert len(workers) == 2 and proc.pid not in workers
        finally:
            proc.kill()
            proc.wait()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        deadline = time.monotonic() + 30.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_each_cell_writes_its_trajectory_csv(self, monkeypatch, tmp_path, cpus):
        """Each cell writes its file where it runs, in the calling process or
        in a worker, with the bytes of its rollout alone; a write that
        raises fails its own cell only, with the error's text."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

        def path(name, i):
            return str((tmp_path / "missing" if i == 1 else tmp_path) / f"{name}_{i}.csv")

        sys_, ctrl = _linear_system()[0], lambda x: -0.5 * x[:1]
        x0s = self.X0S[:2] + [[0.5, 0.5]]
        rows = compare_controllers(
            sys_, [("z", ctrl)], x0s, dt=1e-2, T=1.0, trajectory_csv=path,
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z_0.csv", "z_2.csv"]
        for i in (0, 2):
            alone = closed_loop(sys_, ctrl, x0s[i], dt=1e-2, T=1.0)
            assert Path(path("z", i)).read_bytes() == _csv_bytes(alone, tmp_path)
        assert [r.diagnostic for r in rows] == [
            "", f"rollout failed: [Errno 2] No such file or directory: '{path('z', 1)}'", "",
        ]
        assert multiprocessing.active_children() == []


def test_route1_rollout_with_the_collapsed_gradient():
    """A pendulum rollout fed back from the collapsed value gradient stays
    within round-off of one fed back from the contraction
    ``(dPhi/dx)^T L Phi`` of the same fitted set, and converges as it does."""
    sys_ = builtin_pendulum(9.81)
    box = np.array([[-0.5, 0.5], [-1.0, 1.0], [-1.0, 1.0]])
    eig = approximate_eigenfunction_set(
        sys_.f, linearize(sys_).A, monomial_basis(3, 2, 2), sample_domain(box, 3000, 5)
    )
    sol = procedure1_solve(sys_, eig)
    assert sol.grad_poly is not None

    def contraction_control(x):
        Phi, jac = eig.Phi_jac(np.asarray(x, dtype=float))
        return feedback(sys_, x, np.einsum("i,ij,jk->k", Phi, sol.L, jac))

    x0 = [0.3, -0.5, 0.4]
    got = closed_loop(sys_, sol.control, x0, dt=1e-2, T=15.0)
    want = closed_loop(sys_, contraction_control, x0, dt=1e-2, T=15.0)
    assert got.converged and want.converged
    np.testing.assert_array_equal(got.times, want.times)
    for attr in ("states", "inputs", "cumulative_costs"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestInitialConditionCloud:
    def test_deterministic_and_bounded(self):
        a = pendulum_ic_cloud(seed=2024)
        b = pendulum_ic_cloud(seed=2024)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (10, 3)
        center = np.array([0.7, -4.2, 6.2])
        assert np.all(np.abs(a - center) <= 0.1 * np.abs(center) + 1e-12)
        c = pendulum_ic_cloud(seed=2025)
        assert np.max(np.abs(a - c)) > 0.0

    def test_custom_geometry(self):
        cloud = pendulum_ic_cloud(center=(2.0, -1.0), count=5, seed=1, rel_width=0.5)
        assert cloud.shape == (5, 2)
        assert np.all(np.abs(cloud - [2.0, -1.0]) <= [1.0, 0.5])


class TestCsvExport:
    def test_trajectory_file_layout(self, tmp_path):
        sys_, _, _ = _linear_system()
        K, _ = lqr_controller(linearize(sys_))
        traj = closed_loop(sys_, linear_controller(K), [0.3, -0.2], dt=1e-3, T=0.01)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "u1", "cumulative_cost"]
        assert len(rows) == 1 + traj.times.size
        k = 3
        assert float(rows[1 + k][0]) == traj.times[k]
        assert float(rows[1 + k][1]) == traj.states[k, 0]
        assert float(rows[1 + k][3]) == traj.inputs[k, 0]
        assert float(rows[-1][4]) == traj.running_cost

    def test_comparison_file_layout(self, tmp_path):
        sys_, _, _ = _linear_system()
        rows_in = compare_controllers(
            sys_, [("z", lambda x: np.zeros(1))], [[0.1, 0.2]], dt=1e-2, T=1.0
        )
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows_in, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "controller", "ic_index", "x0_1", "x0_2",
            "converged", "diverged", "running_cost", "max_abs_state", "diagnostic",
        ]
        assert rows[1][0] == "z"
        assert float(rows[1][2]) == 0.1
        assert rows[1][4] in ("True", "False")

    @staticmethod
    def _csv_writer_reference(traj, path):
        """The row-by-row ``csv.writer`` export the chunked writer replaces."""
        n, p = traj.states.shape[1], traj.inputs.shape[1]
        fmt = lambda v: f"{float(v):.17g}"  # noqa: E731
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                       + [f"u{i + 1}" for i in range(p)] + ["cumulative_cost"])
            for k in range(traj.times.size):
                if p == 0:
                    u_cols = []
                elif k < traj.inputs.shape[0]:
                    u_cols = [fmt(v) for v in traj.inputs[k]]
                elif traj.final_input is not None and traj.final_input.size == p:
                    u_cols = [fmt(v) for v in traj.final_input]
                else:
                    u_cols = [""] * p
                w.writerow([fmt(traj.times[k])] + [fmt(v) for v in traj.states[k]] + u_cols
                           + [fmt(traj.cumulative_costs[k])])

    def test_bytes_equal_the_csv_writer_export(self, tmp_path):
        """Closed-loop, truncated (no final input: empty u cells) and bare
        field rollouts, each longer than one formatting chunk."""
        sys_, _, _ = _linear_system()
        K, _ = lqr_controller(linearize(sys_))

        def bad(x):
            if x[0] < 0.5:
                raise RuntimeError("lookup table exhausted")
            return np.zeros(1)

        trajs = {
            "closed_loop": closed_loop(sys_, linear_controller(K), [0.3, -0.2], T=1.5),
            "truncated": closed_loop(sys_, bad, [1.0, 0.0], T=5.0),
            "bare": integrate_rk4(lambda x: -x, [1.0, -2.0], dt=1e-3, T=1.5),
        }
        assert trajs["truncated"].final_input is None
        assert trajs["truncated"].times.size > 600
        for name, traj in trajs.items():
            ref, out = tmp_path / f"{name}_ref.csv", tmp_path / f"{name}.csv"
            self._csv_writer_reference(traj, str(ref))
            write_trajectory_csv(traj, str(out))
            assert out.read_bytes() == ref.read_bytes(), name


# Cells of a numeric table: integers (exact in a float), the IEEE special
# values, subnormals, the largest magnitudes and any other float.
_TABLE_CELLS = st.one_of(
    st.integers(-(2**53), 2**53),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@st.composite
def _tables(draw):
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_TABLE_CELLS, min_size=cols, max_size=cols), max_size=30))
    header = draw(st.lists(st.text("abcxyz_019", min_size=1, max_size=6),
                           min_size=cols, max_size=cols))
    return header, rows


class TestTableCsv:
    """The one numeric-table writer against the ``csv.writer`` rows it replaced."""

    @staticmethod
    def _csv_writer_reference(path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([simulate._fmt(c) for c in row])

    @settings(max_examples=200, deadline=None)
    @given(_tables())
    def test_bytes_equal_the_csv_writer_rows(self, tmp_path_factory, table):
        header, rows = table
        tmp = tmp_path_factory.mktemp("table")
        self._csv_writer_reference(tmp / "ref.csv", header, rows)
        write_table_csv(tmp / "out.csv", header, np.array(rows, dtype=float).reshape(-1, len(header)))
        assert (tmp / "out.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    def test_tables_longer_than_one_chunk(self, tmp_path):
        rng = np.random.default_rng(8)
        table = rng.standard_normal((3 * simulate._CSV_CHUNK + 7, 3)) * 10.0 ** rng.integers(
            -320, 308, size=(1, 3)
        )
        table[5, 0], table[600, 1], table[-1, 2] = np.nan, -np.inf, -0.0
        header = ["a", "b", "c"]
        self._csv_writer_reference(tmp_path / "ref.csv", header, table.tolist())
        write_table_csv(tmp_path / "out.csv", header, table)
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
