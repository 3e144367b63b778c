"""Tests for the fixed-step rollout, cost accumulation, and comparisons.

Oracles: exact solutions of scalar linear dynamics, energy conservation of
the undamped oscillator, the closed-form regulator cost-to-go
``0.5 x0^T P x0`` on linear-quadratic problems, and trapezoid-rule error
bounds for the accumulated running cost.
"""
import csv

import numpy as np
import pytest

from koopmanhj.galerkin import linear_eigenfunction_set
from koopmanhj.procedure1 import example1_eigenfunction_set, procedure1_solve
from koopmanhj.simulate import (
    Trajectory,
    closed_loop,
    compare_controllers,
    integrate_rk4,
    linear_controller,
    lqr_controller,
    pendulum_ic_cloud,
    write_comparison_csv,
    write_trajectory_csv,
)
from koopmanhj.spectral import solve_riccati
from koopmanhj.systems import builtin_example1, control_affine_system, linearize


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

    def test_table_order_and_callback(self):
        sys_, _, _ = _linear_system()
        K, _ = lqr_controller(linearize(sys_))
        seen = []
        rows = compare_controllers(
            sys_,
            [("a", linear_controller(K)), ("b", lambda x: np.zeros(1))],
            [[0.1, 0.0], [0.0, 0.1]],
            dt=1e-2,
            T=1.0,
            on_trajectory=lambda name, i, traj: seen.append(
                (name, i, isinstance(traj, Trajectory))
            ),
        )
        assert [(r.controller, r.ic_index) for r in rows] == [
            ("a", 0), ("a", 1), ("b", 0), ("b", 1)
        ]
        assert seen == [("a", 0, True), ("a", 1, True), ("b", 0, True), ("b", 1, True)]

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


    def test_single_state_controllers_get_one_state(self):
        """A controller written for one state is called on one state: an
        output with as many entries as inputs times initial conditions is
        not mistaken for a batch, and each cell is its rollout alone."""
        sys_, _, _ = _linear_system()
        G = np.array([[0.4, 0.1]])
        x0s = [[1.0, -0.5], [-0.3, 0.8]]
        for ctrl in (lambda x: -G @ x, lambda x: np.array([-x[0]])):
            trajs = {}
            rows = compare_controllers(
                sys_, [("c", ctrl)], x0s, dt=1e-2, T=1.0,
                on_trajectory=lambda name, i, traj: trajs.__setitem__(i, traj),
            )
            for i, x0 in enumerate(x0s):
                alone = closed_loop(sys_, ctrl, x0, dt=1e-2, T=1.0)
                np.testing.assert_array_equal(trajs[i].states, alone.states)
                np.testing.assert_array_equal(trajs[i].inputs, alone.inputs)
                assert rows[i].running_cost == alone.running_cost
                assert alone.inputs[0] == pytest.approx(ctrl(np.array(x0, dtype=float)))


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
