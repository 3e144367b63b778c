"""Tests for the system models, linearization, and Hamiltonian lift."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitwise import assert_same_bits, state_rows

from koopmanhj import systems
from koopmanhj.systems import (
    builtin_example1,
    builtin_pendulum,
    control_affine_system,
    hamiltonian_value,
    hamiltonian_vector_field,
    feedback,
    hj_residual,
    linearize,
    polynomial_system,
)
from koopmanhj.spectral import solve_riccati


def _fd_jac(fun, x, h=1e-6):
    n = x.size
    fx = np.asarray(fun(x), dtype=float)
    J = np.zeros((fx.size, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2 * h)
    return J


class TestExample1:
    def test_origin_is_equilibrium(self):
        sys_ = builtin_example1()
        np.testing.assert_allclose(sys_.f(np.zeros(2)), np.zeros(2), atol=1e-14)
        assert sys_.q(np.zeros(2)) == 0.0

    def test_jacobian_matches_finite_differences(self):
        sys_ = builtin_example1()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            np.testing.assert_allclose(
                sys_.jacobian_f(x), _fd_jac(sys_.f, x), atol=5e-9
            )

    def test_grad_q_matches_finite_differences(self):
        sys_ = builtin_example1()
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            fd = _fd_jac(lambda y: np.array([sys_.q(y)]), x).ravel()
            np.testing.assert_allclose(sys_.grad_q(x), fd, atol=5e-9)

    def test_linearization_eigenvalues(self):
        lin = linearize(builtin_example1())
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(lin.A).real), [-1.0, 2.0], atol=1e-9
        )

    def test_closed_form_eigenfunction_relations(self):
        """phi1 = x1 - 2 x2 and phi2 = x1 + sin x2 satisfy the eigenfunction
        equations of the uncontrolled drift with eigenvalues -1 and 2."""
        sys_ = builtin_example1()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            fx = sys_.f(x)
            grad_phi1 = np.array([1.0, -2.0])
            phi1 = x[0] - 2 * x[1]
            assert abs(grad_phi1 @ fx - (-1.0) * phi1) < 1e-10
            grad_phi2 = np.array([1.0, np.cos(x[1])])
            phi2 = x[0] + np.sin(x[1])
            assert abs(grad_phi2 @ fx - 2.0 * phi2) < 1e-10

    def test_control_weight_scales_energy_matrix(self):
        sys_half = builtin_example1(0.5)
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(
            sys_half.R(x), [[2.0, 0.0], [0.0, 0.0]], atol=1e-14
        )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="control_weight"):
            builtin_example1(0.0)


class TestHamiltonianLift:
    def test_H0_spectrum_for_example(self):
        ham = hamiltonian_vector_field(builtin_example1(0.5))
        ev = np.sort_complex(np.linalg.eigvals(ham.H0))
        np.testing.assert_allclose(
            np.sort(ev.real),
            [-np.sqrt(7), -np.sqrt(2), np.sqrt(2), np.sqrt(7)],
            atol=1e-9,
        )
        np.testing.assert_allclose(ev.imag, 0.0, atol=1e-9)

    def test_field_linearizes_to_H0(self):
        ham = hamiltonian_vector_field(builtin_example1())
        z0 = np.zeros(4)
        np.testing.assert_allclose(ham.F(z0), np.zeros(4), atol=1e-12)
        J = _fd_jac(ham.F, z0)
        np.testing.assert_allclose(J, ham.H0, atol=1e-6)

    def test_nonlinear_part_vanishes_to_first_order(self):
        ham = hamiltonian_vector_field(builtin_example1())
        for eps in (1e-3, 1e-4):
            z = eps * np.array([1.0, -1.0, 0.5, 0.25])
            # Fn = F - H0 z is quadratic near the origin
            assert np.linalg.norm(ham.F(z) - z @ ham.H0.T) < 10 * eps**2

    def test_energy_conserved_along_flow(self):
        """H is a first integral of its own canonical equations."""
        sys_ = builtin_example1(0.5)
        ham = hamiltonian_vector_field(sys_)
        z = np.array([0.2, -0.1, 0.05, 0.15])
        dt = 1e-4
        h_start = hamiltonian_value(sys_, z[:2], z[2:])
        for _ in range(1000):
            k1 = ham.F(z)
            k2 = ham.F(z + 0.5 * dt * k1)
            k3 = ham.F(z + 0.5 * dt * k2)
            k4 = ham.F(z + dt * k3)
            z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        h_end = hamiltonian_value(sys_, z[:2], z[2:])
        assert abs(h_end - h_start) < 1e-8

    def test_hamiltonian_value_mismatched_shapes(self):
        sys_ = builtin_example1()
        with pytest.raises(ValueError, match="length"):
            hamiltonian_value(sys_, np.zeros(2), np.zeros(3))


def _user_system():
    """A system built from maps of one state, lifted to batches row by row."""
    return control_affine_system(
        2, 1,
        f=lambda x: np.array([x[1], -np.sin(x[0]) - 0.3 * x[1]]),
        g=lambda x: np.array([[0.0], [1.0 + 0.5 * x[0] ** 2]]),
        D=np.eye(1) * 0.7,
        q=lambda x: 0.5 * float(x @ x),
    )


class TestHamiltonianValueBatch:
    """H(x, p) on a batch is the per-row value, and the stationary residual
    is H at the value gradient, both bit for bit."""

    SYSTEMS = {
        "example1": lambda: builtin_example1(0.5),
        "pendulum": lambda: builtin_pendulum(9.81),
        "user": _user_system,
    }

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_batch_equals_per_row_calls(self, name):
        sys_ = self.SYSTEMS[name]()
        rng = np.random.default_rng(3)
        X = rng.uniform(-2.0, 2.0, size=(40, sys_.n))
        P = rng.uniform(-3.0, 3.0, size=(40, sys_.n))
        H = hamiltonian_value(sys_, X, P)
        assert H.shape == (40,)
        one = [hamiltonian_value(sys_, x, p) for x, p in zip(X, P)]
        assert all(isinstance(h, float) for h in one)
        assert np.array_equal(H, one)
        H3 = hamiltonian_value(sys_, X.reshape(4, 10, -1), P.reshape(4, 10, -1))
        assert np.array_equal(H3, H.reshape(4, 10))

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_hj_residual_is_the_hamiltonian_at_the_gradient(self, name):
        sys_ = self.SYSTEMS[name]()
        M = np.arange(1.0, 1.0 + sys_.n**2).reshape(sys_.n, sys_.n) / sys_.n**2

        def V_grad(X):
            return X @ M.T + 0.1 * X**3

        X = np.random.default_rng(4).uniform(-1.5, 1.5, size=(30, sys_.n))
        assert np.array_equal(hj_residual(sys_, V_grad, X), hamiltonian_value(sys_, X, V_grad(X)))
        assert hj_residual(sys_, V_grad, X[0]) == hamiltonian_value(sys_, X[0], V_grad(X[0]))

    def test_batches_of_unequal_shape_are_rejected(self):
        sys_ = builtin_example1()
        with pytest.raises(ValueError, match="length"):
            hamiltonian_value(sys_, np.zeros((3, 2)), np.zeros((2, 2)))


class TestHJResidual:
    def test_zero_for_exact_lq_value(self):
        """On a linear system the Riccati quadratic form solves the
        stationary equation exactly."""
        A = np.array([[0.0, 1.0], [-1.0, -0.5]])
        B = np.array([[0.0], [1.0]])
        sys_ = control_affine_system(
            2, 1,
            f=lambda x: A @ x,
            g=lambda x: B,
            D=np.eye(1),
            q=lambda x: 0.5 * float(x @ x),
            jacobian_f=lambda x: A,
            grad_q=lambda x: x,
            hess_q0=np.eye(2),
        )
        lin = linearize(sys_)
        P = solve_riccati(lin.A, lin.R0, lin.Q0).P
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            assert abs(hj_residual(sys_, lambda y: P @ y, x)) < 1e-10

    def test_signed_residual_detects_wrong_value(self):
        sys_ = builtin_example1()
        res = hj_residual(sys_, lambda y: np.zeros(2), np.array([0.5, 0.5]))
        assert res == pytest.approx(sys_.q(np.array([0.5, 0.5])))


class TestPendulum:
    def test_mass_matrix_and_origin(self):
        # f raises where the mass matrix is singular, so a finite f(0)
        # shows M(0) is nonsingular
        sys_ = builtin_pendulum(9.81)
        assert sys_.n == 3 and sys_.p == 1
        np.testing.assert_allclose(sys_.f(np.zeros(3)), np.zeros(3), atol=1e-12)

    def test_linearization_spectrum(self):
        lin = linearize(builtin_pendulum(9.81))
        ev = np.sort(np.linalg.eigvals(lin.A).real)
        np.testing.assert_allclose(ev, [-5.6069, -0.1428, 5.5680], atol=2e-4)

    def test_jacobian_matches_finite_differences(self):
        sys_ = builtin_pendulum(9.81)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            np.testing.assert_allclose(
                sys_.jacobian_f(x), _fd_jac(sys_.f, x), atol=1e-6
            )

    def test_rejects_nonpositive_gravity(self):
        with pytest.raises(ValueError, match="g_gravity"):
            builtin_pendulum(-1.0)


def _reference_pendulum_maps(g_gravity):
    """The pendulum's f, g, jacobian_f and jacobian_g as separate formulas,
    each computing its own cos/sin and determinant: the reference for the
    model whose maps share one evaluation of those terms."""
    Mc, m, b, l, I = 0.5, 0.2, 0.1, 0.3, 0.006
    ml = m * l
    Il2 = I + m * l * l

    def coords(x):
        return x.T if x.ndim <= 2 else np.moveaxis(x, -1, 0)

    def f(x):
        th, ps, vt = coords(x)
        c, s = np.cos(th - np.pi), np.sin(th - np.pi)
        det = (ml * c) * (ml * c) - (Mc + m) * Il2
        r1 = -b * vt + ml * ps * ps * s
        r2 = -m * g_gravity * l * s
        out = np.empty(x.shape)
        out[..., 0] = ps
        out[..., 1] = (ml * c * r1 - (Mc + m) * r2) / det
        out[..., 2] = (-Il2 * r1 + ml * c * r2) / det
        return out

    def g(x):
        th = x[..., 0]
        c = np.cos(th - np.pi)
        det = (ml * c) * (ml * c) - (Mc + m) * Il2
        out = np.zeros(x.shape[:-1] + (3, 1))
        out[..., 1, 0] = ml * c / det
        out[..., 2, 0] = -Il2 / det
        return out

    def jacobian_f(x):
        th, ps, vt = coords(x)
        c, s = np.cos(th - np.pi), np.sin(th - np.pi)
        det = (ml * c) * (ml * c) - (Mc + m) * Il2
        r1 = -b * vt + ml * ps * ps * s
        r2 = -m * g_gravity * l * s
        acc1 = (ml * c * r1 - (Mc + m) * r2) / det
        acc2 = (-Il2 * r1 + ml * c * r2) / det
        ddet = -2.0 * ml * ml * c * s
        dr1 = ml * ps * ps * c
        dr2 = -m * g_gravity * l * c
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = (-ml * s * r1 + ml * c * dr1 - (Mc + m) * dr2 - acc1 * ddet) / det
        J[..., 2, 0] = (-ml * s * r2 - Il2 * dr1 + ml * c * dr2 - acc2 * ddet) / det
        dr1_dps = 2 * ml * ps * s
        J[..., 1, 1] = ml * c * dr1_dps / det
        J[..., 2, 1] = -Il2 * dr1_dps / det
        J[..., 1, 2] = ml * c * -b / det
        J[..., 2, 2] = -Il2 * -b / det
        return J

    def jacobian_g(x):
        th = x[..., 0]
        c, s = np.cos(th - np.pi), np.sin(th - np.pi)
        det = (ml * c) * (ml * c) - (Mc + m) * Il2
        ddet = -2.0 * ml * ml * c * s
        out = np.zeros(x.shape[:-1] + (3, 1, 3))
        out[..., 1, 0, 0] = ml * (-s * det - c * ddet) / (det * det)
        out[..., 2, 0, 0] = Il2 * ddet / (det * det)
        return out

    return {"f": f, "g": g, "jacobian_f": jacobian_f, "jacobian_g": jacobian_g}


class TestPendulumSharedTerms:
    """The pendulum's maps share one evaluation of cos, sin and the mass
    determinant; each equals its own separate formula bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        gravity=st.floats(0.5, 30.0),
        lead=st.sampled_from([(), (1,), (7,), (2, 5)]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3]),
    )
    def test_maps_equal_the_separate_formulas(self, gravity, lead, seed, scale):
        sys_ = builtin_pendulum(gravity)
        ref = _reference_pendulum_maps(gravity)
        x = np.random.default_rng(seed).uniform(-scale, scale, size=lead + (3,))
        for name, fn in ref.items():
            got, want = getattr(sys_, name)(x), fn(x)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_one_shared_map_only_for_the_model_maps(self):
        sys_ = builtin_pendulum(9.81)
        wrapped = dataclasses.replace(sys_, g=lambda x: sys_.g(x))
        assert sys_.f_and_g_floats is not None
        assert wrapped.f_and_g_floats is None
        assert builtin_example1().f_and_g_floats is None
        assert _user_system().f_and_g_floats is None

    def test_nonfinite_angles_give_nonfinite_maps_without_raising(self):
        sys_ = builtin_pendulum(9.81)
        x = np.array([np.nan, 0.0, 0.0])
        fx, gx = sys_.f(x), sys_.g(x)
        assert np.isnan(fx[1:]).all() and np.isnan(gx[1:, 0]).all()


class TestPendulumFloatEntry:
    """``f_and_g_floats``, the one-state stage's plant, against the maps."""

    @settings(max_examples=60, deadline=None)
    @given(X=state_rows(3))
    def test_equals_f_and_g(self, X):
        sys_ = builtin_pendulum(9.81)
        with np.errstate(all="ignore"):
            F, G = sys_.f(X), sys_.g(X)
            for k, x in enumerate(X):
                fx, gx = sys_.f_and_g_floats(x.tolist())
                assert all(type(v) is float for v in fx + sum(gx, ()))
                assert_same_bits(np.array(fx), F[k])
                assert_same_bits(np.array(gx), G[k])
                assert_same_bits(np.array(fx), sys_.f(x))
                assert_same_bits(np.array(gx), sys_.g(x))

    def test_names_the_singular_angle(self, monkeypatch):
        """The inertia of ``test_pendulum_names_the_singular_angle``
        (``tests/test_properties.py``) makes ``M(3 pi / 4)`` singular."""
        ml2 = (systems._PEND_m * systems._PEND_l) ** 2
        inertia = ml2 / (2 * (systems._PEND_M + systems._PEND_m)) - (
            systems._PEND_m * systems._PEND_l ** 2
        )
        monkeypatch.setattr(systems, "_PEND_I", inertia)
        sys_ = builtin_pendulum(9.81)
        x = [3 * np.pi / 4, 1.0, 0.0]
        with pytest.raises(RuntimeError, match=r"singular at theta=2\.35619") as raised:
            sys_.f_and_g_floats(x)
        with pytest.raises(RuntimeError) as batch:
            sys_.f(np.array([x]))
        assert str(raised.value) == str(batch.value)


def _cubic():
    return polynomial_system([[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[0.8]], [[1.0]])


def _matmul_feedback(sys_, P, G):
    """The matrix-product form ``-((p^T g) D^{-1}^T)`` that ``feedback`` replaced."""
    return -((P[..., None, :] @ G)[..., 0, :] @ sys_.D_inv.T)


class TestFeedbackOrder:
    """``feedback`` sums left to right from +0.0: the bits of the matrix
    products where ``g`` holds zeros and ones, their value to rounding
    elsewhere."""

    @pytest.mark.parametrize("make", [lambda: builtin_example1(0.5), _cubic])
    def test_batch_equals_the_matrix_products(self, make):
        sys_ = make()

        @settings(max_examples=60, deadline=None)
        @given(st.data())
        def check(data):
            X = data.draw(state_rows(sys_.n))
            P = data.draw(state_rows(sys_.n, rows=len(X)))
            with np.errstate(all="ignore"):
                G = sys_.g(X)
                assert_same_bits(feedback(sys_, X, P, G), _matmul_feedback(sys_, P, G))

        check()

    @pytest.mark.parametrize("size", [2, 4])
    def test_momentum_of_another_length_raises(self, size):
        """One state and a batch, with or without ``g(x)``: one diagnostic
        that names the length received and ``n``."""
        sys_ = builtin_pendulum(9.81)
        X = np.array([[0.3, -0.5, 0.4], [0.1, 0.2, -0.3]])
        P = np.ones((2, size))
        message = f"momentum has {size} entries per state, expected n=3"
        for x, p in ((X[0], P[0]), (X, P), (X, P[0])):
            for gx in (None, sys_.g(x)):
                with pytest.raises(ValueError) as info:
                    feedback(sys_, x, p, gx)
                assert str(info.value) == message

    def test_pendulum_within_rounding(self):
        sys_ = builtin_pendulum(9.81)
        rng = np.random.default_rng(22)
        X = rng.uniform([-3.0, -5.0, -5.0], [3.0, 5.0, 5.0], size=(2000, 3))
        P = rng.uniform(-1.0, 1.0, size=(2000, 3))
        G = sys_.g(X)
        u, want = feedback(sys_, X, P, G), _matmul_feedback(sys_, P, G)
        assert np.all(np.abs(u - want) <= 1e-15 * (1.0 + np.abs(want)))


class TestOneStateEqualsBatchRow:
    """A map of one state ``(n,)``, the float path of an RK4 stage, gives the
    bits of that state's row in a batch ``(k, n)``."""

    @staticmethod
    def _check(maps, X):
        with np.errstate(all="ignore"):
            for fn in maps:
                rows = fn(X)
                for k, x in enumerate(X):
                    assert_same_bits(fn(x), rows[k])

    @settings(max_examples=60, deadline=None)
    @given(X=state_rows(3))
    @example(X=np.array([[-2.9770948811633966, -1.2616784167566841, -5.937537833718748]]))
    def test_pendulum_maps(self, X):
        """The pinned state is one where ``(m l c) ** 2`` of a float (C
        ``pow``) and of an array (a product) differ in the last bit."""
        sys_ = builtin_pendulum(9.81)
        self._check([
            sys_.f, sys_.g, sys_.q, sys_.grad_q, sys_.jacobian_f, sys_.jacobian_g,
        ], X)

    @settings(max_examples=40, deadline=None)
    @given(X=state_rows(2))
    @example(X=np.array([[0.9514173310348322, -0.6484999842675832]]))
    def test_example1_maps(self, X):
        """The pinned state is one where ``q`` differed as a ``** 2``."""
        sys_ = builtin_example1(0.5)
        self._check([sys_.f, sys_.g, sys_.q, sys_.grad_q, sys_.jacobian_f], X)

    @pytest.mark.parametrize("make", [lambda: builtin_pendulum(9.81), builtin_example1])
    def test_feedback_with_and_without_gx(self, make):
        sys_ = make()

        @settings(max_examples=40, deadline=None)
        @given(st.data())
        def check(data):
            X = data.draw(state_rows(sys_.n))
            P = data.draw(state_rows(sys_.n, rows=len(X)))
            with np.errstate(all="ignore"):
                G = sys_.g(X)
                rows, rows_gx = feedback(sys_, X, P), feedback(sys_, X, P, G)
                assert feedback(sys_, X, P[0], G).shape == rows.shape  # p broadcasts
                for k, x in enumerate(X):
                    assert_same_bits(feedback(sys_, x, P[k]), rows[k])
                    assert_same_bits(feedback(sys_, x, P[k], sys_.g(x)), rows_gx[k])
                    assert_same_bits(feedback(sys_, x, P[k], G[k]), rows_gx[k])

        check()

    @pytest.mark.parametrize("terms", [
        [[(-1.0, (1,)), (1.0, (3,))]],
        [[(-1.0, (1, 0)), (2.0, (0, 1)), (1.0, (1, 1))],
         [(-2.0, (1, 0)), (-1.0, (0, 1)), (1.0, (2, 0)), (-1.0, (0, 3))]],
        [[(-1.0, (1, 0, 0)), (1.0, (3, 1, 0))], [(2.0, (0, 2, 1))],
         [(-0.5, (1, 1, 1)), (0.25, (0, 0, 5))]],
    ])
    def test_polynomial_drift_one_state_and_batch_row(self, terms):
        """One state's drift and its batch row are both the sum of the terms
        to rounding: within 1e-14 of the sum of the terms' magnitudes.  Both
        run the one compiled sum, so the row has the state's bits too."""
        n = len(terms)
        sys_ = polynomial_system(terms, np.ones((n, 1)), [[1.0]], np.eye(n))
        row = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)

        @settings(max_examples=40, deadline=None)
        @given(st.lists(row, min_size=1, max_size=6))
        def check(rows):
            X = np.array(rows)
            F = sys_.f(X)
            for k, x in enumerate(rows):
                parts = [[c * math.prod(v**e for v, e in zip(x, ex)) for c, ex in r]
                         for r in terms]
                want = np.array([math.fsum(t) for t in parts])
                tol = 1e-14 * np.array([math.fsum(map(abs, t)) for t in parts]) + 1e-300
                assert np.all(np.abs(sys_.f(X[k]) - want) <= tol)
                assert np.all(np.abs(F[k] - want) <= tol)
                assert_same_bits(sys_.f(X[k]), F[k])

        check()


class TestPolynomialSystem:
    def test_cubic_scalar_drift(self):
        sys_ = polynomial_system(
            [[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]]
        )
        for x in (-0.5, 0.0, 0.3, 1.2):
            assert sys_.f(np.array([x]))[0] == pytest.approx(-x + x**3)
            assert sys_.jacobian_f(np.array([x]))[0, 0] == pytest.approx(
                -1 + 3 * x**2
            )
        lin = linearize(sys_)
        np.testing.assert_allclose(lin.A, [[-1.0]])
        np.testing.assert_allclose(lin.Q0, [[1.0]])

    def test_two_dimensional_coupled(self):
        sys_ = polynomial_system(
            [
                [(-1.0, (1, 0))],
                [(2.0, (0, 1)), (-1.0, (2, 0))],
            ],
            [[1.0], [0.0]],
            [[1.0]],
            np.eye(2),
        )
        x = np.array([0.5, -0.3])
        np.testing.assert_allclose(sys_.f(x), [-0.5, -0.85])
        np.testing.assert_allclose(
            sys_.jacobian_f(x), [[-1.0, 0.0], [-1.0, 2.0]], atol=1e-14
        )

    @pytest.mark.parametrize("exponents", [(1.5,), (True,), (2.0,), (np.True_,)])
    def test_non_integer_exponent_rejected(self, exponents):
        """An exponent is an int (Python or numpy), never truncated."""
        with pytest.raises(ValueError, match=r"f_terms\[1\] has a non-integer exponent"):
            polynomial_system([[(-1.0, (1, 0))], [(-1.0, (0,) + exponents)]],
                              [[1.0], [0.0]], [[1.0]], np.eye(2))

    def test_numpy_integer_exponents_accepted(self):
        sys_ = polynomial_system([[(-1.0, (np.int64(1),)), (1.0, (np.int32(3),))]],
                                 [[1.0]], [[1.0]], [[1.0]])
        assert sys_.f(np.array([0.5]))[0] == -0.5 + 0.125

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            polynomial_system([[(1.0, (0,))]], [[1.0]], [[1.0]], [[1.0]])

    @pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
    def test_a_drift_with_no_terms_keeps_its_shape(self, shape):
        """A coordinate without terms is zero, for one state and a batch,
        alone or next to a coordinate with terms."""
        X = np.arange(1.0, 1.0 + 2 * math.prod(shape)).reshape(shape + (2,))
        empty = polynomial_system([[]], [[1.0]], [[1.0]], [[1.0]])
        assert_same_bits(empty.f(X[..., :1]), np.zeros(shape + (1,)))
        mixed = polynomial_system([[], [(2.0, (1, 1))]], np.ones((2, 1)), [[1.0]], np.eye(2))
        want = np.stack([np.zeros(shape), 2.0 * X[..., 0] * X[..., 1]], axis=-1)
        assert_same_bits(mixed.f(X), want)

    @pytest.mark.parametrize("make", [
        lambda B: polynomial_system([[(-1.0, (1, 0))], [(-1.0, (0, 1))]], B, np.eye(2), np.eye(2)),
        lambda B: builtin_example1(),
    ], ids=["polynomial", "example1"])
    def test_constant_input_map_of_one_state_is_read_only(self, make):
        """One state's ``g`` is the input map itself, with the values of
        the batch's broadcast, and neither can be written."""
        B = np.array([[1.0, 0.0], [0.0, 2.0]])
        sys_ = make(B)
        G = sys_.g(np.zeros((3, sys_.n)))
        for x in (np.zeros(sys_.n), np.ones(sys_.n)):
            assert_same_bits(sys_.g(x), G[0])
            assert sys_.g(x) is sys_.g(np.zeros(sys_.n))
        for gx in (sys_.g(np.zeros(sys_.n)), G):
            with pytest.raises(ValueError, match="read-only"):
                gx[..., 0, 0] = 5.0
        B[0, 0] = 7.0  # the caller's matrix stays writable and is not shared
        assert sys_.g(np.zeros(sys_.n))[0, 0] == 1.0


class TestConstructionInvariants:
    def test_drift_must_vanish_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            control_affine_system(
                1, 1,
                f=lambda x: x + 1.0,
                g=lambda x: np.array([[1.0]]),
                D=np.eye(1),
                q=lambda x: 0.5 * float(x @ x),
                grad_q=lambda x: x,
                hess_q0=np.eye(1),
            )

    def test_control_weight_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            control_affine_system(
                1, 1,
                f=lambda x: -x,
                g=lambda x: np.array([[1.0]]),
                D=np.array([[-1.0]]),
                q=lambda x: 0.5 * float(x @ x),
                grad_q=lambda x: x,
                hess_q0=np.eye(1),
            )
