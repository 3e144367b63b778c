"""Tests for the eigenfunction-coordinate quadratic solution (route 1).

Closed-form anchors used below, all checkable by hand:

* example system, unit control weight: Vt = [[1, -2], [1, 1]],
  R1 = Vt R0 Vt^T = [[1, 1], [1, 1]] and Q1 = I (the state cost is
  0.5 (phi1^2 + phi2^2) by construction);
* the eigenfunction-coordinate Riccati solution for Lambda = diag(-1, 2)
  with those weights, computed independently via the Hamiltonian-matrix
  route at high precision;
* scalar cubic system: Lambda = -1, R1 = Q1 = 1 gives the quadratic
  equation L^2 + 2L - 1 = 0, so L = sqrt(2) - 1.
"""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bitwise import assert_same_bits, state_rows
from koopmanhj import procedure1
from koopmanhj.basis import monomial_basis, monomial_exponents
from koopmanhj.galerkin import (
    SampleSet,
    _derive_seed,
    approximate_eigenfunction_set,
    linear_eigenfunction_set,
    sample_domain,
)
from koopmanhj.procedure1 import (
    _MOMENTUM_SEED_XOR,
    HJSolution1,
    compute_R1_Q1,
    example1_eigenfunction_set,
    procedure1_solve,
    verify_generating_function,
    verify_nominal_integrability,
)
from koopmanhj.spectral import solve_riccati
from koopmanhj.systems import (
    builtin_example1,
    builtin_pendulum,
    hj_residual,
    linearize,
    polynomial_system,
)

# Riccati solution in eigenfunction coordinates for the example system at
# unit control weight, frozen from the independent Hamiltonian-matrix route.
L_EXAMPLE1 = np.array(
    [[0.491356, -0.622839], [-0.622839, 5.359873]]
)
# u*(x) = c1 x1 + c2 x2 + c3 sin(x2) for the same configuration.
USTAR_COEFFS = (-4.6056, -0.2630, -4.7370)


class TestCostTransport:
    def test_example_weights_in_eigenfunction_coordinates(self):
        lin = linearize(builtin_example1(1.0))
        Vt = np.array([[1.0, -2.0], [1.0, 1.0]])
        R1, Q1 = compute_R1_Q1(lin, Vt)
        np.testing.assert_allclose(R1, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(Q1, np.eye(2), atol=1e-12)

    def test_congruence_keeps_symmetry_and_definiteness(self):
        rng = np.random.default_rng(0)
        lin = linearize(builtin_example1(0.5))
        for _ in range(10):
            Vt = rng.normal(size=(2, 2))
            while abs(np.linalg.det(Vt)) < 0.1:
                Vt = rng.normal(size=(2, 2))
            R1, Q1 = compute_R1_Q1(lin, Vt)
            np.testing.assert_allclose(R1, R1.T, atol=1e-12)
            np.testing.assert_allclose(Q1, Q1.T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(Q1) > 0)
            assert np.min(np.linalg.eigvalsh(R1)) > -1e-12

    def test_singular_vt_rejected(self):
        lin = linearize(builtin_example1())
        with pytest.raises(ValueError, match="singular"):
            compute_R1_Q1(lin, np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestExampleSolution:
    def test_cost_matrix_matches_frozen_value(self):
        sol = procedure1_solve(builtin_example1(1.0), example1_eigenfunction_set())
        np.testing.assert_allclose(sol.L, L_EXAMPLE1, atol=1e-5)
        assert np.all(np.linalg.eigvalsh(sol.L) > 0)

    def test_riccati_equation_satisfied(self):
        sol = procedure1_solve(builtin_example1(1.0), example1_eigenfunction_set())
        Lam = sol.eig.Lambda
        resid = Lam.T @ sol.L + sol.L @ Lam - sol.L @ sol.R1 @ sol.L + sol.Q1
        assert np.linalg.norm(resid) < 1e-10

    def test_control_coefficients(self):
        """u*(x) = c1 x1 + c2 x2 + c3 sin x2 exactly for the closed-form
        eigenfunctions; extract the coefficients by collocation."""
        sol = procedure1_solve(builtin_example1(1.0), example1_eigenfunction_set())
        c1 = float(sol.control(np.array([1.0, 0.0]))[0])
        u_a = float(sol.control(np.array([0.0, 1.0]))[0])
        u_b = float(sol.control(np.array([0.0, 2.0]))[0])
        M = np.array([[1.0, np.sin(1.0)], [2.0, np.sin(2.0)]])
        c2, c3 = np.linalg.solve(M, [u_a, u_b])
        np.testing.assert_allclose(
            [c1, c2, c3], USTAR_COEFFS, atol=2e-4
        )

    def test_riccati_embedding_solves_state_equation(self):
        sol = procedure1_solve(builtin_example1(0.5), example1_eigenfunction_set())
        lin = linearize(builtin_example1(0.5))
        P = sol.riccati_embedding
        np.testing.assert_allclose(
            P, [[2.52998244, 2.87082869], [2.87082869, 7.59549878]], atol=1e-6
        )
        resid = lin.A.T @ P + P @ lin.A - P @ lin.R0 @ P + lin.Q0
        assert np.linalg.norm(resid) < 1e-8

    def test_control_consistent_with_value_gradient(self):
        sys_ = builtin_example1(0.5)
        sol = procedure1_solve(sys_, example1_eigenfunction_set())
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            u_direct = sol.control(x)
            u_from_grad = -np.linalg.solve(
                sys_.D, sys_.g(x).T @ sol.grad_value(x)
            )
            np.testing.assert_allclose(u_direct, u_from_grad, atol=1e-12)

    def test_stationary_equation_residual_small_near_origin(self):
        sys_ = builtin_example1(1.0)
        sol = procedure1_solve(sys_, example1_eigenfunction_set())
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-0.3, 0.3, size=2)
            assert abs(hj_residual(sys_, sol.grad_value, x)) < 5e-3

    def test_value_positive_away_from_origin(self):
        sol = procedure1_solve(builtin_example1(1.0), example1_eigenfunction_set())
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(100, 2))
        X = X[np.linalg.norm(X, axis=1) > 0.1]
        assert np.all(sol.value(X) > 0)
        assert sol.value(np.zeros(2)) == pytest.approx(0.0, abs=1e-15)


class TestCubicSolution:
    def test_scalar_riccati_closed_form(self):
        sys_ = polynomial_system(
            [[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]]
        )
        basis = monomial_basis(1, 2, 9)
        samples = sample_domain(np.array([[-0.4, 0.4]]), 5000, 0)
        eig = approximate_eigenfunction_set(
            sys_.f, linearize(sys_).A, basis, samples
        )
        sol = procedure1_solve(sys_, eig)
        assert sol.L.shape == (1, 1)
        assert sol.L[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)

    def test_cubic_value_matches_closed_form_of_this_route(self):
        """This route's value for the cubic system is
        V(x) = 0.5 (sqrt(2)-1) psi(x)^2 with psi = x / sqrt(1 - x^2)."""
        sys_ = polynomial_system(
            [[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]]
        )
        basis = monomial_basis(1, 2, 9)
        samples = sample_domain(np.array([[-0.4, 0.4]]), 5000, 0)
        eig = approximate_eigenfunction_set(
            sys_.f, linearize(sys_).A, basis, samples
        )
        sol = procedure1_solve(sys_, eig)
        xs = np.linspace(-0.4, 0.4, 81).reshape(-1, 1)
        psi = xs[:, 0] / np.sqrt(1 - xs[:, 0] ** 2)
        v_exact = 0.5 * (np.sqrt(2) - 1) * psi**2
        np.testing.assert_allclose(sol.value(xs), v_exact, atol=1e-3)


class TestLinearEmbedding:
    def test_random_lq_problems_recover_state_riccati(self):
        """With linear eigenfunctions the transported Riccati solution,
        pushed back to state coordinates, is the state-space solution.

        Candidates are filtered for conditioning with an independent
        reference solver so the test exercises well-posed problems only."""
        import scipy.linalg

        rng = np.random.default_rng(12)
        from koopmanhj.systems import control_affine_system

        n_done = 0
        for _ in range(500):
            if n_done >= 10:
                break
            n = int(rng.integers(2, 5))
            A = rng.normal(size=(n, n))
            ev = np.linalg.eigvals(A)
            if np.min(np.abs(ev.real)) < 0.3 or np.any(np.abs(ev.imag) > 0):
                continue
            B = rng.normal(size=(n, 1))
            C = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
            if np.linalg.matrix_rank(C) < n:
                continue
            P_ref = scipy.linalg.solve_continuous_are(
                A, B, np.eye(n), np.eye(1)
            )
            if np.linalg.norm(P_ref) > 50.0:
                continue
            sys_ = control_affine_system(
                n, 1,
                f=(lambda A_: lambda x: A_ @ x)(A),
                g=(lambda B_: lambda x: B_)(B),
                D=np.eye(1),
                q=lambda x: 0.5 * float(x @ x),
                jacobian_f=(lambda A_: lambda x: A_)(A),
                grad_q=lambda x: np.asarray(x, dtype=float),
                hess_q0=np.eye(n),
            )
            box = np.array([[-1.0, 1.0]] * n)
            eig = linear_eigenfunction_set(A, box)
            sol = procedure1_solve(sys_, eig)
            lin = linearize(sys_)
            P_direct = solve_riccati(lin.A, lin.R0, lin.Q0).P
            np.testing.assert_allclose(
                sol.riccati_embedding, P_direct,
                atol=1e-8 * (1 + np.linalg.norm(P_direct)),
            )
            n_done += 1
        assert n_done == 10

    def test_imaginary_axis_eigenvalue_rejected(self):
        sys_ = builtin_example1()
        eig = example1_eigenfunction_set()
        object.__setattr__(eig, "Lambda", np.diag([0.0, 2.0]))
        with pytest.raises(ValueError, match="hyperbolicity"):
            procedure1_solve(sys_, eig)


class TestIntegrability:
    def test_constants_of_motion_with_exact_eigenfunctions(self):
        sys_ = builtin_example1(1.0)
        eig = example1_eigenfunction_set(box=((-0.5, 0.5), (-0.5, 0.5)))
        samples = sample_domain(np.array([[-0.5, 0.5], [-0.5, 0.5]]), 20, 0)
        rep = verify_nominal_integrability(
            eig, sys_, samples, t_grid=(0.25, 0.5, 1.0), dt=1e-4
        )
        assert rep.n_samples > 0
        assert rep.max_H0_drift_rel < 1e-6
        assert rep.max_X_drift_rel < 1e-4
        assert rep.max_P_drift_rel < 1e-4

    def test_generating_function_residual(self):
        sys_ = builtin_example1(1.0)
        eig = example1_eigenfunction_set(box=((-0.5, 0.5), (-0.5, 0.5)))
        samples = sample_domain(np.array([[-0.5, 0.5], [-0.5, 0.5]]), 20, 0)
        rep = verify_generating_function(
            eig, sys_, np.array([0.3, -0.2]), samples, t_grid=(0.0, 0.5, 1.0)
        )
        assert rep.max_residual < 1e-10
        assert rep.per_time_max.shape == (3,)

    def test_generating_function_equals_separate_passes(self):
        """The report has the bits of the residual contracted by hand from
        ``Phi`` and the jacobian of ``Phi_jac``."""
        sys_ = builtin_example1(1.0)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        eig = approximate_eigenfunction_set(
            sys_.f, linearize(sys_).A, monomial_basis(2, 2, 4), sample_domain(box, 3000, 2)
        )
        samples = sample_domain(0.5 * box, 200, 7)
        P, t_grid = np.array([0.3, -0.2]), (0.0, 0.25, 1.0)
        rep = verify_generating_function(eig, sys_, P, samples, t_grid)
        pts = samples.points
        Phi, jac = eig.Phi(pts), eig.Phi_jac(pts)[1]
        dPhiF = np.einsum("kij,kj->ki", jac, sys_.f(pts))
        want = np.zeros(len(t_grid))
        for i, t in enumerate(t_grid):
            Et = scipy.linalg.expm(-eig.Lambda * t)
            res = dPhiF @ (P @ Et) - Phi @ (P @ eig.Lambda @ Et)
            want[i] = float(np.max(np.abs(res)))
        np.testing.assert_array_equal(rep.per_time_max, want)
        assert rep.max_residual == want.max()

    def test_fitted_eigenfunctions_keep_small_drift(self):
        sys_ = builtin_example1(1.0)
        lin = linearize(sys_)
        basis = monomial_basis(2, 2, 5)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        eig = approximate_eigenfunction_set(
            sys_.f, lin.A, basis, sample_domain(box, 10000, 0)
        )
        samples = sample_domain(np.array([[-0.3, 0.3], [-0.3, 0.3]]), 10, 0)
        rep = verify_nominal_integrability(
            eig, sys_, samples, t_grid=(0.25, 0.5), dt=1e-4
        )
        assert rep.max_H0_drift_rel < 1e-3
        assert rep.max_X_drift_rel < 1e-2

    def test_constants_of_motion_with_a_complex_pair(self):
        """On a linear spiral (eigenvalues -1 +- 2i) the exact set
        ``Phi = Vt x`` keeps ``X`` and ``P`` constant, which takes the
        exponential of a 2x2 block ``[[a, -b], [b, a]]``."""
        sys_ = polynomial_system(
            [[(-1.0, (1, 0)), (2.0, (0, 1))], [(-2.0, (1, 0)), (-1.0, (0, 1))]],
            [[1.0], [0.5]], [[1.0]], np.eye(2),
        )
        box = np.array([[-0.5, 0.5], [-0.5, 0.5]])
        eig = linear_eigenfunction_set(linearize(sys_).A, box)
        assert eig.blocks == ((0, 2),)
        rep = verify_nominal_integrability(
            eig, sys_, sample_domain(box, 20, 0), t_grid=(0.25, 0.5, 1.0), dt=1e-3
        )
        assert rep.n_excluded < rep.n_samples
        assert rep.max_X_drift_rel < 1e-9
        assert rep.max_P_drift_rel < 1e-9


def test_fitted_sets_and_solutions_are_equal_to_themselves_only():
    """A fitted set and its route-1 solution equal and hash as themselves
    only: a second fit on the same samples is another object."""
    sys_ = builtin_example1(1.0)
    samples = sample_domain(np.array([[-1.0, 1.0], [-1.0, 1.0]]), 200, 3)

    def fit():
        eig = approximate_eigenfunction_set(
            sys_.f, linearize(sys_).A, monomial_basis(2, 2, 3), samples)
        return eig, procedure1_solve(sys_, eig)

    first, second = fit(), fit()
    for a, b in zip(first, second):
        assert a == a and {a: "fit"}[a] == "fit"
        assert (a == b) is False and b not in {a: "fit"}


def _spiral_system():
    """Stable spiral (eigenvalues -1 +- 2i) with quadratic and cubic terms."""
    return polynomial_system(
        [[(-1.0, (1, 0)), (2.0, (0, 1)), (1.0, (1, 1))],
         [(-2.0, (1, 0)), (-1.0, (0, 1)), (1.0, (2, 0)), (-1.0, (0, 3))]],
        [[1.0], [0.5]], [[1.0]], np.eye(2),
    )


# name: (system, box, (deg_min, deg_max), L, sample seed)
COLLAPSE_CASES = {
    "pendulum": (lambda: builtin_pendulum(9.81),
                 np.array([[-3.0, 3.0], [-5.0, 5.0], [-5.0, 5.0]]), (2, 2), 10000, 12345),
    "example1": (lambda: builtin_example1(0.5),
                 np.array([[-1.0, 1.0], [-1.0, 1.0]]), (2, 5), 10000, 0),
    "spiral": (_spiral_system, np.array([[-0.5, 0.5], [-0.5, 0.5]]), (2, 4), 3000, 1),
}


@pytest.fixture(scope="module")
def collapsed():
    """Route-1 solutions of the fitted sets of :data:`COLLAPSE_CASES`."""
    sols = {}
    for name, (make, box, (dmin, dmax), L, seed) in COLLAPSE_CASES.items():
        sys_ = make()
        eig = approximate_eigenfunction_set(
            sys_.f, linearize(sys_).A, monomial_basis(sys_.n, dmin, dmax),
            sample_domain(box, L, seed),
        )
        sols[name] = procedure1_solve(sys_, eig)
    return sols


def _box_points(name):
    box = COLLAPSE_CASES[name][1]
    n = box.shape[0]
    return st.integers(1, 8).flatmap(lambda k: st.tuples(*[
        arrays(np.float64, (k,), elements=st.floats(lo, hi, width=64)) for lo, hi in box
    ])).map(lambda cols: np.stack(cols, axis=-1).reshape(-1, n))


def _assert_rel_max(got, want, rel=1e-12):
    """``got`` within ``rel`` of ``want``, relative to the largest entry of
    ``want``; the floor 1e-300 keeps subnormal round-off out of the ratio."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


def _contraction(sol, X):
    """The value gradient ``(dPhi/dx)^T L Phi`` of ``sol``'s fitted set."""
    Phi, jac = sol.eig.Phi_jac(np.asarray(X, dtype=float))
    return np.einsum("...i,ij,...jk->...k", Phi, sol.L, jac)


class TestCollapsedGradient:
    """The route-1 value gradient as one polynomial against the contraction
    ``(dPhi/dx)^T L Phi`` of the same fitted set."""

    @pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
    def test_equals_contraction_on_the_box(self, collapsed, name):
        sol = collapsed[name]
        assert sol.grad_poly is not None
        box = COLLAPSE_CASES[name][1]
        X = sample_domain(box, 2000, 11).points
        _assert_rel_max(sol.grad_value(X), _contraction(sol, X))
        np.testing.assert_array_equal(sol.grad_value(np.zeros(sol.eig.n)), 0.0)

    @pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
    def test_equals_contraction_one_state_and_batches(self, collapsed, name):
        sol = collapsed[name]

        @settings(max_examples=30, deadline=None)
        @given(_box_points(name))
        def check(X):
            want = _contraction(sol, X)
            _assert_rel_max(sol.grad_value(X), want)
            _assert_rel_max(sol.grad_value(X[None]), want[None])
            for x in X:
                _assert_rel_max(sol.grad_value(x), _contraction(sol, x))

        check()

    @pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
    def test_term_count(self, collapsed, name):
        """A dictionary of degree d gives C(n + 2d - 1, n) - 1 terms of
        degrees 1..2d - 1."""
        sol = collapsed[name]
        n, d = sol.eig.n, COLLAPSE_CASES[name][2][1]
        table, Cp = sol.grad_poly.table, sol.grad_poly.C
        assert table.M == math.comb(n + 2 * d - 1, n) - 1
        assert Cp.shape == (n, table.M)
        # the linear terms are the Riccati embedding: grad V = P_r x + ...
        np.testing.assert_allclose(Cp[:, :n], sol.riccati_embedding, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
    def test_derived_from_eig_and_L(self, collapsed, name):
        """Every solution, however it is built, collapses its own ``eig``
        and ``L``: a copy with another ``L`` gets a gradient to match."""
        sol = collapsed[name]
        X = sample_domain(COLLAPSE_CASES[name][1], 200, 12).points
        direct = HJSolution1(eig=sol.eig, sys=sol.sys, L=sol.L, R1=sol.R1,
                             Q1=sol.Q1, riccati=sol.riccati)
        np.testing.assert_array_equal(direct.grad_value(X), sol.grad_value(X))
        scaled = dataclasses.replace(sol, L=3.0 * sol.L)
        assert scaled.grad_poly is not sol.grad_poly
        _assert_rel_max(scaled.grad_value(X), _contraction(scaled, X))
        _assert_rel_max(scaled.grad_value(X), 3.0 * sol.grad_value(X))
        with pytest.raises(TypeError):
            HJSolution1(eig=sol.eig, sys=sol.sys, L=sol.L, R1=sol.R1, Q1=sol.Q1,
                        riccati=sol.riccati, grad_poly=None)

    @pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
    def test_one_state_runs_the_compiled_polynomial(self, collapsed, name):
        """One state's gradient sums the table form's terms in another
        order: within 1e-12 of the sum of the terms' magnitudes on the box.
        Its batch row has its bits.  It is compiled on the first one-state
        call, not by the solve, and kept on the solution."""
        sol = dataclasses.replace(collapsed[name])
        assert "floats" not in vars(sol.grad_poly)
        table, Cp = sol.grad_poly.table, sol.grad_poly.C
        X = sample_domain(COLLAPSE_CASES[name][1], 2000, 13).points
        mono = table.eval(X)
        got = np.array([sol.grad_value(x) for x in X])
        code = vars(sol.grad_poly).get("floats")
        assert code is not None
        assert np.all(np.abs(got - mono @ Cp.T) <= 1e-12 * (np.abs(mono) @ np.abs(Cp).T))
        assert code(X[0].tolist()) == tuple(got[0])
        assert_same_bits(sol.grad_value(X), got)
        sol.grad_value(X[1])
        assert sol.grad_poly.floats is code

    @pytest.mark.parametrize("name", sorted(COLLAPSE_CASES))
    def test_one_state_is_nan_where_the_table_form_is(self, collapsed, name):
        sol = collapsed[name]
        table, Cp = sol.grad_poly.table, sol.grad_poly.C

        @settings(max_examples=60, deadline=None)
        @given(state_rows(sol.eig.n))
        def check(X):
            with np.errstate(all="ignore"):
                want = table.eval(X) @ Cp.T
                for k, x in enumerate(X):
                    np.testing.assert_array_equal(np.isnan(sol.grad_value(x)), np.isnan(want[k]))

        check()

    def test_sets_without_a_monomial_basis_keep_the_contraction(self):
        sys_ = builtin_example1(1.0)
        assert procedure1_solve(sys_, example1_eigenfunction_set()).grad_poly is None
        eig = linear_eigenfunction_set(linearize(sys_).A, np.array([[-1.0, 1.0]] * 2))
        assert procedure1_solve(sys_, eig).grad_poly is not None


def _batches(n):
    """Batches of :func:`state_rows`' coordinates: ``(B, n)`` with B = 1..100
    and ``(a, b, n)`` with a * b <= 100."""
    flat = st.integers(1, 100).flatmap(lambda k: state_rows(n, k))
    nested = st.tuples(st.integers(1, 10), st.integers(1, 10)).flatmap(
        lambda ab: state_rows(n, ab[0] * ab[1]).map(lambda X: X.reshape(ab + (n,)))
    )
    return flat | nested


def _linear_solution():
    sys_ = builtin_example1(1.0)
    eig = linear_eigenfunction_set(linearize(sys_).A, np.array([[-1.0, 1.0]] * 2))
    return procedure1_solve(sys_, eig)


def _many_term_drift():
    """Three coordinates, each with all 55 monomials of degree 1..5."""
    expo = monomial_exponents(3, 1, 5).tolist()
    coef = np.random.default_rng(5).uniform(-1.0, 1.0, (3, len(expo))).tolist()
    return polynomial_system([list(zip(c, map(tuple, expo))) for c in coef],
                             np.ones((3, 1)), [[1.0]], np.eye(3))


class TestBatchRowsHaveOneStateBits:
    """One evaluator per polynomial map: every row of a batch ``(B, n)`` or
    ``(a, b, n)`` has the bits of its state's own call, non-finite states
    included, for the collapsed value gradient and the polynomial drift."""

    @staticmethod
    def _check(fn, n):
        @settings(max_examples=40, deadline=None)
        @given(_batches(n))
        def check(X):
            with np.errstate(all="ignore"):
                rows = fn(X)
                assert rows.shape == X.shape
                for idx in np.ndindex(X.shape[:-1]):
                    assert_same_bits(fn(X[idx]), rows[idx])

        check()

    @pytest.mark.parametrize("name", ["pendulum", "example1", "linear"])
    def test_grad_value(self, collapsed, name):
        sol = _linear_solution() if name == "linear" else collapsed[name]
        assert sol.grad_poly is not None
        self._check(sol.grad_value, sol.eig.n)

    @pytest.mark.parametrize("make", [
        lambda: polynomial_system([[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]]),
        lambda: polynomial_system(
            [[(-1.0, (1, 0)), (0.5, (0, 2))], [(0.5, (1, 0)), (-2.0, (0, 1)), (1.0, (1, 1))]],
            [[1.0, 0.3], [0.2, 0.7]], [[1.0, 0.2], [0.2, 2.0]], [[1.0, 0.1], [0.1, 0.5]],
        ),
        _many_term_drift,
    ], ids=["cubic", "two_input", "many_terms"])
    def test_polynomial_drift(self, make):
        sys_ = make()
        self._check(sys_.f, sys_.n)


def _integrability_per_sample(eig, sys_, samples, t_grid, dt):
    """Reference: each flow integrated on its own by an RK4 loop, checked
    against the box at every node and recorded at the grid times."""
    rng = np.random.default_rng(_derive_seed(samples.seed, _MOMENTUM_SEED_XOR))
    P0 = rng.uniform(samples.box[:, 0], samples.box[:, 1], size=(samples.L, eig.n))
    steps = sorted({int(round(t / dt)) for t in t_grid})
    lo, hi = eig.box[:, 0], eig.box[:, 1]

    def rhs(x, p):
        return sys_.f(x), -sys_.jacobian_f(x).T @ p

    drift = {"H0": 0.0, "X": 0.0, "P": 0.0}
    rel = dict(drift)
    excluded = 0
    for x, p in zip(samples.points, P0):
        vals = {"X": [], "P": [], "H0": []}
        for k in range(steps[-1] + 1):
            if np.any(x < lo) or np.any(x > hi):
                excluded += 1
                break
            if k in steps:
                vals["X"].append(scipy.linalg.expm(-eig.Lambda * (k * dt)) @ eig.Phi(x))
                vals["P"].append(scipy.linalg.expm(eig.Lambda.T * (k * dt))
                                 @ np.linalg.solve(eig.Phi_jac(x)[1].T, p))
                vals["H0"].append(np.array([p @ sys_.f(x)]))
            k1x, k1p = rhs(x, p)
            k2x, k2p = rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
            k3x, k3p = rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
            k4x, k4p = rhs(x + dt * k3x, p + dt * k3p)
            x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            p = p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        else:
            for key, v in vals.items():
                V = np.array(v)
                d = float(np.max(np.abs(V - V[0])))
                drift[key] = max(drift[key], d)
                rel[key] = max(rel[key], d / (1.0 + float(np.max(np.abs(V[0])))))
    return drift, rel, excluded


class TestIntegrabilityBatch:
    @pytest.mark.parametrize("half_width", [6.0, 0.6])
    def test_batch_equals_per_sample_flows(self, half_width):
        """AC8's inputs (its first three samples): the one batch over (x, p)
        gives the per-sample result to 1e-12, flows leaving the box (most of
        them for the narrow box) excluded alike."""
        sys_ = builtin_example1(1.0)
        eig = example1_eigenfunction_set(box=((-half_width, half_width),) * 2)
        full = sample_domain(np.array([[-0.5, 0.5], [-0.5, 0.5]]), 50, 0)
        samples = SampleSet(points=full.points[:3], box=full.box, seed=full.seed)
        t_grid = (0.25, 0.5, 0.75, 1.0)
        rep = verify_nominal_integrability(eig, sys_, samples, t_grid=t_grid, dt=1e-4)
        drift, rel, excluded = _integrability_per_sample(eig, sys_, samples, t_grid, 1e-4)
        assert rep.n_samples == 3
        assert rep.n_excluded == excluded and 0 < excluded < 3
        got = {"H0": (rep.max_H0_drift, rep.max_H0_drift_rel),
               "X": (rep.max_X_drift, rep.max_X_drift_rel),
               "P": (rep.max_P_drift, rep.max_P_drift_rel)}
        for key, (d, r) in got.items():
            assert abs(d - drift[key]) <= 1e-12
            assert abs(r - rel[key]) <= 1e-12

    @pytest.mark.parametrize("half_width", [6.0, 0.6])
    def test_batches_of_rows_equal_one_batch(self, half_width, monkeypatch):
        """AC8's 50 samples on a coarser step: batches of 7 flows, each
        within a smaller state record, give the report of one batch."""
        sys_ = builtin_example1(1.0)
        eig = example1_eigenfunction_set(box=((-half_width, half_width),) * 2)
        samples = sample_domain(np.array([[-0.5, 0.5], [-0.5, 0.5]]), 50, 0)
        t_grid = (0.25, 0.5, 0.75, 1.0)
        one = verify_nominal_integrability(eig, sys_, samples, t_grid=t_grid, dt=1e-3)
        monkeypatch.setattr(procedure1, "_FLOW_RECORD_FLOATS", 7 * 1001 * 4)
        rows = verify_nominal_integrability(eig, sys_, samples, t_grid=t_grid, dt=1e-3)
        assert rows.n_excluded == one.n_excluded < 50
        for name in ("H0", "X", "P"):
            for suffix in ("", "_rel"):
                attr = f"max_{name}_drift{suffix}"
                assert getattr(rows, attr) == pytest.approx(getattr(one, attr), rel=1e-12, abs=0)


class TestDimensionChecks:
    def test_mismatched_dimensions_rejected(self):
        sys1 = polynomial_system([[(-1.0, (1,))]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="n="):
            procedure1_solve(sys1, example1_eigenfunction_set())
