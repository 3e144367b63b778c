"""Tests for the zero-level-set solution route (route 2).

Closed-form anchors:

* For any linear-quadratic problem the zero-level set of the unstable
  eigenfunctions of the Hamiltonian lift is the graph ``p = P_r x`` of the
  stabilizing Riccati solution, and the linear parts of the fitted
  eigenfunctions are exact (they come from an eigendecomposition, not from
  samples), so ``Jl`` must match ``P_r`` to machine precision.
* Scalar cubic system ``xdot = -x + x^3 + u`` with unit weights: the
  stationary optimality condition is quadratic in ``p = V'(x)`` with roots
  ``f(x) +/- sqrt(f(x)^2 + x^2)``; the stabilizing branch has the sign of
  ``x``.  Taylor expansion gives ``V'(x) = (sqrt(2)-1) x + 2 c x^3 + ...``
  with ``c = (2 - sqrt(2))/4``.
"""
import dataclasses
import sys

import numpy as np
import pytest

from koopmanhj import galerkin
from koopmanhj.basis import monomial_basis, procedure2_basis, value_basis_xi3
from koopmanhj.galerkin import (
    HELDOUT_SEED_XOR,
    EigenfunctionSet,
    SampleSet,
    _derive_seed,
    assemble_galerkin,
    pde_residual_rms,
    sample_domain,
    solve_coefficients,
)
from koopmanhj.procedure1 import procedure1_solve
from koopmanhj.procedure2 import (
    UnstableEigenfunctions,
    default_phase_box,
    fit_value_Jn,
    linear_manifold,
    nonlinear_manifold,
    procedure2_solve,
    unstable_eigfns,
)
from koopmanhj.spectral import solve_riccati, unstable_left_subspace
from koopmanhj.systems import (
    builtin_example1,
    control_affine_system,
    hamiltonian_vector_field,
    hj_residual,
    linearize,
    polynomial_system,
)

JL_EXAMPLE1 = np.array([[4.60555128, 5.0], [5.0, 9.81665383]])
LAMBDA_U_EXAMPLE1 = np.array([1.30277564, 2.30277564])
EX1_BOX = np.array([[-0.4, 0.4], [-0.4, 0.4]])


def _rk4(F, z0, dt, steps):
    z = np.asarray(z0, dtype=float).copy()
    out = np.empty((steps + 1, z.size))
    out[0] = z
    for k in range(steps):
        k1 = F(z)
        k2 = F(z + 0.5 * dt * k1)
        k3 = F(z + 0.5 * dt * k2)
        k4 = F(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = z
    return out


@pytest.fixture(scope="module")
def example1_p2():
    sys_ = builtin_example1(1.0)
    basis = procedure2_basis(2, 6, 4)
    box = default_phase_box(sys_, EX1_BOX, margin=1.0)
    samples = sample_domain(box, 6000, 0)
    return sys_, procedure2_solve(sys_, basis, samples)


def _cubic_system():
    return polynomial_system(
        [[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]]
    )


def _cubic_p_true(x):
    f = -x + x**3
    return f + np.sign(x) * np.sqrt(f * f + x * x)


@pytest.fixture(scope="module")
def cubic_p2():
    """Cubic system fitted on a thin band around the true manifold.

    The training sample concentrates where the manifold lives, so the
    held-out check against a uniform draw over the enclosing box does not
    apply; an explicit loose tolerance disables it."""
    sys_ = _cubic_system()
    rng = np.random.default_rng(5)
    xs = rng.uniform(-0.35, 0.35, size=3000)
    ps = _cubic_p_true(xs) + rng.uniform(-0.05, 0.05, size=3000)
    pts = np.column_stack([xs, ps])
    box = np.array(
        [[-0.35, 0.35], [pts[:, 1].min() - 1e-9, pts[:, 1].max() + 1e-9]]
    )
    samples = SampleSet(points=pts, box=box, seed=None)
    sol = procedure2_solve(
        sys_,
        procedure2_basis(1, 7, 5),
        samples,
        xi3=value_basis_xi3(1, 2),
        fit_samples=np.linspace(-0.3, 0.3, 41).reshape(-1, 1),
        heldout_tol=1.0,
    )
    return sys_, sol


class TestLinearCoefficient:
    def test_example_matches_state_riccati(self, example1_p2):
        sys_, sol = example1_p2
        np.testing.assert_allclose(sol.Jl, JL_EXAMPLE1, atol=1e-7)
        lin = linearize(sys_)
        P_r = solve_riccati(lin.A, lin.R0, lin.Q0).P
        np.testing.assert_allclose(sol.Jl, P_r, atol=1e-10)
        assert sol.jl_asymmetry < 1e-10

    def test_asymmetry_is_relative_to_the_coefficient_norm(self, example1_p2):
        """The stored asymmetry is the value the solve report labels
        |Jl_raw - Jl_raw^T|_F / max(1, |Jl_raw|_F); on example 1 the norm
        exceeds one, so the raw and the relative asymmetry differ."""
        _, sol = example1_p2
        Jl_raw = linear_manifold(sol.eigs)
        norm = np.linalg.norm(Jl_raw)
        assert norm > 10.0
        raw = np.linalg.norm(Jl_raw - Jl_raw.T)
        assert sol.jl_asymmetry == pytest.approx(raw / max(1.0, norm), rel=1e-12, abs=0)

    def test_unstable_spectrum(self, example1_p2):
        _, sol = example1_p2
        assert all(size == 1 for _, size in sol.eigs.blocks)
        np.testing.assert_allclose(
            np.sort(np.diag(sol.eigs.Lambda)), LAMBDA_U_EXAMPLE1, atol=1e-7
        )

    def test_linear_system_has_no_nonlinear_content(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.5]])
        B = np.array([[1.0], [0.5]])
        sys_ = control_affine_system(
            2, 1,
            f=lambda x: A @ x,
            g=lambda x: B,
            D=np.eye(1),
            q=lambda x: 0.5 * float(x @ x),
            jacobian_f=lambda x: A,
            grad_q=lambda x: np.asarray(x, dtype=float),
            hess_q0=np.eye(2),
        )
        box = default_phase_box(sys_, [[-1, 1], [-1, 1]], margin=1.5)
        sol = procedure2_solve(
            sys_, procedure2_basis(2, 3, 2), sample_domain(box, 2000, 3)
        )
        assert np.max(np.abs(sol.eigs.Theta)) < 1e-8
        lin = linearize(sys_)
        P_r = solve_riccati(lin.A, lin.R0, lin.Q0).P
        np.testing.assert_allclose(sol.Jl, P_r, atol=1e-8)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=2)
            np.testing.assert_allclose(sol.p_star(x), P_r @ x, atol=1e-8)


class TestZeroLevelSet:
    def test_membership_is_exact(self, example1_p2):
        _, sol = example1_p2
        rng = np.random.default_rng(7)
        X = rng.uniform(-0.4, 0.4, size=(100, 2))
        Z = np.column_stack([X, np.array([sol.p_star(x) for x in X])])
        vals = sol.eigs.Phi(Z)
        assert np.max(np.abs(vals)) < 1e-8

    def test_control_consistent_with_manifold_momentum(self, example1_p2):
        sys_, sol = example1_p2
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.uniform(-0.4, 0.4, size=2)
            u = sol.control(x)
            u_ref = -np.linalg.solve(sys_.D, sys_.g(x).T @ sol.p_star(x))
            np.testing.assert_allclose(u, u_ref, atol=1e-12)

    def test_stationary_equation_residual(self, example1_p2):
        sys_, sol = example1_p2
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            x = rng.uniform(-0.4, 0.4, size=2)
            worst = max(worst, abs(hj_residual(sys_, lambda xx: sol.p_star(xx), x)))
        assert worst < 1e-3

    def test_flow_invariance(self, example1_p2):
        """Points of the zero-level set flow inside it: advect (x, p*(x))
        under the lifted field and compare p(t) against p*(x(t))."""
        sys_, sol = example1_p2
        ham = hamiltonian_vector_field(sys_)
        rng = np.random.default_rng(10)
        dt, steps = 1e-3, 1000
        for _ in range(5):
            x0 = rng.uniform(-0.3, 0.3, size=2)
            z0 = np.concatenate([x0, sol.p_star(x0)])
            traj = _rk4(ham.F, z0, dt, steps)
            drift = max(
                float(np.max(np.abs(z[2:] - sol.p_star(z[:2]))))
                for z in traj[:: steps // 20]
            )
            assert drift < 1e-2

    def test_value_requires_fit(self, example1_p2):
        _, sol = example1_p2
        assert sol.value_fit is None
        with pytest.raises(RuntimeError, match="value"):
            sol.value(np.array([0.1, 0.1]))


class TestCubicManifold:
    def test_momentum_matches_closed_form(self, cubic_p2):
        _, sol = cubic_p2
        xs = np.linspace(-0.3, 0.3, 121)
        err = max(
            abs(float(sol.p_star([x])[0]) - _cubic_p_true(x)) for x in xs
        )
        assert err < 1e-3

    def test_linear_coefficient_exact(self, cubic_p2):
        _, sol = cubic_p2
        assert sol.Jl[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)

    def test_quartic_coefficient(self, cubic_p2):
        _, sol = cubic_p2
        assert sol.value_fit is not None
        jn = float(sol.value_fit.Jn[0, 0])
        assert jn == pytest.approx((2.0 - np.sqrt(2.0)) / 4.0, abs=2e-2)
        assert sol.value_fit.fit_residual < 1e-3
        assert sol.value_fit.rank == 1

    def test_value_matches_integrated_momentum(self, cubic_p2):
        """V(x) - V(0) must equal the line integral of the manifold
        momentum; integrate the closed form numerically."""
        _, sol = cubic_p2
        for xt in (0.1, 0.2, 0.3, -0.25):
            s = np.linspace(0.0, xt, 2001)
            v_ref = np.trapezoid(_cubic_p_true(s), s)
            assert sol.value([xt]) == pytest.approx(v_ref, abs=2e-4)

    def test_closed_loop_decreases_value(self, cubic_p2):
        sys_, sol = cubic_p2

        def closed_loop(x):
            u = sol.control(x)
            return sys_.f(x) + sys_.g(x) @ u

        traj = _rk4(closed_loop, np.array([0.3]), 1e-3, 6000)
        vals = np.array([sol.value(x) for x in traj[::200]])
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(traj[-1, 0]) < 1e-2


class TestValueFitDiagnostics:
    def test_structurally_dependent_value_basis_rejected(self, cubic_p2):
        """In one dimension the degree-4 value dictionary makes two
        gradient-model columns proportional (both reduce to x^5), so the
        fit must refuse rather than return an arbitrary solution."""
        _, sol = cubic_p2
        with pytest.raises(RuntimeError, match="unidentifiable.*rank 5 < 6"):
            fit_value_Jn(
                sol,
                value_basis_xi3(1, 4),
                np.linspace(-0.3, 0.3, 41).reshape(-1, 1),
            )

    def test_nonquadratic_basis_rejected(self, cubic_p2):
        _, sol = cubic_p2

        class Fake:
            purely_nonlinear = False

        with pytest.raises(ValueError, match="purely nonlinear"):
            fit_value_Jn(sol, Fake(), np.zeros((3, 1)))

    def test_sample_shape_validated(self, cubic_p2):
        _, sol = cubic_p2
        with pytest.raises(ValueError, match="x_samples"):
            fit_value_Jn(sol, value_basis_xi3(1, 2), np.zeros((3, 2)))


class TestOneLinearManifoldPerSolve:
    def test_value_fit_uses_the_solution_graph(self, monkeypatch):
        """A route-2 solve with a value basis takes one ``-Wu2^{-1} Wu1``
        solve: the value fit reads the ``Jl_raw`` of the solution it serves."""
        from koopmanhj import procedure2

        seen = []

        def counting(eigs):
            seen.append(eigs)
            return linear_manifold(eigs)

        monkeypatch.setattr(procedure2, "linear_manifold", counting)
        sys_ = _cubic_system()
        box = default_phase_box(sys_, np.array([[-0.35, 0.35]]), margin=1.0)
        sol = procedure2_solve(
            sys_, procedure2_basis(1, 7, 5), sample_domain(box, 3000, 2),
            xi3=value_basis_xi3(1, 2),
        )
        assert sol.value_fit is not None
        assert len(seen) == 1 and seen[0] is sol.eigs


class TestOnePowerTablePerManifoldSolve:
    def test_batched_p_star_builds_one_power_table(self, example1_p2, monkeypatch):
        """``Xi1(x)`` and the ``Xi2`` monomials come from one power table."""
        from koopmanhj.basis import BasisSet

        calls = []
        powers = BasisSet.powers

        def counting(self, Z):
            calls.append(Z.shape)
            return powers(self, Z)

        monkeypatch.setattr(BasisSet, "powers", counting)
        _, sol = example1_p2
        X = np.random.default_rng(6).uniform(-0.4, 0.4, size=(7, 3, 2))
        assert sol.p_star(X).shape == (7, 3, 2)
        assert calls == [(7, 3, 2)]


class TestFailureModes:
    def test_heldout_validation_can_fail(self):
        sys_ = builtin_example1(1.0)
        box = default_phase_box(sys_, EX1_BOX, margin=1.0)
        with pytest.raises(RuntimeError, match="held-out"):
            procedure2_solve(
                sys_,
                procedure2_basis(2, 3, 2),
                sample_domain(box, 500, 0),
                heldout_tol=1e-18,
            )

    def test_complementarity_failure_detected(self):
        """With no control authority the unstable eigenvectors of the lift
        lose their momentum components and the manifold solve must refuse."""
        sys_ = control_affine_system(
            1, 1,
            f=lambda x: x.copy(),
            g=lambda x: np.array([[0.0]]),
            D=np.eye(1),
            q=lambda x: 0.5 * float(x @ x),
            jacobian_f=lambda x: np.array([[1.0]]),
            grad_q=lambda x: np.asarray(x, dtype=float),
            hess_q0=np.eye(1),
        )
        samples = sample_domain(np.array([[-1.0, 1.0], [-1.0, 1.0]]), 300, 0)
        with pytest.raises(RuntimeError, match="complementarity"):
            procedure2_solve(sys_, procedure2_basis(1, 2, 2), samples)

    @staticmethod
    def _singular_eigs():
        basis = procedure2_basis(1, 2, 2)
        U = np.zeros((1, basis.M))
        U[0, basis.N] = -2.0  # G2(x) = 1 - 2x vanishes at x = 0.5
        return TestFailureModes._scalar_eigs(basis, U)

    @staticmethod
    def _scalar_eigs(basis, U):
        return UnstableEigenfunctions(
            Lambda=np.array([[1.0]]),
            Vt=np.array([[0.0, 1.0]]),
            Theta=U,
            basis=basis,
            blocks=((0, 1),),
            block_residuals=np.zeros(1),
            heldout_residuals=np.zeros(1),
            cond_J=np.ones(1),
            box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        )

    def test_singular_momentum_matrix_names_the_point(self):
        with pytest.raises(RuntimeError, match=r"G2 singular at x=\[0.5\]"):
            nonlinear_manifold(self._singular_eigs(), np.array([0.5]))

    def test_non_finite_momentum_matrix_names_the_point(self):
        """At x = 1e200 the monomial x^2 overflows and its zero coefficient
        gives 0 * inf = NaN in G2; the solve names the point instead of
        failing inside the condition-number SVD."""
        X = np.array([[0.1], [1e200], [0.2]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"G2 not finite at x=\[1e\+200\]"):
                nonlinear_manifold(self._singular_eigs(), X)

    def test_non_finite_offset_names_the_point(self):
        """``G2 = 1`` stays finite while ``x^3`` of Xi1 overflows at 1e150."""
        basis = procedure2_basis(1, 3, 1)
        U = np.zeros((1, basis.M))
        U[0, 1] = 1.0  # the x^3 column of Xi1
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match=r"Psi_u\(x, 0\) not finite at x=\[1e\+150\]"):
                nonlinear_manifold(self._scalar_eigs(basis, U), np.array([1e150]))

    def test_dimension_mismatches_rejected(self):
        sys_ = _cubic_system()
        ham = hamiltonian_vector_field(sys_)
        with pytest.raises(ValueError, match="basis is for n="):
            unstable_eigfns(
                ham,
                procedure2_basis(2, 3, 2),
                sample_domain(np.array([[-1.0, 1.0]] * 4, dtype=float), 50, 0),
            )
        with pytest.raises(ValueError, match="samples have dim"):
            unstable_eigfns(
                ham,
                procedure2_basis(1, 3, 2),
                sample_domain(np.array([[-1.0, 1.0]] * 4, dtype=float), 50, 0),
            )


class TestPhaseBox:
    def test_momentum_rows_scale_with_linear_solution(self):
        sys_ = builtin_example1(1.0)
        box = default_phase_box(sys_, EX1_BOX, margin=1.0)
        assert box.shape == (4, 2)
        np.testing.assert_allclose(box[:2], EX1_BOX)
        lin = linearize(sys_)
        P_r = solve_riccati(lin.A, lin.R0, lin.Q0).P
        pmax = np.linalg.norm(P_r, 2) * 0.4
        np.testing.assert_allclose(box[2:], [[-pmax, pmax]] * 2, rtol=1e-12)
        wider = default_phase_box(sys_, EX1_BOX, margin=2.0)
        np.testing.assert_allclose(wider[2:], 2.0 * box[2:], rtol=1e-12)

    def test_linear_manifold_shares_the_guard(self):
        basis = procedure2_basis(1, 2, 2)
        eigs = UnstableEigenfunctions(
            Lambda=np.array([[1.0]]),
            Vt=np.array([[1.0, 0.0]]),
            Theta=np.zeros((1, basis.M)),
            basis=basis,
            blocks=((0, 1),),
            block_residuals=np.zeros(1),
            heldout_residuals=np.zeros(1),
            cond_J=np.ones(1),
            box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        )
        with pytest.raises(RuntimeError, match="complementarity"):
            linear_manifold(eigs)


ONE_PASS_CASES = {
    "example1": (lambda: builtin_example1(1.0), EX1_BOX, (6, 4), 6000, 0),
    "cubic": (_cubic_system, np.array([[-0.35, 0.35]]), (7, 5), 3000, 2),
}


def _one_pass_case(case):
    make_sys, x_box, (d1, d2), L, seed = ONE_PASS_CASES[case]
    sys_ = make_sys()
    ham = hamiltonian_vector_field(sys_)
    samples = sample_domain(default_phase_box(sys_, x_box, margin=1.0), L, seed)
    return ham, procedure2_basis(sys_.n, d1, d2), samples


class TestOnePassUnstableFit:
    """Route 2 fits its blocks with the same one-pass code as route 1."""

    @pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
    def test_set_fit_equals_per_block_wrappers(self, case):
        ham, basis, samples = _one_pass_case(case)
        eigs = unstable_eigfns(ham, basis, samples)
        sub = unstable_left_subspace(ham.H0)
        U, conds = [], []
        for off, size in sub.blocks:
            S = sub.Lambda_u[off : off + size, off : off + size]
            prob = assemble_galerkin(
                ham.F, basis, S, sub.D_full[off : off + size], samples, E=ham.H0
            )
            U.append(solve_coefficients(prob))
            conds.append(prob.cond_J)
        # the stored rows: unit linear part, first significant entry positive
        scale = np.array([
            np.sign(row[np.flatnonzero(np.abs(row) > 1e-8 * np.max(np.abs(row)))[0]])
            / np.linalg.norm(row)
            for row in sub.D_full
        ])
        assert np.array_equal(eigs.Vt, sub.D_full * scale[:, None])
        assert np.array_equal(eigs.Theta, np.vstack(U) * scale[:, None])
        assert np.array_equal(eigs.cond_J, np.array(conds))
        held = sample_domain(
            samples.box, samples.L // 5, _derive_seed(samples.seed, HELDOUT_SEED_XOR)
        )
        for bi, (off, size) in enumerate(sub.blocks):
            rows = slice(off, off + size)
            block = (eigs.Lambda[rows, rows], eigs.Vt[rows], eigs.Theta[rows])
            assert eigs.block_residuals[bi] == pde_residual_rms(
                ham.F, basis, *block, samples.points
            )
            assert eigs.heldout_residuals[bi] == pde_residual_rms(
                ham.F, basis, *block, held.points
            )

    @pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
    def test_jacobian_rows_do_not_grow_with_blocks(self, case, counting_basis):
        ham, basis, samples = _one_pass_case(case)
        counting = counting_basis(basis)
        eigs = unstable_eigfns(ham, counting, samples)
        assert len(eigs.blocks) == ham.base.n
        assert counting.jacobian_rows == 2 * samples.L + samples.L // 5


class TestOneEigenfunctionSetType:
    """Route 2's unstable eigenfunctions are an :class:`EigenfunctionSet` on
    z = (x, p), fitted by the one fit of both routes."""

    def test_unstable_set_is_a_field_less_eigenfunction_set(self, example1_p2):
        _, sol = example1_p2
        assert isinstance(sol.eigs, EigenfunctionSet)
        assert dataclasses.fields(UnstableEigenfunctions) == dataclasses.fields(EigenfunctionSet)
        assert sol.eigs.Vt.shape == (2, 4)
        assert sol.eigs.Theta.shape == (2, sol.eigs.basis.M)
        assert sol.eigs.box.shape == (4, 2)

    def test_phi_is_the_zero_level_formula(self, example1_p2):
        """``Phi`` and ``Phi_jac`` on z give exactly ``Wu_t z + U Gamma(z)``
        and ``Vt + Theta dGamma/dz``."""
        _, sol = example1_p2
        eigs = sol.eigs
        rng = np.random.default_rng(3)
        Z = rng.uniform(eigs.box[:, 0], eigs.box[:, 1], size=(50, 4))
        direct = Z @ eigs.Wu_t.T + eigs.basis.eval(Z) @ eigs.U.T
        assert np.array_equal(eigs.Phi(Z), direct)
        Phi, jac = eigs.Phi_jac(Z)
        assert np.array_equal(Phi, direct)
        assert np.array_equal(jac, eigs.Vt + eigs.Theta @ eigs.basis.jacobian(Z))

    def test_each_route_calls_the_shared_fit_once(self, monkeypatch):
        """A route-1 and a route-2 fit each go through
        ``galerkin.fit_eigenfunction_set`` once, wherever it is bound."""
        calls = []
        orig = galerkin.fit_eigenfunction_set

        def counted(*args, **kwargs):
            calls.append(kwargs.get("kind", EigenfunctionSet))
            return orig(*args, **kwargs)

        for mod in [m for k, m in sys.modules.items() if k.startswith("koopmanhj")]:
            if getattr(mod, "fit_eigenfunction_set", None) is orig:
                monkeypatch.setattr(mod, "fit_eigenfunction_set", counted)

        sys_ = builtin_example1(1.0)
        eig = galerkin.approximate_eigenfunction_set(
            sys_.f, linearize(sys_).A, monomial_basis(2, 2, 3), sample_domain(EX1_BOX, 400, 1)
        )
        assert calls == [EigenfunctionSet]
        assert type(eig) is EigenfunctionSet
        ham, basis, samples = _one_pass_case("cubic")
        eigs = unstable_eigfns(ham, basis, samples)
        assert calls == [EigenfunctionSet, UnstableEigenfunctions]
        assert type(eigs) is UnstableEigenfunctions

    def test_procedure1_rejects_a_route2_set(self, example1_p2):
        sys_, sol = example1_p2
        with pytest.raises(ValueError, match=r"square Vt .*\(n=2\), got shape \(2, 4\)"):
            procedure1_solve(sys_, sol.eigs)
