"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test emits one ``[AC#] PASS/FAIL — detail`` verdict line (printed in
the test and replayed by the terminal-summary hook in ``conftest.py`` so
the lines appear even for passing tests), then asserts the criterion.
Every fixture here is seed-pinned; expected values come from closed forms
or from independent reference routes, never from the code under test.
"""
import time

import numpy as np
import pytest

from koopmanhj.basis import monomial_basis, procedure2_basis
from koopmanhj.galerkin import (
    approximate_eigenfunction_set,
    convergence_study,
    linear_eigenfunction_set,
    sample_domain,
)
from koopmanhj.procedure1 import (
    example1_eigenfunction_set,
    procedure1_solve,
    verify_generating_function,
    verify_nominal_integrability,
)
from koopmanhj.procedure2 import default_phase_box, procedure2_solve, psi_u
from koopmanhj.simulate import (
    closed_loop,
    integrate_rk4,
    linear_controller,
    lqr_controller,
    pendulum_ic_cloud,
)
from koopmanhj.systems import (
    builtin_example1,
    builtin_pendulum,
    control_affine_system,
    hamiltonian_vector_field,
    hj_residual,
    linearize,
    polynomial_system,
)


VERDICTS: list = []


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} — {detail}"
    VERDICTS.append(line)
    print(line)


def _linear_lq_system(A, B, D, Q0):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    Q0 = np.asarray(Q0, dtype=float)
    return control_affine_system(
        A.shape[0], B.shape[1],
        f=lambda x: A @ x,
        g=lambda x: B,
        D=D,
        q=lambda x: 0.5 * float(x @ Q0 @ x),
        jacobian_f=lambda x: A,
        grad_q=lambda x: Q0 @ np.asarray(x, dtype=float),
        hess_q0=Q0,
    )


def test_ac1_transported_quadratic_solution():
    t0 = time.time()
    sol = procedure1_solve(builtin_example1(1.0), example1_eigenfunction_set())
    L_target = np.array([[0.49, -0.62], [-0.62, 5.35]])
    l_err = float(np.max(np.abs(sol.L - L_target)))
    # u*(x) = c1 x1 + c2 x2 + c3 sin x2 exactly; extract by collocation
    c1 = float(sol.control(np.array([1.0, 0.0]))[0])
    u_a = float(sol.control(np.array([0.0, 1.0]))[0])
    u_b = float(sol.control(np.array([0.0, 2.0]))[0])
    c2, c3 = np.linalg.solve(
        np.array([[1.0, np.sin(1.0)], [2.0, np.sin(2.0)]]), [u_a, u_b]
    )
    c_err = float(np.max(np.abs(np.array([c1, c2, c3]) - [-4.61, -0.263, -4.74])))
    dt = time.time() - t0
    ok = l_err <= 1e-2 and c_err <= 2e-2 and dt < 30.0
    _report(
        "AC1", ok,
        f"cost matrix within {l_err:.2e} (tol 1e-2), control coefficients "
        f"({c1:.4f}, {c2:.4f}, {c3:.4f}) within {c_err:.2e} (tol 2e-2), {dt:.2f}s",
    )
    assert ok


def test_ac2_regulator_reproduction():
    t0 = time.time()
    K, P = lqr_controller(linearize(builtin_example1(0.5)))
    k_err = float(np.max(np.abs(K - np.array([[5.06, 5.74]]))))
    p_err = float(np.max(np.abs(P - np.array([[2.53, 2.87], [2.87, 7.59]]))))
    dt = time.time() - t0
    ok = k_err <= 1e-2 and p_err <= 1e-2 and dt < 1.0
    _report(
        "AC2", ok,
        f"gain ({K[0, 0]:.4f}, {K[0, 1]:.4f}) within {k_err:.2e}, cost matrix "
        f"within {p_err:.2e} (tol 1e-2), {dt:.3f}s",
    )
    assert ok


def test_ac3_lifted_linearization_spectrum():
    t0 = time.time()
    ham = hamiltonian_vector_field(builtin_example1(2.0))
    ev = np.linalg.eigvals(ham.H0)
    got = np.sort(ev.real)[::-1]
    target = np.array([2.14, 1.19, -1.19, -2.14])
    err = float(np.max(np.abs(got - target)))
    imag = float(np.max(np.abs(ev.imag)))
    dt = time.time() - t0
    ok = err <= 1e-2 and imag <= 1e-10 and dt < 1.0
    _report(
        "AC3", ok,
        f"spectrum ({got[0]:.4f}, {got[1]:.4f}, {got[2]:.4f}, {got[3]:.4f}) "
        f"within {err:.2e} of (2.14, 1.19, -1.19, -2.14), {dt:.3f}s",
    )
    assert ok


def test_ac4_riccati_embedding_both_routes():
    """On linear-quadratic data both routes must reduce to the stabilizing
    Riccati solution: route 1 through the congruence embedding, route 2
    through the linear manifold coefficient."""
    t0 = time.time()
    import scipy.linalg

    instances = []
    lin = linearize(builtin_example1(1.0))
    instances.append((lin.A, lin.B, lin.D, lin.Q0))
    rng = np.random.default_rng(42)
    while len(instances) < 21:
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        ev = np.linalg.eigvals(A)
        if np.min(np.abs(ev.real)) < 0.3 or np.any(np.abs(ev.imag) > 1e-12):
            continue
        B = rng.normal(size=(n, 1))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(ctrb) < n:
            continue
        P_ref = scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(1))
        if np.linalg.norm(P_ref) > 50:
            continue
        instances.append((A, B, np.eye(1), np.eye(n)))

    worst_res = 0.0
    worst_gap = 0.0
    for k, (A, B, D, Q0) in enumerate(instances):
        n = A.shape[0]
        sys_ = _linear_lq_system(A, B, D, Q0)
        box = np.array([[-1.0, 1.0]] * n)
        sol1 = procedure1_solve(sys_, linear_eigenfunction_set(A, box))
        P1 = sol1.riccati_embedding
        R0 = B @ np.linalg.solve(D, B.T)
        res = float(np.linalg.norm(A.T @ P1 + P1 @ A - P1 @ R0 @ P1 + Q0))
        worst_res = max(worst_res, res)
        pbox = default_phase_box(sys_, box, margin=1.5)
        sol2 = procedure2_solve(
            sys_, procedure2_basis(n, 2, 1), sample_domain(pbox, 1500, k)
        )
        worst_gap = max(worst_gap, float(np.max(np.abs(sol2.Jl - P1))))
    dt = time.time() - t0
    ok = worst_res <= 1e-8 and worst_gap <= 1e-6 and dt < 10.0
    _report(
        "AC4", ok,
        f"21 instances: worst route-1 residual {worst_res:.2e} (tol 1e-8), "
        f"worst route-2 agreement {worst_gap:.2e} (tol 1e-6), {dt:.1f}s",
    )
    assert ok


def test_ac5_sampling_convergence_rate():
    """Estimator error versus sample count for the nonlinear eigenfunction
    of the example system (the linear one is exact at any L): Monte-Carlo
    rate -1/2 within the stated band, medians strictly decreasing."""
    t0 = time.time()
    sys_ = builtin_example1(1.0)
    lin = linearize(sys_)
    study = convergence_study(
        sys_.f,
        lin.A,
        monomial_basis(2, 2, 3),
        np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        [100, 1000, 10000],
        20,
        0,
        block_index=1,
    )
    medians = study.quartiles[:, 1]
    decreasing = bool(np.all(np.diff(medians) < 0))
    dt = time.time() - t0
    ok = -0.7 <= study.slope <= -0.3 and decreasing and dt < 300.0
    _report(
        "AC5", ok,
        f"log-log slope {study.slope:.4f} in [-0.7, -0.3], medians "
        f"({medians[0]:.3e}, {medians[1]:.3e}, {medians[2]:.3e}) "
        f"{'strictly decreasing' if decreasing else 'NOT decreasing'}, {dt:.1f}s",
    )
    assert ok


def test_ac6_manifold_exactness_and_invariance():
    t0 = time.time()
    sys_ = builtin_example1(1.0)
    x_box = np.array([[-0.4, 0.4], [-0.4, 0.4]])
    pbox = default_phase_box(sys_, x_box, margin=1.0)
    sol = procedure2_solve(
        sys_, procedure2_basis(2, 6, 4), sample_domain(pbox, 6000, 0)
    )
    rng = np.random.default_rng(7)
    X = rng.uniform(-0.4, 0.4, size=(100, 2))
    Z = np.column_stack([X, np.array([sol.p_star(x) for x in X])])
    membership = float(np.max(np.abs(psi_u(sol.eigs, Z))))

    ham = hamiltonian_vector_field(sys_)
    drift = 0.0
    rng2 = np.random.default_rng(10)
    for _ in range(5):
        x0 = rng2.uniform(-0.3, 0.3, size=2)
        traj = integrate_rk4(ham.F, np.concatenate([x0, sol.p_star(x0)]), dt=1e-3, T=1.0)
        Z = traj.states[50::50]  # every 50 steps, t = 0.05, ..., 1.0
        gap = np.inf if traj.diverged else np.abs(Z[:, 2:] - sol.p_star(Z[:, :2]))
        drift = max(drift, float(np.max(gap)))
    dt = time.time() - t0
    ok = membership <= 1e-8 and drift <= 1e-2 and dt < 60.0
    _report(
        "AC6", ok,
        f"zero-level membership {membership:.2e} at 100 points (tol 1e-8), "
        f"flow drift {drift:.2e} over t in [0,1] (tol 1e-2), {dt:.1f}s",
    )
    assert ok


def test_ac7_scalar_closed_form_oracle():
    t0 = time.time()
    sys_ = polynomial_system(
        [[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]]
    )
    basis = monomial_basis(1, 2, 9)
    samples = sample_domain(np.array([[-0.4, 0.4]]), 5000, 0)
    eig = approximate_eigenfunction_set(sys_.f, linearize(sys_).A, basis, samples)
    xs = np.linspace(-0.4, 0.4, 401).reshape(-1, 1)
    psi_exact = xs[:, 0] / np.sqrt(1.0 - xs[:, 0] ** 2)
    psi_err = float(np.max(np.abs(eig.Phi(xs)[:, 0] - psi_exact)))
    sol = procedure1_solve(sys_, eig)
    v_exact = 0.5 * (np.sqrt(2.0) - 1.0) * xs[:, 0] ** 2 / (1.0 - xs[:, 0] ** 2)
    v_err = float(np.max(np.abs(sol.value(xs) - v_exact)))
    dt = time.time() - t0
    ok = psi_err <= 1e-3 and v_err <= 1e-3 and dt < 30.0
    _report(
        "AC7", ok,
        f"eigenfunction sup error {psi_err:.2e} (tol 1e-3), value sup error "
        f"{v_err:.2e} (tol 1e-3) on [-0.4, 0.4], {dt:.1f}s",
    )
    assert ok


def test_ac8_integrable_structure():
    t0 = time.time()
    sys_ = builtin_example1(1.0)
    eig = example1_eigenfunction_set(box=((-6.0, 6.0), (-6.0, 6.0)))
    samples = sample_domain(np.array([[-0.5, 0.5], [-0.5, 0.5]]), 50, 0)
    rep = verify_nominal_integrability(
        eig, sys_, samples, t_grid=(0.25, 0.5, 0.75, 1.0), dt=1e-4
    )
    gen = verify_generating_function(
        eig, sys_, np.array([0.3, -0.2]), samples,
        t_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    dt = time.time() - t0
    ok = (
        rep.max_H0_drift <= 1e-6
        and rep.max_X_drift <= 1e-4
        and rep.max_P_drift <= 1e-4
        and gen.max_residual <= 1e-10
        and dt < 60.0
    )
    _report(
        "AC8", ok,
        f"energy drift {rep.max_H0_drift:.2e} (tol 1e-6), coordinate drifts "
        f"({rep.max_X_drift:.2e}, {rep.max_P_drift:.2e}) (tol 1e-4), "
        f"generating residual {gen.max_residual:.2e} (tol 1e-10), "
        f"{rep.n_samples - rep.n_excluded}/{rep.n_samples} flows retained, {dt:.1f}s",
    )
    assert ok


def test_ac9_pendulum_stabilization():
    """Clause 1: the nonlinear controller converges from at least 8 of the
    10 seeded initial conditions.  Clause 2: the regulator baseline fails
    from at least 1 of the same conditions."""
    t0 = time.time()
    sys_ = builtin_pendulum(9.81)
    lin = linearize(sys_)
    basis = monomial_basis(3, 2, 2)
    box = np.array([[-3.0, 3.0], [-5.0, 5.0], [-5.0, 5.0]])
    eig = approximate_eigenfunction_set(
        sys_.f, lin.A, basis, sample_domain(box, 10000, 12345)
    )
    sol = procedure1_solve(sys_, eig)
    K, _ = lqr_controller(lin)
    lqr = linear_controller(K)
    ics = pendulum_ic_cloud(seed=2024)
    p1_conv = sum(
        closed_loop(sys_, sol.control, x0, dt=1e-3, T=20.0).converged for x0 in ics
    )
    lqr_fail = sum(
        not closed_loop(sys_, lqr, x0, dt=1e-3, T=20.0).converged for x0 in ics
    )
    dt = time.time() - t0
    clause1 = p1_conv >= 8
    clause2 = lqr_fail >= 1
    ok = clause1 and clause2 and dt < 300.0
    _report(
        "AC9", ok,
        f"nonlinear controller converged {p1_conv}/10 (needs >= 8: "
        f"{'met' if clause1 else 'NOT met'}); regulator baseline failed "
        f"{lqr_fail}/10 (needs >= 1: {'met' if clause2 else 'NOT met'}), {dt:.0f}s",
    )
    assert ok


def test_ac10_stationary_residual_on_the_grid():
    t0 = time.time()
    sys_ = builtin_example1(1.0)
    lin = linearize(sys_)
    basis = monomial_basis(2, 2, 5)
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eig = approximate_eigenfunction_set(
        sys_.f, lin.A, basis, sample_domain(box, 10000, 0)
    )
    sol = procedure1_solve(sys_, eig)
    axes = [np.linspace(-1.0, 1.0, 50) for _ in range(2)]
    XX = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    worst = max(abs(hj_residual(sys_, sol.grad_value, x)) for x in XX)
    dt = time.time() - t0
    ok = worst <= 1e-2 and dt < 30.0
    _report(
        "AC10", ok,
        f"max |stationary residual| {worst:.2e} on the 50x50 grid over "
        f"[-1,1]^2 (tol 1e-2), {dt:.1f}s",
    )
    assert ok
