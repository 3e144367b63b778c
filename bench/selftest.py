"""Self-test of the benchmark's correctness checks.

Feeds every check of ``checks.py`` one correct input, built here from the
closed-form models, and deliberately wrong ones (a Riccati matrix off by
1e-4, a rollout's final state shifted, a convergence slope of 0, ...), and
asserts that the check passes the first and fails the others.  It does not
run the program.  Usage, from the repository root:

    python3 bench/selftest.py

Exit code 0 when every check separates right from wrong.
"""
from __future__ import annotations

import sys

import numpy as np

import checks as C
import models as M
from workloads import pendulum_cloud

FAILURES = []


def expect(label, result, want_ok):
    ok, detail = result
    good = bool(ok) == want_ok
    if not good:
        FAILURES.append(label)
    print(f"[{'ok' if good else 'MISSED'}] {label}: check says "
          f"{'pass' if ok else 'fail'} ({detail})")


def grid(n_per_axis, lo=-1.0, hi=1.0):
    axis = np.linspace(lo, hi, n_per_axis)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def main():
    A1 = M.complex_step_jacobian(M.example1_f, np.zeros(2))
    Q0 = M.example1_Q0()

    # eigenvalues
    expect("eigenvalues exact", C.check_eigenvalues([-1.0, 2.0], A1), True)
    expect("eigenvalue off by 1e-3", C.check_eigenvalues([-1.0, 2.001], A1), False)

    # eigenfunctions: the Taylor polynomial of sin x2 to degree 5
    X = grid(101)
    expo = M.exponents(2, 2, 5)
    W = np.array([[1.0, -2.0], [1.0, 1.0]])
    Theta = np.zeros((2, len(expo)))
    rows = {tuple(e): m for m, e in enumerate(expo)}
    Theta[1, rows[(0, 3)]] = -1.0 / 6.0
    Theta[1, rows[(0, 5)]] = 1.0 / 120.0
    def heldout(Th):
        """The held-out RMS a correct program would report for these coefficients."""
        Xh = np.random.default_rng(1).uniform(-1.0, 1.0, size=(2000, 2))
        fitted, jac = C.eigenfunctions(Xh, W, Th)
        pde = np.einsum("kij,kj->ki", jac, M.example1_f(Xh)) - fitted * [-1.0, 2.0]
        return np.sqrt(np.mean(pde * pde, axis=0))

    reported = heldout(Theta)
    expect("Taylor eigenfunctions",
           C.check_example1_eigenfunctions(W, Theta, X, reported), True)
    # adding a multiple of the resonant eigenfunction keeps eigenvalue and
    # linear part; its degree-4 part is (x1 - 2 x2)^2 (x1 + x2)^2
    resonant = Theta.copy()
    for (a, b), coef in _resonant_quartic().items():
        resonant[1, rows[(a, b)]] += 1e-3 * coef
    expect("eigenfunction plus resonant term",
           C.check_example1_eigenfunctions(W, resonant, X, heldout(resonant)), True)
    wrong = Theta.copy()
    wrong[1, rows[(2, 0)]] += 1e-3
    expect("phi2 with a 1e-3 x1^2 error",
           C.check_example1_eigenfunctions(W, wrong, X, reported), False)
    wrong = Theta.copy()
    wrong[0, rows[(1, 1)]] += 1e-9
    expect("phi1 with a 1e-9 x1 x2 term",
           C.check_example1_eigenfunctions(W, wrong, X, reported), False)

    # Riccati solutions (route-1 embedding, route-2 Jl)
    P = C.riccati(A1, M.EXAMPLE1_B, Q0, np.array([[1.0]]))
    expect("Jl exact", C.check_matrix("Jl", P, P, 1e-8), True)
    expect("Jl off by 1e-4", C.check_matrix("Jl", P + 1e-4, P, 1e-8), False)

    # route-1 grid columns against the recomputation
    Xg = grid(20)
    L = np.array([[1.0, 0.2], [0.2, 3.0]])
    own = C.route1_grid(Xg, W, Theta, L, 0.5)
    value, u, res = own
    cols = np.column_stack([Xg, value, u])
    res_cols = np.column_stack([Xg, res])
    expect("route-1 columns consistent", C.check_route1_grid(cols, res_cols, own), True)
    bad = cols.copy()
    bad[:, 3] += 1e-6
    expect("feedback column off by 1e-6", C.check_route1_grid(bad, res_cols, own), False)

    # convergence study
    Ls = np.repeat([100.0, 1000.0, 10000.0], 20)
    rng = np.random.default_rng(0)
    errs = 0.01 / np.sqrt(Ls) * rng.uniform(0.5, 1.5, Ls.size)
    expect("Monte-Carlo rate", C.check_convergence(Ls, errs), True)
    expect("slope 0", C.check_convergence(Ls, np.full(Ls.size, 1e-3)), False)
    flat = errs.copy()
    flat[Ls == 10000.0] = np.median(errs[Ls == 1000.0]) * 1.01
    flat[Ls == 100.0] *= 10.0
    expect("medians not decreasing", C.check_convergence(Ls, flat), False)

    # zero-level membership of route 2: solve Psi_u(x, p) = 0 for p ourselves
    n, d1, d2 = 2, 6, 4
    n_xi1, n_mono = len(M.exponents(n, 2, d1)), len(M.exponents(n, 1, d2))
    Wu_t = rng.normal(size=(n, 2 * n))
    U = 1e-2 * rng.normal(size=(n, n_xi1 + n_mono * n))
    Xs = 0.3 * grid(7)
    P_star = np.array([_solve_p(Wu_t, U, x, d1, d2) for x in Xs])
    expect("p* on the zero level", C.check_zero_level(Wu_t, U, Xs, P_star, d1, d2), True)
    expect("p* shifted by 1e-6", C.check_zero_level(Wu_t, U, Xs, P_star + 1e-6, d1, d2), False)

    # scalar cubic feedback
    xs = np.linspace(-0.35, 0.35, 41)
    expect("cubic feedback within fit error",
           C.check_cubic_feedback(xs, -M.cubic_value_gradient(xs) + 1e-4), True)
    expect("cubic feedback off by 1e-2",
           C.check_cubic_feedback(xs, -M.cubic_value_gradient(xs) + 1e-2), False)

    # pendulum rollouts: our own RK4 of the LQR closed loop, one second
    K = C.pendulum_lqr_gain()
    ctrl = lambda Z: -Z @ K.T  # noqa: E731
    t, Xr, Ur, cum = _rk4_rollout(ctrl, pendulum_cloud()[0], 1e-3, 1000)
    expect("LQR inputs", C.check_inputs(Xr, Ur, ctrl, "lqr"), True)
    expect("LQR inputs off by 1e-6", C.check_inputs(Xr, Ur + 1e-6, ctrl, "lqr"), False)
    expect("RK4 states", C.check_rollout_ode(t, Xr, ctrl, M.pendulum_f, M.pendulum_g, C.ROLLOUT_ODE_TOL),
           True)
    shifted = Xr.copy()
    shifted[-1] += 1e-3
    expect("final state shifted by 1e-3",
           C.check_rollout_ode(t, shifted, ctrl, M.pendulum_f, M.pendulum_g,
                                C.ROLLOUT_ODE_TOL), False)
    expect("running cost", C.check_running_cost(t, Xr, Ur, cum, cum[-1], M.PEND_D), True)
    expect("running cost off by 1e-6 relative",
           C.check_running_cost(t, Xr, Ur, cum, cum[-1] * (1 + 1e-6), M.PEND_D), False)
    final = np.zeros((2, 3))
    final[-1, 0] = 1e-5
    expect("converged final state", C.check_converged(final), True)
    final[-1, 0] = 2e-3
    expect("final state above the threshold", C.check_converged(final), False)

    print(f"{len(FAILURES)} check(s) did not separate right from wrong"
          + (": " + ", ".join(FAILURES) if FAILURES else ""))
    return 1 if FAILURES else 0


def _resonant_quartic():
    """Monomial coefficients of (x1 - 2 x2)^2 (x1 + x2)^2 as {(a, b): c}."""
    terms = {}
    first = {(2, 0): 1.0, (1, 1): -4.0, (0, 2): 4.0}
    second = {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}
    for (a1, b1), c1 in first.items():
        for (a2, b2), c2 in second.items():
            key = (a1 + a2, b1 + b2)
            terms[key] = terms.get(key, 0.0) + c1 * c2
    return terms


def _solve_p(Wu_t, U, x, d1, d2):
    n = x.size
    xi1 = M.monomials(M.exponents(n, 2, d1), x[None])[0]
    mono = M.monomials(M.exponents(n, 1, d2), x[None])[0]
    N = xi1.size
    # Psi_u is affine in p: Wu1 x + U11 xi1 + (Wu2 + U12 Xi2(x)) p
    Xi2 = np.kron(mono[:, None], np.eye(n))  # rows m_j p_i, monomial-major
    G2 = Wu_t[:, n:] + U[:, N:] @ Xi2
    G1 = Wu_t[:, :n] @ x + U[:, :N] @ xi1
    return np.linalg.solve(G2, -G1)


def _rk4_rollout(ctrl, x0, dt, steps):
    def rhs(X):
        return M.pendulum_f(X) + M.pendulum_g(X) * ctrl(X)

    X = np.empty((steps + 1, 3))
    X[0] = x0
    for k in range(steps):
        x = X[k:k + 1]
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        X[k + 1] = (x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))[0]
    U = ctrl(X)
    t = np.arange(steps + 1) * dt
    node = M.pendulum_q(X) + 0.5 * M.PEND_D * np.sum(U * U, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * dt * (node[:-1] + node[1:]))])
    return t, X, U, cum


if __name__ == "__main__":
    sys.exit(main())
