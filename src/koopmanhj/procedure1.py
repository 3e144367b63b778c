"""Value-function synthesis in principal-eigenfunction coordinates.

Given stacked principal eigenfunctions ``Phi`` of the uncontrolled drift
(``dPhi/dx . f = Lambda Phi``), the stationary optimal-control equation is
solved approximately by taking the value function quadratic in eigenfunction
coordinates:

    V(x)  = 0.5 Phi(x)^T L Phi(x),
    p(x)  = dV/dx^T = (dPhi/dx)^T L Phi(x),
    u*(x) = -D^{-1} g(x)^T p(x),

where ``L`` solves the algebraic Riccati equation in those coordinates,

    Lambda^T L + L Lambda - L R1 L + Q1 = 0,
    R1 = Vt R0 Vt^T,     Q1 = Vt^{-T} Q0 Vt^{-1},

with ``Vt`` the linear parts of ``Phi`` and ``(R0, Q0)`` from the system's
origin linearization.  When ``Phi`` is linear (``Phi = Vt x``) this reduces
exactly to LQR: ``Vt^T L Vt`` solves the standard state-space Riccati
equation.

The verification hooks check the exact-invariance facts this construction
rests on: along the *uncontrolled* Hamiltonian flow ``xdot = f, pdot =
-(df/dx)^T p``, the coordinates ``X = e^{-Lambda t} Phi(x)`` and ``P =
e^{Lambda^T t} (dPhi/dx^T)^{-1} p`` are constants of motion, the Hamiltonian
``H0(x, p) = p^T f(x)`` is conserved, and ``W(x, t) = P^T e^{-Lambda t}
Phi(x)`` solves the evolution equation ``H0(x, dW/dx^T) + dW/dt = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.typing as npt
import scipy.linalg

from .galerkin import EigenfunctionSet, SampleSet, _derive_seed, sample_domain
from .spectral import RiccatiSolution, solve_riccati
from .systems import ControlAffineSystem, Linearization, feedback, linearize

__all__ = [
    "HJSolution1",
    "IntegrabilityReport",
    "GeneratingFunctionReport",
    "compute_R1_Q1",
    "procedure1_solve",
    "verify_nominal_integrability",
    "verify_generating_function",
    "example1_eigenfunction_set",
]

_MOMENTUM_SEED_XOR = 0xA0761D6478BD642F


def compute_R1_Q1(lin: Linearization, Vt: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Cost matrices transported to eigenfunction coordinates.

    With ``Vt A = Lambda Vt`` (rows of ``Vt`` are left eigenvectors), the
    substitution ``P = Vt^T L Vt`` turns the state-space Riccati equation
    into one with coefficients ``R1 = Vt R0 Vt^T`` and
    ``Q1 = Vt^{-T} Q0 Vt^{-1}``.  Both are returned symmetrized; congruence
    preserves their symmetry and semidefiniteness.
    """
    Vt = np.asarray(Vt, dtype=float)
    cond = np.linalg.cond(Vt)
    if not np.isfinite(cond) or cond >= 1e12:
        raise ValueError(f"Vt singular (condition number {cond:.2e})")
    R1 = Vt @ lin.R0 @ Vt.T
    Q1 = np.linalg.solve(Vt.T, np.linalg.solve(Vt.T, lin.Q0.T).T)
    return (R1 + R1.T) / 2.0, (Q1 + Q1.T) / 2.0


@dataclass(frozen=True)
class HJSolution1:
    """Approximate stationary solution built from eigenfunction coordinates.

    ``value``, ``grad_value`` and ``control`` accept a single state or
    batched states ``(..., n)``.  ``riccati_embedding`` is the
    quadratic-order value matrix ``P_r = Vt^T L Vt``, which solves the
    state-space Riccati equation of the linearization.
    """

    eig: EigenfunctionSet
    sys: ControlAffineSystem
    L: np.ndarray
    R1: np.ndarray
    Q1: np.ndarray
    riccati: RiccatiSolution

    def value(self, x: npt.ArrayLike) -> np.ndarray:
        Phi = self.eig.Phi(np.asarray(x, dtype=float))
        return 0.5 * np.einsum("...i,ij,...j->...", Phi, self.L, Phi)

    def grad_value(self, x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        Phi = self.eig.Phi(X)
        jac = self.eig.jac_Phi(X)
        LPhi = Phi @ self.L.T  # L symmetric; (..., n)
        return np.einsum("...ij,...i->...j", jac, LPhi)

    def control(self, x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        return feedback(self.sys, X, self.grad_value(X))

    @property
    def riccati_embedding(self) -> np.ndarray:
        return self.eig.Vt.T @ self.L @ self.eig.Vt


def procedure1_solve(sys: ControlAffineSystem, eig: EigenfunctionSet) -> HJSolution1:
    """Solve the eigenfunction-coordinate Riccati equation and assemble V, u*.

    Requires a hyperbolic eigenvalue matrix (no eigenvalue of ``Lambda`` on
    the imaginary axis) so the associated Hamiltonian matrix admits a
    stabilizing solution.
    """
    if eig.n != sys.n:
        raise ValueError(f"eigenfunction set has n={eig.n}, system has n={sys.n}")
    lam = np.linalg.eigvals(eig.Lambda)
    if np.any(np.abs(lam.real) < 1e-8 * (1.0 + np.abs(lam))):
        raise ValueError(
            "hyperbolicity violated: eigenvalue of Lambda on the imaginary axis"
        )
    lin = linearize(sys)
    R1, Q1 = compute_R1_Q1(lin, eig.Vt)
    ric = solve_riccati(eig.Lambda, R1, Q1)
    return HJSolution1(eig=eig, sys=sys, L=ric.P, R1=R1, Q1=Q1, riccati=ric)


# ----------------------------------------------------------------------
# Verification hooks
# ----------------------------------------------------------------------

def _nominal_rhs(sys: ControlAffineSystem, x: np.ndarray, p: np.ndarray):
    return (
        np.asarray(sys.f(x), dtype=float),
        -np.asarray(sys.jacobian_f(x), dtype=float).T @ p,
    )


def _rk4_nominal(sys: ControlAffineSystem, x: np.ndarray, p: np.ndarray, dt: float):
    k1x, k1p = _nominal_rhs(sys, x, p)
    k2x, k2p = _nominal_rhs(sys, x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
    k3x, k3p = _nominal_rhs(sys, x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
    k4x, k4p = _nominal_rhs(sys, x + dt * k3x, p + dt * k3p)
    return (
        x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
        p + dt / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p),
    )


def _grid_indices(t_grid: Sequence[float], dt: float) -> list[int]:
    idx = []
    for t in t_grid:
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t_grid value {t} is not a multiple of dt={dt}")
        idx.append(k)
    return idx


@dataclass(frozen=True)
class IntegrabilityReport:
    """Conservation diagnostics along the uncontrolled Hamiltonian flow.

    Drifts are reported both raw (max absolute deviation from the initial
    value over all retained samples and grid times) and normalized by
    ``1 + initial magnitude``.  Samples whose state trajectory leaves the
    eigenfunction box are excluded and counted.
    """

    max_H0_drift: float
    max_X_drift: float
    max_P_drift: float
    max_H0_drift_rel: float
    max_X_drift_rel: float
    max_P_drift_rel: float
    n_samples: int
    n_excluded: int


def verify_nominal_integrability(
    eig: EigenfunctionSet,
    sys: ControlAffineSystem,
    samples: SampleSet,
    t_grid: Sequence[float],
    dt: float = 1e-4,
) -> IntegrabilityReport:
    """Check the constants of motion of the uncontrolled Hamiltonian flow.

    For initial conditions ``(x0, p0)`` — states from ``samples``, momenta
    drawn uniformly from the same box with a seed derived from the sample
    seed — integrates ``xdot = f(x), pdot = -(df/dx)^T p`` with fixed-step
    RK4 and measures, at the requested grid times, the drift of
    ``X(t) = e^{-Lambda t} Phi(x(t))``, of
    ``P(t) = e^{Lambda^T t} (dPhi/dx^T)^{-1} p(t)``, and of
    ``H0 = p^T f(x)``.  All three are exactly conserved when ``Phi`` is an
    exact eigenfunction set.
    """
    n = eig.n
    if samples.dim != n:
        raise ValueError(f"samples have dim {samples.dim}, expected {n}")
    idx = _grid_indices(t_grid, dt)
    n_steps = max(idx) if idx else 0
    record = {k: i for i, k in enumerate(sorted(set(idx)))}
    expms = {k: scipy.linalg.expm(-eig.Lambda * (k * dt)) for k in record}
    expms_T = {k: scipy.linalg.expm(eig.Lambda.T * (k * dt)) for k in record}

    p_rng = np.random.default_rng(_derive_seed(samples.seed, _MOMENTUM_SEED_XOR))
    P0 = p_rng.uniform(samples.box[:, 0], samples.box[:, 1], size=(samples.L, n))

    lo, hi = eig.box[:, 0], eig.box[:, 1]
    max_abs = {"H0": 0.0, "X": 0.0, "P": 0.0}
    max_rel = {"H0": 0.0, "X": 0.0, "P": 0.0}
    excluded = 0
    for x0, p0 in zip(samples.points, P0):
        x, p = x0.copy(), p0.copy()
        vals_X, vals_P, vals_H = [], [], []
        left_box = False
        for k in range(n_steps + 1):
            if np.any(x < lo) or np.any(x > hi):
                left_box = True
                break
            if k in record:
                E = expms[k]
                Phi = eig.Phi(x)
                jac = eig.jac_Phi(x)
                vals_X.append(E @ Phi)
                vals_P.append(expms_T[k] @ np.linalg.solve(jac.T, p))
                vals_H.append(float(p @ np.asarray(sys.f(x), dtype=float)))
            if k < n_steps:
                x, p = _rk4_nominal(sys, x, p, dt)
        if left_box:
            excluded += 1
            continue
        X_arr, P_arr, H_arr = np.array(vals_X), np.array(vals_P), np.array(vals_H)
        dX = float(np.max(np.abs(X_arr - X_arr[0])))
        dP = float(np.max(np.abs(P_arr - P_arr[0])))
        dH = float(np.max(np.abs(H_arr - H_arr[0])))
        max_abs["X"] = max(max_abs["X"], dX)
        max_abs["P"] = max(max_abs["P"], dP)
        max_abs["H0"] = max(max_abs["H0"], dH)
        max_rel["X"] = max(max_rel["X"], dX / (1.0 + float(np.max(np.abs(X_arr[0])))))
        max_rel["P"] = max(max_rel["P"], dP / (1.0 + float(np.max(np.abs(P_arr[0])))))
        max_rel["H0"] = max(max_rel["H0"], dH / (1.0 + abs(float(H_arr[0]))))
    return IntegrabilityReport(
        max_H0_drift=max_abs["H0"],
        max_X_drift=max_abs["X"],
        max_P_drift=max_abs["P"],
        max_H0_drift_rel=max_rel["H0"],
        max_X_drift_rel=max_rel["X"],
        max_P_drift_rel=max_rel["P"],
        n_samples=samples.L,
        n_excluded=excluded,
    )


@dataclass(frozen=True)
class GeneratingFunctionReport:
    """Residual of the time-dependent equation solved by W(x,t)."""

    max_residual: float
    per_time_max: np.ndarray  # (len(t_grid),)


def verify_generating_function(
    eig: EigenfunctionSet,
    sys: ControlAffineSystem,
    P_vec: npt.ArrayLike,
    samples: SampleSet,
    t_grid: Sequence[float],
) -> GeneratingFunctionReport:
    """Residual of ``H0(x, dW/dx^T) + dW/dt`` for ``W = P^T e^{-Lambda t} Phi(x)``.

    ``H0(x, p) = p^T f(x)`` is the uncontrolled Hamiltonian and the time
    derivative is taken analytically (``dW/dt = -P^T Lambda e^{-Lambda t}
    Phi``), so the residual vanishes identically — up to the eigenfunction
    residual — by the defining relation ``dPhi/dx . f = Lambda Phi``.
    """
    P = np.asarray(P_vec, dtype=float).reshape(eig.n)
    pts = samples.points
    F = np.asarray(sys.f(pts), dtype=float)
    Phi = eig.Phi(pts)  # (L, n)
    jac = eig.jac_Phi(pts)  # (L, n, n)
    dPhiF = np.einsum("kij,kj->ki", jac, F)  # (L, n)
    per_time = np.zeros(len(t_grid))
    for i, t in enumerate(t_grid):
        Et = scipy.linalg.expm(-eig.Lambda * float(t))
        row = P @ Et  # (n,)
        grad_term = dPhiF @ row  # (L,) = dW/dx . f = H0(x, dW/dx^T)
        dWdt = -(Phi @ (P @ eig.Lambda @ Et))  # d/dt of P^T e^{-Lambda t} Phi
        per_time[i] = float(np.max(np.abs(grad_term + dWdt)))
    return GeneratingFunctionReport(
        max_residual=float(per_time.max(initial=0.0)), per_time_max=per_time
    )


def example1_eigenfunction_set(
    box: npt.ArrayLike = ((-1.0, 1.0), (-1.0, 1.0)),
) -> EigenfunctionSet:
    """Closed-form eigenfunction set of the two-dimensional benchmark drift.

    ``Phi(x) = (x1 - 2 x2, x1 + sin x2)`` with eigenvalues ``(-1, 2)``;
    residuals are identically zero, which makes this the exactness oracle
    for everything downstream.
    """

    def Phi(x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        return np.stack(
            [X[..., 0] - 2.0 * X[..., 1], X[..., 0] + np.sin(X[..., 1])], axis=-1
        )

    def jac_Phi(x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        out = np.zeros(X.shape[:-1] + (2, 2))
        out[..., 0, 0] = 1.0
        out[..., 0, 1] = -2.0
        out[..., 1, 0] = 1.0
        out[..., 1, 1] = np.cos(X[..., 1])
        return out

    return EigenfunctionSet(
        Phi=Phi,
        jac_Phi=jac_Phi,
        Lambda=np.diag([-1.0, 2.0]),
        Vt=np.array([[1.0, -2.0], [1.0, 1.0]]),
        box=np.asarray(box, dtype=float),
        blocks=((0, 1), (1, 1)),
        basis=None,
        Theta=None,
        block_residuals=np.zeros(2),
        heldout_residuals=np.zeros(2),
        cond_J=np.full(2, np.nan),
    )
