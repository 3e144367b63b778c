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

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .basis import (
    BasisSet, compile_polynomial, quadratic_form_gradient, run_polynomial,
)
from .galerkin import EigenfunctionSet, SampleSet, _derive_seed, sample_domain
from .simulate import _rk4
from .spectral import (
    RiccatiSolution, block_exp, near_imaginary_axis, solve_riccati, well_conditioned,
)
from .systems import ControlAffineSystem, Linearization, feedback, feedback_of, linearize

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
_FLOW_RECORD_FLOATS = 2**21  # states kept per batch of nominal flows (16 MB)


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
    if not well_conditioned(cond):
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

    ``grad_poly`` is derived from ``eig`` and ``L`` on construction: for a
    set on a monomial dictionary (fitted, or the empty one of a linear set),
    the value gradient collapsed into one polynomial, a
    :class:`~koopmanhj.basis.BasisSet` and its ``(n, T)`` coefficient
    matrix (:func:`_collapse_gradient`); otherwise None, and the gradient
    is the contraction ``(dPhi/dx)^T L Phi``.  The polynomial is compiled on first use and
    kept on the solution (:meth:`gradient_code`).
    """

    eig: EigenfunctionSet
    sys: ControlAffineSystem
    L: np.ndarray
    R1: np.ndarray
    Q1: np.ndarray
    riccati: RiccatiSolution
    grad_poly: Optional[Tuple[BasisSet, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )
    _grad_code: Optional[Callable[[list], tuple]] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "grad_poly", _collapse_gradient(self.eig, self.L))

    def value(self, x: npt.ArrayLike) -> np.ndarray:
        Phi = self.eig.Phi(np.asarray(x, dtype=float))
        return 0.5 * np.einsum("...i,ij,...j->...", Phi, self.L, Phi)

    def grad_value(self, x: npt.ArrayLike) -> np.ndarray:
        """The momentum ``dV/dx^T`` at states ``(..., n)``.

        With ``grad_poly``, :func:`~koopmanhj.basis.run_polynomial` runs
        :meth:`gradient_code`, which the pendulum's rollout stages call, on
        one state's floats or a batch's columns, so every row has its bits.
        """
        X = np.asarray(x, dtype=float)
        if self.grad_poly is None:
            Phi, jac = self.eig.Phi_jac(X)
            LPhi = Phi @ self.L.T  # L symmetric; (..., n)
            return (LPhi[..., None, :] @ jac)[..., 0, :]
        return run_polynomial(self.gradient_code(), X)

    def gradient_code(self) -> Optional[Callable[[list], tuple]]:
        """The collapsed gradient as straight-line code
        (:func:`~koopmanhj.basis.compile_polynomial`), compiled on the first
        call and kept; None without ``grad_poly``."""
        code = self._grad_code
        if code is None and self.grad_poly is not None:
            code = compile_polynomial(*self.grad_poly)
            object.__setattr__(self, "_grad_code", code)
        return code

    @feedback_of("grad_value", floats="gradient_code")
    def control(self, x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        return feedback(self.sys, X, self.grad_value(X))

    @property
    def riccati_embedding(self) -> np.ndarray:
        return self.eig.Vt.T @ self.L @ self.eig.Vt


def _collapse_gradient(
    eig: EigenfunctionSet, L: np.ndarray
) -> Optional[Tuple[BasisSet, np.ndarray]]:
    """The value gradient of a set on monomials as one polynomial, else None.

    ``Phi = C psi`` with ``psi = (x, G(x))`` and ``C = [Vt Theta]``, so
    ``V = 0.5 psi^T S psi`` with ``S = C^T L C`` and ``grad V`` is a
    polynomial of degree ``2d - 1`` (:func:`quadratic_form_gradient`).
    """
    if not isinstance(eig.basis, BasisSet):
        return None
    expo = np.vstack([np.eye(eig.n, dtype=np.int64), eig.basis.exponents])
    if int(expo.sum(axis=1).min()) < 1:
        return None
    C = np.hstack([eig.Vt, eig.Theta])
    return quadratic_form_gradient(BasisSet(expo), C.T @ L @ C)


def procedure1_solve(sys: ControlAffineSystem, eig: EigenfunctionSet) -> HJSolution1:
    """Solve the eigenfunction-coordinate Riccati equation and assemble V, u*.

    Requires a hyperbolic eigenvalue matrix (no eigenvalue of ``Lambda`` on
    the imaginary axis) so the associated Hamiltonian matrix admits a
    stabilizing solution, and a set on the state: ``Vt`` square, so a
    route-2 set on z = (x, p) is rejected.  For a set on a monomial
    dictionary (fitted or linear) the solution collapses its value gradient
    once into one polynomial; the closed-form example-1 set keeps the
    contraction.
    """
    if eig.Vt.shape != (sys.n, sys.n):
        raise ValueError(
            f"procedure 1 needs a square Vt of eigenfunctions on the state (n={sys.n}), "
            f"got shape {eig.Vt.shape}"
        )
    if np.any(near_imaginary_axis(np.linalg.eigvals(eig.Lambda))):
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
    ks = sorted(set(idx))  # recorded steps
    t_rec = np.array(ks) * dt
    E = block_exp(eig.Lambda, eig.blocks, -t_rec)[:, None]  # e^{-Lambda t}
    E_T = np.swapaxes(block_exp(eig.Lambda, eig.blocks, t_rec), -1, -2)[:, None]  # e^{Lambda^T t}

    P0 = sample_domain(
        samples.box, samples.L, _derive_seed(samples.seed, _MOMENTUM_SEED_XOR)
    ).points

    lo, hi = eig.box[:, 0], eig.box[:, 1]

    def inside(z: np.ndarray) -> np.ndarray:
        x = z[..., :n]
        return ((x >= lo) & (x <= hi)).all(axis=-1)

    def nominal(z: np.ndarray) -> tuple[np.ndarray, None]:
        x, p = z[..., :n], z[..., n:]
        pdot = -(p[..., None, :] @ sys.jacobian_f(x))[..., 0, :]
        return np.concatenate([sys.f(x), pdot], axis=-1), None

    # the flows run in batches of rows, each batch's state record within
    # _FLOW_RECORD_FLOATS; a flow that leaves the box stops and is excluded
    Z0 = np.concatenate([samples.points, P0], axis=1)
    Z0 = Z0[inside(Z0)]
    rows = max(1, _FLOW_RECORD_FLOATS // ((n_steps + 1) * 2 * n))
    max_abs = dict.fromkeys(("H0", "X", "P"), 0.0)
    max_rel = dict.fromkeys(("H0", "X", "P"), 0.0)
    retained = 0
    for start in range(0, len(Z0), rows):
        run = _rk4(nominal, Z0[start : start + rows], dt, n_steps, admissible=inside)
        if run.error is not None:
            raise run.error
        Z = run.states[ks][:, run.kept == n_steps]  # (times, flows, 2n)
        retained += Z.shape[1]
        x, p = Z[..., :n], Z[..., n:]
        Phi, jac = eig.Phi_jac(x)
        vals = {
            "X": (E @ Phi[..., None])[..., 0],
            "P": (E_T @ np.linalg.solve(np.swapaxes(jac, -1, -2), p[..., None]))[..., 0],
            "H0": (p * sys.f(x)).sum(axis=-1)[..., None],
        }
        for key, V in vals.items():  # V: (times, flows, components)
            drift = np.abs(V - V[0]).max(axis=(0, 2))
            rel = drift / (1.0 + np.abs(V[0]).max(axis=-1))
            max_abs[key] = max(max_abs[key], float(drift.max(initial=0.0)))
            max_rel[key] = max(max_rel[key], float(rel.max(initial=0.0)))
    return IntegrabilityReport(
        max_H0_drift=max_abs["H0"],
        max_X_drift=max_abs["X"],
        max_P_drift=max_abs["P"],
        max_H0_drift_rel=max_rel["H0"],
        max_X_drift_rel=max_rel["X"],
        max_P_drift_rel=max_rel["P"],
        n_samples=samples.L,
        n_excluded=samples.L - retained,
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
    Phi, jac = eig.Phi_jac(pts)  # (L, n), (L, n, n)
    dPhiF = np.einsum("kij,kj->ki", jac, F)  # (L, n)
    per_time = np.zeros(len(t_grid))
    for i, Et in enumerate(block_exp(eig.Lambda, eig.blocks, -np.asarray(t_grid, dtype=float))):
        row = P @ Et  # (n,)
        grad_term = dPhiF @ row  # (L,) = dW/dx . f = H0(x, dW/dx^T)
        dWdt = -(Phi @ (P @ eig.Lambda @ Et))  # d/dt of P^T e^{-Lambda t} Phi
        per_time[i] = float(np.max(np.abs(grad_term + dWdt)))
    return GeneratingFunctionReport(
        max_residual=float(per_time.max(initial=0.0)), per_time_max=per_time
    )


class _SineDictionary:
    """The one-function dictionary ``Gamma(x) = sin x2 - x2`` on R^2."""

    def eval(self, x: npt.ArrayLike) -> np.ndarray:
        x2 = np.asarray(x, dtype=float)[..., 1]
        return (np.sin(x2) - x2)[..., None]

    def eval_and_jacobian(self, x: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(x, dtype=float)
        dG = np.zeros(X.shape[:-1] + (1, 2))
        dG[..., 0, 1] = np.cos(X[..., 1]) - 1.0
        return self.eval(X), dG


def example1_eigenfunction_set(
    box: npt.ArrayLike = ((-1.0, 1.0), (-1.0, 1.0)),
) -> EigenfunctionSet:
    """Closed-form eigenfunction set of the two-dimensional benchmark drift.

    ``Phi(x) = (x1 - 2 x2, x1 + sin x2)`` with eigenvalues ``(-1, 2)``: the
    linear parts ``Vt = [[1, -2], [1, 1]]`` and ``Theta = [[0], [1]]`` on
    the one-function dictionary ``sin x2 - x2``.  Residuals are identically
    zero, which makes this the exactness oracle for everything downstream.
    """
    return EigenfunctionSet(
        Lambda=np.diag([-1.0, 2.0]),
        Vt=np.array([[1.0, -2.0], [1.0, 1.0]]),
        Theta=np.array([[0.0], [1.0]]),
        basis=_SineDictionary(),
        box=np.asarray(box, dtype=float),
        blocks=((0, 1), (1, 1)),
        block_residuals=np.zeros(2),
        heldout_residuals=np.zeros(2),
        cond_J=np.full(2, np.nan),
    )
