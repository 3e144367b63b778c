"""Control-affine systems, costs, linearizations, and Hamiltonian lifts.

A system is ``xdot = f(x) + g(x) u`` with running cost ``q(x) + 0.5 u^T D u``,
``f(0) = 0``, ``D`` symmetric positive definite, and ``q`` vanishing to
second order at the origin.  The optimal-control Hamiltonian is

    H(x, p) = f(x)^T p - 0.5 p^T R(x) p + q(x),      R(x) = g(x) D^{-1} g(x)^T,

whose canonical equations

    xdot = f(x) - R(x) p
    pdot = -(df/dx)^T p + 0.5 d(p^T R(x) p)/dx^T - dq/dx^T

define the 2n-dimensional Hamiltonian vector field ``F(z)``, ``z = (x, p)``.
Its linearization at the origin is the Hamiltonian matrix

    H0 = [[A, -R0], [-Q0, -A^T]],   A = df/dx(0), R0 = B D^{-1} B^T, Q0 = d2q/dx2(0).

Optimal feedback laws downstream always take the form ``u = -D^{-1} g(x)^T p``
for a momentum field ``p(x)`` supplied by one of the solution procedures.

Every map is batched: it takes points of shape ``(..., n)`` and maps each
row, so a sample set costs one call.  A single 1-D state stays a valid call
with the single-state return shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .basis import MonomialTable

__all__ = [
    "ControlAffineSystem",
    "Linearization",
    "HamiltonianSystemModel",
    "control_affine_system",
    "feedback",
    "feedback_of",
    "linearize",
    "hamiltonian_value",
    "hamiltonian_vector_field",
    "hj_residual",
    "builtin_example1",
    "builtin_pendulum",
    "polynomial_system",
    "pendulum_mass_matrix",
]

_EQ_TOL = 1e-12


def _fd_jacobian(func: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian, relative step 1e-6 per coordinate.

    A scalar ``func`` gives a ``(1, n)`` jacobian, its gradient as row 0.
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        h = 1e-6 * max(1.0, abs(x[j]))
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.atleast_1d(func(x + e)) - np.atleast_1d(func(x - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def _coords(x: np.ndarray):
    """The n coordinates of points ``(..., n)``, each of shape ``(...)``.

    One state ``(n,)`` unpacks into Python floats, so a single-state map
    (called four times per RK4 step) runs on float arithmetic rather than
    on numpy scalars, with the bits a batch row gets from the same
    operations.
    """
    if x.ndim == 1:
        return x.tolist()
    return x.T if x.ndim == 2 else np.moveaxis(x, -1, 0)


def _cos_sin(t: float) -> Tuple[float, float]:
    """``cos t`` and ``sin t`` of one float: nan where ``t`` is not finite, as numpy's."""
    if math.isfinite(t):
        return math.cos(t), math.sin(t)
    return math.nan, math.nan


def _rowwise(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a map of one 1-D state to points ``(..., n)`` by a loop over rows."""

    def batched(x: npt.ArrayLike) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return fn(x)
        out = np.array([fn(row) for row in x.reshape(-1, x.shape[-1])], dtype=float)
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return batched


@dataclass(frozen=True)
class ControlAffineSystem:
    """Control-affine system with cost and derivative access.

    Every map takes states of shape ``(..., n)`` and evaluates each row:
    ``f``, ``grad_q`` -> ``(..., n)``; ``g`` -> ``(..., n, p)``; ``q`` ->
    ``(...)``; ``jacobian_f`` -> ``(..., n, n)`` with entry ``[i, j] =
    df_i/dx_j``; ``jacobian_g`` -> ``(..., n, p, n)`` with entry
    ``[i, k, j] = dg_ik/dx_j``.  A single 1-D state returns the single-state
    shape (``q`` a scalar).  Invariants enforced at construction:
    ``f(0) = 0``, ``D`` symmetric positive definite, ``q(0) = 0``,
    ``grad_q(0) = 0``, ``hess_q0`` symmetric, and the shape of
    ``jacobian_g(0)``.  :func:`control_affine_system` builds one from maps
    of a single state.

    The plant of a closed loop is ``f`` and ``g``: a custom system provides
    these two maps, and each RK4 stage calls both once.  Where ``f`` and
    ``g`` are methods of one model that also has ``f_and_g`` (the built-in
    pendulum), :attr:`f_and_g` is that method, and a stage evaluates the
    plant once.
    """

    n: int
    p: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    D: np.ndarray
    q: Callable[[np.ndarray], float]
    jacobian_f: Callable[[np.ndarray], np.ndarray]
    jacobian_g: Callable[[np.ndarray], np.ndarray]
    grad_q: Callable[[np.ndarray], np.ndarray]
    hess_q0: np.ndarray
    D_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", np.atleast_2d(np.asarray(self.D, dtype=float)))
        object.__setattr__(self, "hess_q0", np.asarray(self.hess_q0, dtype=float))
        zero = np.zeros(self.n)
        f0 = np.asarray(self.f(zero), dtype=float)
        if f0.shape != (self.n,) or np.max(np.abs(f0)) > _EQ_TOL:
            raise ValueError(
                f"drift must vanish at the origin: |f(0)| = {np.max(np.abs(f0)):.3e}"
            )
        if self.D.shape != (self.p, self.p):
            raise ValueError(f"control weight D shape {self.D.shape} != ({self.p}, {self.p})")
        if np.linalg.norm(self.D - self.D.T) > 1e-12 * (1 + np.linalg.norm(self.D)):
            raise ValueError("control weight D must be symmetric")
        if np.min(np.linalg.eigvalsh(self.D)) <= 0:
            raise ValueError("control weight D must be positive definite")
        object.__setattr__(self, "D_inv", np.linalg.inv(self.D))
        if abs(float(self.q(zero))) > _EQ_TOL:
            raise ValueError(f"state cost must vanish at the origin: q(0) = {self.q(zero)!r}")
        gq0 = np.asarray(self.grad_q(zero), dtype=float)
        if np.max(np.abs(gq0)) > 1e-9:
            raise ValueError(
                f"state-cost gradient must vanish at the origin: |grad_q(0)| = "
                f"{np.max(np.abs(gq0)):.3e}"
            )
        if self.hess_q0.shape != (self.n, self.n) or np.linalg.norm(
            self.hess_q0 - self.hess_q0.T
        ) > 1e-12 * (1 + np.linalg.norm(self.hess_q0)):
            raise ValueError("hess_q0 must be a symmetric n x n matrix")
        jg0 = np.shape(self.jacobian_g(zero))
        if jg0 != (self.n, self.p, self.n):
            raise ValueError(
                f"jacobian_g(0) shape {jg0} != ({self.n}, {self.p}, {self.n})"
            )

    @property
    def f_and_g(self) -> Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]]:
        """The map ``x -> (f(x), g(x))`` of a model that evaluates both at
        once, or None where ``f`` and ``g`` are separate maps."""
        model = getattr(self.f, "__self__", None)
        if model is None or getattr(self.g, "__self__", None) is not model:
            return None
        return getattr(model, "f_and_g", None)

    def R(self, x: npt.ArrayLike) -> np.ndarray:
        """State-dependent control-energy matrix ``g(x) D^{-1} g(x)^T``: (..., n, n)."""
        gx = np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)
        return gx @ self.D_inv @ np.swapaxes(gx, -1, -2)


@dataclass(frozen=True)
class Linearization:
    """Origin linearization of a system together with its cost matrices."""

    A: np.ndarray
    B: np.ndarray
    R0: np.ndarray
    Q0: np.ndarray
    D: np.ndarray


@dataclass(frozen=True)
class HamiltonianSystemModel:
    """The 2n-dimensional Hamiltonian vector field and its linearization.

    ``F`` takes points ``z = (x, p)`` of shape ``(..., 2n)``.
    """

    base: ControlAffineSystem
    F: Callable[[np.ndarray], np.ndarray]
    H0: np.ndarray


def control_affine_system(
    n: int,
    p: int,
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    D: npt.ArrayLike,
    q: Callable[[np.ndarray], float],
    jacobian_f: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    grad_q: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    hess_q0: Optional[npt.ArrayLike] = None,
    jacobian_g: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> ControlAffineSystem:
    """Build a system from maps of one 1-D state.

    Each map is lifted to points ``(..., n)`` by a loop over the rows, so
    user systems satisfy the batched contract of :class:`ControlAffineSystem`
    unchanged (the built-in systems are vectorized instead).  ``g`` may
    return anything that reshapes to ``(n, p)``.  Missing derivatives are
    filled with central differences of relative step
    ``1e-6 * max(1, |x_i|)`` per coordinate — accurate enough for every
    verification tolerance used in this package, but analytic derivatives
    are preferred when available.
    """
    g_one = lambda x, _g=g: np.reshape(np.asarray(_g(x), dtype=float), (n, p))  # noqa: E731
    if jacobian_f is None:
        jacobian_f = lambda x, _f=f: _fd_jacobian(_f, x)  # noqa: E731
    if jacobian_g is None:
        jacobian_g = lambda x: _fd_jacobian(  # noqa: E731
            lambda y: g_one(y).ravel(), x
        ).reshape(n, p, n)
    if grad_q is None:
        grad_q = lambda x, _q=q: _fd_jacobian(_q, x)[0]  # noqa: E731
    if hess_q0 is None:
        hq = _fd_jacobian(grad_q, np.zeros(n))
        hess_q0 = (hq + hq.T) / 2.0
    return ControlAffineSystem(
        n=n, p=p, f=_rowwise(f), g=_rowwise(g_one),
        D=np.atleast_2d(np.asarray(D, dtype=float)), q=_rowwise(q),
        jacobian_f=_rowwise(jacobian_f), jacobian_g=_rowwise(jacobian_g),
        grad_q=_rowwise(grad_q), hess_q0=np.asarray(hess_q0, dtype=float),
    )


def linearize(sys: ControlAffineSystem) -> Linearization:
    """Origin linearization: A = df/dx(0), B = g(0), R0 = B D^{-1} B^T, Q0."""
    cond = np.linalg.cond(sys.D)
    if not np.isfinite(cond) or cond >= 1e12:
        raise ValueError("control weight not invertible")
    A = np.asarray(sys.jacobian_f(np.zeros(sys.n)), dtype=float).reshape(sys.n, sys.n)
    B = np.asarray(sys.g(np.zeros(sys.n)), dtype=float).reshape(sys.n, sys.p)
    R0 = B @ np.linalg.solve(sys.D, B.T)
    R0 = (R0 + R0.T) / 2.0
    return Linearization(A=A, B=B, R0=R0, Q0=sys.hess_q0.copy(), D=sys.D.copy())


def feedback(
    sys: ControlAffineSystem,
    x: npt.ArrayLike,
    p: npt.ArrayLike,
    gx: Optional[npt.ArrayLike] = None,
) -> np.ndarray:
    """Feedback ``u = -D^{-1} g(x)^T p`` for states and momenta ``(..., n)``: (..., p).

    ``gx`` is ``g(x)`` where the caller has evaluated it already (a
    closed-loop stage); otherwise ``sys.g`` is called.
    """
    if gx is None:
        gx = sys.g(np.asarray(x, dtype=float))
    gx = np.asarray(gx, dtype=float)
    gTp = (np.asarray(p, dtype=float)[..., None, :] @ gx)[..., 0, :]
    return -(gTp @ sys.D_inv.T)


def feedback_of(momentum: str):
    """Mark a solution's ``control(x)`` as ``feedback(self.sys, x, self.<momentum>(x))``.

    The closed loop (:func:`koopmanhj.simulate.closed_loop`) recognises a
    marked ``control`` bound to a solution for its own system.  It then
    evaluates the momentum and the feedback itself, from the ``g(x)`` its
    stage evaluates anyway, with the operands and order of ``control``.
    """

    def mark(control):
        control.feedback_momentum = momentum
        return control

    return mark


def hamiltonian_value(sys: ControlAffineSystem, x: npt.ArrayLike, p: npt.ArrayLike):
    """H(x, p) = f(x)^T p - 0.5 p^T R(x) p + q(x) for states and momenta ``(..., n)``.

    The result has shape ``(...)``, a float for one state.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape[-1:] != (sys.n,) or p.shape != x.shape:
        raise ValueError(
            f"expected states and momenta of length {sys.n} and equal shape, "
            f"got {x.shape}, {p.shape}"
        )
    fx = np.asarray(sys.f(x), dtype=float)
    H = (
        np.einsum("...i,...i->...", p, fx)
        - 0.5 * np.einsum("...i,...ij,...j->...", p, sys.R(x), p)
        + sys.q(x)
    )
    return float(H) if x.ndim == 1 else H


def hamiltonian_vector_field(sys: ControlAffineSystem) -> HamiltonianSystemModel:
    """Canonical equations of H as a vector field on z = (x, p).

    The momentum equation needs ``d(p^T R(x) p)/dx``; by the product rule
    its j-th entry is ``2 p^T (dg/dx_j) D^{-1} g^T p``, computed from the
    system's ``jacobian_g`` (identically zero for a constant input map).
    """
    n = sys.n
    lin = linearize(sys)
    H0 = np.block([[lin.A, -lin.R0], [-lin.Q0, -lin.A.T]])

    def F(z: npt.ArrayLike) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x, p = z[..., :n], z[..., n:]
        gx = np.asarray(sys.g(x), dtype=float)  # (..., n, m)
        w = (p[..., None, :] @ gx)[..., 0, :] @ sys.D_inv.T  # D^{-1} g^T p
        xdot = np.asarray(sys.f(x), dtype=float) - (gx @ w[..., None])[..., 0]
        Jf = np.asarray(sys.jacobian_f(x), dtype=float)
        Jg = np.asarray(sys.jacobian_g(x), dtype=float)
        pdot = (
            -(p[..., None, :] @ Jf)[..., 0, :]
            + np.einsum("...i,...ikj,...k->...j", p, Jg, w)  # 0.5 d(p^T R p)/dx
            - np.asarray(sys.grad_q(x), dtype=float)
        )
        return np.concatenate([xdot, pdot], axis=-1)

    return HamiltonianSystemModel(base=sys, F=F, H0=H0)


def hj_residual(
    sys: ControlAffineSystem, V_grad: Callable[[np.ndarray], np.ndarray], x: npt.ArrayLike
):
    """Residual of the stationary equation dV/dx f - 0.5 dV/dx R dV/dx^T + q.

    ``x`` holds states ``(..., n)`` and ``V_grad`` must accept the same
    batch; the result has shape ``(...)``, a float for one state.  Exact
    value functions give zero; the signed residual is a direct a-posteriori
    quality measure for approximate solutions.
    """
    x = np.asarray(x, dtype=float)
    return hamiltonian_value(sys, x, V_grad(x))


# ----------------------------------------------------------------------
# Built-in systems
# ----------------------------------------------------------------------

def _constant_input_map(B: np.ndarray):
    """``g`` and ``jacobian_g`` of an input map that does not depend on x."""
    n, p = B.shape

    def g(x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(B, np.shape(x)[:-1] + (n, p))

    def jacobian_g(x: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1] + (n, p, n))

    return g, jacobian_g


def builtin_example1(control_weight: float = 1.0) -> ControlAffineSystem:
    """Two-dimensional benchmark with closed-form principal eigenfunctions.

        xdot = alpha(x2) * (-cos(x2) (x1 - 2 x2) + 4 (x1 + sin x2),
                             (x1 - 2 x2) + 2 (x1 + sin x2))  +  (1, 0)^T u,
        alpha(x2) = 1 / (cos x2 + 2),
        q(x) = 0.5 ((x1 - 2 x2)^2 + (x1 + sin x2)^2).

    The uncontrolled drift has principal eigenfunctions
    ``phi1 = x1 - 2 x2`` (eigenvalue -1) and ``phi2 = x1 + sin x2``
    (eigenvalue 2), which makes every downstream quantity checkable in
    closed form.  ``control_weight`` sets the scalar control penalty
    ``0.5 * control_weight * u^2``; the default 1.0 is the cost stated with
    the model.  Published reference values for this system exist under
    several weight normalizations, which is why the weight is exposed.
    """
    if control_weight <= 0:
        raise ValueError(f"control_weight must be positive, got {control_weight}")

    def f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1, x2 = _coords(x)
        c = np.cos(x2)
        alpha = 1.0 / (c + 2.0)
        a, b = x1 - 2 * x2, x1 + np.sin(x2)
        out = np.empty(x.shape)
        out[..., 0] = alpha * (-c * a + 4 * b)
        out[..., 1] = alpha * (a + 2 * b)
        return out

    def jacobian_f(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1, x2 = _coords(x)
        c, s = np.cos(x2), np.sin(x2)
        alpha = 1.0 / (c + 2.0)
        a = x1 - 2 * x2
        dalpha = s * alpha * alpha  # d(alpha)/dx2
        J = np.empty(x.shape[:-1] + (2, 2))
        J[..., 0, 0] = alpha * (4.0 - c)
        J[..., 0, 1] = alpha * (s * a + 6 * c) + (-c * a + 4 * (x1 + s)) * dalpha
        J[..., 1, 0] = alpha * 3.0
        J[..., 1, 1] = alpha * (2 * c - 2.0) + (3 * x1 - 2 * x2 + 2 * s) * dalpha
        return J

    g, jacobian_g = _constant_input_map(np.array([[1.0], [0.0]]))

    def q(x: np.ndarray):
        x1, x2 = _coords(np.asarray(x, dtype=float))
        a, b = x1 - 2 * x2, x1 + np.sin(x2)
        return 0.5 * (a * a + b * b)

    def grad_q(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1, x2 = _coords(x)
        a, b = x1 - 2 * x2, x1 + np.sin(x2)
        out = np.empty(x.shape)
        out[..., 0] = a + b
        out[..., 1] = -2 * a + np.cos(x2) * b
        return out

    hess_q0 = np.array([[2.0, -1.0], [-1.0, 5.0]])
    return ControlAffineSystem(
        n=2, p=1, f=f, g=g, D=np.array([[float(control_weight)]]), q=q,
        jacobian_f=jacobian_f, jacobian_g=jacobian_g, grad_q=grad_q, hess_q0=hess_q0,
    )


_PEND_M = 0.5   # cart mass
_PEND_m = 0.2   # pole mass
_PEND_b = 0.1   # cart friction coefficient
_PEND_l = 0.3   # pole half-length
_PEND_I = 0.006  # pole inertia


def pendulum_mass_matrix(theta: float) -> np.ndarray:
    """Configuration-dependent mass matrix of the cart-pole, reduced form.

    The state convention puts the unstable upright equilibrium at the
    origin, so the matrix is evaluated with ``cos(theta - pi)``.
    """
    c = np.cos(theta - np.pi)
    ml = _PEND_m * _PEND_l
    return np.array(
        [[ml * c, _PEND_M + _PEND_m], [_PEND_I + _PEND_m * _PEND_l**2, ml * c]]
    )


class _CartPole:
    """The cart-pole maps of :func:`builtin_pendulum`.

    Every map starts from :meth:`_terms`: the coordinates, ``cos`` and
    ``sin`` of ``theta - pi`` and the checked mass-matrix determinant, so
    :meth:`f_and_g` gives the drift and the input map from one evaluation.
    """

    def __init__(self, g_gravity: float) -> None:
        self.Mc, self.m, self.b, self.l = _PEND_M, _PEND_m, _PEND_b, _PEND_l
        self.ml = _PEND_m * _PEND_l
        self.Il2 = _PEND_I + _PEND_m * _PEND_l * _PEND_l
        self.mg = _PEND_m * g_gravity

    def _terms(self, x: np.ndarray):
        """Points, ``psi``, ``vartheta``, ``c``, ``s`` and the mass-matrix
        determinant, which must be nonsingular at every row.  The terms of
        one state ``(n,)`` are floats (:func:`_coords`)."""
        x = np.asarray(x, dtype=float)
        th, ps, vt = _coords(x)
        one = x.ndim == 1
        shifted = th - np.pi
        c, s = _cos_sin(shifted) if one else (np.cos(shifted), np.sin(shifted))
        mlc = self.ml * c
        # a product, not ** 2: on a float that is C pow, which can differ in
        # the last bit from the multiply numpy makes of an array's square
        det = mlc * mlc - (self.Mc + self.m) * self.Il2
        bad = abs(det) < 1e-12
        if bad if one else bad.any():
            theta = th if one else float(th[bad].flat[0])
            raise RuntimeError(f"mass matrix singular at theta={theta!r}")
        return x, ps, vt, c, s, det

    def _f(self, x, ps, vt, c, s, det) -> np.ndarray:
        ml, Il2, Mm = self.ml, self.Il2, self.Mc + self.m
        r1 = -self.b * vt + ml * ps * ps * s
        r2 = -self.mg * self.l * s
        # inverse of [[ml c, Mc+m], [Il2, ml c]] applied to (r1, r2)
        acc1 = (ml * c * r1 - Mm * r2) / det
        acc2 = (-Il2 * r1 + ml * c * r2) / det
        if x.ndim == 1:
            return np.array([ps, acc1, acc2])
        out = np.empty(x.shape)
        out[..., 0] = ps
        out[..., 1] = acc1
        out[..., 2] = acc2
        return out

    def _g(self, x, c, det) -> np.ndarray:
        if x.ndim == 1:
            return np.array([0.0, self.ml * c / det, -self.Il2 / det])[:, None]
        out = np.zeros(x.shape[:-1] + (3, 1))
        out[..., 1, 0] = self.ml * c / det
        out[..., 2, 0] = -self.Il2 / det
        return out

    def f(self, x: np.ndarray) -> np.ndarray:
        x, ps, vt, c, s, det = self._terms(x)
        return self._f(x, ps, vt, c, s, det)

    def g(self, x: np.ndarray) -> np.ndarray:
        x, _, _, c, _, det = self._terms(x)
        return self._g(x, c, det)

    def f_and_g(self, x: np.ndarray):
        """``(f(x), g(x))`` from one evaluation of the shared terms."""
        x, ps, vt, c, s, det = self._terms(x)
        return self._f(x, ps, vt, c, s, det), self._g(x, c, det)

    def jacobian_f(self, x: np.ndarray) -> np.ndarray:
        x, ps, vt, c, s, det = self._terms(x)
        ml, Il2, Mm = self.ml, self.Il2, self.Mc + self.m
        b = self.b
        r1 = -b * vt + ml * ps * ps * s
        r2 = -self.mg * self.l * s
        acc1 = (ml * c * r1 - Mm * r2) / det
        acc2 = (-Il2 * r1 + ml * c * r2) / det
        # theta-derivatives: d(cos(th - pi)) = -s, d(sin(th - pi)) = c
        ddet = -2.0 * ml * ml * c * s
        dr1 = ml * ps * ps * c
        dr2 = -self.mg * self.l * c
        J = np.zeros(x.shape[:-1] + (3, 3))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = (-ml * s * r1 + ml * c * dr1 - Mm * dr2 - acc1 * ddet) / det
        J[..., 2, 0] = (-ml * s * r2 - Il2 * dr1 + ml * c * dr2 - acc2 * ddet) / det
        # r1 is the only right-hand side entry that depends on psi and vartheta
        dr1_dps = 2 * ml * ps * s
        J[..., 1, 1] = ml * c * dr1_dps / det
        J[..., 2, 1] = -Il2 * dr1_dps / det
        J[..., 1, 2] = ml * c * -b / det
        J[..., 2, 2] = -Il2 * -b / det
        return J

    def jacobian_g(self, x: np.ndarray) -> np.ndarray:
        x, _, _, c, s, det = self._terms(x)
        ml, Il2 = self.ml, self.Il2
        ddet = -2.0 * ml * ml * c * s
        out = np.zeros(x.shape[:-1] + (3, 1, 3))
        out[..., 1, 0, 0] = ml * (-s * det - c * ddet) / (det * det)
        out[..., 2, 0, 0] = Il2 * ddet / (det * det)
        return out


def builtin_pendulum(g_gravity: float) -> ControlAffineSystem:
    """Inverted pendulum on a cart, reduced to (theta, theta_dot, cart_vel).

    Cart position is cyclic and removed.  State ``x = (theta, psi, vartheta)``
    with ``theta`` the pole angle (0 = upright), ``psi = theta_dot`` and
    ``vartheta`` the cart velocity; the input ``u`` is the horizontal force
    on the cart.  The accelerations solve the mass-matrix system

        M(theta) (psi_dot, vartheta_dot)^T = (-b vartheta + m l psi^2 s + u,
                                              -m g l s)^T,
        s = sin(theta - pi),

    solved in closed form (adjugate over determinant) at every evaluation;
    a state whose mass matrix is singular raises a ``RuntimeError`` naming
    its ``theta``.  Cost: ``q(x) = x^T x`` and control weight ``D = 2`` (so
    the control term is ``0.5 * 2 * u^2 = u^2``).  ``f``, ``g`` and their
    jacobians are methods of one model, so a closed-loop stage evaluates
    ``f`` and ``g`` together (:attr:`ControlAffineSystem.f_and_g`).
    """
    if g_gravity <= 0:
        raise ValueError(f"g_gravity must be positive, got {g_gravity}")
    model = _CartPole(g_gravity)

    def q(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return (x * x).sum(axis=-1)

    def grad_q(x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float)

    return ControlAffineSystem(
        n=3, p=1, f=model.f, g=model.g, D=np.array([[2.0]]), q=q,
        jacobian_f=model.jacobian_f, jacobian_g=model.jacobian_g, grad_q=grad_q,
        hess_q0=2.0 * np.eye(3),
    )


def polynomial_system(
    f_terms: Sequence[Sequence[tuple]],
    g_matrix: npt.ArrayLike,
    D: npt.ArrayLike,
    Q0: npt.ArrayLike,
) -> ControlAffineSystem:
    """System with polynomial drift, constant input map, quadratic cost.

    ``f_terms[i]`` lists ``(coefficient, exponents)`` pairs for coordinate i
    of the drift, e.g. ``[(-1.0, (1,)), (1.0, (3,))]`` for ``-x + x^3``.
    Exponents are ints (Python or numpy, not bool), and every term must
    have total degree >= 1 so the origin stays an equilibrium.  The cost
    is ``q(x) = 0.5 x^T Q0 x``.  The drift is one monomial table (every
    term of every coordinate) times a coefficient matrix.
    """
    g_mat = np.atleast_2d(np.asarray(g_matrix, dtype=float))
    n = g_mat.shape[0]
    p = g_mat.shape[1]
    if len(f_terms) != n:
        raise ValueError(f"f_terms has {len(f_terms)} coordinates, input map has {n} rows")
    coeffs: list[np.ndarray] = []
    expos: list[np.ndarray] = []
    for i, terms in enumerate(f_terms):
        ci = np.array([float(t[0]) for t in terms])
        for t in terms:
            for v in t[1]:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ValueError(f"f_terms[{i}] has a non-integer exponent {v!r}")
        ei = np.array([tuple(t[1]) for t in terms], dtype=np.int64).reshape(len(terms), n)
        if np.any(ei < 0):
            raise ValueError(f"negative exponent in f_terms[{i}]")
        if np.any(ei.sum(axis=1) < 1):
            raise ValueError(
                f"f_terms[{i}] has a constant term; the origin must be an equilibrium"
            )
        coeffs.append(ci)
        expos.append(ei)
    Q0 = np.asarray(Q0, dtype=float)
    if Q0.shape != (n, n):
        raise ValueError(f"Q0 shape {Q0.shape} != ({n}, {n})")

    expo = np.concatenate(expos, axis=0)  # (T, n), all terms
    C = np.zeros((n, expo.shape[0]))  # drift_i = sum_t C[i, t] x^expo[t]
    start = 0
    for i, ci in enumerate(coeffs):
        C[i, start : start + ci.size] = ci
        start += ci.size
    table = MonomialTable(expo, int(expo.max(initial=0)))

    def f(x: np.ndarray) -> np.ndarray:
        pw = table.powers(np.asarray(x, dtype=float))
        return table.eval(pw) @ C.T

    def jacobian_f(x: np.ndarray) -> np.ndarray:
        pw = table.powers(np.asarray(x, dtype=float))
        return C @ table.jacobian(pw)

    g, jacobian_g = _constant_input_map(g_mat)

    def q(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, Q0, x)

    def grad_q(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ Q0.T

    return ControlAffineSystem(
        n=n, p=p, f=f, g=g, D=np.atleast_2d(np.asarray(D, dtype=float)), q=q,
        jacobian_f=jacobian_f, jacobian_g=jacobian_g, grad_q=grad_q, hess_q0=Q0,
    )
