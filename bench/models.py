"""Reference models and dictionaries, written apart from the program.

The correctness checks compare the program's outputs with quantities
computed here: the example systems re-derived from their stated equations,
monomial dictionaries in the documented graded-lexicographic order, and
Jacobians by complex-step differentiation (exact to roundoff for analytic
maps).  Nothing in this module imports ``koopmanhj``.
"""
from __future__ import annotations

import itertools

import numpy as np

# Cart-pole constants as stated with the model: cart mass, pole mass,
# cart friction, pole half-length, pole inertia.
PEND_M, PEND_m, PEND_b, PEND_l, PEND_I = 0.5, 0.2, 0.1, 0.3, 0.006
PEND_G = 9.81
PEND_D = 2.0  # control weight: running cost x^T x + u^2 = q + 0.5 * 2 * u^2


def exponents(n: int, deg_min: int, deg_max: int) -> np.ndarray:
    """Monomial exponents, ascending degree, then descending exponent tuples."""
    rows = []
    for deg in range(deg_min, deg_max + 1):
        combos = [a for a in itertools.product(range(deg + 1), repeat=n) if sum(a) == deg]
        rows.extend(sorted(combos, reverse=True))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def monomials(expo: np.ndarray, X: np.ndarray) -> np.ndarray:
    """x^alpha for every row alpha of ``expo``: (N, n) -> (N, M)."""
    X = np.atleast_2d(X)
    out = np.ones((X.shape[0], expo.shape[0]), dtype=X.dtype)
    for j in range(expo.shape[1]):
        for m, e in enumerate(expo[:, j]):
            if e:
                out[:, m] *= X[:, j] ** e
    return out


def monomial_jacobian(expo: np.ndarray, X: np.ndarray) -> np.ndarray:
    """d(x^alpha)/dx: (N, n) -> (N, M, n)."""
    X = np.atleast_2d(X)
    N, n = X.shape
    out = np.zeros((N, expo.shape[0], n))
    for j in range(n):
        for m in range(expo.shape[0]):
            if expo[m, j] == 0:
                continue
            lowered = expo[m].copy()
            lowered[j] -= 1
            out[:, m, j] = expo[m, j] * monomials(lowered[None, :], X)[:, 0]
    return out


def complex_step_jacobian(func, x: np.ndarray, h: float = 1e-30) -> np.ndarray:
    """Jacobian of an analytic map at one point, exact to roundoff."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        xc = x.astype(complex)
        xc[j] += 1j * h
        cols.append(np.imag(np.asarray(func(xc[None, :]))[0]) / h)
    return np.stack(cols, axis=-1)


# ----------------------------------------------------------------------
# Two-dimensional example: phi1 = x1 - 2 x2 (eigenvalue -1),
# phi2 = x1 + sin x2 (eigenvalue 2).
# ----------------------------------------------------------------------

def example1_f(X: np.ndarray) -> np.ndarray:
    x1, x2 = X[:, 0], X[:, 1]
    phi1, phi2 = x1 - 2 * x2, x1 + np.sin(x2)
    alpha = 1.0 / (np.cos(x2) + 2.0)
    return alpha[:, None] * np.stack(
        [-np.cos(x2) * phi1 + 4 * phi2, phi1 + 2 * phi2], axis=-1
    )


def example1_q(X: np.ndarray) -> np.ndarray:
    return 0.5 * ((X[:, 0] - 2 * X[:, 1]) ** 2 + (X[:, 0] + np.sin(X[:, 1])) ** 2)


EXAMPLE1_B = np.array([[1.0], [0.0]])


def example1_phi(X: np.ndarray) -> np.ndarray:
    return np.stack([X[:, 0] - 2 * X[:, 1], X[:, 0] + np.sin(X[:, 1])], axis=-1)


def example1_Q0() -> np.ndarray:
    """Hessian of q at the origin, by complex step of its gradient."""
    def grad_q(Xc):
        x1, x2 = Xc[:, 0], Xc[:, 1]
        a, b = x1 - 2 * x2, x1 + np.sin(x2)
        return np.stack([a + b, -2 * a + np.cos(x2) * b], axis=-1)
    return complex_step_jacobian(grad_q, np.zeros(2))


# ----------------------------------------------------------------------
# Inverted pendulum on a cart, state (theta, theta_dot, cart velocity),
# upright at the origin.  M(theta) (theta_ddot, v_dot) = rhs with
# M = [[m l c, M + m], [I + m l^2, m l c]], c = cos(theta - pi).
# ----------------------------------------------------------------------

def _pend_mass(theta):
    c = np.cos(theta - np.pi)
    ml = PEND_m * PEND_l
    Mmat = np.empty(theta.shape + (2, 2), dtype=np.result_type(theta, float))
    Mmat[..., 0, 0] = ml * c
    Mmat[..., 0, 1] = PEND_M + PEND_m
    Mmat[..., 1, 0] = PEND_I + PEND_m * PEND_l**2
    Mmat[..., 1, 1] = ml * c
    return Mmat


def pendulum_f(X: np.ndarray) -> np.ndarray:
    th, ps, vt = X[:, 0], X[:, 1], X[:, 2]
    s = np.sin(th - np.pi)
    rhs = np.stack(
        [-PEND_b * vt + PEND_m * PEND_l * ps * ps * s, -PEND_m * PEND_G * PEND_l * s],
        axis=-1,
    )
    acc = np.linalg.solve(_pend_mass(th), rhs[..., None])[..., 0]
    return np.concatenate([ps[:, None], acc], axis=-1)


def pendulum_g(X: np.ndarray) -> np.ndarray:
    """Input map, (N, 3) -> (N, 3): the force enters the cart equation."""
    unit = np.zeros((X.shape[0], 2, 1))
    unit[:, 0, 0] = 1.0
    acc = np.linalg.solve(_pend_mass(X[:, 0]), unit)[..., 0]
    return np.concatenate([np.zeros((X.shape[0], 1)), acc], axis=-1)


def pendulum_q(X: np.ndarray) -> np.ndarray:
    return np.sum(X * X, axis=-1)


# ----------------------------------------------------------------------
# Scalar cubic xdot = -x + x^3 + u, q = x^2 / 2, D = 1: the stationary
# equation 0.5 V'^2 - (x^3 - x) V' - 0.5 x^2 = 0 has the stabilizing root
# V' = (x^3 - x) + sign(x) sqrt((x^3 - x)^2 + x^2), written without the sign.
# ----------------------------------------------------------------------

def cubic_value_gradient(x: np.ndarray) -> np.ndarray:
    a = x * x - 1.0
    return x * (a + np.sqrt(a * a + 1.0))
