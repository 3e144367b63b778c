"""Monomial basis dictionaries with analytic gradients.

One kind of dictionary is provided, :class:`BasisSet`: the monomials of an
integer exponent table, evaluated with their jacobian from one table of
integer powers.  When every row has total degree at least two
(``purely_nonlinear``), ``eval(0) = 0`` and ``jacobian(0) = 0`` hold exactly;
such dictionaries expand the nonlinear part of principal eigenfunctions and
of value functions.  :class:`Procedure2Basis` is the one on ``z = (x, p)``
whose rows are at most linear in ``p``, which lets the stable-manifold
equation be solved for ``p`` in closed form downstream.

Monomials are ordered graded-lexicographically (ascending total degree,
then lexicographic with the first coordinate most significant), which makes
every dictionary — and everything computed from it — reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import numpy.typing as npt

__all__ = [
    "BasisSet",
    "MonomialTable",
    "Procedure2Basis",
    "monomial_basis",
    "monomial_exponents",
    "procedure2_basis",
    "quadratic_form_gradient",
    "value_basis_xi3",
]


def monomial_exponents(n: int, deg_min: int, deg_max: int) -> np.ndarray:
    """Exponent table of all monomials in ``n`` variables, graded-lex order.

    Returns an integer array of shape ``(M, n)``; row ``j`` holds the
    exponent vector ``alpha`` of the j-th monomial ``x^alpha`` with
    ``deg_min <= |alpha| <= deg_max``.  Ordering: ascending total degree,
    then descending exponent tuples (so for n=2, degree 2 the order is
    ``x1^2, x1*x2, x2^2``).
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got n={n}")
    if deg_max < deg_min:
        raise ValueError(f"deg_max={deg_max} < deg_min={deg_min}")
    rows = [alpha for deg in range(deg_min, deg_max + 1) for alpha in _compositions(deg, n)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def _compositions(deg: int, n: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of ``n`` entries summing to ``deg``, descending
    lexicographic (x1 most significant), without scanning all (deg + 1)^n
    candidate tuples."""
    if n == 1:
        yield (deg,)
        return
    for first in range(deg, -1, -1):
        for rest in _compositions(deg - first, n - 1):
            yield (first,) + rest


class MonomialTable:
    """Table-driven evaluation of a fixed exponent table and of its jacobian.

    Built once from an ``(M, n)`` exponent table.  Evaluation gathers, for
    every monomial, one entry per coordinate from the power table of
    :meth:`powers` (``degree`` must be at least the largest exponent) and
    multiplies them.  The jacobian uses the decremented-exponent table: one
    entry per nonzero ``alpha_j`` with its row ``m``, column ``j``,
    coefficient ``alpha_j`` and the exponents ``alpha - e_j``, so that
    ``d(x^alpha)/dx_j = alpha_j * x^(alpha - e_j)`` costs one gather too.
    Equal decremented exponents are evaluated once and scattered to every
    entry that shares them.
    """

    def __init__(self, exponents: np.ndarray, degree: int) -> None:
        expo = np.asarray(exponents, dtype=np.int64)
        M, n = expo.shape
        if expo.size and int(expo.max()) > degree:
            raise ValueError(f"exponent {int(expo.max())} exceeds table degree {degree}")
        offsets = np.arange(n) * (degree + 1)
        self.M, self.n, self.degree = M, n, degree
        self.eval_index = expo + offsets  # (M, n) into the power table
        self._eval_cols = self.eval_index.T.copy()  # (n, M), for one state
        rows, cols = np.nonzero(expo)
        dec = expo[rows].copy()
        dec[np.arange(rows.size), cols] -= 1
        dec, inverse = np.unique(dec, axis=0, return_inverse=True)
        self.jac_index = dec + offsets  # (U, n) distinct decremented monomials
        self.jac_row = inverse.reshape(-1)  # (T,) row of each entry in jac_index
        self.jac_coef = expo[rows, cols].astype(float)  # (T,)
        self.jac_pos = rows * n + cols  # (T,) into a flattened (M, n) block

    def powers(self, Z: np.ndarray) -> np.ndarray:
        """Integer powers of every coordinate: (..., n) -> (..., n * (degree + 1)).

        Entry ``j * (degree + 1) + k`` holds ``Z[..., j] ** k``, built by
        repeated multiplication (``x ** 0 = 1``, also at ``x = 0``).  One
        state ``(n,)`` multiplies floats in the same order and builds one
        array.
        """
        if Z.ndim == 1 and self.degree:
            flat = []
            for z in Z.tolist():
                flat += (1.0, z)
                zk = z
                for _ in range(2, self.degree + 1):
                    zk = zk * z
                    flat.append(zk)
            return np.array(flat)
        pw = np.empty(Z.shape + (self.degree + 1,))
        pw[..., 0] = 1.0
        if self.degree >= 1:
            pw[..., 1] = Z
        for k in range(2, self.degree + 1):
            np.multiply(pw[..., k - 1], Z, out=pw[..., k])
        return pw.reshape(Z.shape[:-1] + (-1,))

    def eval(self, pw: np.ndarray) -> np.ndarray:
        """Monomial values from a power table: (..., M)."""
        if pw.ndim == 1:
            # one state (a rollout stage): n rows of M factors, multiplied row
            # after row, the order of a batch's reduce over each monomial
            return np.multiply.reduce(pw[self._eval_cols], axis=0)
        return np.multiply.reduce(pw[..., self.eval_index], axis=-1)

    def jacobian(self, pw: np.ndarray) -> np.ndarray:
        """Monomial jacobian from a power table: (..., M, n)."""
        lead = pw.shape[:-1]
        out = np.zeros(lead + (self.M * self.n,))
        vals = np.multiply.reduce(pw[..., self.jac_index], axis=-1)  # (..., U)
        out[..., self.jac_pos] = self.jac_coef * vals[..., self.jac_row]
        return out.reshape(lead + (self.M, self.n))


def _row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 key per row of digits ``0..base - 1``; equal rows, equal keys.

    The digits are packed in base ``base``.  Whenever the next digit could
    overflow int64, the keys so far are first replaced by their dense ranks
    (below the number of rows), so the packing never wraps around.
    """
    key = np.zeros(rows.shape[0], dtype=np.int64)
    span = 1  # every key lies in [0, span)
    for col in rows.T:
        if span * base > np.iinfo(np.int64).max:
            key = np.unique(key, return_inverse=True)[1].reshape(-1)
            span = rows.shape[0]
        key = key * base + col
        span *= base
    return key


def quadratic_form_gradient(
    exponents: npt.ArrayLike, S: npt.ArrayLike
) -> tuple[MonomialTable, np.ndarray]:
    """``(dpsi/dx)^T S psi`` for monomials ``psi_a = x^(E_a)``, as one polynomial.

    This is the gradient of ``0.5 psi^T S psi`` for a symmetric ``S``.  Entry
    ``j`` is ``sum_{a,b} S_ba E_bj x^(E_a + E_b - e_j)``; with every row of
    ``E`` of degree 1..d it is a polynomial of degrees 1..2d-1.  Returns the
    table of ``monomial_exponents(n, 1, 2d - 1)`` (``C(n + 2d - 1, n) - 1``
    terms) and the ``(n, T)`` coefficient matrix ``C``, so that the gradient
    at ``x`` is ``table.eval(table.powers(x)) @ C.T``.  Every pair and
    derivative is collected by one ``bincount`` in a fixed order.  The
    products ``E_a + E_b - e_j`` are matched to table rows by
    :func:`_row_keys`, exact for any ``n`` and degree.
    """
    E = np.asarray(exponents, dtype=np.int64)
    S = np.asarray(S, dtype=float)
    P, n = E.shape
    if S.shape != (P, P):
        raise ValueError(f"S has shape {S.shape}, expected ({P}, {P})")
    deg = E.sum(axis=1)
    if P == 0 or int(deg.min()) < 1:
        raise ValueError("every monomial must have degree at least 1")
    top = 2 * int(deg.max()) - 1
    out = monomial_exponents(n, 1, top)
    T = out.shape[0]
    b, j = np.nonzero(E)  # derivative of psi_b along x_j, nonzero terms only
    dec = E[b].copy()
    dec[np.arange(b.size), j] -= 1
    gamma = (E[:, None, :] + dec[None, :, :]).reshape(-1, n)  # product exponents
    keys = _row_keys(np.vstack([out, gamma]), top + 1)  # every exponent is <= top
    order = np.argsort(keys[:T])
    term = order[np.searchsorted(keys[:T][order], keys[T:])].reshape(P, b.size)
    coef = S[b, :].T * E[b, j]  # (P, b.size): S_ba E_bj
    pos = j[None, :] * T + term
    C = np.bincount(pos.ravel(), weights=coef.ravel(), minlength=n * T)
    return MonomialTable(out, top), C.reshape(n, T)


@dataclass(frozen=True)
class BasisSet:
    """A finite monomial dictionary with analytic gradients.

    Attributes
    ----------
    dim_in : input dimension.
    M : number of basis functions.
    exponents : (M, dim_in) integer exponent table (it fully determines the basis).
    purely_nonlinear : True when every row has total degree >= 2, in which
        case ``eval(0) = 0`` and ``jacobian(0) = 0`` exactly.
    """

    dim_in: int
    M: int
    exponents: np.ndarray
    purely_nonlinear: bool
    _table: MonomialTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        expo = np.asarray(self.exponents, dtype=np.int64)
        if expo.shape != (self.M, self.dim_in):
            raise ValueError(
                f"exponent table shape {expo.shape} does not match "
                f"(M, dim_in)=({self.M}, {self.dim_in})"
            )
        object.__setattr__(self, "exponents", expo)
        degree = int(expo.max(initial=0))
        object.__setattr__(self, "_table", MonomialTable(expo, degree))

    def eval(self, Z: npt.ArrayLike) -> np.ndarray:
        """Basis values at ``Z`` with shape (..., dim_in) -> (..., M)."""
        t = self._table
        return t.eval(t.powers(np.asarray(Z, dtype=float)))

    def jacobian(self, Z: npt.ArrayLike) -> np.ndarray:
        """Analytic jacobian at ``Z``: shape (..., M, dim_in)."""
        t = self._table
        return t.jacobian(t.powers(np.asarray(Z, dtype=float)))

    def eval_and_jacobian(self, Z: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """``eval(Z)`` and ``jacobian(Z)`` from one power table."""
        t = self._table
        pw = t.powers(np.asarray(Z, dtype=float))
        return t.eval(pw), t.jacobian(pw)


def monomial_basis(n: int, deg_min: int, deg_max: int) -> BasisSet:
    """Purely nonlinear monomial dictionary on R^n, degrees deg_min..deg_max.

    ``deg_min >= 2`` is required so that the dictionary vanishes to first
    order at the origin and can represent the purely nonlinear part of an
    eigenfunction without perturbing its linear part.
    """
    if deg_min < 2:
        raise ValueError(f"deg_min must be >= 2 for a purely nonlinear basis, got {deg_min}")
    expo = monomial_exponents(n, deg_min, deg_max)
    return BasisSet(dim_in=n, M=expo.shape[0], exponents=expo, purely_nonlinear=True)


def value_basis_xi3(n: int, d3: int) -> BasisSet:
    """Value-function dictionary Xi3: x-monomials of degree 2..d3.

    Quadratic forms ``Xi3(x)^T Jn Xi3(x)`` built on this dictionary contain
    only quartic-and-higher terms, so they parameterize the value-function
    content beyond its quadratic (Riccati) part.
    """
    if d3 < 2:
        raise ValueError(f"d3 must be >= 2, got {d3}")
    return monomial_basis(n, 2, d3)


@dataclass(frozen=True)
class Procedure2Basis(BasisSet):
    """The :class:`BasisSet` on z = (x, p) that is at most linear in p.

    ``eval(z) = (Xi1(x)^T, (Xi2(x) p)^T)^T`` with

    * ``Xi1``: x-monomials of degree 2..d1, rows ``(alpha, 0)`` (``N``
      functions);
    * second block: ``m_j(x) * p_i`` for x-monomials ``m_j`` of degree
      1..d2, rows ``(alpha_j, e_i)`` (monomial-major, then momentum index),
      ``M - N`` functions.

    Every row has x-degree at least one and total degree at least two.
    ``n`` is the state dimension (``dim_in = 2n``).
    """

    n: int
    N: int
    _xi1_index: np.ndarray = field(init=False, repr=False, compare=False)
    _xi2_index: np.ndarray = field(init=False, repr=False, compare=False)

    # bound here too: bench/tracing.py wraps each class's own eval/jacobian
    eval = BasisSet.eval
    jacobian = BasisSet.jacobian

    def __post_init__(self) -> None:
        super().__post_init__()
        n, N, expo = self.n, self.N, self.exponents
        if self.dim_in != 2 * n or (self.M - N) % n or not np.array_equal(
            expo, _momentum_linear_rows(expo[:N, :n], expo[N::n, :n])
        ):
            raise ValueError(f"exponent table is not N={N} rows (alpha, 0), then (alpha_j, e_i)")
        # the x-part of the power table of z is the power table of x
        index = self._table.eval_index[:, :n]
        object.__setattr__(self, "_xi1_index", index[:N])
        object.__setattr__(self, "_xi2_index", index[N::n])

    def x_monomials(self, x: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """``Xi1(x)`` (..., N) and the monomials ``m_j(x)`` (..., K) of the
        second block, from one power table of ``x``."""
        pw = self._table.powers(np.asarray(x, dtype=float))
        return (
            np.multiply.reduce(pw[..., self._xi1_index], axis=-1),
            np.multiply.reduce(pw[..., self._xi2_index], axis=-1),
        )

    def xi1(self, x: npt.ArrayLike) -> np.ndarray:
        """Xi1(x): shape (..., N)."""
        return self.x_monomials(x)[0]

    def xi2(self, x: npt.ArrayLike) -> np.ndarray:
        """Xi2(x): shape (..., M - N, n), so that block2 = Xi2(x) @ p."""
        mono = self.x_monomials(x)[1]  # (..., K)
        block = mono[..., :, None, None] * np.eye(self.n)
        return block.reshape(mono.shape[:-1] + (self.M - self.N, self.n))


def procedure2_basis(n: int, d1: int, d2: int) -> Procedure2Basis:
    """Structured dictionary for the momentum-linear manifold expansion.

    Xi1 holds the x-monomials of degree 2..d1; the second block holds
    ``m(x) * p_i`` for every x-monomial ``m`` of degree 1..d2 and every
    momentum component.  With this structure the joint zero-level set
    ``W^T z + U Gamma(z) = 0`` is linear in ``p`` and can be solved for the
    manifold ``p = p*(x)`` pointwise.
    """
    if d1 < 2:
        raise ValueError(f"d1 must be >= 2, got {d1}")
    if d2 < 1:
        raise ValueError(f"d2 must be >= 1, got {d2}")
    xi1 = monomial_exponents(n, 2, d1)
    expo = _momentum_linear_rows(xi1, monomial_exponents(n, 1, d2))
    return Procedure2Basis(
        dim_in=2 * n, M=expo.shape[0], exponents=expo, purely_nonlinear=True,
        n=n, N=xi1.shape[0],
    )


def _momentum_linear_rows(xi1: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Exponent rows on (x, p): ``(alpha, 0)`` for each row of ``xi1``, then
    ``(alpha_j, e_i)`` for each row ``alpha_j`` of ``mono`` and each i."""
    n = xi1.shape[1]
    momentum = np.tile(np.eye(n, dtype=np.int64), (len(mono), 1))
    return np.vstack([
        np.hstack([xi1, np.zeros_like(xi1)]),
        np.hstack([np.repeat(mono, n, axis=0), momentum]),
    ])
