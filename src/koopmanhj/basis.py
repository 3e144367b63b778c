"""Monomial basis dictionaries with analytic gradients.

Two kinds of dictionaries are provided:

* :class:`BasisSet` — purely nonlinear monomial bases ``x^alpha`` with
  ``deg_min <= |alpha| <= deg_max`` and ``deg_min >= 2``, used to expand the
  nonlinear part of principal eigenfunctions and of value functions.  Because
  every exponent vector has total degree at least two, ``eval(0) = 0`` and
  ``jacobian(0) = 0`` hold exactly by construction.

* :class:`Procedure2Basis` — a dictionary on the doubled phase space
  ``z = (x, p)`` whose entries are at most linear in ``p``:
  ``Gamma(z) = (Xi1(x)^T, (Xi2(x) p)^T)^T`` where ``Xi1`` collects
  x-monomials of degree ``2..d1`` and the second block collects products
  ``m(x) * p_i`` for every x-monomial ``m`` of degree ``1..d2`` and every
  momentum component ``p_i``.  This linear-in-p structure is what lets the
  stable-manifold equation be solved for ``p`` in closed form downstream.

Monomials are ordered graded-lexicographically (ascending total degree,
then lexicographic with the first coordinate most significant), which makes
every dictionary — and everything computed from it — reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

__all__ = [
    "BasisSet",
    "MonomialTable",
    "Procedure2Basis",
    "monomial_basis",
    "monomial_exponents",
    "procedure2_basis",
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
    rows: list[tuple[int, ...]] = []
    for deg in range(deg_min, deg_max + 1):
        combos = [
            alpha
            for alpha in itertools.product(range(deg + 1), repeat=n)
            if sum(alpha) == deg
        ]
        # lexicographic with x1 most significant: descending exponent tuples
        combos.sort(key=lambda alpha: tuple(-a for a in alpha))
        rows.extend(combos)
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


class MonomialTable:
    """Table-driven evaluation of a fixed exponent table and of its jacobian.

    Built once from an ``(M, n)`` exponent table.  Evaluation gathers, for
    every monomial, one entry per coordinate from the power table of
    :meth:`powers` (``degree`` must be at least the largest exponent) and
    multiplies them.  The jacobian uses the decremented-exponent table: one
    entry per nonzero ``alpha_j`` with its row ``m``, column ``j``,
    coefficient ``alpha_j`` and the exponents ``alpha - e_j``, so that
    ``d(x^alpha)/dx_j = alpha_j * x^(alpha - e_j)`` costs one gather too.
    """

    def __init__(self, exponents: np.ndarray, degree: int) -> None:
        expo = np.asarray(exponents, dtype=np.int64)
        M, n = expo.shape
        if expo.size and int(expo.max()) > degree:
            raise ValueError(f"exponent {int(expo.max())} exceeds table degree {degree}")
        offsets = np.arange(n) * (degree + 1)
        self.M, self.n, self.degree = M, n, degree
        self.eval_index = expo + offsets  # (M, n) into the power table
        rows, cols = np.nonzero(expo)
        dec = expo[rows].copy()
        dec[np.arange(rows.size), cols] -= 1
        self.jac_index = dec + offsets  # (T, n)
        self.jac_coef = expo[rows, cols].astype(float)  # (T,)
        self.jac_pos = rows * n + cols  # (T,) into a flattened (M, n) block

    def powers(self, Z: np.ndarray) -> np.ndarray:
        """Integer powers of every coordinate: (..., n) -> (..., n * (degree + 1)).

        Entry ``j * (degree + 1) + k`` holds ``Z[..., j] ** k``, built by
        repeated multiplication (``x ** 0 = 1``, also at ``x = 0``).
        """
        pw = np.empty(Z.shape + (self.degree + 1,))
        pw[..., 0] = 1.0
        if self.degree >= 1:
            pw[..., 1] = Z
        for k in range(2, self.degree + 1):
            np.multiply(pw[..., k - 1], Z, out=pw[..., k])
        return pw.reshape(Z.shape[:-1] + (-1,))

    def eval(self, pw: np.ndarray) -> np.ndarray:
        """Monomial values from a power table: (..., M)."""
        return pw[..., self.eval_index].prod(axis=-1)

    def jacobian(self, pw: np.ndarray) -> np.ndarray:
        """Monomial jacobian from a power table: (..., M, n)."""
        lead = pw.shape[:-1]
        out = np.zeros(lead + (self.M * self.n,))
        out[..., self.jac_pos] = self.jac_coef * pw[..., self.jac_index].prod(axis=-1)
        return out.reshape(lead + (self.M, self.n))


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
class Procedure2Basis:
    """Dictionary on z = (x, p) that is at most linear in p.

    ``eval(z) = (Xi1(x)^T, (Xi2(x) p)^T)^T`` with

    * ``Xi1``: x-monomials of degree 2..d1 (``N`` functions);
    * second block: ``m_j(x) * p_i`` for x-monomials ``m_j`` of degree
      1..d2 (monomial-major, then momentum index), ``M - N`` functions.

    Both blocks vanish at the origin together with their jacobians, so this
    is a purely nonlinear dictionary on the doubled space: the x-degree of
    every entry in the second block is at least one, hence every entry has
    total degree at least two.
    """

    n: int
    N: int
    M: int
    xi1_exponents: np.ndarray  # (N, n)
    xi2_exponents: np.ndarray  # (K, n) x-monomials of degree 1..d2, K = (M-N)/n
    _xi1_table: MonomialTable = field(init=False, repr=False, compare=False)
    _xi2_table: MonomialTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("xi1_exponents", "xi2_exponents"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        K = self.xi2_exponents.shape[0]
        if self.M != self.N + K * self.n:
            raise ValueError(
                f"inconsistent sizes: M={self.M}, N={self.N}, "
                f"{K} x-monomials x {self.n} momentum components"
            )
        # both blocks read one power table of x
        degree = max(int(self.xi1_exponents.max(initial=0)),
                     int(self.xi2_exponents.max(initial=0)))
        object.__setattr__(self, "_xi1_table", MonomialTable(self.xi1_exponents, degree))
        object.__setattr__(self, "_xi2_table", MonomialTable(self.xi2_exponents, degree))

    # ------------------------------------------------------------------
    # BasisSet-compatible interface on the doubled space
    # ------------------------------------------------------------------
    @property
    def dim_in(self) -> int:
        return 2 * self.n

    @property
    def purely_nonlinear(self) -> bool:
        return True

    def eval(self, Z: npt.ArrayLike) -> np.ndarray:
        """Values at z = (x, p): shape (..., 2n) -> (..., M)."""
        Z = np.asarray(Z, dtype=float)
        x, p = Z[..., : self.n], Z[..., self.n :]
        pw = self._xi1_table.powers(x)
        xi1 = self._xi1_table.eval(pw)  # (..., N)
        mono = self._xi2_table.eval(pw)  # (..., K)
        block2 = mono[..., :, None] * p[..., None, :]  # (..., K, n)
        block2 = block2.reshape(Z.shape[:-1] + (-1,))
        return np.concatenate([xi1, block2], axis=-1)

    def jacobian(self, Z: npt.ArrayLike) -> np.ndarray:
        """Analytic jacobian w.r.t. z = (x, p): shape (..., M, 2n)."""
        Z = np.asarray(Z, dtype=float)
        x, p = Z[..., : self.n], Z[..., self.n :]
        n, N = self.n, self.N
        K = self.xi2_exponents.shape[0]
        pw = self._xi1_table.powers(x)
        out = np.zeros(Z.shape[:-1] + (self.M, 2 * n), dtype=float)
        out[..., :N, :n] = self._xi1_table.jacobian(pw)
        dmono = self._xi2_table.jacobian(pw)  # (..., K, n)
        mono = self._xi2_table.eval(pw)  # (..., K)
        # d(m_j p_i)/dx = p_i dm_j/dx ; d(m_j p_i)/dp_l = m_j delta_il
        dx_block = dmono[..., :, None, :] * p[..., None, :, None]  # (..., K, n, n)
        out[..., N:, :n] = dx_block.reshape(Z.shape[:-1] + (K * n, n))
        eye = np.eye(n)
        dp_block = mono[..., :, None, None] * eye[None, :, :]  # (..., K, n, n)
        out[..., N:, n:] = dp_block.reshape(Z.shape[:-1] + (K * n, n))
        return out

    def eval_and_jacobian(self, Z: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """``eval(Z)`` and ``jacobian(Z)``, the interface of :class:`BasisSet`."""
        return self.eval(Z), self.jacobian(Z)

    # ------------------------------------------------------------------
    # Structured accessors
    # ------------------------------------------------------------------
    def xi1(self, x: npt.ArrayLike) -> np.ndarray:
        """Xi1(x): shape (..., N)."""
        x = np.asarray(x, dtype=float)
        return self._xi1_table.eval(self._xi1_table.powers(x))

    def xi2(self, x: npt.ArrayLike) -> np.ndarray:
        """Xi2(x): shape (..., M - N, n), so that block2 = Xi2(x) @ p."""
        x = np.asarray(x, dtype=float)
        mono = self._xi2_table.eval(self._xi1_table.powers(x))  # (..., K)
        K = self.xi2_exponents.shape[0]
        n = self.n
        eye = np.eye(n)
        block = mono[..., :, None, None] * eye[None, :, :]
        return block.reshape(x.shape[:-1] + (K * n, n))


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
    xi2 = monomial_exponents(n, 1, d2)
    N = xi1.shape[0]
    return Procedure2Basis(
        n=n, N=N, M=N + xi2.shape[0] * n, xi1_exponents=xi1, xi2_exponents=xi2
    )
