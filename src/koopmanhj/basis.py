"""Monomial basis dictionaries with analytic gradients.

One monomial-table type is provided, :class:`BasisSet`: the monomials of
an integer exponent table, its only input, evaluated with their jacobian
from one table of integer powers.  Its constructor is the one place where
an exponent table enters the package, and it rejects a table that is not
2-D or has an entry that is not a nonnegative integer.  When every row has
total degree at least two (``purely_nonlinear``), ``eval(0) = 0`` and
``jacobian(0) = 0`` hold exactly; such dictionaries expand the nonlinear
part of principal eigenfunctions and of value functions.  Other tables
carry the terms of a polynomial drift or value gradient
(:func:`compile_polynomial`, :func:`quadratic_form_gradient`).
:class:`Procedure2Basis` is the one on ``z = (x, p)`` whose rows are at
most linear in ``p``, which lets the stable-manifold equation be solved for
``p`` in closed form downstream.

Monomials are ordered graded-lexicographically (ascending total degree,
then lexicographic with the first coordinate most significant), which makes
every dictionary — and everything computed from it — reproducible.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np
import numpy.typing as npt

__all__ = [
    "BasisSet",
    "Procedure2Basis",
    "compile_polynomial",
    "monomial_basis",
    "monomial_exponents",
    "procedure2_basis",
    "quadratic_form_gradient",
    "run_polynomial",
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


class BasisSet:
    """A finite monomial dictionary with analytic gradients.

    Built from its ``(M, dim_in)`` exponent table alone, which fixes
    everything else:

    * ``exponents``: the table as int64.  It must be 2-D with nonnegative
      integer entries: an integer dtype, or floats that are integral (the
      empty float table ``np.zeros((0, n))`` is the empty dictionary); a
      fractional, non-finite or bool entry raises ``ValueError``;
    * ``dim_in`` and ``M``: the table's shape;
    * ``purely_nonlinear``: True when every row has total degree >= 2, in
      which case ``eval(0) = 0`` and ``jacobian(0) = 0`` exactly;
    * ``degree``: the largest exponent, the degree of :meth:`powers`.

    Evaluation gathers, for every monomial, one entry per coordinate from
    the power table and multiplies them.  The jacobian uses the
    decremented-exponent table: one entry per nonzero ``alpha_j`` with its
    row ``m``, column ``j``, coefficient ``alpha_j`` and the exponents
    ``alpha - e_j``, so that ``d(x^alpha)/dx_j = alpha_j * x^(alpha - e_j)``
    costs one gather too.  Equal decremented exponents are evaluated once
    and scattered to every entry that shares them.  A dictionary is a
    plain object: it equals and hashes as itself only, and its attributes
    are not to be changed after construction.
    """

    def __init__(self, exponents: npt.ArrayLike) -> None:
        table = np.asarray(exponents)
        with np.errstate(invalid="ignore"):  # nan, inf and huge floats fail `expo != table`
            expo = np.asarray(table, dtype=np.int64) if table.dtype.kind in "iuf" else None
        if expo is None or expo.ndim != 2 or np.any(expo != table) or np.any(expo < 0):
            raise ValueError(
                f"exponent table must be 2-D with nonnegative integer entries, got {table!r}"
            )
        M, n = expo.shape
        self.exponents, self.dim_in, self.M = expo, n, M
        self.degree = int(expo.max(initial=0))
        self.purely_nonlinear = bool(np.all(expo.sum(axis=1) >= 2))
        offsets = np.arange(n) * (self.degree + 1)
        rows, cols = np.nonzero(expo)
        dec = expo[rows].copy()
        dec[np.arange(rows.size), cols] -= 1
        dec, inverse = np.unique(dec, axis=0, return_inverse=True)
        self.eval_index = expo + offsets  # (M, n) into the power table
        self.jac_index = dec + offsets  # (U, n) distinct decremented monomials
        self.jac_row = inverse.reshape(-1)  # (T,) row of each entry in jac_index
        self.jac_coef = expo[rows, cols].astype(float)  # (T,)
        self.jac_pos = rows * n + cols  # (T,) into a flattened (M, n) block

    def powers(self, Z: np.ndarray) -> np.ndarray:
        """Integer powers of every coordinate: (..., n) -> (..., n * (degree + 1)).

        Entry ``j * (degree + 1) + k`` holds ``Z[..., j] ** k``, built by
        repeated multiplication (``x ** 0 = 1``, also at ``x = 0``) for one
        state ``(n,)`` as for a batch, so a state has its batch row's bits.
        """
        pw = np.empty(Z.shape + (self.degree + 1,))
        pw[..., 0] = 1.0
        if self.degree >= 1:
            pw[..., 1] = Z
        for k in range(2, self.degree + 1):
            np.multiply(pw[..., k - 1], Z, out=pw[..., k])
        return pw.reshape(Z.shape[:-1] + (-1,))

    def eval(self, Z: npt.ArrayLike) -> np.ndarray:
        """Basis values at ``Z`` with shape (..., dim_in) -> (..., M), one
        state's as a batch row's."""
        return self._values(self.powers(np.asarray(Z, dtype=float)))

    def jacobian(self, Z: npt.ArrayLike) -> np.ndarray:
        """Analytic jacobian at ``Z``: shape (..., M, dim_in)."""
        return self._jacobian(self.powers(np.asarray(Z, dtype=float)))

    def eval_and_jacobian(self, Z: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """``eval(Z)`` and ``jacobian(Z)`` from one power table."""
        pw = self.powers(np.asarray(Z, dtype=float))
        return self._values(pw), self._jacobian(pw)

    def _values(self, pw: np.ndarray) -> np.ndarray:
        return np.multiply.reduce(pw[..., self.eval_index], axis=-1)

    def _jacobian(self, pw: np.ndarray) -> np.ndarray:
        lead = pw.shape[:-1]
        out = np.zeros(lead + (self.M * self.dim_in,))
        vals = np.multiply.reduce(pw[..., self.jac_index], axis=-1)  # (..., U)
        out[..., self.jac_pos] = self.jac_coef * vals[..., self.jac_row]
        return out.reshape(lead + (self.M, self.dim_in))


_SUM_TERMS = 100  # terms per line of a compiled sum; the compiler nests one level per term


def compile_polynomial(table: BasisSet, C: npt.ArrayLike) -> Callable[[list], tuple]:
    """``table.eval(x) @ C.T`` as straight-line code.

    The returned function takes the ``n`` coordinates of :func:`_coords`,
    one state's floats or a batch's columns, and returns the ``K`` outputs
    of a ``(K, M)`` matrix ``C`` as a tuple (:func:`run_polynomial`).  Each
    power is the power table's repeated product and each monomial the
    product of its factors from left to right in coordinate order, so the
    monomials have the bits of :meth:`BasisSet.eval` (a factor
    ``x ** 0 = 1.0`` is left out, which is exact).  Each output is the
    left-to-right sum ``c0*m0 + c1*m1 + ...`` over every column, zero
    coefficients included, so a non-finite monomial gives nan where the
    matrix product does; BLAS may round the sum differently.  Each step is
    one IEEE ``*`` or ``+``, so a batch row has its own state's bits.  The
    source holds integer exponents and the ``repr`` of each coefficient,
    which round-trips exactly (``inf`` and ``nan`` are bound names).
    """
    expo = table.exponents
    M, n = expo.shape
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[1] != M:
        raise ValueError(f"coefficient matrix shape {C.shape} != (K, {M})")
    xs = [f"x{j}" for j in range(n)]
    lines = ["def polynomial(xs):", f"    {', '.join(xs)}, = xs"]
    for j in range(n):
        for k in range(2, int(expo[:, j].max(initial=0)) + 1):
            lines.append(f"    x{j}_{k} = {xs[j] if k == 2 else f'x{j}_{k - 1}'} * x{j}")
    for r, row in enumerate(expo.tolist()):
        factors = [xs[j] if a == 1 else f"x{j}_{a}" for j, a in enumerate(row) if a]
        lines.append(f"    m{r} = {' * '.join(factors) or '1.0'}")
    for i, row in enumerate(C.tolist()):
        terms = [f"{c!r} * m{r}" for r, c in enumerate(row)] or ["0.0"]
        for start in range(0, len(terms), _SUM_TERMS):
            head = [f"o{i}"] if start else []
            lines.append(f"    o{i} = {' + '.join(head + terms[start : start + _SUM_TERMS])}")
    lines.append(f"    return ({''.join(f'o{i}, ' for i in range(len(C)))})")
    return _compile_function("\n".join(lines), "polynomial")


def _coords(x: np.ndarray):
    """The n coordinates of points ``(..., n)``, each of shape ``(...)``: the
    one place a state is unpacked.  One state ``(n,)`` unpacks into Python
    floats, so a map of one state runs on float arithmetic, with the bits a
    batch row gets from the same operations on its columns."""
    if x.ndim == 1:
        return x.tolist()
    return x.T if x.ndim == 2 else np.moveaxis(x, -1, 0)


def run_polynomial(code: Callable[[list], tuple], x: np.ndarray) -> np.ndarray:
    """:func:`compile_polynomial`'s ``code`` at states ``(..., n)``: ``(..., K)``,
    each row with its state's bits; an output without terms gives zeros."""
    outs = code(_coords(x))
    if x.ndim == 1:
        return np.array(outs)
    return np.stack([np.broadcast_to(o, x.shape[:-1]) for o in outs], axis=-1)


def _compile_function(source: str, name: str, **names: object) -> Callable:
    """The function ``name`` defined by the generated ``source``.

    The package's one ``exec``.  Callers generate ``source`` from
    identifiers, integers and the ``repr`` of floats only; ``inf``, ``nan``
    and the keyword ``names`` are bound in its namespace.
    """
    namespace = {"inf": math.inf, "nan": math.nan, **names}
    exec(source, namespace)  # the package's one exec: ints and float reprs
    return namespace[name]


def quadratic_form_gradient(psi: BasisSet, S: npt.ArrayLike) -> tuple[BasisSet, np.ndarray]:
    """``(dpsi/dx)^T S psi`` for the monomial dictionary ``psi``, as one polynomial.

    This is the gradient of ``0.5 psi^T S psi`` for a symmetric ``S``, where
    ``psi_a = x^(E_a)`` with ``E = psi.exponents``.  Entry ``j`` is
    ``sum_{a,b} S_ba E_bj x^(E_a + E_b - e_j)``; with every row of ``E`` of
    degree 1..d it is a polynomial of degrees 1..2d-1.  Returns the :class:`BasisSet` of
    ``monomial_exponents(n, 1, 2d - 1)`` (``C(n + 2d - 1, n) - 1`` terms)
    and the ``(n, T)`` coefficient matrix ``C``, so that the gradient at
    ``x`` is ``table.eval(x) @ C.T``.  Every pair and derivative is
    collected by one ``bincount`` in a fixed order.  The products ``E_a +
    E_b - e_j`` are matched to table rows by one ``np.unique`` over whole
    rows, exact for any ``n`` and degree.
    """
    E = psi.exponents
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
    # every product is a table row, so the table rows are the unique rows
    rank = np.unique(np.vstack([out, gamma]), axis=0, return_inverse=True)[1].reshape(-1)
    term = np.argsort(rank[:T])[rank[T:]].reshape(P, b.size)
    coef = S[b, :].T * E[b, j]  # (P, b.size): S_ba E_bj
    pos = j[None, :] * T + term
    C = np.bincount(pos.ravel(), weights=coef.ravel(), minlength=n * T)
    return BasisSet(out), C.reshape(n, T)


def monomial_basis(n: int, deg_min: int, deg_max: int) -> BasisSet:
    """Purely nonlinear monomial dictionary on R^n, degrees deg_min..deg_max.

    ``deg_min >= 2`` is required so that the dictionary vanishes to first
    order at the origin and can represent the purely nonlinear part of an
    eigenfunction without perturbing its linear part.
    """
    if deg_min < 2:
        raise ValueError(f"deg_min must be >= 2 for a purely nonlinear basis, got {deg_min}")
    return BasisSet(monomial_exponents(n, deg_min, deg_max))


def value_basis_xi3(n: int, d3: int) -> BasisSet:
    """Value-function dictionary Xi3: x-monomials of degree 2..d3.

    Quadratic forms ``Xi3(x)^T Jn Xi3(x)`` built on this dictionary contain
    only quartic-and-higher terms, so they parameterize the value-function
    content beyond its quadratic (Riccati) part.
    """
    if d3 < 2:
        raise ValueError(f"d3 must be >= 2, got {d3}")
    return monomial_basis(n, 2, d3)


class Procedure2Basis(BasisSet):
    """The :class:`BasisSet` on z = (x, p) that is at most linear in p.

    ``eval(z) = (Xi1(x)^T, (Xi2(x) p)^T)^T`` with

    * ``Xi1``: x-monomials of degree 2..d1, rows ``(alpha, 0)`` (``N``
      functions);
    * second block: ``m_j(x) * p_i`` for x-monomials ``m_j`` of degree
      1..d2, rows ``(alpha_j, e_i)`` (monomial-major, then momentum index),
      ``M - N`` functions.

    Every row has x-degree at least one and total degree at least two.
    Both counts are read off the table: ``n = dim_in // 2`` is the state
    dimension and ``N`` the number of leading rows without a momentum factor.
    A table of any other structure raises ``ValueError``.
    """

    # bound here too: bench/tracing.py wraps each class's own eval/jacobian
    eval = BasisSet.eval
    jacobian = BasisSet.jacobian

    def __init__(self, exponents: npt.ArrayLike) -> None:
        super().__init__(exponents)
        expo, n = self.exponents, self.dim_in // 2
        N = int(np.argmax(np.append(expo[:, n:].any(axis=1), True)))  # first p row, or M
        if not n or self.dim_in != 2 * n or (self.M - N) % n or not np.array_equal(
            expo, _momentum_linear_rows(expo[:N, :n], expo[N::n, :n])
        ):
            raise ValueError(f"exponent table is not N={N} rows (alpha, 0), then (alpha_j, e_i)")
        self.n, self.N = n, N
        # the x-part of the power table of z is the power table of x
        index = self.eval_index[:, :n]
        self._xi1_index, self._xi2_index = index[:N], index[N::n]

    def x_monomials(self, x: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """``Xi1(x)`` (..., N) and the monomials ``m_j(x)`` (..., K) of the
        second block, from one power table of ``x``."""
        pw = self.powers(np.asarray(x, dtype=float))
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
    xi1, mono = monomial_exponents(n, 2, d1), monomial_exponents(n, 1, d2)
    return Procedure2Basis(_momentum_linear_rows(xi1, mono))


def _momentum_linear_rows(xi1: np.ndarray, mono: np.ndarray) -> np.ndarray:
    """Exponent rows on (x, p): ``(alpha, 0)`` for each row of ``xi1``, then
    ``(alpha_j, e_i)`` for each row ``alpha_j`` of ``mono`` and each i."""
    n = xi1.shape[1]
    momentum = np.tile(np.eye(n, dtype=np.int64), (len(mono), 1))
    return np.vstack([
        np.hstack([xi1, np.zeros_like(xi1)]),
        np.hstack([np.repeat(mono, n, axis=0), momentum]),
    ])
