"""Real spectral decompositions and Riccati solutions via invariant subspaces.

The central construction: for a real matrix ``A`` with semisimple spectrum,
find a real matrix ``Vt`` of (generalized) left eigenvectors and a real
block-diagonal ``Lambda`` — 1x1 blocks for real eigenvalues, 2x2 blocks
``[[a, -b], [b, a]]`` (b > 0) for complex pairs ``a +- ib`` — satisfying

    Vt @ A = Lambda @ Vt.

The same machinery extracts the left-unstable invariant subspace of a
Hamiltonian matrix ``H = [[A, -R], [-Q, -A^T]]``; writing a row basis of
that subspace as ``(D1 | D2)``, the stabilizing solution of the algebraic
Riccati equation

    A^T P + P A - P R P + Q = 0

is ``P = -D2^{-1} D1``.  This subspace route is the production Riccati
solver everywhere in this package.

Both constructions read left eigenvectors from ``numpy.linalg.eig`` of the
transpose: its eigenvector columns ``v`` satisfy ``A^T v = lambda v``, that
is ``v^T A = lambda v^T``.  Route 1's flow invariants need ``exp(Lambda t)``
only for the real block form, which :func:`block_exp` writes in closed
form: ``e^{at}`` for a 1x1 block and ``e^{at}`` times the rotation by
``bt`` for a 2x2 block.  numpy is the only numerical dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

__all__ = [
    "RealSpectralDecomposition",
    "UnstableSubspace",
    "RiccatiSolution",
    "real_spectral_decomposition",
    "unstable_left_subspace",
    "lagrangian_subspace",
    "solve_riccati",
    "block_exp",
    "hamiltonian_matrix",
    "well_conditioned",
    "near_imaginary_axis",
]

_DEFECTIVE_MSG = "defective matrix unsupported"
_COND_LIMIT = 1e12
_TOL = 1e-8  # relative eigenvalue tolerance: hyperbolicity, pairing, ties, rank


def well_conditioned(cond: npt.ArrayLike) -> np.ndarray:
    """The conditioning certificate, elementwise: ``cond`` is finite and
    below ``1e12``.  Every matrix this package inverts (an eigenvector
    matrix, a momentum block, a projection system, the control weight, the
    manifold's ``G2``) must pass it."""
    cond = np.asarray(cond)
    return np.isfinite(cond) & (cond < _COND_LIMIT)


def near_imaginary_axis(eigvals: npt.ArrayLike) -> np.ndarray:
    """The hyperbolicity test, elementwise: ``|Re lambda| < 1e-8 (1 + |lambda|)``.

    A spectrum is hyperbolic where no eigenvalue is near the axis.
    """
    lam = np.asarray(eigvals)
    return np.abs(lam.real) < _TOL * (1.0 + np.abs(lam))


def hamiltonian_matrix(A: np.ndarray, R: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The Hamiltonian matrix ``[[A, -R], [-Q, -A^T]]``."""
    return np.block([[A, -R], [-Q, -A.T]])


@dataclass(frozen=True)
class RealSpectralDecomposition:
    """Real block form ``Vt @ A = Lambda @ Vt``.

    ``blocks`` lists ``(offset, size)`` for each eigenvalue block in row
    order: size 1 for a real eigenvalue (entry ``Lambda[o, o]``), size 2 for
    a complex pair stored as ``[[a, -b], [b, a]]`` with ``b > 0``.
    """

    Lambda: np.ndarray
    Vt: np.ndarray
    cond_V: float
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class UnstableSubspace:
    """Row basis of the left-unstable invariant subspace of a matrix H.

    ``D_full`` is n x 2n with ``D_full @ H = Lambda_u @ D_full``;
    ``D1``/``D2`` are its left/right n x n halves and ``Lambda_u`` the real
    block eigenmatrix of the unstable spectrum (``blocks`` as in
    :class:`RealSpectralDecomposition`).  Rows are normalized per block:
    real rows monic (first significant entry scaled to +1), complex pairs
    to unit norm with a phase fixing the largest entry of the complex row
    to be real and positive.  Any row basis of the same subspace yields
    the same downstream results; this normalization only pins a
    reproducible representative.
    """

    D_full: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    Lambda_u: np.ndarray
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RiccatiSolution:
    """Stabilizing Riccati solution with its a-posteriori certificates."""

    P: np.ndarray
    residual: float
    closed_loop_spectrum: np.ndarray


def _lead_index(row: np.ndarray) -> int:
    """Index of a row's first significant entry: the first above ``1e-8``
    times the largest magnitude, else the largest one."""
    mag = np.abs(row)
    idx = np.flatnonzero(mag > 1e-8 * np.max(mag))
    return int(idx[0]) if idx.size else int(np.argmax(mag))


def _normalize_real_row(row: np.ndarray) -> np.ndarray:
    """Monic normalization: first significant entry scaled to exactly +1.

    This pins a reproducible representative and keeps integer-structured
    eigenvectors (e.g. rows like (1, -2)) in their natural form, so matrices
    derived from them are directly comparable against published values.
    """
    if np.max(np.abs(row)) == 0.0:
        raise ValueError("zero eigenvector row")
    return row / row[_lead_index(row)]


def _normalize_complex_row(w: np.ndarray) -> np.ndarray:
    """Unit norm; phase chosen so the largest-modulus entry is real positive."""
    nrm = np.linalg.norm(w)
    if nrm == 0.0:
        raise ValueError("zero eigenvector row")
    w = w / nrm
    k = int(np.argmax(np.abs(w)))
    phase = w[k] / abs(w[k])
    return w / phase


def _left_eig(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and left eigenvector rows: ``rows[k] @ A = eigvals[k] * rows[k]``.

    The eigenvector columns ``v`` of ``A^T`` satisfy ``A^T v = lambda v``,
    which transposed is ``v^T A = lambda v^T``; each row has unit norm.
    """
    eigvals, v = np.linalg.eig(A.T)
    return eigvals, v.T


def _real_block_rows(
    eigvals: np.ndarray, left_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """Assemble real block rows from a complex left eigen-decomposition.

    ``left_rows[k]`` is a complex row with ``left_rows[k] @ A = eigvals[k] *
    left_rows[k]``.  Conjugate pairs are merged into 2x2 real blocks; blocks
    are ordered by ascending real part, then ascending imaginary part (real
    eigenvalues sort as imaginary part zero, pairs by their +b member).
    Real parts that agree within ``1e-8 (1 + |lambda|)`` count as equal, so
    the order does not depend on round-off: a group starts at its smallest
    real part and takes every later one within that distance of it.
    Returns (Lambda, Vt, blocks).
    """
    m = eigvals.shape[0]
    used = np.zeros(m, dtype=bool)
    entries: list[tuple[float, float, str, int]] = []  # (a, b, kind, row)
    order = np.argsort(eigvals)  # numpy sorts complex lexicographically (real, imag)
    for k in order:
        if used[k]:
            continue
        lam = eigvals[k]
        scale = 1.0 + abs(lam)
        if abs(lam.imag) <= _TOL * scale:
            used[k] = True
            entries.append((float(lam.real), 0.0, "real", int(k)))
            continue
        # find the best conjugate partner among unused entries
        cand = np.flatnonzero(~used)
        dists = np.abs(eigvals[cand] - np.conj(lam))
        j = int(cand[int(np.argmin(dists))])
        if j == k or dists.min() > 1e-6 * scale:
            raise ValueError(
                f"complex eigenvalue {lam} has no conjugate partner; "
                "input matrix is not real or spectrum is corrupted"
            )
        used[k] = used[j] = True
        a = float((eigvals[k].real + eigvals[j].real) / 2.0)
        b = float(abs(eigvals[k].imag - eigvals[j].imag) / 2.0)
        # keep the representative with positive imaginary part
        kp = k if eigvals[k].imag > 0 else j
        entries.append((a, b, "pair", int(kp)))
    # real parts within 1e-8 (1 + |lambda|) of a group's first tie; a tie orders by b
    entries.sort(key=lambda e: e[0])
    keys, first = [], None
    for a, b, *_ in entries:
        if first is None or a - first > _TOL * (1.0 + abs(complex(a, b))):
            first = a
        keys.append((first, b))
    entries = [e for _, e in sorted(zip(keys, entries), key=lambda ke: ke[0])]

    n_total = sum(1 if e[2] == "real" else 2 for e in entries)
    Lambda = np.zeros((n_total, n_total))
    Vt = np.zeros((n_total, left_rows.shape[1]))
    blocks: list[tuple[int, int]] = []
    o = 0
    for a, b, kind, k in entries:
        if kind == "real":
            Lambda[o, o] = a
            Vt[o] = _normalize_real_row(np.real(left_rows[k]))
            blocks.append((o, 1))
            o += 1
        else:
            Lambda[o : o + 2, o : o + 2] = np.array([[a, -b], [b, a]])
            w = _normalize_complex_row(left_rows[k])
            Vt[o] = np.real(w)
            Vt[o + 1] = np.imag(w)
            blocks.append((o, 2))
            o += 2
    return Lambda, Vt, tuple(blocks)


def real_spectral_decomposition(A: npt.ArrayLike) -> RealSpectralDecomposition:
    """Real block eigen-decomposition ``Vt @ A = Lambda @ Vt``.

    Block ordering is deterministic: ascending real part, then ascending
    imaginary part; complex pairs are stored as ``[[a, -b], [b, a]]`` with
    ``b > 0``.  Matrices with a defective (non-diagonalizable) spectrum are
    rejected by a rank test on the eigenvector matrix.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    eigvals, left_rows = _left_eig(A)
    sv = np.linalg.svd(left_rows, compute_uv=False)
    if sv[-1] <= _TOL * sv[0]:
        raise ValueError(
            f"{_DEFECTIVE_MSG}: eigenvector matrix rank-deficient "
            f"(singular value ratio {sv[-1] / sv[0]:.2e})"
        )
    Lambda, Vt, blocks = _real_block_rows(eigvals, left_rows)
    cond_V = float(np.linalg.cond(Vt))
    if not well_conditioned(cond_V):
        raise ValueError(
            f"{_DEFECTIVE_MSG}: eigenvector matrix condition number {cond_V:.2e}"
        )
    return RealSpectralDecomposition(Lambda=Lambda, Vt=Vt, cond_V=cond_V, blocks=blocks)


def unstable_left_subspace(H: npt.ArrayLike) -> UnstableSubspace:
    """Left-unstable invariant subspace of a 2n x 2n Hamiltonian matrix.

    Every eigenvalue must be bounded away from the imaginary axis
    (hyperbolicity), and exactly half of the spectrum must be unstable — the
    signature of a Hamiltonian matrix, whose eigenvalues come in ``+-lambda``
    pairs.  The rows of ``D_full`` are real block left-eigenvector rows of
    the unstable part, so ``D_full @ H = Lambda_u @ D_full`` holds with
    ``Lambda_u`` in real block form.
    """
    H = np.asarray(H, dtype=float)
    m = H.shape[0]
    if H.shape != (m, m) or m % 2 != 0:
        raise ValueError(f"expected a 2n x 2n matrix, got shape {H.shape}")
    n = m // 2
    eigvals, left_rows = _left_eig(H)
    if np.any(near_imaginary_axis(eigvals)):
        worst = eigvals[int(np.argmin(np.abs(eigvals.real) / (1.0 + np.abs(eigvals))))]
        raise ValueError(
            f"hyperbolicity violated: eigenvalue {worst} too close to the imaginary axis"
        )
    unstable = eigvals.real > 0
    if int(np.count_nonzero(unstable)) != n:
        raise ValueError(
            f"not a Hamiltonian spectrum: {int(np.count_nonzero(unstable))} unstable "
            f"eigenvalues, expected {n}"
        )
    Lambda_u, D_full, blocks = _real_block_rows(eigvals[unstable], left_rows[unstable])
    return UnstableSubspace(
        D_full=D_full,
        D1=D_full[:, :n],
        D2=D_full[:, n:],
        Lambda_u=Lambda_u,
        blocks=blocks,
    )


def _certify_complementarity(D2: np.ndarray) -> None:
    """The complementarity certificate: the momentum block ``D2`` of a row
    basis ``(D1 | D2)`` has ``cond(D2) < 1e12``, so the rows are a graph
    over the positions."""
    cond = np.linalg.cond(D2)
    if not well_conditioned(cond):
        raise RuntimeError(
            f"complementarity condition fails: momentum block numerically singular "
            f"(condition number {cond:.2e})"
        )


def _graph(D1: np.ndarray, D2: np.ndarray) -> np.ndarray:
    """``-D2^{-1} D1``: the zero-level set ``{D1 x + D2 p = 0}`` of the rows
    ``(D1 | D2)`` is its graph ``{p = -D2^{-1} D1 x}``.  The only solve of a
    momentum block against a position block; certified first."""
    _certify_complementarity(D2)
    return -np.linalg.solve(D2, D1)


def lagrangian_subspace(sub: UnstableSubspace) -> np.ndarray:
    """Symmetric L whose graph ``{p = L x}`` is the zero-level set of the
    unstable subspace's rows.

    ``L = -D2^{-1} D1``.  The result is mathematically symmetric (the
    subspace is Lagrangian); asymmetry beyond ``1e-8`` relative is treated
    as a failure, otherwise the symmetrized matrix is returned.
    """
    L = _graph(sub.D1, sub.D2)
    asym = np.linalg.norm(L - L.T)
    if asym > 1e-8 * max(np.linalg.norm(L), 1e-300):
        raise RuntimeError(
            f"extracted subspace is not Lagrangian: relative asymmetry "
            f"{asym / max(np.linalg.norm(L), 1e-300):.2e} exceeds 1e-8"
        )
    return (L + L.T) / 2.0


def solve_riccati(A: npt.ArrayLike, R: npt.ArrayLike, Q: npt.ArrayLike) -> RiccatiSolution:
    """Stabilizing solution of ``A^T P + P A - P R P + Q = 0``.

    Route: assemble the Hamiltonian matrix ``[[A, -R], [-Q, -A^T]]``, extract
    its left-unstable subspace, and read off ``P = -D2^{-1} D1``.  The
    returned solution always carries a residual certificate and the
    closed-loop spectrum of ``A - R P``, both enforced here.  The residual
    limit ``1e-8 (1 + |Q| + 2 |A| |P| + |P|^2 |R|)`` (Frobenius norms)
    grows with the equation's own terms, whose round-off it bounds.
    """
    A = np.asarray(A, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or R.shape != (n, n) or Q.shape != (n, n):
        raise ValueError(
            f"dimension mismatch: A {A.shape}, R {R.shape}, Q {Q.shape}"
        )
    sub = unstable_left_subspace(hamiltonian_matrix(A, R, Q))
    P = lagrangian_subspace(sub)
    residual = float(np.linalg.norm(A.T @ P + P @ A - P @ R @ P + Q))
    nA, nR, nQ, nP = (np.linalg.norm(M) for M in (A, R, Q, P))
    limit = 1e-8 * (1.0 + nQ + 2.0 * nA * nP + nP**2 * nR)
    if residual > limit:
        raise RuntimeError(
            f"Riccati residual {residual:.3e} exceeds tolerance {limit:.3e}"
        )
    clspec = np.linalg.eigvals(A - R @ P)
    if np.any(clspec.real >= 0):
        raise RuntimeError(
            f"Riccati solution not stabilizing: closed-loop eigenvalues {clspec}"
        )
    return RiccatiSolution(P=P, residual=residual, closed_loop_spectrum=clspec)


def block_exp(
    Lambda: npt.ArrayLike, blocks: tuple[tuple[int, int], ...], t: npt.ArrayLike
) -> np.ndarray:
    """``exp(Lambda t)`` of a real block form, for each time in ``t``.

    ``Lambda`` is block-diagonal with the ``(offset, size)`` layout
    ``blocks``: ``exp(a t)`` for a 1x1 block ``a``, and ``exp(a t)`` times
    the rotation ``[[cos bt, -sin bt], [sin bt, cos bt]]`` for a 2x2 block
    ``[[a, -b], [b, a]]``.  Returns ``t.shape + (n, n)``.  Raises
    ``ValueError`` unless the blocks tile the rows in order and ``Lambda``
    has that form, zero outside the blocks.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    t = np.asarray(t, dtype=float)
    n = Lambda.shape[0]
    if Lambda.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {Lambda.shape}")
    sizes = [r for _, r in blocks]
    ends = np.cumsum([0] + sizes)  # a tiling starts each block where the last ended
    if any(r not in (1, 2) for r in sizes) or [o for o, _ in blocks] != list(ends[:-1]) \
            or ends[-1] != n:
        raise ValueError(f"blocks {tuple(blocks)} do not tile the {n} rows of Lambda")
    inside = np.zeros((n, n), dtype=bool)
    for o, r in blocks:
        inside[o : o + r, o : o + r] = True
        blk = Lambda[o : o + r, o : o + r]
        if r == 2 and not (blk[1, 1] == blk[0, 0] and blk[0, 1] == -blk[1, 0]):
            raise ValueError(f"block at {o} is not of the form [[a, -b], [b, a]]: {blk.tolist()}")
    if Lambda[~inside].any():
        raise ValueError("Lambda has entries outside its blocks")
    out = np.zeros(t.shape + (n, n))
    for o, r in blocks:
        grow = np.exp(Lambda[o, o] * t)
        if r == 1:
            out[..., o, o] = grow
        else:
            bt = Lambda[o + 1, o] * t
            c, s = grow * np.cos(bt), grow * np.sin(bt)
            out[..., o, o], out[..., o, o + 1] = c, -s
            out[..., o + 1, o], out[..., o + 1, o + 1] = s, c
    return out
