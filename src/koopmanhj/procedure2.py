"""Stationary solution from unstable eigenfunctions of the Hamiltonian flow.

The canonical equations of the optimal-control Hamiltonian define a flow on
``z = (x, p)`` whose linearization ``H0`` is Hamiltonian: eigenvalues come
in ``+-lambda`` pairs.  The stable Lagrangian submanifold — the graph
``p = dV/dx^T`` of the stationary solution — is the joint zero-level set of
the principal eigenfunctions associated with the *unstable* eigenvalues:

    Psi_u(z) = Wu_t z + U Gamma(z),        Psi_u(x, p*(x)) = 0.

With a dictionary at most linear in ``p`` (``Gamma = (Xi1(x), Xi2(x) p)``),
the zero-level equation is linear in ``p`` and solves in closed form:

    G2(x) = Wu2_t + U12 Xi2(x),
    G1(x) = U11 Xi1(x) + U12 Xi2(x) Jl x,
    Jl    = -Wu2_t^{-1} Wu1_t,
    p*(x) = Jl x + p_n(x),      p_n(x) = -G2(x)^{-1} G1(x),

which algebraically equals ``-G2(x)^{-1}(Wu1_t x + U11 Xi1(x))`` — the
direct solve of ``Psi_u(x, .) = 0``.  The feedback law is
``u = -D^{-1} g(x)^T p*(x)``; a value function can additionally be fitted
as ``V(x) = 0.5 (x^T Jl x + Xi3(x)^T Jn Xi3(x))`` by least squares on the
manifold gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import numpy.typing as npt

from .basis import BasisSet, Procedure2Basis
from .galerkin import (
    HELDOUT_SEED_XOR,
    SampleSet,
    _derive_seed,
    _field_values,
    assemble_galerkin,
    pde_residual_rms,
    sample_domain,
    solve_coefficients,
)
from .spectral import unstable_left_subspace
from .systems import ControlAffineSystem, HamiltonianSystemModel, feedback, linearize

__all__ = [
    "UnstableEigenfunctions",
    "ValueFit",
    "HJSolution2",
    "unstable_eigfns",
    "psi_u",
    "linear_manifold",
    "nonlinear_manifold",
    "control2",
    "fit_value_Jn",
    "procedure2_solve",
    "default_phase_box",
]

_FIT_SEED_XOR = 0x8EBC6AF09C88C6E3


@dataclass(frozen=True)
class UnstableEigenfunctions:
    """Eigenfunctions of the Hamiltonian flow for the unstable spectrum.

    ``Psi_u(z) = Wu_t z + U Gamma(z)`` row-wise; rows are normalized to
    ``||Wu_t row||_2 = 1`` with the first significant entry positive (the
    zero-level set is invariant under row scaling).  ``Lambda_u`` is the
    block eigenmatrix in this scaled row basis, so
    ``dPsi_u/dz . F = Lambda_u Psi_u`` holds as stored.
    """

    Wu_t: np.ndarray  # (n, 2n)
    U: np.ndarray  # (n, M)
    basis: Procedure2Basis
    Lambda_u: np.ndarray  # (n, n)
    blocks: tuple
    residual_rms: np.ndarray  # per-block PDE residual on the training sample
    heldout_rms: np.ndarray
    cond_J: np.ndarray
    box: np.ndarray  # (2n, 2) sampling box on (x, p)

    @property
    def n(self) -> int:
        return self.Wu_t.shape[0]

    @property
    def Wu1_t(self) -> np.ndarray:
        return self.Wu_t[:, : self.n]

    @property
    def Wu2_t(self) -> np.ndarray:
        return self.Wu_t[:, self.n :]

    @property
    def U11(self) -> np.ndarray:
        return self.U[:, : self.basis.N]

    @property
    def U12(self) -> np.ndarray:
        return self.U[:, self.basis.N :]


def psi_u(eigs: UnstableEigenfunctions, Z: npt.ArrayLike) -> np.ndarray:
    """Evaluate the stacked unstable eigenfunctions at z = (x, p)."""
    Z = np.asarray(Z, dtype=float)
    return Z @ eigs.Wu_t.T + eigs.basis.eval(Z) @ eigs.U.T


def unstable_eigfns(
    ham: HamiltonianSystemModel,
    basis: Procedure2Basis,
    samples: SampleSet,
    heldout_tol: Optional[float] = None,
) -> UnstableEigenfunctions:
    """Approximate the unstable principal eigenfunctions of the lifted flow.

    Linear parts come from the left-unstable subspace of ``H0``; nonlinear
    coefficients from the projected least-squares solve against the full
    nonlinear field, block by block.  A held-out sample (size L // 5,
    derived seed) validates each block's PDE residual against
    ``heldout_tol`` (default 10x training + 1e-9).  The momentum block
    ``Wu2_t`` must be invertible for the downstream manifold solve.
    """
    n = ham.base.n
    if basis.n != n:
        raise ValueError(f"basis is for n={basis.n}, system has n={n}")
    if samples.dim != 2 * n:
        raise ValueError(f"samples have dim {samples.dim}, expected 2n={2 * n}")
    sub = unstable_left_subspace(ham.H0)
    FX = _field_values(ham.F, samples.points)
    held = sample_domain(
        samples.box, max(1, samples.L // 5), _derive_seed(samples.seed, HELDOUT_SEED_XOR)
    )
    FXh = _field_values(ham.F, held.points)

    Wu = sub.D_full.copy()
    U = np.zeros((n, basis.M))
    conds = np.zeros(len(sub.blocks))
    for bi, (off, size) in enumerate(sub.blocks):
        W = sub.D_full[off : off + size]
        S = sub.Lambda_u[off : off + size, off : off + size]
        prob = assemble_galerkin(ham.F, basis, S, W, samples, E=ham.H0, F_values=FX)
        U[off : off + size] = solve_coefficients(prob)
        conds[bi] = prob.cond_J

    # Per-row normalization: unit linear part, first significant entry
    # positive.  This is a diagonal row scaling s, so the block eigenmatrix
    # transforms by the similarity diag(s) Lambda_u diag(s)^{-1}.
    scale = np.ones(n)
    for i in range(n):
        nrm = float(np.linalg.norm(Wu[i]))
        if nrm == 0.0:
            raise RuntimeError(f"unstable eigenfunction row {i} has zero linear part")
        s = 1.0 / nrm
        mx = np.max(np.abs(Wu[i]))
        idx = np.flatnonzero(np.abs(Wu[i]) > 1e-8 * mx)
        lead = idx[0] if idx.size else int(np.argmax(np.abs(Wu[i])))
        if Wu[i, lead] < 0:
            s = -s
        scale[i] = s
    Wu = Wu * scale[:, None]
    U = U * scale[:, None]
    Lambda_u = (scale[:, None] * sub.Lambda_u) / scale[None, :]

    train = np.zeros(len(sub.blocks))
    heldout = np.zeros(len(sub.blocks))
    for bi, (off, size) in enumerate(sub.blocks):
        W = Wu[off : off + size]
        Th = U[off : off + size]
        S = Lambda_u[off : off + size, off : off + size]
        train[bi] = pde_residual_rms(ham.F, basis, S, W, Th, samples.points, F_values=FX)
        heldout[bi] = pde_residual_rms(ham.F, basis, S, W, Th, held.points, F_values=FXh)
        tol = heldout_tol if heldout_tol is not None else 10.0 * train[bi] + 1e-9
        if heldout[bi] > tol:
            raise RuntimeError(
                f"held-out PDE residual {heldout[bi]:.3e} exceeds tolerance {tol:.3e} "
                f"for unstable block {bi} — eigenfunction did not generalize"
            )

    Wu2 = Wu[:, n:]
    cond2 = np.linalg.cond(Wu2)
    if not np.isfinite(cond2) or cond2 >= 1e12:
        raise RuntimeError(
            f"complementarity condition fails: momentum block of the unstable "
            f"eigenfunctions numerically singular (condition number {cond2:.2e})"
        )
    return UnstableEigenfunctions(
        Wu_t=Wu,
        U=U,
        basis=basis,
        Lambda_u=Lambda_u,
        blocks=tuple(sub.blocks),
        residual_rms=train,
        heldout_rms=heldout,
        cond_J=conds,
        box=samples.box,
    )


def linear_manifold(eigs: UnstableEigenfunctions) -> np.ndarray:
    """Linear coefficient of the manifold: ``Jl = -Wu2_t^{-1} Wu1_t``.

    Returned exactly as the formula gives it (possibly slightly asymmetric
    for sampled data); callers that need the symmetric quadratic-form
    coefficient symmetrize it and track the asymmetry.
    """
    cond2 = np.linalg.cond(eigs.Wu2_t)
    if not np.isfinite(cond2) or cond2 >= 1e12:
        raise RuntimeError(
            f"complementarity condition fails: momentum block of the unstable "
            f"eigenfunctions numerically singular (condition number {cond2:.2e})"
        )
    return -np.linalg.solve(eigs.Wu2_t, eigs.Wu1_t)


def _manifold_system(
    eigs: UnstableEigenfunctions, x: np.ndarray, Jl: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``G2(x)`` (..., n, n) and ``G1(x)`` (..., n) at states ``x`` (..., n)."""
    C = eigs.U12 @ eigs.basis.xi2(x)  # (..., n, n)
    G1 = eigs.basis.xi1(x) @ eigs.U11.T + (C @ (x @ Jl.T)[..., None])[..., 0]
    return eigs.Wu2_t + C, G1


def _solve_manifold(
    eigs: UnstableEigenfunctions, x: np.ndarray, Jl: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``p_n = -G2^{-1} G1`` at states ``x`` (..., n), with ``G2`` and ``G1``.

    Every point must pass the ``cond(G2) < 1e12`` certificate; the first
    point that fails is named in the error.
    """
    G2, G1 = _manifold_system(eigs, x, Jl)
    cond = np.atleast_1d(np.linalg.cond(G2))
    bad = np.flatnonzero(~(np.isfinite(cond) & (cond < 1e12)))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"manifold momentum matrix G2 singular at "
            f"x={x.reshape(-1, eigs.n)[k].tolist()} (condition number {cond[k]:.2e})"
        )
    return -np.linalg.solve(G2, G1[..., None])[..., 0], G2, G1


def nonlinear_manifold(
    eigs: UnstableEigenfunctions, x: npt.ArrayLike, Jl: Optional[np.ndarray] = None
) -> np.ndarray:
    """Nonlinear momentum correction ``p_n(x) = -G2(x)^{-1} G1(x)``.

    ``x`` is one state or a batch ``(..., n)``.  The full manifold point is
    ``p*(x) = Jl x + p_n(x)``, which solves ``Psi_u(x, p) = 0`` exactly
    wherever ``G2(x)`` is invertible.
    """
    x = np.asarray(x, dtype=float)
    if Jl is None:
        Jl = linear_manifold(eigs)
    return _solve_manifold(eigs, x, Jl)[0]


def control2(
    sys: ControlAffineSystem, eigs: UnstableEigenfunctions, x: npt.ArrayLike
) -> np.ndarray:
    """Feedback law from the manifold: ``u = -D^{-1} g(x)^T p*(x)``, batched."""
    x = np.asarray(x, dtype=float)
    Jl = linear_manifold(eigs)
    return feedback(sys, x, x @ Jl.T + nonlinear_manifold(eigs, x, Jl=Jl))


@dataclass(frozen=True)
class ValueFit:
    """Least-squares fit of the nonlinear value coefficient ``Jn``.

    ``Jn`` is the unconstrained least-squares optimum; ``Jn_psd`` projects
    it onto the positive-semidefinite cone by eigenvalue clipping.  Each
    carries the RMS mismatch between the fitted value gradient
    ``sym(Jl) x + (dXi3/dx)^T Jn Xi3`` and the manifold ``p*(x)`` over the
    fitting samples.
    """

    Jn: np.ndarray
    Jn_psd: np.ndarray
    fit_residual: float
    fit_residual_psd: float
    rank: int
    xi3: BasisSet


def fit_value_Jn(
    eigs: UnstableEigenfunctions,
    xi3: BasisSet,
    x_samples: Union[SampleSet, npt.ArrayLike],
) -> ValueFit:
    """Fit ``V(x) = 0.5 (x^T Jl x + Xi3^T Jn Xi3)`` to the manifold.

    For each sample the value-gradient model is linear in the
    half-vectorization of the symmetric ``Jn``; rows are weighted by
    ``G2(x_k)`` so the normal equations reproduce the manifold equation
    ``G2 p + G1 = 0``, and the targets are ``-G1(x_k)`` minus the linear
    part's contribution.  The reported residual is the direct (unweighted)
    RMS mismatch of the full value gradient against ``p*``.
    """
    if not getattr(xi3, "purely_nonlinear", False):
        raise ValueError("xi3 must be a purely nonlinear basis")
    pts = x_samples.points if isinstance(x_samples, SampleSet) else np.asarray(
        x_samples, dtype=float
    )
    if pts.ndim != 2 or pts.shape[1] != eigs.n:
        raise ValueError(f"x_samples must be (K, {eigs.n}), got {pts.shape}")
    K = pts.shape[0]
    M1 = xi3.M
    I, J = np.triu_indices(M1)  # half-vectorization of the symmetric Jn
    nv = I.size

    Jl_raw = linear_manifold(eigs)
    Jl_sym = (Jl_raw + Jl_raw.T) / 2.0
    n = eigs.n
    v = xi3.eval(pts)  # (K, M1)
    T = xi3.jacobian(pts)  # (K, M1, n)
    # d(Xi3^T Jn Xi3 / 2)/dx is linear in vech(Jn): column (i, j) holds
    # T_i v_j + T_j v_i, or T_i v_i on the diagonal
    offdiag = (I != J)[None, :, None]
    cm = T[:, I, :] * v[:, J, None] + (T[:, J, :] * v[:, I, None]) * offdiag
    cm = np.swapaxes(cm, 1, 2)  # (K, n, nv)
    p_n, G2, G1 = _solve_manifold(eigs, pts, Jl_raw)
    p_stars = pts @ Jl_raw.T + p_n
    # weighted rows: G2 (gradient model) ~ -G1 - G2 p_n-linear part;
    # the model replaces p_n, so target is G2 p_n = -G1.
    A = (G2 @ cm).reshape(K * n, nv)
    t = -G1.reshape(K * n)

    sol, _, rank, _ = np.linalg.lstsq(A, t, rcond=None)
    if rank < nv:
        raise RuntimeError(
            f"value basis unidentifiable from samples (rank {rank} < {nv} coefficients)"
        )

    Jn = np.zeros((M1, M1))
    Jn[I, J] = sol
    Jn[J, I] = sol
    evals, evecs = np.linalg.eigh(Jn)
    Jn_psd = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    Jn_psd = (Jn_psd + Jn_psd.T) / 2.0

    def direct_rms(Jmat: np.ndarray) -> float:
        grad_model = pts @ Jl_sym.T + np.einsum("kmj,km->kj", T, v @ Jmat.T)
        diff = grad_model - p_stars
        return float(np.sqrt(np.sum(diff * diff) / (K * n)))

    return ValueFit(
        Jn=Jn,
        Jn_psd=Jn_psd,
        fit_residual=direct_rms(Jn),
        fit_residual_psd=direct_rms(Jn_psd),
        rank=int(rank),
        xi3=xi3,
    )


@dataclass(frozen=True)
class HJSolution2:
    """Feedback law and (optional) value function from the zero-level set.

    ``Jl`` is the symmetrized linear manifold coefficient and ``Jl_raw`` the
    raw one (computed once, when the solution is built); ``jl_asymmetry``
    records the raw formula's relative asymmetry
    ``|Jl_raw - Jl_raw^T|_F / max(1, |Jl_raw|_F)``.  ``p_star`` uses the raw
    coefficient so zero-level membership ``Psi_u(x, p_star(x)) = 0`` holds
    to machine precision.  ``p_star``, ``control``, ``value``, ``G1`` and
    ``G2`` accept one state or states ``(..., n)``.
    """

    eigs: UnstableEigenfunctions
    sys: ControlAffineSystem
    Jl: np.ndarray
    Jl_raw: np.ndarray
    jl_asymmetry: float
    value_fit: Optional[ValueFit] = None

    def G1(self, x: npt.ArrayLike) -> np.ndarray:
        return _manifold_system(self.eigs, np.asarray(x, dtype=float), self.Jl_raw)[1]

    def G2(self, x: npt.ArrayLike) -> np.ndarray:
        return _manifold_system(self.eigs, np.asarray(x, dtype=float), self.Jl_raw)[0]

    def p_star(self, x: npt.ArrayLike) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.Jl_raw.T + nonlinear_manifold(self.eigs, x, Jl=self.Jl_raw)

    def control(self, x: npt.ArrayLike) -> np.ndarray:
        return feedback(self.sys, x, self.p_star(x))

    def value(self, x: npt.ArrayLike):
        """V(x) = 0.5 (x^T Jl x + Xi3^T Jn Xi3); requires a fitted Jn.

        A float for one state, shape (...) for states (..., n).
        """
        if self.value_fit is None:
            raise RuntimeError("no value fit available: solve with a value basis")
        x = np.asarray(x, dtype=float)
        v = self.value_fit.xi3.eval(x)
        V = 0.5 * (np.einsum("...i,ij,...j->...", x, self.Jl, x)
                   + np.einsum("...i,ij,...j->...", v, self.value_fit.Jn, v))
        return float(V) if x.ndim == 1 else V


def default_phase_box(
    sys: ControlAffineSystem, x_box: npt.ArrayLike, margin: float = 2.0
) -> np.ndarray:
    """Sampling box on (x, p): x ranges as given, momenta bounded by the
    image of the box under the linear manifold estimate.

    The linear estimate is the stabilizing Riccati solution of the origin
    linearization; the momentum radius is ``margin * ||P_r||_2 * max |x|``.
    """
    from .spectral import solve_riccati

    x_box = np.asarray(x_box, dtype=float).reshape(sys.n, 2)
    lin = linearize(sys)
    P_r = solve_riccati(lin.A, lin.R0, lin.Q0).P
    pmax = margin * float(np.linalg.norm(P_r, 2)) * float(np.max(np.abs(x_box)))
    p_rows = np.tile([-pmax, pmax], (sys.n, 1))
    return np.vstack([x_box, p_rows])


def procedure2_solve(
    sys: ControlAffineSystem,
    basis: Procedure2Basis,
    samples: SampleSet,
    xi3: Optional[BasisSet] = None,
    fit_samples: Optional[Union[SampleSet, npt.ArrayLike]] = None,
    heldout_tol: Optional[float] = None,
) -> HJSolution2:
    """End-to-end construction of the zero-level-set solution.

    Lifts the system to its Hamiltonian flow, approximates the unstable
    eigenfunctions on the sample, and assembles the manifold maps.  When a
    value basis ``xi3`` is given, ``Jn`` is fitted on ``fit_samples``
    (default: a fresh sample of the x-part of the box, derived seed).
    """
    from .systems import hamiltonian_vector_field

    ham = hamiltonian_vector_field(sys)
    eigs = unstable_eigfns(ham, basis, samples, heldout_tol=heldout_tol)
    Jl_raw = linear_manifold(eigs)
    asym = float(np.linalg.norm(Jl_raw - Jl_raw.T)) / max(1.0, float(np.linalg.norm(Jl_raw)))
    Jl = (Jl_raw + Jl_raw.T) / 2.0
    value_fit = None
    if xi3 is not None:
        if fit_samples is None:
            nv = xi3.M * (xi3.M + 1) // 2
            fit_samples = sample_domain(
                samples.box[: sys.n], max(10 * nv, 100),
                _derive_seed(samples.seed, _FIT_SEED_XOR),
            )
        value_fit = fit_value_Jn(eigs, xi3, fit_samples)
    return HJSolution2(
        eigs=eigs, sys=sys, Jl=Jl, Jl_raw=Jl_raw, jl_asymmetry=asym, value_fit=value_fit
    )
