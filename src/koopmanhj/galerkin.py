"""Principal-eigenfunction approximation from sampled data.

A principal eigenfunction of the generator of a flow ``zdot = F(z)`` with
linearization ``E`` splits as ``psi(z) = w^T z + h(z)``: the linear part is a
left eigenvector of ``E`` (``w^T E = lambda w^T``), and the purely nonlinear
part ``h`` solves the first-order PDE

    dh/dz . F(z) - lambda h(z) = -w^T F_n(z),       F_n(z) = F(z) - E z.

Expanding ``h = Gamma_M(z)^T Theta`` in a purely nonlinear dictionary and
projecting the residual onto the dictionary under the empirical measure of a
sample ``{z_k}`` gives the square linear system

    J Theta = -b,
    J = (1/L) sum_k Gamma(z_k) (dGamma/dz(z_k) F(z_k) - lambda Gamma(z_k))^T,
    b = (1/L) sum_k (w^T F_n(z_k)) Gamma(z_k).

Complex-conjugate eigenvalue pairs are handled in real form: with a 2x2
block ``S`` and two real rows ``W``, the coupled system for ``(Theta_1,
Theta_2)`` is ``kron(I_2, J_hat) - kron(S, G_tilde)`` acting on the stacked
coefficients, where ``J_hat = G^T KG / L`` and ``G_tilde = G^T G / L``; for a
1x1 block it reduces to the equation above.

Accumulation is chunked at a fixed size so results are bit-reproducible
regardless of available parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from .basis import BasisSet, Procedure2Basis
from .spectral import real_spectral_decomposition

__all__ = [
    "SampleSet",
    "GalerkinProblem",
    "PrincipalEigenfunction",
    "EigenfunctionSet",
    "ConvergenceStudy",
    "sample_domain",
    "assemble_galerkin",
    "solve_coefficients",
    "pde_residual_rms",
    "approximate_eigenfunction_set",
    "linear_eigenfunction_set",
    "convergence_study",
]

CHUNK = 1024
"""Fixed accumulation chunk size (bit-reproducibility contract)."""

HELDOUT_SEED_XOR = 0xD1B54A32D192ED03
"""Mixed into a sample seed to derive the held-out validation seed."""

_EVAL_SEED_XOR = 0x9E3779B97F4A7C15  # evaluation grid for convergence studies
_REF_SEED_XOR = 0xC2B2AE3D27D4EB4F  # dense reference run for convergence studies
_SEED_MASK = 0xFFFFFFFFFFFFFFFF

AnyBasis = Union[BasisSet, Procedure2Basis]


def _derive_seed(seed: Optional[int], xor_const: int) -> int:
    """Child seed ``seed ^ xor_const`` in 64 bits (``xor_const`` for no seed)."""
    base = xor_const if seed is None else (int(seed) ^ xor_const)
    return base & _SEED_MASK


@dataclass(frozen=True)
class SampleSet:
    """Points drawn (or laid out) inside a box, with their provenance.

    ``seed`` is None for externally constructed point sets (e.g. dense
    grids); sampled sets always carry the seed so they can be regenerated
    bit-identically from ``(box, L, seed)``.
    """

    points: np.ndarray  # (L, dim)
    box: np.ndarray  # (dim, 2) rows [lo, hi]
    seed: Optional[int]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        box = np.asarray(self.box, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D (L, dim), got shape {pts.shape}")
        if box.shape != (pts.shape[1], 2):
            raise ValueError(f"box shape {box.shape} != ({pts.shape[1]}, 2)")
        if np.any(box[:, 0] >= box[:, 1]):
            raise ValueError("box must have lo < hi in every coordinate")
        eps = 1e-12 * np.maximum(1.0, np.abs(box).max())
        if np.any(pts < box[None, :, 0] - eps) or np.any(pts > box[None, :, 1] + eps):
            raise ValueError("some points lie outside the declared box")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "box", box)

    @property
    def L(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_domain(box: npt.ArrayLike, L: int, seed: int) -> SampleSet:
    """L i.i.d. uniform points over the box from numpy's PCG64 generator.

    Deterministic per ``(box, L, seed)``: the generator is
    ``numpy.random.default_rng(seed)`` and the points come from a single
    ``uniform(lo, hi, (L, dim))`` call.
    """
    box_arr = np.asarray(box, dtype=float)
    if box_arr.ndim == 1:
        box_arr = box_arr.reshape(1, 2)
    if L < 1:
        raise ValueError(f"need at least one sample, got L={L}")
    if np.any(box_arr[:, 0] >= box_arr[:, 1]):
        raise ValueError("box must have lo < hi in every coordinate")
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    pts = rng.uniform(box_arr[:, 0], box_arr[:, 1], size=(int(L), box_arr.shape[0]))
    return SampleSet(points=pts, box=box_arr, seed=int(seed) & _SEED_MASK)


def _field_values(F, points: np.ndarray) -> np.ndarray:
    """Field values at all rows of ``points``: one batched call ``F(points)``.

    ``F`` maps points ``(..., dim)`` to values of the same shape; an array
    is taken as precomputed values.  Either way the result must have the
    shape of ``points``.
    """
    FX = np.asarray(F if isinstance(F, np.ndarray) else F(points), dtype=float)
    if FX.shape != points.shape:
        raise ValueError(f"field values shape {FX.shape} != points shape {points.shape}")
    return FX


@dataclass
class GalerkinProblem:
    """Assembled projection system ``J Theta = -b`` for one eigenvalue block.

    For an r-row block (r = 1 real, r = 2 complex pair) the system matrix is
    ``(r M) x (r M)`` and ``b`` stacks the per-row forcing projections.
    After :func:`solve_coefficients`, ``Theta`` holds the (r, M) coefficient
    rows and ``solve_residual`` the achieved ``||J vec(Theta) + b||``.
    """

    J: np.ndarray
    b: np.ndarray
    lambda_block: np.ndarray  # (r, r)
    w: np.ndarray  # (r, dim)
    basis: AnyBasis
    cond_J: float
    L: int
    Theta: Optional[np.ndarray] = None
    solve_residual: Optional[float] = None


def assemble_galerkin(
    F,
    basis: AnyBasis,
    lambda_block,
    w: npt.ArrayLike,
    samples: SampleSet,
    E: Optional[npt.ArrayLike] = None,
    F_values: Optional[np.ndarray] = None,
) -> GalerkinProblem:
    """Assemble the projected linear system for one eigenvalue block.

    ``w`` must hold left-eigenvector rows of the linearization ``E`` for the
    given block (``W E = S W`` to 1e-8 relative).  ``E`` defaults to a
    central-difference Jacobian of ``F`` at the origin; passing it explicitly
    keeps the forcing ``F_n = F - Ez`` exact.  ``F_values`` may carry
    precomputed ``F(z_k)`` rows to avoid re-evaluating the field.
    """
    if not getattr(basis, "purely_nonlinear", False):
        raise ValueError("basis must be purely nonlinear (degrees >= 2 in z)")
    dim = basis.dim_in
    if samples.dim != dim:
        raise ValueError(f"samples have dim {samples.dim}, basis expects {dim}")
    M = basis.M
    L = samples.L
    if L < M:
        raise ValueError(f"underdetermined: L={L} samples < M={M} basis functions")

    S = np.atleast_2d(np.asarray(lambda_block, dtype=float))
    W = np.atleast_2d(np.asarray(w, dtype=float))
    r = S.shape[0]
    if S.shape != (r, r) or r not in (1, 2):
        raise ValueError(f"lambda_block must be 1x1 or 2x2, got shape {S.shape}")
    if W.shape != (r, dim):
        raise ValueError(f"w shape {W.shape} inconsistent with block size {r} and dim {dim}")

    pts = samples.points
    FX = _field_values(F, pts) if F_values is None else _field_values(F_values, pts)
    if E is None:
        if not callable(F):
            raise ValueError("E must be given explicitly when F is precomputed values")
        from .systems import _fd_jacobian

        E_mat = _fd_jacobian(F, np.zeros(dim))
    else:
        E_mat = np.asarray(E, dtype=float)
    if E_mat.shape != (dim, dim):
        raise ValueError(f"linearization shape {E_mat.shape} != ({dim}, {dim})")
    eig_res = np.max(np.abs(W @ E_mat - S @ W))
    if eig_res > 1e-8 * (1.0 + np.max(np.abs(E_mat))):
        raise ValueError(
            f"w is not a left-eigenvector row block of E for this block: "
            f"residual {eig_res:.3e}"
        )

    J_hat = np.zeros((M, M))
    G_tilde = np.zeros((M, M))
    b_rows = np.zeros((r, M))
    for start in range(0, L, CHUNK):
        Zc = pts[start : start + CHUNK]
        FXc = FX[start : start + CHUNK]
        G = basis.eval(Zc)  # (C, M)
        dG = basis.jacobian(Zc)  # (C, M, dim)
        KG = np.einsum("kmj,kj->km", dG, FXc)
        Fn = FXc - Zc @ E_mat.T
        J_hat += G.T @ KG
        G_tilde += G.T @ G
        b_rows += (Fn @ W.T).T @ G  # rows: G^T (Fn w_i)
    J_hat /= L
    G_tilde /= L
    b_rows /= L

    J_sys = np.kron(np.eye(r), J_hat) - np.kron(S, G_tilde)
    b_vec = b_rows.reshape(-1)
    cond_J = float(np.linalg.cond(J_sys))
    if not np.isfinite(cond_J) or cond_J >= 1e12:
        raise RuntimeError(
            f"Gram matrix numerically singular (cond {cond_J:.3e}); "
            "basis functions are not independent on this sample"
        )
    return GalerkinProblem(
        J=J_sys, b=b_vec, lambda_block=S, w=W, basis=basis, cond_J=cond_J, L=L
    )


def solve_coefficients(prob: GalerkinProblem) -> np.ndarray:
    """Solve ``J Theta = -b`` by pivoted LU; returns Theta as (r, M) rows.

    The achieved residual is recorded on the problem and certified against
    ``1e-8 ||b||``.
    """
    if not np.isfinite(prob.cond_J) or prob.cond_J >= 1e12:
        raise RuntimeError(
            f"Gram matrix numerically singular (cond {prob.cond_J:.3e}); "
            "basis functions are not independent on this sample"
        )
    theta_vec = np.linalg.solve(prob.J, -prob.b)
    residual = float(np.linalg.norm(prob.J @ theta_vec + prob.b))
    bound = 1e-8 * np.linalg.norm(prob.b) + 1e-300
    if residual > bound:
        raise RuntimeError(
            f"projection system solve failed its residual certificate: "
            f"{residual:.3e} > {bound:.3e}"
        )
    r = prob.lambda_block.shape[0]
    Theta = theta_vec.reshape(r, prob.basis.M)
    prob.Theta = Theta
    prob.solve_residual = residual
    return Theta


@dataclass(frozen=True)
class PrincipalEigenfunction:
    """One eigenvalue block's eigenfunction(s): psi(z) = W z + Theta Gamma(z)."""

    block: np.ndarray  # (r, r)
    w: np.ndarray  # (r, dim)
    Theta: np.ndarray  # (r, M)
    basis: AnyBasis
    domain: np.ndarray  # (dim, 2)
    residual_rms: float
    heldout_rms: float
    cond_J: float

    def eval(self, Z: npt.ArrayLike) -> np.ndarray:
        """psi values: shape (..., dim) -> (..., r)."""
        Z = np.asarray(Z, dtype=float)
        return Z @ self.w.T + self.basis.eval(Z) @ self.Theta.T

    def jacobian(self, Z: npt.ArrayLike) -> np.ndarray:
        """dpsi/dz: shape (..., dim) -> (..., r, dim)."""
        Z = np.asarray(Z, dtype=float)
        dG = self.basis.jacobian(Z)
        return self.w + np.einsum("im,...mj->...ij", self.Theta, dG)


def pde_residual_rms(
    F,
    basis: AnyBasis,
    lambda_block,
    w: npt.ArrayLike,
    Theta: npt.ArrayLike,
    points: npt.ArrayLike,
    F_values: Optional[np.ndarray] = None,
) -> float:
    """RMS over points (and block rows) of ``dpsi/dz . F - S psi``.

    This is the defining PDE residual of the eigenfunction block, evaluated
    directly — the quantity the projection step minimizes in the empirical
    norm.
    """
    pts = np.asarray(points, dtype=float)
    S = np.atleast_2d(np.asarray(lambda_block, dtype=float))
    W = np.atleast_2d(np.asarray(w, dtype=float))
    Th = np.atleast_2d(np.asarray(Theta, dtype=float))
    FX = _field_values(F, pts) if F_values is None else _field_values(F_values, pts)
    total = 0.0
    count = 0
    for start in range(0, pts.shape[0], CHUNK):
        Zc = pts[start : start + CHUNK]
        FXc = FX[start : start + CHUNK]
        G = basis.eval(Zc)
        dG = basis.jacobian(Zc)
        KG = np.einsum("kmj,kj->km", dG, FXc)
        Psi = Zc @ W.T + G @ Th.T  # (C, r)
        dPsiF = FXc @ W.T + KG @ Th.T  # (C, r)
        res = dPsiF - Psi @ S.T
        total += float(np.sum(res * res))
        count += res.size
    return float(np.sqrt(total / max(count, 1)))


@dataclass(frozen=True)
class EigenfunctionSet:
    """Stacked principal eigenfunctions Phi with their block eigenmatrix.

    ``Phi(x) = Vt x + h1(x)`` with ``dh1/dx(0) = 0`` and
    ``dPhi/dx . f = Lambda Phi`` on the box (up to the recorded residuals).
    ``Phi``, ``jac_Phi`` and ``Phi_jac`` (both at once, from one basis
    evaluation) accept batched inputs ``(..., n)``.
    """

    Phi: Callable[[np.ndarray], np.ndarray]
    jac_Phi: Callable[[np.ndarray], np.ndarray]
    Phi_jac: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    Lambda: np.ndarray  # (n, n) real block eigenmatrix
    Vt: np.ndarray  # (n, n) linear parts (rows)
    box: np.ndarray  # (n, 2)
    blocks: tuple = ()
    basis: Optional[AnyBasis] = None
    Theta: Optional[np.ndarray] = None  # (n, M) nonlinear coefficients
    block_residuals: Optional[np.ndarray] = None  # train RMS per block
    heldout_residuals: Optional[np.ndarray] = None
    cond_J: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.Vt.shape[0]


def _make_phi(Vt: np.ndarray, Theta: np.ndarray, basis: AnyBasis):
    def Phi(x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        return X @ Vt.T + basis.eval(X) @ Theta.T

    def jac_Phi(x: npt.ArrayLike) -> np.ndarray:
        return Vt + Theta @ basis.jacobian(np.asarray(x, dtype=float))

    def Phi_jac(x: npt.ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        X = np.asarray(x, dtype=float)
        G, dG = basis.eval_and_jacobian(X)
        return X @ Vt.T + G @ Theta.T, Vt + Theta @ dG

    return Phi, jac_Phi, Phi_jac


def approximate_eigenfunction_set(
    F,
    E: npt.ArrayLike,
    basis: AnyBasis,
    samples: SampleSet,
    heldout_tol: Optional[float] = None,
    F_values: Optional[np.ndarray] = None,
) -> EigenfunctionSet:
    """Approximate all principal eigenfunctions of the flow ``zdot = F(z)``.

    For each eigenvalue block of ``E`` (real block form), the linear part
    comes from the spectral decomposition and the nonlinear part from the
    projected least-squares solve.  A held-out sample of size ``L // 5``
    (fresh seed derived from the sample seed) validates each block's PDE
    residual: it must not exceed ``heldout_tol`` (default: 10x the training
    residual + 1e-9 absolute floor).
    """
    E_mat = np.asarray(E, dtype=float)
    dec = real_spectral_decomposition(E_mat)
    dim = E_mat.shape[0]
    if basis.dim_in != dim:
        raise ValueError(f"basis dim {basis.dim_in} != system dim {dim}")
    M = basis.M
    Theta = np.zeros((dim, M))
    FX = _field_values(F, samples.points) if F_values is None else F_values

    held = sample_domain(
        samples.box, max(1, samples.L // 5), _derive_seed(samples.seed, HELDOUT_SEED_XOR)
    )
    FXh = _field_values(F, held.points)

    train_rms = np.zeros(len(dec.blocks))
    held_rms = np.zeros(len(dec.blocks))
    conds = np.zeros(len(dec.blocks))
    for bi, (off, size) in enumerate(dec.blocks):
        W = dec.Vt[off : off + size]
        S = dec.Lambda[off : off + size, off : off + size]
        prob = assemble_galerkin(F, basis, S, W, samples, E=E_mat, F_values=FX)
        Th = solve_coefficients(prob)
        Theta[off : off + size] = Th
        conds[bi] = prob.cond_J
        train_rms[bi] = pde_residual_rms(F, basis, S, W, Th, samples.points, F_values=FX)
        held_rms[bi] = pde_residual_rms(F, basis, S, W, Th, held.points, F_values=FXh)
        tol = heldout_tol if heldout_tol is not None else 10.0 * train_rms[bi] + 1e-9
        if held_rms[bi] > tol:
            raise RuntimeError(
                f"held-out PDE residual {held_rms[bi]:.3e} exceeds tolerance {tol:.3e} "
                f"for eigenvalue block {bi} — eigenfunction did not generalize"
            )

    Phi, jac_Phi, Phi_jac = _make_phi(dec.Vt, Theta, basis)
    return EigenfunctionSet(
        Phi=Phi,
        jac_Phi=jac_Phi,
        Phi_jac=Phi_jac,
        Lambda=dec.Lambda,
        Vt=dec.Vt,
        box=samples.box,
        blocks=tuple(dec.blocks),
        basis=basis,
        Theta=Theta,
        block_residuals=train_rms,
        heldout_residuals=held_rms,
        cond_J=conds,
    )


def linear_eigenfunction_set(A: npt.ArrayLike, box: npt.ArrayLike) -> EigenfunctionSet:
    """Exact eigenfunction set of a linear field ``xdot = A x``: Phi = Vt x."""
    A_mat = np.asarray(A, dtype=float)
    dec = real_spectral_decomposition(A_mat)
    Vt = dec.Vt
    box_arr = np.asarray(box, dtype=float)

    def Phi(x: npt.ArrayLike) -> np.ndarray:
        return np.asarray(x, dtype=float) @ Vt.T

    def jac_Phi(x: npt.ArrayLike) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        return np.broadcast_to(Vt, X.shape[:-1] + Vt.shape).copy()

    def Phi_jac(x: npt.ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        return Phi(x), jac_Phi(x)

    return EigenfunctionSet(
        Phi=Phi,
        jac_Phi=jac_Phi,
        Phi_jac=Phi_jac,
        Lambda=dec.Lambda,
        Vt=Vt,
        box=box_arr,
        blocks=tuple(dec.blocks),
        basis=None,
        Theta=None,
        block_residuals=np.zeros(len(dec.blocks)),
        heldout_residuals=np.zeros(len(dec.blocks)),
        cond_J=np.full(len(dec.blocks), np.nan),
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Sampled-data convergence table for one eigenvalue block."""

    L_values: tuple
    trials: int
    errors: np.ndarray  # (len(L_values), trials) normalized errors
    means: np.ndarray
    quartiles: np.ndarray  # (len(L_values), 3) -> q25, q50, q75
    slope: float

    def rows(self):
        """Yield (L, trial, error) triplets in deterministic order."""
        for i, L in enumerate(self.L_values):
            for t in range(self.trials):
                yield (int(L), int(t), float(self.errors[i, t]))


def convergence_study(
    F,
    E: npt.ArrayLike,
    basis: AnyBasis,
    box: npt.ArrayLike,
    L_list: Sequence[int],
    trials: int,
    seed: int,
    reference: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    block_index: int = 0,
    n_eval: int = 2000,
) -> ConvergenceStudy:
    """Error-vs-sample-count study for one eigenvalue block.

    For each ``L`` in ``L_list`` and each trial, the block's eigenfunction is
    recomputed from a fresh sample (child seed from ``SeedSequence([seed,
    i_L, trial])``) and compared against a reference on one fixed evaluation
    sample: ``error = ||psi_hat - psi_ref|| / ||psi_ref||`` in the empirical
    2-norm.  The reference is either a supplied callable (e.g. an analytic
    eigenfunction, shape ``(..., dim) -> (..., r)`` or ``(...,)`` for a real
    block) or a dense run with ``L_ref = 100 * max(L_list)`` samples.
    Reported: per-L mean and quartiles, and the least-squares slope of
    ``log(mean error)`` vs ``log L``.
    """
    E_mat = np.asarray(E, dtype=float)
    dec = real_spectral_decomposition(E_mat)
    if not (0 <= block_index < len(dec.blocks)) and block_index != -1:
        raise ValueError(f"block_index {block_index} out of range")
    off, size = dec.blocks[block_index]
    W = dec.Vt[off : off + size]
    S = dec.Lambda[off : off + size, off : off + size]

    box_arr = np.asarray(box, dtype=float)
    eval_set = sample_domain(box_arr, n_eval, _derive_seed(seed, _EVAL_SEED_XOR))
    G_eval = basis.eval(eval_set.points)
    lin_eval = eval_set.points @ W.T  # (n_eval, r)

    if reference is not None:
        ref_vals = np.asarray(reference(eval_set.points), dtype=float)
        if ref_vals.ndim == 1:
            ref_vals = ref_vals[:, None]
    else:
        L_ref = 100 * int(max(L_list))
        ref_samples = sample_domain(box_arr, L_ref, _derive_seed(seed, _REF_SEED_XOR))
        prob = assemble_galerkin(F, basis, S, W, ref_samples, E=E_mat)
        Th_ref = solve_coefficients(prob)
        ref_vals = lin_eval + G_eval @ Th_ref.T
    ref_norm = float(np.linalg.norm(ref_vals))
    if ref_norm == 0.0:
        raise ValueError("reference eigenfunction is identically zero on the grid")

    L_values = tuple(int(L) for L in L_list)
    errors = np.zeros((len(L_values), trials))
    for i, L in enumerate(L_values):
        for t in range(trials):
            child = int(
                np.random.SeedSequence([int(seed), i, t]).generate_state(1, dtype=np.uint64)[0]
            )
            samples = sample_domain(box_arr, L, child)
            prob = assemble_galerkin(F, basis, S, W, samples, E=E_mat)
            Th = solve_coefficients(prob)
            vals = lin_eval + G_eval @ Th.T
            errors[i, t] = float(np.linalg.norm(vals - ref_vals)) / ref_norm

    means = errors.mean(axis=1)
    quartiles = np.stack(
        [np.quantile(errors, q, axis=1) for q in (0.25, 0.5, 0.75)], axis=1
    )
    slope = float(np.polyfit(np.log(np.asarray(L_values, float)), np.log(means), 1)[0])
    return ConvergenceStudy(
        L_values=L_values,
        trials=trials,
        errors=errors,
        means=means,
        quartiles=quartiles,
        slope=slope,
    )
