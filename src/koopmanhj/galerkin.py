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

``J_hat`` and ``G_tilde`` do not depend on the block, so one pass over a
sample set serves every block (:func:`fit_blocks`).
:func:`fit_eigenfunction_set` is the one fit of both routes: it fits every
block in that one pass, takes one residual pass over the training and one
over the held-out set, and builds the :class:`EigenfunctionSet`, for the
drift eigenfunctions on x (:func:`approximate_eigenfunction_set`) and for
the unstable Hamiltonian-lift eigenfunctions on z = (x, p)
(``procedure2.unstable_eigfns``).

Every pass streams its samples in ``CHUNK``-row blocks: the basis, its
jacobian and a callable field are evaluated one block at a time, so a
pass's temporaries take O(CHUNK M dim) memory whatever the sample count.
A :class:`SampleStream` is not even drawn whole: ``convergence_study`` fits
its dense reference from one.  The fixed block size also keeps results
bit-reproducible regardless of available parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Type, Union

import numpy as np
import numpy.typing as npt

from .basis import BasisSet
from .spectral import real_spectral_decomposition, well_conditioned

__all__ = [
    "SampleSet",
    "SampleStream",
    "GalerkinProblem",
    "EigenfunctionSet",
    "ConvergenceStudy",
    "sample_domain",
    "assemble_galerkin",
    "solve_coefficients",
    "pde_residual_rms",
    "fit_blocks",
    "fit_eigenfunction_set",
    "approximate_eigenfunction_set",
    "linear_eigenfunction_set",
    "convergence_study",
]

CHUNK = 1024
"""Fixed accumulation chunk size (bit-reproducibility contract)."""

HELDOUT_SEED_XOR = 0xD1B54A32D192ED03
"""Mixed into a sample seed to derive the held-out validation seed."""

CONVERGENCE_EVAL_POINTS = 2000
"""Size of the fixed evaluation sample of a convergence study."""

_EVAL_SEED_XOR = 0x9E3779B97F4A7C15  # evaluation grid for convergence studies
_REF_SEED_XOR = 0xC2B2AE3D27D4EB4F  # dense reference run for convergence studies
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _derive_seed(seed: Optional[int], xor_const: int) -> int:
    """Child seed ``seed ^ xor_const`` in 64 bits (``xor_const`` for no seed)."""
    base = xor_const if seed is None else (int(seed) ^ xor_const)
    return base & _SEED_MASK


def _box_bounds(box: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The in-box check's bounds: ``box`` widened by 1e-12 of its largest entry."""
    eps = 1e-12 * max(1.0, float(np.abs(box).max()))
    return box[:, 0] - eps, box[:, 1] + eps


def _check_in_box(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    if (pts < lo).any() or (pts > hi).any():
        raise ValueError("some points lie outside the declared box")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Points drawn (or laid out) inside a box, with their provenance.

    ``seed`` is None for externally constructed point sets (e.g. dense
    grids); sampled sets always carry the seed so they can be regenerated
    bit-identically from ``(box, L, seed)``.  A set equals and hashes as
    itself only.
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
        _check_in_box(pts, *_box_bounds(box))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "box", box)

    @property
    def L(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _sample_args(box: npt.ArrayLike, L: int, seed: int) -> Tuple[np.ndarray, int, int]:
    """Validated ``(box (dim, 2), L, 64-bit seed)`` of a uniform sample."""
    box_arr = np.asarray(box, dtype=float)
    if box_arr.ndim == 1:
        box_arr = box_arr.reshape(1, 2)
    if L < 1:
        raise ValueError(f"need at least one sample, got L={L}")
    if np.any(box_arr[:, 0] >= box_arr[:, 1]):
        raise ValueError("box must have lo < hi in every coordinate")
    return box_arr, int(L), int(seed) & _SEED_MASK


def _draw(box: np.ndarray, L: int, seed: int, rows: int) -> Iterator[np.ndarray]:
    """The ``L`` uniform points of ``seed`` over ``box``, in blocks of at most
    ``rows`` rows.

    The blocks continue one PCG64 stream, ``numpy.random.default_rng(seed)``,
    which draws row by row, so every ``rows`` gives the same points.  Each
    point is ``lo + (hi - lo) * u`` with ``u = rng.random()``, the formula of
    ``rng.uniform(lo, hi)`` and its bits, without its per-call checks of the
    bounds.
    """
    rng = np.random.default_rng(seed)
    lo = box[:, 0].copy()
    width = box[:, 1] - lo
    for start in range(0, L, rows):
        yield lo + width * rng.random((min(rows, L - start), box.shape[0]))


def sample_domain(box: npt.ArrayLike, L: int, seed: int) -> SampleSet:
    """L i.i.d. uniform points over the box from numpy's PCG64 generator.

    Deterministic per ``(box, L, seed)``: the generator is
    ``numpy.random.default_rng(seed)``, and :class:`SampleStream` draws the
    same points without holding them at once.
    """
    box_arr, L, seed = _sample_args(box, L, seed)
    (pts,) = _draw(box_arr, L, seed, L)
    return SampleSet(points=pts, box=box_arr, seed=seed)


@dataclass(frozen=True, eq=False)
class SampleStream:
    """The points of ``sample_domain(box, L, seed)``, never held at once.

    :meth:`chunks` draws them ``CHUNK`` rows at a time and checks each block
    against the box as :class:`SampleSet` does.  :func:`fit_blocks` takes a
    stream wherever it takes a sample set, with a callable field.  A stream
    equals and hashes as itself only.
    """

    box: np.ndarray  # (dim, 2) rows [lo, hi]
    L: int
    seed: int

    def __post_init__(self) -> None:
        box, L, seed = _sample_args(self.box, self.L, self.seed)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "seed", seed)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def chunks(self) -> Iterator[np.ndarray]:
        lo, hi = _box_bounds(self.box)
        for pts in _draw(self.box, self.L, self.seed, CHUNK):
            _check_in_box(pts, lo, hi)
            yield pts


def _field_values(F, points: np.ndarray) -> np.ndarray:
    """Field values at the rows of ``points``.

    ``F`` maps points ``(..., dim)`` to values of the same shape; an array
    is taken as precomputed values.  Either way the result must have the
    shape of ``points``.
    """
    FX = np.asarray(F if isinstance(F, np.ndarray) else F(points), dtype=float)
    if FX.shape != points.shape:
        raise ValueError(f"field values shape {FX.shape} != points shape {points.shape}")
    return FX


def _chunks(F, points) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(Z, F at Z)`` for each ``CHUNK``-row block of ``points``, in order.

    ``points`` is an ``(L, dim)`` array or a :class:`SampleStream`.  A
    callable ``F`` is evaluated one block at a time; precomputed values (an
    array, with array points only) are sliced.
    """
    if isinstance(F, np.ndarray):
        FX = _field_values(F, points)
        return ((points[s : s + CHUNK], FX[s : s + CHUNK]) for s in range(0, len(FX), CHUNK))
    if isinstance(points, SampleStream):
        blocks = points.chunks()
    else:
        blocks = (points[s : s + CHUNK] for s in range(0, len(points), CHUNK))
    return ((Z, _field_values(F, Z)) for Z in blocks)


@dataclass
class GalerkinProblem:
    """Assembled projection system ``J Theta = -b`` for one eigenvalue block.

    For an r-row block (r = 1 real, r = 2 complex pair) the system matrix is
    ``(r M) x (r M)`` and ``b`` stacks the per-row forcing projections.
    """

    J: np.ndarray
    b: np.ndarray
    lambda_block: np.ndarray  # (r, r)
    w: np.ndarray  # (r, dim)
    basis: BasisSet
    cond_J: float
    L: int


def _check_cond(cond_J: float) -> None:
    """The conditioning certificate (:func:`well_conditioned`) of a projection system."""
    if not well_conditioned(cond_J):
        raise RuntimeError(
            f"Gram matrix numerically singular (cond {cond_J:.3e}); "
            "basis functions are not independent on this sample"
        )


def _assemble_pass(
    F, E_mat: np.ndarray, basis: BasisSet, blocks: Sequence,
    samples: Union[SampleSet, SampleStream],
) -> List[GalerkinProblem]:
    """Projection systems of every ``(S, W)`` block from one pass over the samples.

    ``samples`` is a :class:`SampleSet` or a :class:`SampleStream`.  Each
    chunk evaluates the basis and its jacobian once.  ``J_hat`` and
    ``G_tilde`` do not depend on the block; each block adds its own forcing
    rows ``(Fn W^T)^T G``.  ``cond_J`` is recorded, not yet certified.
    """
    if not basis.purely_nonlinear:
        raise ValueError("basis must be purely nonlinear (degrees >= 2 in z)")
    dim = basis.dim_in
    if samples.dim != dim:
        raise ValueError(f"samples have dim {samples.dim}, basis expects {dim}")
    M = basis.M
    L = samples.L
    if L < M:
        raise ValueError(f"underdetermined: L={L} samples < M={M} basis functions")
    if E_mat.shape != (dim, dim):
        raise ValueError(f"linearization shape {E_mat.shape} != ({dim}, {dim})")

    rows = []
    for lambda_block, w in blocks:
        S = np.atleast_2d(np.asarray(lambda_block, dtype=float))
        W = np.atleast_2d(np.asarray(w, dtype=float))
        r = S.shape[0]
        if S.shape != (r, r) or r not in (1, 2):
            raise ValueError(f"lambda_block must be 1x1 or 2x2, got shape {S.shape}")
        if W.shape != (r, dim):
            raise ValueError(f"w shape {W.shape} inconsistent with block size {r} and dim {dim}")
        eig_res = np.max(np.abs(W @ E_mat - S @ W))
        if eig_res > 1e-8 * (1.0 + np.max(np.abs(E_mat))):
            raise ValueError(
                f"w is not a left-eigenvector row block of E for this block: "
                f"residual {eig_res:.3e}"
            )
        rows.append((S, W))

    J_hat = np.zeros((M, M))
    G_tilde = np.zeros((M, M))
    b_rows = [np.zeros((W.shape[0], M)) for _, W in rows]
    points = samples if isinstance(samples, SampleStream) else samples.points
    for Zc, FXc in _chunks(F, points):
        G = basis.eval(Zc)  # (C, M)
        dG = basis.jacobian(Zc)  # (C, M, dim)
        KG = np.einsum("kmj,kj->km", dG, FXc)
        Fn = FXc - Zc @ E_mat.T
        J_hat += G.T @ KG
        G_tilde += G.T @ G
        for (_, W), b in zip(rows, b_rows):
            b += (Fn @ W.T).T @ G  # rows: G^T (Fn w_i)
    J_hat /= L
    G_tilde /= L

    probs = []
    for (S, W), b in zip(rows, b_rows):
        b /= L
        J_sys = np.kron(np.eye(S.shape[0]), J_hat) - np.kron(S, G_tilde)
        probs.append(GalerkinProblem(
            J=J_sys, b=b.reshape(-1), lambda_block=S, w=W, basis=basis,
            cond_J=float(np.linalg.cond(J_sys)), L=L,
        ))
    return probs


def assemble_galerkin(
    F,
    basis: BasisSet,
    lambda_block,
    w: npt.ArrayLike,
    samples: SampleSet,
    E: npt.ArrayLike,
) -> GalerkinProblem:
    """Assemble the projected linear system for one eigenvalue block.

    ``w`` must hold left-eigenvector rows of the linearization ``E`` for the
    given block (``W E = S W`` to 1e-8 relative); the forcing is
    ``F_n = F - Ez``.
    """
    prob = _assemble_pass(F, np.asarray(E, dtype=float), basis, [(lambda_block, w)], samples)[0]
    _check_cond(prob.cond_J)
    return prob


def solve_coefficients(prob: GalerkinProblem) -> np.ndarray:
    """Solve ``J Theta = -b`` by pivoted LU; returns Theta as (r, M) rows.

    The achieved residual ``||J vec(Theta) + b||`` is certified against
    ``1e-8 ||b||``.
    """
    _check_cond(prob.cond_J)
    theta_vec = np.linalg.solve(prob.J, -prob.b)
    residual = float(np.linalg.norm(prob.J @ theta_vec + prob.b))
    bound = 1e-8 * np.linalg.norm(prob.b) + 1e-300
    if residual > bound:
        raise RuntimeError(
            f"projection system solve failed its residual certificate: "
            f"{residual:.3e} > {bound:.3e}"
        )
    return theta_vec.reshape(prob.lambda_block.shape[0], prob.basis.M)


def fit_blocks(
    F, E: npt.ArrayLike, basis: BasisSet, blocks: Sequence,
    samples: Union[SampleSet, SampleStream],
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Nonlinear coefficients of every ``(S, W)`` block from one sample pass.

    ``F`` is the field or its values at the samples; ``samples`` is a
    :class:`SampleSet` or, with a callable field, a :class:`SampleStream`.
    Every block's system passes the ``cond(J)`` and solve-residual
    certificates.  Returns the (r, M) coefficient rows of each block and
    ``cond(J)`` per block.
    """
    probs = _assemble_pass(F, np.asarray(E, dtype=float), basis, blocks, samples)
    return [solve_coefficients(p) for p in probs], np.array([p.cond_J for p in probs])


def _residual_pass(F, basis: BasisSet, blocks: Sequence, points: np.ndarray) -> np.ndarray:
    """RMS of ``dpsi/dz . F - S psi`` per ``(S, W, Theta)`` block, in one pass."""
    totals = [0.0] * len(blocks)
    for Zc, FXc in _chunks(F, points):
        G = basis.eval(Zc)
        dG = basis.jacobian(Zc)
        KG = np.einsum("kmj,kj->km", dG, FXc)
        for i, (S, W, Th) in enumerate(blocks):
            Psi = Zc @ W.T + G @ Th.T  # (C, r)
            dPsiF = FXc @ W.T + KG @ Th.T  # (C, r)
            res = dPsiF - Psi @ S.T
            totals[i] += float(np.sum(res * res))
    counts = [points.shape[0] * W.shape[0] for _, W, _ in blocks]
    return np.array([float(np.sqrt(t / max(c, 1))) for t, c in zip(totals, counts)])


def pde_residual_rms(
    F,
    basis: BasisSet,
    lambda_block,
    w: npt.ArrayLike,
    Theta: npt.ArrayLike,
    points: npt.ArrayLike,
) -> float:
    """RMS over points (and block rows) of ``dpsi/dz . F - S psi``.

    This is the defining PDE residual of the eigenfunction block, evaluated
    directly — the quantity the projection step minimizes in the empirical
    norm.
    """
    S = np.atleast_2d(np.asarray(lambda_block, dtype=float))
    W = np.atleast_2d(np.asarray(w, dtype=float))
    Th = np.atleast_2d(np.asarray(Theta, dtype=float))
    return float(_residual_pass(F, basis, [(S, W, Th)], np.asarray(points, dtype=float))[0])


@dataclass(frozen=True, eq=False)
class EigenfunctionSet:
    """Stacked principal eigenfunctions ``Phi(z) = Vt z + Theta Gamma(z)``.

    ``Gamma`` is the dictionary ``basis`` (anything with ``eval`` and
    ``eval_and_jacobian`` on points ``(..., dim)``), ``dGamma/dz(0) = 0``, and
    ``dPhi/dz . F = Lambda Phi`` on the box (up to the recorded residuals).
    Route 1 fits all ``dim = n`` eigenfunctions of the drift on x; route 2
    the ``n`` unstable ones of the Hamiltonian lift on z = (x, p), so its
    ``Vt`` is ``(n, 2n)`` (``procedure2.UnstableEigenfunctions``).  A fitted
    set carries its monomial basis, a linear set the empty one (``M = 0``),
    the closed-form example-1 set its one-function dictionary.  :meth:`Phi`
    and :meth:`Phi_jac` accept batched inputs ``(..., dim)``.  A set equals
    and hashes as itself only.
    """

    Lambda: np.ndarray  # (n, n) real block eigenmatrix
    Vt: np.ndarray  # (n, dim) linear parts (rows)
    Theta: np.ndarray  # (n, M) nonlinear coefficients
    basis: object  # the dictionary Gamma, M functions
    box: np.ndarray  # (dim, 2)
    blocks: tuple  # (offset, size) of each block of Lambda, in row order
    block_residuals: np.ndarray  # train RMS per block
    heldout_residuals: np.ndarray
    cond_J: np.ndarray

    @property
    def n(self) -> int:
        return self.Vt.shape[0]

    def Phi(self, x: npt.ArrayLike) -> np.ndarray:
        """``Phi(z)``: (..., dim) -> (..., n)."""
        X = np.asarray(x, dtype=float)
        return X @ self.Vt.T + self.basis.eval(X) @ self.Theta.T

    def Phi_jac(self, x: npt.ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """``Phi(z)`` and ``dPhi/dz`` (..., n, dim) from one dictionary pass."""
        X = np.asarray(x, dtype=float)
        G, dG = self.basis.eval_and_jacobian(X)
        return X @ self.Vt.T + G @ self.Theta.T, self.Vt + self.Theta @ dG


def fit_eigenfunction_set(
    F, E: npt.ArrayLike, basis: BasisSet, samples: SampleSet, Lambda: np.ndarray,
    Vt: np.ndarray, blocks: Sequence[Tuple[int, int]], heldout_tol: Optional[float],
    label: str, row_scale: Optional[np.ndarray] = None,
    kind: Type[EigenfunctionSet] = EigenfunctionSet,
) -> EigenfunctionSet:
    """Fit and certify the eigenfunctions whose linear parts are the rows of ``Vt``.

    ``Lambda`` is the real block form with ``Vt E = Lambda Vt``, ``blocks``
    the ``(offset, size)`` of its blocks.  The field values at the samples
    are drawn once and :func:`fit_blocks` fits every block in one pass.  A
    diagonal ``row_scale`` s (default ones) rescales the rows after the fit:
    ``Vt`` and ``Theta`` by s, ``Lambda`` by ``diag(s) Lambda diag(s)^{-1}``,
    so ``dPhi/dz . F = Lambda Phi`` holds as stored.  One residual pass over
    the training and one over a held-out sample (size ``L // 5``, seed
    derived from the sample seed) give each stored block's PDE residual
    RMS; the held-out one must not exceed ``heldout_tol`` (default: 10x the
    training RMS + 1e-9), and ``label`` names the block in the error.
    Returns a ``kind``.
    """
    FX = _field_values(F, samples.points)
    Thetas, conds = fit_blocks(
        FX, E, basis, [(Lambda[o : o + r, o : o + r], Vt[o : o + r]) for o, r in blocks], samples
    )
    s = np.ones(len(Vt)) if row_scale is None else row_scale
    Vt = Vt * s[:, None]
    Theta = np.vstack(Thetas) * s[:, None]
    Lambda = (s[:, None] * Lambda) / s[None, :]
    stored = [(Lambda[o : o + r, o : o + r], Vt[o : o + r], Theta[o : o + r]) for o, r in blocks]
    held = sample_domain(
        samples.box, max(1, samples.L // 5), _derive_seed(samples.seed, HELDOUT_SEED_XOR)
    )
    train = _residual_pass(FX, basis, stored, samples.points)
    heldout = _residual_pass(F, basis, stored, held.points)
    for bi in range(len(blocks)):
        tol = heldout_tol if heldout_tol is not None else 10.0 * train[bi] + 1e-9
        if heldout[bi] > tol:
            raise RuntimeError(
                f"held-out PDE residual {heldout[bi]:.3e} exceeds tolerance {tol:.3e} "
                f"for {label} {bi} — eigenfunction did not generalize"
            )
    return kind(
        Lambda=Lambda, Vt=Vt, Theta=Theta, basis=basis, box=samples.box, blocks=tuple(blocks),
        block_residuals=train, heldout_residuals=heldout, cond_J=conds,
    )


def approximate_eigenfunction_set(
    F,
    E: npt.ArrayLike,
    basis: BasisSet,
    samples: SampleSet,
    heldout_tol: Optional[float] = None,
) -> EigenfunctionSet:
    """Approximate all principal eigenfunctions of the flow ``zdot = F(z)``.

    The linear parts and the block form come from the spectral
    decomposition of ``E``; :func:`fit_eigenfunction_set` fits the
    nonlinear parts of every block in one pass over the samples and
    certifies each on a held-out sample (``heldout_tol``, default 10x the
    training residual + 1e-9).
    """
    E_mat = np.asarray(E, dtype=float)
    dec = real_spectral_decomposition(E_mat)
    dim = E_mat.shape[0]
    if basis.dim_in != dim:
        raise ValueError(f"basis dim {basis.dim_in} != system dim {dim}")
    return fit_eigenfunction_set(
        F, E_mat, basis, samples, dec.Lambda, dec.Vt, dec.blocks, heldout_tol,
        "eigenvalue block",
    )


def linear_eigenfunction_set(A: npt.ArrayLike, box: npt.ArrayLike) -> EigenfunctionSet:
    """Exact eigenfunction set of a linear field ``xdot = A x``: Phi = Vt x.

    Its dictionary is the empty monomial basis (``M = 0``).
    """
    dec = real_spectral_decomposition(np.asarray(A, dtype=float))
    n = dec.Vt.shape[0]
    empty = BasisSet(np.zeros((0, n)))
    return EigenfunctionSet(
        Lambda=dec.Lambda,
        Vt=dec.Vt,
        Theta=np.zeros((n, 0)),
        basis=empty,
        box=np.asarray(box, dtype=float),
        blocks=tuple(dec.blocks),
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
    basis: BasisSet,
    box: npt.ArrayLike,
    L_list: Sequence[int],
    trials: int,
    seed: int,
    block_index: int = 0,
) -> ConvergenceStudy:
    """Error-vs-sample-count study for one eigenvalue block.

    For each ``L`` in ``L_list`` and each trial, the block's eigenfunction is
    recomputed from a fresh sample (child seed from ``SeedSequence([seed,
    i_L, trial])``) and compared against a reference on one fixed evaluation
    sample of ``CONVERGENCE_EVAL_POINTS`` points: ``error = ||psi_hat -
    psi_ref|| / ||psi_ref||`` in the empirical 2-norm.  The reference is a
    dense run with ``L_ref = 100 * max(L_list)`` samples, streamed
    (:class:`SampleStream`): its points are drawn, evaluated and projected
    ``CHUNK`` rows at a time, so the study's memory does not grow with
    ``L_ref``.  Reported: per-L mean and quartiles, and the least-squares
    slope of ``log(mean error)`` vs ``log L``.
    """
    E_mat = np.asarray(E, dtype=float)
    dec = real_spectral_decomposition(E_mat)
    if not 0 <= block_index < len(dec.blocks):
        raise ValueError(f"block_index {block_index} out of range")
    off, size = dec.blocks[block_index]
    block = (dec.Lambda[off : off + size, off : off + size], dec.Vt[off : off + size])

    box_arr = np.asarray(box, dtype=float)
    eval_set = sample_domain(
        box_arr, CONVERGENCE_EVAL_POINTS, _derive_seed(seed, _EVAL_SEED_XOR)
    )
    G_eval = basis.eval(eval_set.points)
    lin_eval = eval_set.points @ block[1].T  # (n_eval, r)

    L_ref = 100 * int(max(L_list))
    ref_samples = SampleStream(box_arr, L_ref, _derive_seed(seed, _REF_SEED_XOR))
    Th_ref = fit_blocks(F, E_mat, basis, [block], ref_samples)[0][0]
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
            Th = fit_blocks(F, E_mat, basis, [block], sample_domain(box_arr, L, child))[0][0]
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
