"""Stationary solution from unstable eigenfunctions of the Hamiltonian flow.

The canonical equations of the optimal-control Hamiltonian define a flow on
``z = (x, p)`` whose linearization ``H0`` is Hamiltonian: eigenvalues come
in ``+-lambda`` pairs.  The stable Lagrangian submanifold — the graph
``p = dV/dx^T`` of the stationary solution — is the joint zero-level set of
the principal eigenfunctions associated with the *unstable* eigenvalues.
They are an :class:`~koopmanhj.galerkin.EigenfunctionSet` on z, fitted by
the same Galerkin fit as route 1 (``galerkin.fit_eigenfunction_set``), with
``Vt = Wu_t`` (n, 2n) and ``Theta = U``:

    Psi_u(z) = Phi(z) = Wu_t z + U Gamma(z),        Psi_u(x, p*(x)) = 0.

With a dictionary at most linear in ``p`` (``Gamma = (Xi1(x), Xi2(x) p)``),
the zero-level equation is linear in ``p`` and solves in closed form:

    Psi_u(x, p) = Wu1_t x + U11 Xi1(x) + G2(x) p,     G2(x) = Wu2_t + U12 Xi2(x),
    p*(x) = -G2(x)^{-1} (Wu1_t x + U11 Xi1(x)).

Its linear part is the graph of the linear parts,
``Jl = -Wu2_t^{-1} Wu1_t`` (``spectral._graph``).  The feedback law is
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
    EigenfunctionSet,
    SampleSet,
    _derive_seed,
    fit_eigenfunction_set,
    sample_domain,
)
from .simulate import lqr_controller
from .spectral import (
    _certify_complementarity,
    _graph,
    _lead_index,
    unstable_left_subspace,
    well_conditioned,
)
from .systems import (
    ControlAffineSystem,
    HamiltonianSystemModel,
    feedback,
    feedback_of,
    hamiltonian_vector_field,
    linearize,
)

__all__ = [
    "UnstableEigenfunctions",
    "ValueFit",
    "HJSolution2",
    "unstable_eigfns",
    "linear_manifold",
    "nonlinear_manifold",
    "fit_value_Jn",
    "procedure2_solve",
    "default_phase_box",
]

_FIT_SEED_XOR = 0x8EBC6AF09C88C6E3


class UnstableEigenfunctions(EigenfunctionSet):
    """The unstable eigenfunctions of the Hamiltonian flow: an
    :class:`EigenfunctionSet` on z = (x, p) with no fields of its own.

    ``Psi_u(z) = Phi(z)``; rows are normalized to ``||Wu_t row||_2 = 1``
    with the first significant entry positive (the zero-level set is
    invariant under row scaling), and ``Lambda`` is the block eigenmatrix in
    this scaled row basis, so ``dPsi_u/dz . F = Lambda Psi_u`` holds as
    stored.  ``Wu_t``/``U`` are read-only views of ``Vt``/``Theta``, split
    by the manifold solve into position and momentum columns
    (``Wu1_t``/``Wu2_t``) and into the ``Xi1`` and ``Xi2 p`` columns
    (``U11``/``U12``).
    """

    @property
    def Wu_t(self) -> np.ndarray:
        return self.Vt

    @property
    def U(self) -> np.ndarray:
        return self.Theta

    @property
    def Wu1_t(self) -> np.ndarray:
        return self.Vt[:, : self.n]

    @property
    def Wu2_t(self) -> np.ndarray:
        return self.Vt[:, self.n :]

    @property
    def U11(self) -> np.ndarray:
        return self.Theta[:, : self.basis.N]

    @property
    def U12(self) -> np.ndarray:
        return self.Theta[:, self.basis.N :]


def unstable_eigfns(
    ham: HamiltonianSystemModel,
    basis: Procedure2Basis,
    samples: SampleSet,
    heldout_tol: Optional[float] = None,
) -> UnstableEigenfunctions:
    """Approximate the unstable principal eigenfunctions of the lifted flow.

    Linear parts and the block form come from the left-unstable subspace of
    ``H0``; :func:`~koopmanhj.galerkin.fit_eigenfunction_set`, the fit of
    route 1, fits the nonlinear coefficients of every block in one pass
    against the full nonlinear field, applies the row normalization after
    the fit and certifies each block on a held-out sample (``heldout_tol``,
    default 10x training + 1e-9).  The momentum block ``Wu2_t`` must then
    pass the complementarity check for the downstream manifold solve.
    """
    n = ham.base.n
    if basis.n != n:
        raise ValueError(f"basis is for n={basis.n}, system has n={n}")
    if samples.dim != 2 * n:
        raise ValueError(f"samples have dim {samples.dim}, expected 2n={2 * n}")
    sub = unstable_left_subspace(ham.H0)
    Wu = sub.D_full
    # Per-row normalization: unit linear part, first significant entry positive.
    scale = np.ones(n)
    for i in range(n):
        nrm = float(np.linalg.norm(Wu[i]))
        if nrm == 0.0:
            raise RuntimeError(f"unstable eigenfunction row {i} has zero linear part")
        scale[i] = -1.0 / nrm if Wu[i, _lead_index(Wu[i])] < 0 else 1.0 / nrm
    eigs = fit_eigenfunction_set(
        ham.F, ham.H0, basis, samples, sub.Lambda_u, Wu, sub.blocks, heldout_tol,
        "unstable block", row_scale=scale, kind=UnstableEigenfunctions,
    )
    _certify_complementarity(eigs.Wu2_t)
    return eigs


def linear_manifold(eigs: UnstableEigenfunctions) -> np.ndarray:
    """Linear coefficient of the manifold: ``Jl = -Wu2_t^{-1} Wu1_t``.

    Returned exactly as the formula gives it (possibly slightly asymmetric
    for sampled data); callers that need the symmetric quadratic-form
    coefficient symmetrize it and track the asymmetry.
    """
    return _graph(eigs.Wu1_t, eigs.Wu2_t)


def _solve_manifold(eigs: UnstableEigenfunctions, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p*(x) = -G2(x)^{-1} (Wu1_t x + U11 Xi1(x))`` and ``G2(x)`` at states
    ``x`` (..., n).

    ``Xi1(x)`` and the monomials ``m_j(x)`` of ``Xi2`` come from one power
    table, and ``G2 = Wu2_t + sum_j m_j(x) U12_j`` with ``U12_j`` the
    ``(n, n)`` column block of ``m_j``.  Every point must have a finite
    ``G2`` and ``Psi_u(x, 0)`` and pass the conditioning certificate
    (:func:`well_conditioned`) of ``G2``;
    the first point that fails is named in the error.
    """
    n = eigs.n
    xi1, mono = eigs.basis.x_monomials(x)  # (..., N), (..., K)
    K = mono.shape[-1]
    U12 = eigs.U12.reshape(n, K, n).transpose(1, 0, 2).reshape(K, n * n)
    G2 = eigs.Wu2_t + (mono @ U12).reshape(mono.shape[:-1] + (n, n))
    rest = x @ eigs.Wu1_t.T + xi1 @ eigs.U11.T  # Psi_u(x, 0)
    pts = x.reshape(-1, n)
    for name, val in (("momentum matrix G2", G2), ("offset Psi_u(x, 0)", rest)):
        bad = np.flatnonzero(~np.isfinite(val.reshape(len(pts), -1)).all(axis=1))
        if bad.size:
            raise RuntimeError(f"manifold {name} not finite at x={pts[bad[0]].tolist()}")
    cond = np.atleast_1d(np.linalg.cond(G2))
    bad = np.flatnonzero(~well_conditioned(cond))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"manifold momentum matrix G2 singular at "
            f"x={pts[k].tolist()} (condition number {cond[k]:.2e})"
        )
    return -np.linalg.solve(G2, rest[..., None])[..., 0], G2


def nonlinear_manifold(eigs: UnstableEigenfunctions, x: npt.ArrayLike) -> np.ndarray:
    """The manifold point ``p*(x) = -G2(x)^{-1} (Wu1_t x + U11 Xi1(x))``.

    ``x`` is one state or a batch ``(..., n)``.  ``p*(x)`` solves
    ``Psi_u(x, p) = 0`` exactly wherever ``G2(x)`` is invertible.
    """
    return _solve_manifold(eigs, np.asarray(x, dtype=float))[0]


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
    sol: HJSolution2,
    xi3: BasisSet,
    x_samples: Union[SampleSet, npt.ArrayLike],
) -> ValueFit:
    """Fit ``V(x) = 0.5 (x^T Jl x + Xi3^T Jn Xi3)`` to the manifold of ``sol``.

    For each sample the value-gradient model is linear in the
    half-vectorization of the symmetric ``Jn``; it models the nonlinear part
    ``p*(x_k) - Jl_raw x_k`` of the manifold momentum, in rows weighted by
    ``G2(x_k)``, the momentum matrix of the zero-level equation.  ``Jl_raw``
    and ``Jl`` are the solution's own.  The reported residual is the direct
    (unweighted) RMS mismatch of the full value gradient against ``p*``.
    """
    eigs = sol.eigs
    if not xi3.purely_nonlinear:
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

    Jl_raw = sol.Jl_raw
    n = eigs.n
    v = xi3.eval(pts)  # (K, M1)
    T = xi3.jacobian(pts)  # (K, M1, n)
    # d(Xi3^T Jn Xi3 / 2)/dx is linear in vech(Jn): column (i, j) holds
    # T_i v_j + T_j v_i, or T_i v_i on the diagonal
    offdiag = (I != J)[None, :, None]
    cm = T[:, I, :] * v[:, J, None] + (T[:, J, :] * v[:, I, None]) * offdiag
    cm = np.swapaxes(cm, 1, 2)  # (K, n, nv)
    p_stars, G2 = _solve_manifold(eigs, pts)
    # weighted rows: G2 (gradient model) ~ G2 (p* - Jl_raw x)
    A = (G2 @ cm).reshape(K * n, nv)
    t = (G2 @ (p_stars - pts @ Jl_raw.T)[..., None]).reshape(K * n)

    vech, _, rank, _ = np.linalg.lstsq(A, t, rcond=None)
    if rank < nv:
        raise RuntimeError(
            f"value basis unidentifiable from samples (rank {rank} < {nv} coefficients)"
        )

    Jn = np.zeros((M1, M1))
    Jn[I, J] = vech
    Jn[J, I] = vech
    evals, evecs = np.linalg.eigh(Jn)
    Jn_psd = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    Jn_psd = (Jn_psd + Jn_psd.T) / 2.0

    def direct_rms(Jmat: np.ndarray) -> float:
        grad_model = pts @ sol.Jl.T + np.einsum("kmj,km->kj", T, v @ Jmat.T)
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


class HJSolution2:
    """Feedback law and (optional) value function from the zero-level set.

    ``Jl_raw``, ``Jl`` and ``jl_asymmetry`` are derived from ``eigs`` on
    construction: the raw linear manifold coefficient
    (:func:`linear_manifold`), its symmetrization, and the raw formula's
    relative asymmetry ``|Jl_raw - Jl_raw^T|_F / max(1, |Jl_raw|_F)``.
    ``value_fit`` is the fitted value (:func:`fit_value_Jn`), or None.
    ``p_star`` solves the zero-level equation directly
    (:func:`nonlinear_manifold`), so ``Psi_u(x, p_star(x)) = 0`` holds to
    machine precision.  ``p_star``, ``control`` (the feedback law
    ``u = -D^{-1} g(x)^T p*(x)``) and ``value`` accept one state or states
    ``(..., n)``.  A solution is a plain object: it equals and hashes as
    itself only.
    """

    def __init__(
        self, eigs: UnstableEigenfunctions, sys: ControlAffineSystem,
        value_fit: Optional[ValueFit] = None,
    ) -> None:
        self.eigs, self.sys, self.value_fit = eigs, sys, value_fit
        self.Jl_raw = Jl_raw = linear_manifold(eigs)
        self.Jl = (Jl_raw + Jl_raw.T) / 2.0
        norm = float(np.linalg.norm(Jl_raw))
        self.jl_asymmetry = float(np.linalg.norm(Jl_raw - Jl_raw.T)) / max(1.0, norm)

    def p_star(self, x: npt.ArrayLike) -> np.ndarray:
        return nonlinear_manifold(self.eigs, x)

    @feedback_of("p_star")
    def control(self, x: npt.ArrayLike) -> np.ndarray:
        return feedback(self.sys, x, self.p_star(x))

    def value(self, x: npt.ArrayLike):
        """V(x) = 0.5 (x^T Jl x + Xi3^T Jn Xi3); requires a fitted Jn.

        A float for one state, shape (...) for states (..., n).
        """
        if self.value_fit is None:
            raise RuntimeError("no value fit available: solve with a value basis")
        return self._value(x, self.value_fit)

    def quadratic_value(self, x: npt.ArrayLike):
        """The quadratic part 0.5 x^T Jl x of the value: all of it that a
        solve without a value basis determines.  Shapes as :meth:`value`."""
        return self._value(x, None)

    def _value(self, x: npt.ArrayLike, fit: Optional[ValueFit]):
        x = np.asarray(x, dtype=float)
        V = np.einsum("...i,ij,...j->...", x, self.Jl, x)
        if fit is not None:
            v = fit.xi3.eval(x)
            V = V + np.einsum("...i,ij,...j->...", v, fit.Jn, v)
        V = 0.5 * V
        return float(V) if x.ndim == 1 else V


def default_phase_box(
    sys: ControlAffineSystem, x_box: npt.ArrayLike, margin: float = 2.0
) -> np.ndarray:
    """Sampling box on (x, p): x ranges as given, momenta bounded by the
    image of the box under the linear manifold estimate.

    The linear estimate is the regulator's ``P_r``
    (:func:`~koopmanhj.simulate.lqr_controller` of the origin
    linearization); the momentum radius is ``margin * ||P_r||_2 * max |x|``.
    """
    x_box = np.asarray(x_box, dtype=float).reshape(sys.n, 2)
    P_r = lqr_controller(linearize(sys))[1]
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
    (default: a fresh sample of the x-part of the box, derived seed) from
    the solution's own ``Jl_raw``, so the solve takes one
    :func:`linear_manifold`.
    """
    ham = hamiltonian_vector_field(sys)
    sol = HJSolution2(eigs=unstable_eigfns(ham, basis, samples, heldout_tol=heldout_tol), sys=sys)
    if xi3 is not None:
        if fit_samples is None:
            nv = xi3.M * (xi3.M + 1) // 2
            fit_samples = sample_domain(
                samples.box[: sys.n], max(10 * nv, 100),
                _derive_seed(samples.seed, _FIT_SEED_XOR),
            )
        sol.value_fit = fit_value_Jn(sol, xi3, fit_samples)
    return sol
