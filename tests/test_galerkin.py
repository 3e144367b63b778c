"""Tests for the sampled-data eigenfunction approximation pipeline.

Oracle functions used here are closed forms verified by hand:

* scalar cubic field ``xdot = -x + x**3`` has the eigenfunction
  ``psi(x) = x / sqrt(1 - x**2)`` with eigenvalue -1 on |x| < 1
  (check: psi' * (-x + x^3) = -x (1-x^2)^{-1/2} = -psi);
* the two-dimensional example system has ``phi1 = x1 - 2 x2`` (eigenvalue
  -1, exactly linear) and ``phi2 = x1 + sin x2`` (eigenvalue 2).
"""
import numpy as np
import pytest

from koopmanhj.basis import BasisSet, monomial_basis, monomial_exponents
from koopmanhj.galerkin import (
    SampleSet,
    SampleStream,
    approximate_eigenfunction_set,
    assemble_galerkin,
    convergence_study,
    linear_eigenfunction_set,
    pde_residual_rms,
    sample_domain,
    solve_coefficients,
)
from koopmanhj.systems import builtin_example1, linearize

CUBIC_BOX = np.array([[-0.4, 0.4]])


def cubic_f(x):
    x = np.asarray(x, dtype=float)
    return -x + x**3


def cubic_psi(x):
    """Eigenvalue -1 eigenfunction of the cubic field, normalized monic."""
    x = np.asarray(x, dtype=float)
    return x / np.sqrt(1.0 - x**2)


class TestSampleDomain:
    def test_deterministic_and_within_box(self):
        box = np.array([[-1.0, 2.0], [0.5, 0.7]])
        a = sample_domain(box, 500, 42)
        b = sample_domain(box, 500, 42)
        np.testing.assert_array_equal(a.points, b.points)
        assert np.all(a.points >= box[:, 0]) and np.all(a.points <= box[:, 1])
        c = sample_domain(box, 500, 43)
        assert not np.array_equal(a.points, c.points)

    def test_shape_and_seed_recorded(self):
        s = sample_domain(CUBIC_BOX, 100, 7)
        assert s.points.shape == (100, 1)
        assert s.seed == 7

    def test_sample_sets_and_streams_are_equal_to_themselves_only(self):
        """A sample set or stream equals and hashes as itself only: a second
        draw of the same ``(box, L, seed)`` is another object."""
        for make in (sample_domain, SampleStream):
            a, b = make(CUBIC_BOX, 5, 0), make(CUBIC_BOX, 5, 0)
            assert a == a and {a: "draw"}[a] == "draw"
            assert (a == b) is False and b not in {a: "draw"}


class TestCubicEigenfunction:
    def test_sup_error_against_closed_form(self):
        basis = monomial_basis(1, 2, 9)
        samples = sample_domain(CUBIC_BOX, 5000, 0)
        A = np.array([[-1.0]])
        eig = approximate_eigenfunction_set(cubic_f, A, basis, samples)
        xs = np.linspace(-0.4, 0.4, 401).reshape(-1, 1)
        approx = eig.Phi(xs)[:, 0]
        exact = cubic_psi(xs[:, 0])
        assert np.max(np.abs(approx - exact)) < 1e-3

    def test_pde_residual_small_on_fresh_points(self):
        basis = monomial_basis(1, 2, 9)
        samples = sample_domain(CUBIC_BOX, 5000, 0)
        A = np.array([[-1.0]])
        eig = approximate_eigenfunction_set(cubic_f, A, basis, samples)
        fresh = sample_domain(CUBIC_BOX, 2000, 1234).points
        rms = pde_residual_rms(
            cubic_f, basis, eig.Lambda[:1, :1], eig.Vt[:1], eig.Theta[:1], fresh
        )
        assert rms < 1e-6

    def test_galerkin_orthogonality(self):
        """The solved residual is empirically orthogonal to the dictionary:
        that is exactly the normal-equation condition of the projection."""
        basis = monomial_basis(1, 2, 6)
        samples = sample_domain(CUBIC_BOX, 3000, 5)
        A = np.array([[-1.0]])
        prob = assemble_galerkin(cubic_f, basis, A, np.array([[1.0]]), samples, E=A)
        Theta = solve_coefficients(prob)
        pts = samples.points
        G = basis.eval(pts)
        jac = basis.jacobian(pts)
        FX = np.stack([cubic_f(x) for x in pts])
        # pointwise residual of the nonlinear-part equation
        dpsi_f = np.einsum("kmi,ki->km", jac, FX) @ Theta.T
        forcing = (FX - pts @ A.T) @ np.array([[1.0]]).T
        resid = dpsi_f.ravel() + forcing.ravel() - (G @ Theta.T).ravel() * (-1.0)
        proj = G.T @ resid / len(pts)
        assert np.max(np.abs(proj)) < 1e-8

    def test_flow_semigroup_property(self):
        """psi(x(t)) = e^{lambda t} psi(x(0)) along trajectories."""
        basis = monomial_basis(1, 2, 9)
        samples = sample_domain(CUBIC_BOX, 5000, 0)
        A = np.array([[-1.0]])
        eig = approximate_eigenfunction_set(cubic_f, A, basis, samples)
        dt, T = 1e-4, 1.0
        for x0 in (0.35, -0.2, 0.1):
            x = np.array([x0])
            for _ in range(int(round(T / dt))):
                k1 = cubic_f(x)
                k2 = cubic_f(x + 0.5 * dt * k1)
                k3 = cubic_f(x + 0.5 * dt * k2)
                k4 = cubic_f(x + dt * k3)
                x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            lhs = eig.Phi(x)[0]
            rhs = np.exp(-1.0 * T) * eig.Phi(np.array([x0]))[0]
            assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(rhs))


class TestDeterminismAndRefinement:
    def test_bitwise_reproducible(self):
        basis = monomial_basis(1, 2, 7)
        A = np.array([[-1.0]])
        runs = []
        for _ in range(2):
            samples = sample_domain(CUBIC_BOX, 2000, 99)
            eig = approximate_eigenfunction_set(cubic_f, A, basis, samples)
            runs.append(eig.Theta.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_grid_samples_agree_with_monte_carlo(self):
        """A dense regular grid and i.i.d. samples give the same
        eigenfunction to within the quadrature difference."""
        basis = monomial_basis(1, 2, 7)
        A = np.array([[-1.0]])
        mc = sample_domain(CUBIC_BOX, 4000, 3)
        grid_pts = np.linspace(-0.4, 0.4, 4000).reshape(-1, 1)
        grid = SampleSet(points=grid_pts, box=CUBIC_BOX, seed=None)
        eig_mc = approximate_eigenfunction_set(cubic_f, A, basis, mc)
        eig_gr = approximate_eigenfunction_set(cubic_f, A, basis, grid)
        xs = np.linspace(-0.4, 0.4, 101).reshape(-1, 1)
        assert np.max(np.abs(eig_mc.Phi(xs) - eig_gr.Phi(xs))) < 1e-2

    def test_refinement_improves_median_error(self):
        """Median closed-form error over 10 seeds shrinks from L=200 to
        L=20000."""
        basis = monomial_basis(1, 2, 6)
        A = np.array([[-1.0]])
        xs = np.linspace(-0.4, 0.4, 201).reshape(-1, 1)
        exact = cubic_psi(xs[:, 0])
        med = {}
        for L in (200, 20000):
            errs = []
            for seed in range(10):
                samples = sample_domain(CUBIC_BOX, L, seed)
                eig = approximate_eigenfunction_set(cubic_f, A, basis, samples)
                errs.append(np.max(np.abs(eig.Phi(xs)[:, 0] - exact)))
            med[L] = np.median(errs)
        assert med[20000] < med[200]


class TestLinearSystems:
    def test_nonlinear_coefficients_vanish(self):
        # eigenvalues -1 and -2.5: no integer combination of degree 2..4
        # reproduces either one, so the projection matrix stays regular
        A = np.array([[-1.0, 0.3], [0.0, -2.5]])
        basis = monomial_basis(2, 2, 4)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        samples = sample_domain(box, 3000, 11)
        eig = approximate_eigenfunction_set(lambda X: X @ A.T, A, basis, samples)
        assert np.max(np.abs(eig.Theta)) < 1e-10

    def test_linear_eigenfunction_set_exact(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        eig = linear_eigenfunction_set(A, box)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(20, 2))
        np.testing.assert_allclose(eig.Phi(X), X @ eig.Vt.T, atol=1e-15)
        np.testing.assert_allclose(
            eig.Vt @ A, eig.Lambda @ eig.Vt, atol=1e-12
        )


class TestExampleSystemBlocks:
    def test_stable_block_exactly_linear(self):
        sys_ = builtin_example1()
        lin = linearize(sys_)
        basis = monomial_basis(2, 2, 5)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        eig = approximate_eigenfunction_set(
            sys_.f, lin.A, basis, sample_domain(box, 10000, 0)
        )
        np.testing.assert_allclose(eig.Vt, [[1.0, -2.0], [1.0, 1.0]], atol=1e-9)
        assert np.max(np.abs(eig.Theta[0])) < 1e-12  # phi1 = x1 - 2 x2 exactly
        # phi2 carries the sine expansion: nontrivial coefficients
        assert np.max(np.abs(eig.Theta[1])) > 1e-3

    def test_unstable_block_matches_sine_expansion(self):
        sys_ = builtin_example1()
        lin = linearize(sys_)
        basis = monomial_basis(2, 2, 5)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        eig = approximate_eigenfunction_set(
            sys_.f, lin.A, basis, sample_domain(box, 10000, 0)
        )
        xs = sample_domain(box, 500, 77).points
        exact = xs[:, 0] + np.sin(xs[:, 1])
        approx = eig.Phi(xs)[:, 1]
        # dictionary truncation of sin on [-1, 1] limits accuracy, not sampling
        assert np.max(np.abs(approx - exact)) < 5e-3

    def test_jacobian_consistent_with_finite_differences(self):
        sys_ = builtin_example1()
        lin = linearize(sys_)
        basis = monomial_basis(2, 2, 4)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        eig = approximate_eigenfunction_set(
            sys_.f, lin.A, basis, sample_domain(box, 5000, 0)
        )
        x = np.array([0.3, -0.2])
        h = 1e-6
        fd = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (eig.Phi(x + e) - eig.Phi(x - e)) / (2 * h)
        np.testing.assert_allclose(eig.Phi_jac(x)[1], fd, atol=1e-8)


class TestFailurePaths:
    def test_heldout_tolerance_enforced(self):
        basis = monomial_basis(1, 2, 9)
        samples = sample_domain(CUBIC_BOX, 5000, 0)
        A = np.array([[-1.0]])
        with pytest.raises(RuntimeError, match="held-out"):
            approximate_eigenfunction_set(
                cubic_f, A, basis, samples, heldout_tol=1e-18
            )

    def test_singular_dictionary_rejected(self):
        """Duplicated dictionary entries make the projection matrix
        singular."""
        expo = np.array([[2], [2], [3]])  # repeated x^2 row
        bad = BasisSet(expo)
        samples = sample_domain(CUBIC_BOX, 500, 0)
        A = np.array([[-1.0]])
        with pytest.raises(RuntimeError, match="singular|independent"):
            prob = assemble_galerkin(
                cubic_f, bad, A, np.array([[1.0]]), samples, E=A
            )
            solve_coefficients(prob)

    def test_dictionary_with_a_linear_row_rejected(self):
        """A degree-1 row would change the linear part ``dPhi/dx(0) = Vt``
        the fit assumes; the table marks such a dictionary not purely
        nonlinear, and the fit refuses it."""
        sys_ = builtin_example1()
        basis = BasisSet(np.vstack([[[1, 0]], monomial_exponents(2, 2, 3)]))
        assert not basis.purely_nonlinear
        samples = sample_domain(np.array([[-1.0, 1.0], [-1.0, 1.0]]), 500, 0)
        with pytest.raises(ValueError, match="basis must be purely nonlinear"):
            approximate_eigenfunction_set(sys_.f, linearize(sys_).A, basis, samples)


class TestConvergenceStudy:
    def test_error_decays_with_sample_count(self):
        sys_ = builtin_example1()
        lin = linearize(sys_)
        basis = monomial_basis(2, 2, 3)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        st = convergence_study(
            sys_.f, lin.A, basis, box, [100, 1000], 8, 0, block_index=1
        )
        assert st.means[1] < st.means[0]
        assert st.errors.shape == (2, 8)
        rows = list(st.rows())
        assert rows[0][:2] == (100, 0) and rows[-1][:2] == (1000, 7)

    def test_reference_is_streamed_in_constant_memory(self):
        """The 1e6-point reference is drawn, evaluated and projected CHUNK
        rows at a time: the traced peak stays below 8 MB, where its points
        alone would take 16 MB."""
        import tracemalloc

        sys_ = builtin_example1()
        lin = linearize(sys_)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        tracemalloc.start()
        try:
            convergence_study(
                sys_.f, lin.A, monomial_basis(2, 2, 3), box, [100, 1000, 10000], 1, 0,
                block_index=1,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_block_index_validated(self):
        sys_ = builtin_example1()
        lin = linearize(sys_)
        basis = monomial_basis(2, 2, 3)
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        for block_index in (5, 2, -1):
            with pytest.raises(ValueError, match="block_index"):
                convergence_study(
                    sys_.f, lin.A, basis, box, [100, 200], 2, 0, block_index=block_index
                )


def spiral_f(X):
    """Stable spiral (eigenvalues -1 +- 2i) with quadratic and cubic terms."""
    X = np.asarray(X, dtype=float)
    x1, x2 = X[..., 0], X[..., 1]
    return np.stack([-x1 + 2 * x2 + x1 * x2, -2 * x1 - x2 + x1**2 - x2**3], axis=-1)


SPIRAL_A = np.array([[-1.0, 2.0], [-2.0, -1.0]])


def _per_block_fit(F, E, basis, samples):
    """The set fit rebuilt from the one-block wrappers, block by block."""
    from koopmanhj.galerkin import HELDOUT_SEED_XOR, _derive_seed
    from koopmanhj.spectral import real_spectral_decomposition

    dec = real_spectral_decomposition(E)
    held = sample_domain(
        samples.box, samples.L // 5, _derive_seed(samples.seed, HELDOUT_SEED_XOR)
    )
    Theta, conds, train, heldout = [], [], [], []
    for off, size in dec.blocks:
        S = dec.Lambda[off : off + size, off : off + size]
        W = dec.Vt[off : off + size]
        prob = assemble_galerkin(F, basis, S, W, samples, E=E)
        Th = solve_coefficients(prob)
        Theta.append(Th)
        conds.append(prob.cond_J)
        train.append(pde_residual_rms(F, basis, S, W, Th, samples.points))
        heldout.append(pde_residual_rms(F, basis, S, W, Th, held.points))
    return np.vstack(Theta), np.array(conds), np.array(train), np.array(heldout)


ONE_PASS_CASES = {  # field, linearization, degrees, box, L, seed, blocks
    "example1": (
        builtin_example1().f, linearize(builtin_example1()).A, (2, 5),
        np.array([[-1.0, 1.0], [-1.0, 1.0]]), 10000, 3, ((0, 1), (1, 1)),
    ),
    "spiral": (
        spiral_f, SPIRAL_A, (2, 4), np.array([[-0.5, 0.5], [-0.5, 0.5]]), 3000, 1, ((0, 2),),
    ),
    "cubic": (cubic_f, np.array([[-1.0]]), (2, 9), CUBIC_BOX, 5000, 0, ((0, 1),)),
}


class TestOnePassFit:
    """One pass over a sample set serves every eigenvalue block."""

    @pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
    def test_set_fit_equals_per_block_wrappers(self, case):
        F, E, (dmin, dmax), box, L, seed, _ = ONE_PASS_CASES[case]
        basis = monomial_basis(box.shape[0], dmin, dmax)
        samples = sample_domain(box, L, seed)
        eig = approximate_eigenfunction_set(F, E, basis, samples)
        Theta, conds, train, heldout = _per_block_fit(F, E, basis, samples)
        assert np.array_equal(eig.Theta, Theta)
        assert np.array_equal(eig.cond_J, conds)
        assert np.array_equal(eig.block_residuals, train)
        assert np.array_equal(eig.heldout_residuals, heldout)
        # the training RMS against the residual formula on all points at once
        X, FX = samples.points, F(samples.points)
        for bi, (off, size) in enumerate(eig.blocks):
            rows = slice(off, off + size)
            W, Th, S = eig.Vt[rows], eig.Theta[rows], eig.Lambda[rows, rows]
            dpsi_f = FX @ W.T + np.einsum("kmj,kj->km", basis.jacobian(X), FX) @ Th.T
            res = dpsi_f - (X @ W.T + basis.eval(X) @ Th.T) @ S.T
            assert train[bi] == pytest.approx(np.sqrt(np.mean(res**2)), rel=1e-9)

    @pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
    def test_jacobian_rows_do_not_grow_with_blocks(self, case, counting_basis):
        """Assembly and training residual take one pass over the L samples
        each, the held-out residual one over L // 5, for any block count."""
        F, E, (dmin, dmax), box, L, seed, blocks = ONE_PASS_CASES[case]
        basis = counting_basis(monomial_basis(box.shape[0], dmin, dmax))
        eig = approximate_eigenfunction_set(F, E, basis, sample_domain(box, L, seed))
        assert eig.blocks == blocks
        assert basis.jacobian_rows == 2 * L + L // 5
