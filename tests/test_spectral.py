"""Tests for the real spectral decomposition and Riccati machinery.

The self-implemented Riccati route (Hamiltonian matrix -> left-unstable
subspace -> graph matrix) is checked against an independent solver route
(``scipy.linalg.solve_continuous_are``); scipy is used as a test oracle
only, never inside the library.
"""
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from koopmanhj import spectral
from koopmanhj.spectral import (
    block_exp,
    lagrangian_subspace,
    near_imaginary_axis,
    real_spectral_decomposition,
    solve_riccati,
    unstable_left_subspace,
    well_conditioned,
)
from koopmanhj.systems import builtin_example1, linearize


def _random_stabilizable_lq(rng, n, p):
    """Random controllable LQ problem with positive-definite weights."""
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, p))
        # controllability check
        C = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(C) == n:
            break
    M = rng.normal(size=(n, n))
    Q = M @ M.T + np.eye(n)
    D = np.eye(p)
    R = B @ np.linalg.solve(D, B.T)
    return A, B, R, Q, D


class TestRealSpectralDecomposition:
    def test_defining_identity_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            dec = real_spectral_decomposition(A)
            np.testing.assert_allclose(
                dec.Vt @ A, dec.Lambda @ dec.Vt, atol=1e-9 * np.linalg.norm(A)
            )

    def test_example_system_monic_rows(self):
        lin = linearize(builtin_example1())
        dec = real_spectral_decomposition(lin.A)
        np.testing.assert_allclose(np.diag(dec.Lambda), [-1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            dec.Vt, [[1.0, -2.0], [1.0, 1.0]], atol=1e-12
        )
        assert dec.blocks == ((0, 1), (1, 1))

    def test_rotation_matrix_complex_block(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="hyperbolicity"):
            # purely imaginary spectrum is fine for the decomposition but
            # must be rejected by the Hamiltonian subspace extraction
            unstable_left_subspace(A)
        dec = real_spectral_decomposition(A + 0.5 * np.eye(2))
        assert dec.blocks == ((0, 2),)
        # block [[a, -b], [b, a]] with b > 0
        np.testing.assert_allclose(
            dec.Lambda, [[0.5, -2.0], [2.0, 0.5]], atol=1e-12
        )
        np.testing.assert_allclose(
            dec.Vt @ (A + 0.5 * np.eye(2)), dec.Lambda @ dec.Vt, atol=1e-12
        )

    def test_block_ordering_ascending_real_part(self):
        A = np.diag([3.0, -1.0, 0.5])
        dec = real_spectral_decomposition(A)
        np.testing.assert_allclose(np.diag(dec.Lambda), [-1.0, 0.5, 3.0])

    def test_defective_matrix_rejected(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])  # Jordan block
        with pytest.raises(ValueError, match="defective|rank-deficient|condition"):
            real_spectral_decomposition(J)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError, match="square"):
            real_spectral_decomposition(np.zeros((2, 3)))

    def test_basis_invariance_under_similarity(self):
        """Eigenvalues and the recovered invariant subspaces do not depend
        on the coordinates the matrix is presented in."""
        rng = np.random.default_rng(7)
        A = np.diag([-2.0, -0.5, 1.5]) + 0.1 * rng.normal(size=(3, 3))
        dec_A = real_spectral_decomposition(A)
        for _ in range(5):
            T = rng.normal(size=(3, 3))
            while abs(np.linalg.det(T)) < 0.1:
                T = rng.normal(size=(3, 3))
            B = T @ A @ np.linalg.inv(T)
            dec_B = real_spectral_decomposition(B)
            np.testing.assert_allclose(
                np.sort(np.linalg.eigvals(dec_B.Lambda)),
                np.sort(np.linalg.eigvals(dec_A.Lambda)),
                atol=1e-8,
            )
            # rows of Vt_B pulled back through T span the same rows as Vt_A
            pulled = dec_B.Vt @ T
            for row in pulled:
                # each pulled-back row must lie in the row space of Vt_A
                coef, res, *_ = np.linalg.lstsq(dec_A.Vt.T, row, rcond=None)
                assert np.linalg.norm(dec_A.Vt.T @ coef - row) < 1e-7 * np.linalg.norm(row)


class TestUnstableSubspace:
    def test_halves_and_identity(self):
        lin = linearize(builtin_example1(0.5))
        H = np.block([[lin.A, -lin.R0], [-lin.Q0, -lin.A.T]])
        sub = unstable_left_subspace(H)
        np.testing.assert_allclose(
            sub.D_full @ H, sub.Lambda_u @ sub.D_full, atol=1e-9
        )
        assert sub.D1.shape == (2, 2) and sub.D2.shape == (2, 2)
        np.testing.assert_allclose(
            np.sort(np.diag(sub.Lambda_u)),
            [np.sqrt(2.0), np.sqrt(7.0)],
            atol=1e-9,
        )

    def test_non_hamiltonian_spectrum_rejected(self):
        A = np.diag([1.0, 2.0, 3.0, -1.0])  # 3 unstable of 4
        with pytest.raises(ValueError, match="Hamiltonian spectrum"):
            unstable_left_subspace(A)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="2n x 2n"):
            unstable_left_subspace(np.zeros((3, 3)))


class TestCertificatePredicates:
    def test_conditioning_limit_is_strict(self):
        assert not well_conditioned(1e12)
        assert well_conditioned(np.nextafter(1e12, 0))

    @pytest.mark.parametrize("cond", [np.nan, np.inf, -np.inf])
    def test_conditioning_rejects_non_finite(self, cond):
        assert not well_conditioned(cond)

    def test_conditioning_is_elementwise(self):
        cond = np.array([[1.0, 1e12], [np.nan, 5e11]])
        assert np.array_equal(well_conditioned(cond), [[True, False], [False, True]])

    @pytest.mark.parametrize("imag", [0.0, 3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_hyperbolicity_boundary(self, imag, sign):
        # the real part r with r == 1e-8 (1 + |r + i imag|) exactly
        bound = lambda r: 1e-8 * (1.0 + np.abs(np.complex128(complex(r, imag))))  # noqa: E731
        r = bound(0.0)
        for _ in range(8):
            r = bound(r)
        assert r == bound(r)
        lam = np.array([complex(sign * r, imag), complex(sign * np.nextafter(r, 0), imag)])
        assert np.array_equal(near_imaginary_axis(lam), [False, True])
        if imag == 0.0:
            assert np.array_equal(near_imaginary_axis(lam.real), [False, True])


class TestLagrangianSubspace:
    def test_riccati_graph_on_example(self):
        lin = linearize(builtin_example1(0.5))
        H = np.block([[lin.A, -lin.R0], [-lin.Q0, -lin.A.T]])
        L = lagrangian_subspace(unstable_left_subspace(H))
        np.testing.assert_allclose(L, L.T, atol=1e-14)
        resid = lin.A.T @ L + L @ lin.A - L @ lin.R0 @ L + lin.Q0
        assert np.linalg.norm(resid) < 1e-9

    def test_complementarity_failure_reported(self):
        # Hamiltonian with R = 0: unstable rows have D2 singular
        A = np.diag([1.0, 2.0])
        H = np.block([[A, np.zeros((2, 2))], [-np.eye(2), -A.T]])
        with pytest.raises(RuntimeError, match="complementarity"):
            lagrangian_subspace(unstable_left_subspace(H))


class TestSolveRiccati:
    def test_against_independent_solver_random_problems(self):
        rng = np.random.default_rng(42)
        for k in range(20):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, n + 1))
            A, B, R, Q, D = _random_stabilizable_lq(rng, n, p)
            sol = solve_riccati(A, R, Q)
            P_ref = scipy.linalg.solve_continuous_are(A, B, Q, D)
            np.testing.assert_allclose(
                sol.P, P_ref, atol=1e-7 * (1.0 + np.linalg.norm(P_ref))
            )
            assert sol.residual < 1e-8 * (1.0 + np.linalg.norm(Q))
            assert np.all(sol.closed_loop_spectrum.real < 0)

    def test_example_value_matrix(self):
        lin = linearize(builtin_example1(0.5))
        sol = solve_riccati(lin.A, lin.R0, lin.Q0)
        np.testing.assert_allclose(
            sol.P,
            [[2.52998244, 2.87082869], [2.87082869, 7.59549878]],
            atol=1e-6,
        )

    def test_positive_definite_on_stabilizable_problems(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A, B, R, Q, D = _random_stabilizable_lq(rng, 3, 2)
            sol = solve_riccati(A, R, Q)
            assert np.all(np.linalg.eigvalsh(sol.P) > 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_riccati(np.eye(2), np.eye(3), np.eye(2))


# ----------------------------------------------------------------------
# Property tests on random matrices
# ----------------------------------------------------------------------

_parts = st.floats(-3.0, 3.0).filter(lambda v: abs(v) >= 0.05)


@st.composite
def _matrix_with_complex_pairs(draw):
    """``A = S^{-1} blkdiag(...) S`` with 0-3 real eigenvalues and 1-2
    complex pairs ``a +- ib``, all separated by at least 0.1."""
    reals = draw(st.lists(_parts, min_size=0, max_size=3))
    pairs = draw(st.lists(st.tuples(_parts, st.floats(0.1, 3.0)), min_size=1, max_size=2))
    eigs = [complex(r) for r in reals] + [complex(a, s * b) for a, b in pairs for s in (1, -1)]
    assume(min(abs(u - v) for i, u in enumerate(eigs) for v in eigs[i + 1:]) >= 0.1)
    n = len(eigs)
    B = np.zeros((n, n))
    for i, r in enumerate(reals):
        B[i, i] = r
    o = len(reals)
    for a, b in pairs:
        B[o:o + 2, o:o + 2] = [[a, -b], [b, a]]
        o += 2
    # real parts are equal (a tie, ordered by b) or clearly apart; unequal
    # parts near the tie tolerance 1e-8 (1 + |lambda|) may come in either order
    parts = [e.real for e in eigs]
    assume(all(u == v or abs(u - v) > 1e-6 for i, u in enumerate(parts) for v in parts[i + 1:]))
    return _similar(draw, B), [(r, 0.0) for r in reals] + list(pairs)


def _similar(draw, B):
    """``S^{-1} B S`` for a drawn ``S`` with ``cond(S) < 1e3``."""
    S = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=B.shape)
    assume(np.linalg.cond(S) < 1e3)
    return np.linalg.solve(S, B @ S)


@st.composite
def _matrix_with_tied_real_parts(draw):
    """``S^{-1} blkdiag(a, [[a, -b1], [b1, a]], ...) S``: one real eigenvalue
    and one or two complex pairs, all with the same real part ``a``."""
    a = draw(_parts)
    bs = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=2))
    assume(len(bs) == 1 or abs(bs[0] - bs[1]) >= 0.1)
    n = 1 + 2 * len(bs)
    B = np.zeros((n, n))
    B[0, 0] = a
    for k, b in enumerate(bs):
        B[1 + 2 * k:3 + 2 * k, 1 + 2 * k:3 + 2 * k] = [[a, -b], [b, a]]
    return _similar(draw, B), a, bs


class TestDecompositionProperties:
    @settings(max_examples=60, deadline=None)
    @given(_matrix_with_complex_pairs())
    def test_block_form_on_random_matrices(self, case):
        """``Vt A = Lambda Vt``; 1x1 blocks for real eigenvalues and 2x2
        blocks ``[[a, -b], [b, a]]`` with ``b > 0`` for pairs, contiguous,
        in the (a, b) order of the exact spectrum (tied real parts by b),
        zero outside the blocks; ``Vt`` invertible."""
        A, spectrum = case
        n = A.shape[0]
        dec = real_spectral_decomposition(A)
        scale = np.linalg.norm(A) * np.linalg.norm(dec.Vt)
        np.testing.assert_allclose(dec.Vt @ A, dec.Lambda @ dec.Vt, rtol=0, atol=1e-10 * scale)
        offsets = [o for o, _ in dec.blocks]
        sizes = [r for _, r in dec.blocks]
        assert offsets == list(np.cumsum([0] + sizes[:-1])) and sum(sizes) == n
        assert sizes.count(2) == sum(1 for _, b in spectrum if b > 0)
        got, mask = [], np.zeros((n, n), dtype=bool)
        for o, r in dec.blocks:
            blk = dec.Lambda[o:o + r, o:o + r]
            mask[o:o + r, o:o + r] = True
            if r == 1:
                got.append((blk[0, 0], 0.0))
            else:
                a, b = blk[0, 0], blk[1, 0]
                assert b > 0
                np.testing.assert_array_equal(blk, [[a, -b], [b, a]])
                got.append((a, b))
        assert not dec.Lambda[~mask].any()
        # computed real parts of a tie differ by round-off; the block order
        # must follow the exact spectrum all the same
        np.testing.assert_allclose(got, sorted(spectrum), rtol=0, atol=1e-8)
        as_eigs = lambda pairs: np.array(  # noqa: E731
            [complex(a, s * b) for a, b in pairs for s in ((1,) if b == 0 else (1, -1))]
        )
        # the eigenvalues are 0.1 apart: each one has its own nearest match
        dist = np.abs(as_eigs(got)[:, None] - as_eigs(spectrum)[None, :])
        assert dist.min(axis=0).max() <= 1e-8 and dist.min(axis=1).max() <= 1e-8
        assert dec.cond_V == np.linalg.cond(dec.Vt) < 1e12

    @settings(max_examples=60, deadline=None)
    @given(_matrix_with_tied_real_parts())
    def test_tied_real_parts_order_by_imaginary_part(self, case):
        """A real eigenvalue ``a`` and pairs ``a +- ib`` come out real first,
        then the pairs by ascending ``b``, whatever the round-off of the
        computed real parts."""
        A, a, bs = case
        dec = real_spectral_decomposition(A)
        assert [r for _, r in dec.blocks] == [1] + [2] * len(bs)
        b_got = [dec.Lambda[o + 1, o] for o, r in dec.blocks if r == 2]
        np.testing.assert_allclose(b_got, sorted(bs), rtol=0, atol=1e-8)
        np.testing.assert_allclose(np.diag(dec.Lambda), a, rtol=0, atol=1e-8)


def _times(bound):
    return st.floats(-bound, bound)


@st.composite
def _block_form(draw, bound):
    """A real block form ``Lambda`` with its layout: 1-4 blocks, each a real
    ``a`` or a 2x2 ``[[a, -b], [b, a]]`` (either sign of ``b``), with
    ``|a|, |b| <= bound``."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    n = sum(2 if pair else 1 for pair in kinds)
    Lambda, blocks, o = np.zeros((n, n)), [], 0
    for pair in kinds:
        a = draw(st.floats(-bound, bound))
        if pair:
            b = draw(st.floats(-bound, bound))
            Lambda[o:o + 2, o:o + 2] = [[a, -b], [b, a]]
        else:
            Lambda[o, o] = a
        blocks.append((o, 2 if pair else 1))
        o += blocks[-1][1]
    return Lambda, tuple(blocks)


def _growth_scaled(Lambda, t, E):
    """``E`` (per time) divided row-wise by each block's growth ``e^{at}``."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    return E.reshape(-1, *Lambda.shape) / np.exp(ts[:, None] * np.diag(Lambda))[..., None]


class TestBlockExp:
    @settings(max_examples=80, deadline=None)
    @given(_block_form(2.0), st.one_of(_times(1.0), st.lists(_times(1.0), max_size=5)))
    def test_equals_the_general_exponential(self, form, t):
        """``exp(Lambda t)`` in closed form equals ``scipy.linalg.expm`` to
        1e-13 relative to each block's growth ``e^{at}``, for a scalar time
        and a vector of times of both signs.  The draws keep ``|Lambda t|``
        small: on 2x2 blocks with ``|a|, |b| <= 3`` and ``|t| <= 2`` expm's
        scaling and squaring itself errs by up to 6e-13 of the growth, where
        the closed form stays within 7e-16 of a 40-digit evaluation."""
        Lambda, blocks = form
        E = block_exp(Lambda, blocks, t)
        assert E.shape == np.shape(t) + Lambda.shape
        ref = np.array([scipy.linalg.expm(Lambda * tk) for tk in np.atleast_1d(t)])
        err = _growth_scaled(Lambda, t, E - ref.reshape(E.shape))
        assert err.size == 0 or np.abs(err).max() <= 1e-13

    @settings(max_examples=80, deadline=None)
    @given(_block_form(3.0), _times(2.0), _times(2.0))
    def test_group_law(self, form, s, t):
        """``exp(Lambda (s + t)) = exp(Lambda s) exp(Lambda t)`` and
        ``exp(Lambda t) exp(-Lambda t) = I`` on the wider range, to 1e-14
        relative to the growth."""
        Lambda, blocks = form
        Es, Et, Est, Emt = block_exp(Lambda, blocks, [s, t, s + t, -t])
        err = _growth_scaled(Lambda, s + t, Es @ Et - Est)
        assert np.abs(err).max() <= 1e-14 * (1.0 + np.abs(Lambda).max() * (abs(s) + abs(t)))
        np.testing.assert_allclose(Et @ Emt, np.eye(len(Lambda)), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("blocks", [
        ((0, 1),),  # rows 1-2 uncovered
        ((0, 1), (2, 1)),  # a gap
        ((0, 2), (1, 2)),  # overlapping
        ((0, 3),),  # no 3x3 blocks
        ((0, 1), (1, 1), (2, 1), (3, 1)),  # past the last row
        (),
    ])
    def test_layout_that_does_not_tile_the_rows_rejected(self, blocks):
        with pytest.raises(ValueError, match="tile"):
            block_exp(np.diag([1.0, 2.0, 3.0]), blocks, 0.5)

    def test_entry_outside_the_blocks_rejected(self):
        Lambda = np.diag([1.0, 2.0, 3.0])
        Lambda[0, 2] = 0.5
        with pytest.raises(ValueError, match="outside"):
            block_exp(Lambda, ((0, 1), (1, 1), (2, 1)), [0.5])

    def test_two_by_two_block_not_a_rotation_form_rejected(self):
        with pytest.raises(ValueError, match=r"\[\[a, -b\], \[b, a\]\]"):
            block_exp(np.array([[1.0, -2.0], [3.0, 1.0]]), ((0, 2),), 0.5)


class TestRiccatiProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_certificates_on_random_stabilizable_pairs(self, n, p, seed):
        """The stabilizing solution carries a residual certificate equal to
        the residual of the returned ``P``, below its tolerance, and the
        spectrum of ``A - R P`` in the open left half-plane; ``P`` is
        symmetric and equals the independent CARE solution."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, p))
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        sv = np.linalg.svd(ctrb, compute_uv=False)
        assume(sv[-1] > 1e-3 * sv[0])
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        G = rng.normal(size=(p, p))
        D = G @ G.T + np.eye(p)
        R = B @ np.linalg.solve(D, B.T)
        P_ref = scipy.linalg.solve_continuous_are(A, B, Q, D)
        # the residual tolerance 1e-8 (1 + |Q|) does not grow with P: for
        # |P| ~ 1e4 and more the round-off of an exact solution exceeds it
        assume(np.linalg.norm(P_ref) <= 1e3)
        sol = solve_riccati(A, R, Q)
        P = sol.P
        np.testing.assert_array_equal(P, P.T)
        assert sol.residual == float(np.linalg.norm(A.T @ P + P @ A - P @ R @ P + Q))
        assert sol.residual <= 1e-8 * (1.0 + np.linalg.norm(Q))
        np.testing.assert_allclose(
            np.sort_complex(sol.closed_loop_spectrum),
            np.sort_complex(np.linalg.eigvals(A - R @ P)), rtol=0, atol=1e-12,
        )
        assert np.all(sol.closed_loop_spectrum.real < 0)
        assert np.all(np.linalg.eigvalsh(P) > 0)
        np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-7 * (1.0 + np.linalg.norm(P_ref)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), st.floats(0.5, 1.5),
           st.integers(0, 2**32 - 1))
    def test_certificates_with_a_large_P(self, n, p, decades, seed):
        """Pairs whose input map is scaled down by ``10^decades``, drawn
        where ``1e3 < |P| <= 1e6``: the solution is accepted, its residual is
        within ``1e-8 (1 + |Q| + 2 |A| |P| + |P|^2 |R|)``, and ``P`` equals
        the independent CARE solution."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, p)) * 10.0**-decades
        ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        sv = np.linalg.svd(ctrb, compute_uv=False)
        assume(sv[-1] > 1e-3 * sv[0])
        M = rng.normal(size=(n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        G = rng.normal(size=(p, p))
        D = G @ G.T + np.eye(p)
        R = B @ np.linalg.solve(D, B.T)
        P_ref = scipy.linalg.solve_continuous_are(A, B, Q, D)
        assume(1e3 < np.linalg.norm(P_ref) <= 1e6)
        sol = solve_riccati(A, R, Q)
        norm_P = np.linalg.norm(sol.P)
        assert sol.residual <= 1e-8 * (
            1.0 + np.linalg.norm(Q) + 2.0 * np.linalg.norm(A) * norm_P
            + norm_P**2 * np.linalg.norm(R)
        )
        np.testing.assert_allclose(
            sol.P, P_ref, rtol=0, atol=1e-7 * (1.0 + np.linalg.norm(P_ref))
        )

    @staticmethod
    def _large_P_problem():
        """A well-posed scalar problem whose stabilizing ``P`` is about 4.8e10."""
        A, B, D, Q = (np.array([[v]]) for v in (2.39, 1e-5, 1.005, 0.128))
        return A, B @ np.linalg.solve(D, B.T), Q

    def test_accepts_an_accurate_solution_with_a_large_P(self):
        """The closed-form root ``(a + sqrt(a^2 + r q)) / r`` of the scalar
        problem leaves a residual of about 9e-6 against ``1e-8 (1 + |Q|)``,
        round-off of an exact solution, and the program's own solution is
        accepted too: the certificate's limit grows with ``|P|``."""
        A, R, Q = self._large_P_problem()
        a, r, q = A[0, 0], R[0, 0], Q[0, 0]
        P_ref = np.array([[(a + np.sqrt(a * a + r * q)) / r]])
        residual_ref = np.linalg.norm(A.T @ P_ref + P_ref @ A - P_ref @ R @ P_ref + Q)
        assert residual_ref > 1e-8 * (1.0 + np.linalg.norm(Q))
        sol = solve_riccati(A, R, Q)
        np.testing.assert_allclose(sol.P, P_ref, rtol=1e-10)

    @pytest.mark.parametrize("problem", ["example1", "large_P"])
    def test_rejects_a_perturbed_solution(self, problem, monkeypatch):
        """A ``P`` off by 1e-6 relative fails the residual certificate, for
        a moderate and for a large ``P``."""
        if problem == "example1":
            lin = linearize(builtin_example1(0.5))
            A, R, Q = lin.A, lin.R0, lin.Q0
        else:
            A, R, Q = self._large_P_problem()
        exact = spectral.lagrangian_subspace
        monkeypatch.setattr(spectral, "lagrangian_subspace",
                            lambda sub: exact(sub) * (1.0 + 1e-6))
        with pytest.raises(RuntimeError, match=r"Riccati residual .* exceeds tolerance"):
            solve_riccati(A, R, Q)
