"""Tests for the monomial dictionaries and their analytic jacobians."""
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitwise import assert_same_bits, state_rows
import koopmanhj
from koopmanhj.basis import (
    BasisSet,
    Polynomial,
    Procedure2Basis,
    monomial_basis,
    monomial_exponents,
    procedure2_basis,
    quadratic_form_gradient,
    value_basis_xi3,
)


def _fd_jacobian(fun, Z, h=1e-6):
    """Central finite-difference jacobian of a batched basis evaluation."""
    Z = np.asarray(Z, dtype=float)
    M = fun(Z).shape[-1]
    out = np.zeros(Z.shape[:-1] + (M, Z.shape[-1]))
    for j in range(Z.shape[-1]):
        dz = np.zeros_like(Z)
        dz[..., j] = h
        out[..., :, j] = (fun(Z + dz) - fun(Z - dz)) / (2 * h)
    return out


class TestMonomialExponents:
    def test_graded_lexicographic_order(self):
        expo = monomial_exponents(2, 2, 3)
        expected = np.array(
            [[2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3]]
        )
        np.testing.assert_array_equal(expo, expected)

    def test_counts_match_stars_and_bars(self):
        for n in (1, 2, 3):
            for dmin, dmax in ((2, 2), (2, 5), (3, 4)):
                expo = monomial_exponents(n, dmin, dmax)
                count = sum(
                    math.comb(d + n - 1, n - 1) for d in range(dmin, dmax + 1)
                )
                assert expo.shape == (count, n)

    def test_degrees_within_range(self):
        expo = monomial_exponents(3, 2, 4)
        degs = expo.sum(axis=1)
        assert degs.min() == 2 and degs.max() == 4

    def test_rows_unique(self):
        expo = monomial_exponents(3, 2, 5)
        assert len({tuple(r) for r in expo}) == expo.shape[0]


class TestBasisSet:
    def test_eval_matches_direct_monomials(self):
        basis = monomial_basis(2, 2, 4)
        rng = np.random.default_rng(0)
        Z = rng.uniform(-1, 1, size=(50, 2))
        direct = np.stack(
            [Z[:, 0] ** e[0] * Z[:, 1] ** e[1] for e in basis.exponents], axis=-1
        )
        np.testing.assert_allclose(basis.eval(Z), direct, rtol=0, atol=1e-14)

    def test_jacobian_matches_finite_differences(self):
        basis = monomial_basis(3, 2, 4)
        rng = np.random.default_rng(1)
        Z = rng.uniform(-1, 1, size=(20, 3))
        jac = basis.jacobian(Z)
        fd = _fd_jacobian(basis.eval, Z)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=5e-9)

    def test_vanishes_to_first_order_at_origin(self):
        basis = monomial_basis(2, 2, 5)
        z0 = np.zeros(2)
        assert basis.purely_nonlinear
        np.testing.assert_array_equal(basis.eval(z0), np.zeros(basis.M))
        np.testing.assert_array_equal(basis.jacobian(z0), np.zeros((basis.M, 2)))

    def test_batched_and_single_evaluations_agree(self):
        basis = monomial_basis(2, 2, 3)
        rng = np.random.default_rng(2)
        Z = rng.uniform(-1, 1, size=(7, 2))
        batched = basis.eval(Z)
        for k in range(7):
            np.testing.assert_array_equal(basis.eval(Z[k]), batched[k])

    def test_rejects_linear_minimum_degree(self):
        with pytest.raises(ValueError, match="deg_min"):
            monomial_basis(2, 1, 3)

    def test_shape_mismatch_rejected(self):
        """A table that is not 2-D or has a negative entry is rejected; a
        negative exponent would index another column of the power table
        (``[[2, -1]]`` would give 16 at (2, 3), not 4/3)."""
        for expo in (np.zeros(2, dtype=int), np.zeros((1, 2, 2), dtype=int), [[2, -1]]):
            with pytest.raises(ValueError, match="exponent table"):
                BasisSet(expo)

    def test_counts_and_flags_are_read_off_the_table(self):
        """``dim_in``, ``M`` and ``purely_nonlinear`` come from the table: a
        dictionary with a degree-1 row is not purely nonlinear."""
        quadratic = monomial_exponents(2, 2, 3)
        basis = BasisSet(quadratic)
        assert (basis.dim_in, basis.M, basis.purely_nonlinear) == (2, 7, True)
        mixed = BasisSet(np.vstack([[[1, 0]], quadratic]))
        assert (mixed.dim_in, mixed.M, mixed.purely_nonlinear) == (2, 8, False)
        assert BasisSet(np.zeros((0, 3))).purely_nonlinear  # the empty dictionary

    @pytest.mark.parametrize("cls", [BasisSet, Procedure2Basis])
    def test_takes_only_the_exponent_table(self, cls):
        assert list(inspect.signature(cls).parameters) == ["exponents"]

    @pytest.mark.parametrize("cls", [BasisSet, Procedure2Basis])
    @pytest.mark.parametrize("table", [
        [[1.5, 0.0]], np.array([[True, False]]), [[math.nan, 1.0]], [[math.inf, 1.0]],
        [[1e20, 0.0]], [["1", "0"]],
    ], ids=["fraction", "bool", "nan", "inf", "beyond-int64", "str"])
    def test_rejects_an_entry_that_is_not_an_integer(self, cls, table):
        """Each of these tables is rejected with one error that shows it, and
        without a cast warning; a truncating cast would turn ``[[1.5, 0]]``
        into ``x1`` (2.0 at (2, 3), where 2^1.5 is 2.83) and the bool table
        into ``[[1, 0]]``."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                cls(table)
        message = str(exc.value)
        assert message.startswith("exponent table") and repr(np.asarray(table)) in message

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_integral_floats_are_the_integer_table(self, n, data):
        """A table of integral floats is the int64 table: same exponents and
        the same bits of ``eval`` and ``jacobian``."""
        row = st.lists(st.integers(0, 5), min_size=n, max_size=n)
        expo = np.array(data.draw(st.lists(row, max_size=8)), dtype=np.int64).reshape(-1, n)
        exact, floats = BasisSet(expo), BasisSet(expo.astype(float))
        assert floats.exponents.dtype == np.int64
        assert np.array_equal(floats.exponents, expo)
        Z = data.draw(state_rows(n))
        with np.errstate(all="ignore"):
            assert_same_bits(floats.eval(Z), exact.eval(Z))
            assert_same_bits(floats.jacobian(Z), exact.jacobian(Z))

    @pytest.mark.parametrize("build", [
        lambda: monomial_basis(2, 2, 3), lambda: procedure2_basis(2, 3, 2),
    ], ids=["BasisSet", "Procedure2Basis"])
    def test_equality_and_hash_are_identity(self, build):
        """A dictionary equals itself only, whatever its table, and is a
        ``dict`` key."""
        b = build()
        assert b == b
        assert (b == build()) is False
        assert {b: "fit"}[b] == "fit" and build() not in {b: "fit"}


class TestValueBasis:
    def test_is_monomials_from_degree_two(self):
        xi3 = value_basis_xi3(2, 4)
        np.testing.assert_array_equal(
            xi3.exponents, monomial_exponents(2, 2, 4)
        )
        assert xi3.purely_nonlinear

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError, match="d3"):
            value_basis_xi3(2, 1)


class TestProcedure2Basis:
    def test_block_structure(self):
        b = procedure2_basis(2, 3, 2)
        # first block: x-monomials of degree 2..3 in two variables -> 7
        assert b.N == 7
        # second block: (degree 1..2 x-monomials = 5) x (2 momentum coords)
        assert b.M == 7 + 5 * 2

    def test_eval_splits_into_xi1_and_momentum_linear_part(self):
        b = procedure2_basis(2, 3, 2)
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=2)
        p = rng.uniform(-1, 1, size=2)
        z = np.concatenate([x, p])
        vals = b.eval(z)
        np.testing.assert_allclose(vals[: b.N], b.xi1(x), atol=1e-15)
        np.testing.assert_allclose(vals[b.N :], (b.xi2(x) @ p).ravel(), atol=1e-15)

    def test_linear_in_momentum(self):
        b = procedure2_basis(2, 4, 3)
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=2)
        p1, p2 = rng.uniform(-1, 1, size=(2, 2))
        za = np.concatenate([x, p1])
        zb = np.concatenate([x, p2])
        zm = np.concatenate([x, 0.5 * (p1 + p2)])
        np.testing.assert_allclose(
            b.eval(zm), 0.5 * (b.eval(za) + b.eval(zb)), atol=1e-14
        )

    def test_jacobian_matches_finite_differences(self):
        b = procedure2_basis(2, 3, 2)
        rng = np.random.default_rng(5)
        Z = rng.uniform(-1, 1, size=(10, 4))
        np.testing.assert_allclose(
            b.jacobian(Z), _fd_jacobian(b.eval, Z), rtol=0, atol=5e-9
        )

    def test_purely_nonlinear_on_doubled_space(self):
        b = procedure2_basis(2, 3, 2)
        assert b.purely_nonlinear
        z0 = np.zeros(4)
        np.testing.assert_array_equal(b.eval(z0), np.zeros(b.M))
        np.testing.assert_array_equal(b.jacobian(z0), np.zeros((b.M, 4)))

    def test_is_a_basis_set(self):
        b = procedure2_basis(2, 3, 2)
        assert isinstance(b, BasisSet)
        assert b.dim_in == 4 and b.exponents.shape == (b.M, 4)

    def test_exponent_rows_and_their_order(self):
        """Rows ``(alpha, 0)`` of Xi1 (degree 2..3), then ``(alpha_j, e_i)``
        for the x-monomials of degree 1..2, monomial-major."""
        b = procedure2_basis(2, 3, 2)
        xi1 = [[2, 0], [1, 1], [0, 2], [3, 0], [2, 1], [1, 2], [0, 3]]
        mono = [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
        want = [a + [0, 0] for a in xi1] + [a + e for a in mono for e in ([1, 0], [0, 1])]
        np.testing.assert_array_equal(b.exponents, np.array(want))

    def test_rejects_a_table_that_is_not_momentum_linear(self):
        b = procedure2_basis(1, 2, 2)
        expo = b.exponents.copy()
        expo[-1, 1] = 2  # x^2 p^2
        for bad in (expo, np.zeros((2, 0), dtype=int), np.ones((2, 1), dtype=int)):
            with pytest.raises(ValueError, match="exponent table"):
                Procedure2Basis(bad)  # not momentum-linear, no state, odd width

    def test_rejects_a_momentum_row_before_an_xi1_row(self):
        expo = procedure2_basis(1, 3, 2).exponents  # x^2, x^3, then x p, x^2 p
        moved = expo[[0, 2, 1, 3]]  # x p before x^3
        with pytest.raises(ValueError, match="exponent table"):
            Procedure2Basis(moved)

    @pytest.mark.parametrize("n,d1,d2", [(1, 7, 5), (2, 6, 4), (3, 4, 3)])
    def test_counts_are_read_off_the_table(self, n, d1, d2):
        """``n`` and ``N`` come from the table, so a dictionary rebuilt
        from its exponents alone is the same dictionary."""
        b = procedure2_basis(n, d1, d2)
        again = Procedure2Basis(b.exponents)
        assert (again.n, again.N, again.M) == (n, b.N, b.M)
        assert b.N == len(monomial_exponents(n, 2, d1))
        Z = np.random.default_rng(n).uniform(-1.2, 1.2, size=(20, 2 * n))
        assert_same_bits(again.eval(Z), b.eval(Z))
        assert_same_bits(again.jacobian(Z), b.jacobian(Z))

    @pytest.mark.parametrize("n,d1,d2", [(1, 7, 5), (2, 6, 4), (3, 4, 3)])
    def test_jacobian_matches_the_product_rule(self, n, d1, d2):
        """``d(m_j p_i)/dx = p_i grad m_j`` and ``d(m_j p_i)/dp_l = m_j
        delta_il``, with Xi1 and the m_j evaluated from their own tables."""
        b = procedure2_basis(n, d1, d2)
        rng = np.random.default_rng(d1)
        Z = rng.uniform(-1.2, 1.2, size=(50, 2 * n))
        x, p = Z[:, :n], Z[:, n:]
        xi1 = BasisSet(monomial_exponents(n, 2, d1))
        mono = BasisSet(monomial_exponents(n, 1, d2))
        K = mono.M
        want = np.zeros((50, b.M, 2 * n))
        want[:, : b.N, :n] = xi1.jacobian(x)
        dx = mono.jacobian(x)[:, :, None, :] * p[:, None, :, None]
        dp = mono.eval(x)[:, :, None, None] * np.eye(n)
        want[:, b.N :, :n] = dx.reshape(50, K * n, n)
        want[:, b.N :, n:] = dp.reshape(50, K * n, n)
        np.testing.assert_allclose(b.jacobian(Z), want, rtol=1e-14, atol=0)


class TestMonomialTable:
    """The table-driven evaluation inside :class:`BasisSet`."""

    @pytest.mark.parametrize("expo", [
        monomial_exponents(2, 2, 5),  # a route-1 dictionary
        procedure2_basis(2, 6, 4).exponents,  # a route-2 dictionary on (x, p)
    ], ids=["route1", "route2"])
    def test_jacobian_is_the_product_of_each_decremented_monomial(self, expo):
        """Evaluating each distinct decremented monomial once leaves every
        entry ``alpha_j * prod(pw[alpha - e_j])`` bit for bit."""
        degree = int(expo.max())
        table = BasisSet(expo)
        assert table.degree == degree
        rows, cols = np.nonzero(expo)
        dec = expo[rows].copy()
        dec[np.arange(rows.size), cols] -= 1
        assert len(table._jacobian_tables[0]) < rows.size  # shared rows are evaluated once
        Z = np.random.default_rng(11).uniform(-1.5, 1.5, size=(30, expo.shape[1]))
        pw = table.powers(Z)
        offsets = np.arange(expo.shape[1]) * (degree + 1)
        want = np.zeros(Z.shape[:1] + expo.shape)
        want[:, rows, cols] = expo[rows, cols] * pw[:, dec + offsets].prod(axis=-1)
        assert np.array_equal(table.jacobian(Z), want)

    def test_jacobian_tables_are_built_on_the_first_jacobian(self, monkeypatch):
        """A table that is only evaluated never runs the row dedup of the
        jacobian tables; the first jacobian runs it once, with the bits of
        a table built before."""
        expo = procedure2_basis(2, 4, 3).exponents
        Z = np.random.default_rng(12).uniform(-1.5, 1.5, size=(20, expo.shape[1]))
        reference = BasisSet(expo)
        want = reference.jacobian(Z)
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        table = BasisSet(expo)
        table.eval(Z)
        table.eval(Z[0])
        assert calls == []
        assert_same_bits(table.jacobian(Z), want)
        assert_same_bits(table.eval_and_jacobian(Z[3])[1], want[3])
        assert calls == [1]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), degree=st.integers(0, 6), data=st.data())
    def test_one_state_equals_batch_row(self, n, degree, data):
        """``powers`` and ``eval`` of one state ``(n,)`` (float products,
        an RK4 stage) give the bits of that state's row in a batch."""
        table = BasisSet(monomial_exponents(n, 0, degree))
        Z = data.draw(state_rows(n))
        with np.errstate(all="ignore"):
            pw = table.powers(Z)
            vals = table.eval(Z)
            for k, z in enumerate(Z):
                assert_same_bits(table.powers(z), pw[k])
                assert_same_bits(table.eval(z), vals[k])


class TestCompiledPolynomial:
    """``Polynomial.floats``: one state's table form as straight-line float code."""

    @pytest.mark.parametrize("n, degree", [(1, 6), (2, 5), (3, 3)])
    def test_monomials_equal_the_table(self, n, degree):
        """With ``C`` the identity, output ``j`` is monomial ``j`` plus zeros,
        so on states whose monomials are nonzero and finite it has the bits
        of the table's product of powers."""
        table = BasisSet(monomial_exponents(n, 0, degree))
        monomials = Polynomial(table, np.eye(table.M)).floats
        coord = st.floats(1e-3, 10.0).flatmap(lambda v: st.sampled_from([v, -v]))

        @settings(max_examples=60, deadline=None)
        @given(st.lists(coord, min_size=n, max_size=n))
        def check(z):
            got = monomials(z)
            assert all(type(v) is float for v in got)
            assert_same_bits(np.array(got), table.eval(np.array(z)))

        check()

    def test_outputs_are_the_coefficient_sums(self):
        """Output ``i`` is ``C[i, 0] m0 + C[i, 1] m1 + ...`` summed left to
        right, every coefficient exact: a sparse odd ``C`` checks the
        order, ``-0.0``, an extreme magnitude and the bound names ``inf``
        and ``nan``."""
        table = BasisSet(monomial_exponents(2, 1, 2))  # x1, x2, x1^2, x1 x2, x2^2
        C = np.array([
            [0.1, -0.0, 1e-300, math.pi, -2.5],
            [np.inf, 0.0, 0.0, 0.0, 0.0],
            [np.nan, 1.0, 0.0, 0.0, 0.0],
        ])
        x1, x2 = 0.3, -1.7
        m = [x1, x2, x1 * x1, x1 * x2, x2 * x2]
        got = Polynomial(table, C).floats([x1, x2])
        want = 0.1 * m[0] + -0.0 * m[1] + 1e-300 * m[2] + math.pi * m[3] + -2.5 * m[4]
        assert got[0] == want
        assert got[1] == math.inf and math.isnan(got[2])
        empty = Polynomial(BasisSet(np.zeros((0, 2), dtype=int)), np.zeros((2, 0)))
        assert empty.floats([1.0, 2.0]) == (0.0, 0.0)
        assert_same_bits(empty(np.array([[1.0, 2.0]] * 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="coefficient matrix shape"):
            Polynomial(table, C[:, :4])

    def test_call_and_jacobian(self):
        """A call runs the compiled code, kept on the polynomial, on one
        state's floats or a batch's columns: each row has its state's bits.
        The jacobian is ``C @ table.jacobian(x)``."""
        table = BasisSet(monomial_exponents(2, 1, 3))
        C = np.random.default_rng(3).uniform(-1.0, 1.0, (3, table.M))
        poly = Polynomial(table, C)
        assert "floats" not in vars(poly)
        X = np.random.default_rng(4).uniform(-2.0, 2.0, (4, 5, 2))
        rows = poly(X)
        code = poly.floats
        assert rows.shape == (4, 5, 3)
        for idx in np.ndindex(X.shape[:-1]):
            assert_same_bits(poly(X[idx]), rows[idx])
        assert poly.floats is code
        mono = table.eval(X)
        assert np.all(np.abs(rows - mono @ C.T) <= 1e-12 * (np.abs(mono) @ np.abs(C).T))
        assert_same_bits(poly.jacobian(X), C @ table.jacobian(X))

    def test_the_package_has_one_exec_site(self):
        """``Polynomial.floats`` compiles through the package's one ``exec``."""
        src = Path(koopmanhj.__file__).parent
        sites = [
            path.name for path in sorted(src.rglob("*.py"))
            for line in path.read_text().splitlines() if re.search(r"\bexec\(", line)
        ]
        assert sites == ["basis.py"]


class TestQuadraticFormGradient:
    @pytest.mark.parametrize("n,dmax", [(1, 4), (2, 3), (3, 2)])
    def test_equals_jacobian_contraction(self, n, dmax):
        """The collected polynomial equals ``(dpsi/dx)^T S psi`` evaluated
        from the monomials and their jacobian, for a nonsymmetric S."""
        rng = np.random.default_rng(n)
        E = monomial_exponents(n, 1, dmax)
        S = rng.normal(size=(len(E), len(E)))
        psi = BasisSet(E)
        grad = quadratic_form_gradient(psi, S)
        table, C = grad.table, grad.C
        assert table.M == math.comb(n + 2 * dmax - 1, n) - 1
        assert C.shape == (n, table.M)
        X = rng.uniform(-1.5, 1.5, size=(40, n))
        want = np.einsum("kbn,ba,ka->kn", psi.jacobian(X), S, psi.eval(X))
        got = table.eval(X) @ C.T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_exact_past_the_int64_packing_limit(self):
        """At n = 33 and degree 2 the exponent vectors of the product terms
        (digits 0..3) no longer pack into 64 bits (4^33 = 2^66), and terms
        that differ in x1 alone would share a packed key; every term must
        still land on its own table row."""
        n = 33
        E = np.zeros((6, n), dtype=np.int64)
        E[0, 0] = E[1, 32] = E[2, 30] = 1
        E[3, [0, 32]] = 1
        E[4, 32] = 2
        E[5, [1, 30]] = 1
        S = np.random.default_rng(7).normal(size=(6, 6))
        psi = BasisSet(E)
        grad = quadratic_form_gradient(psi, S)
        table, C = grad.table, grad.C
        assert table.M == math.comb(n + 3, n) - 1
        X = np.random.default_rng(8).uniform(-1.5, 1.5, size=(40, n))
        want = np.einsum("kbn,ba,ka->kn", psi.jacobian(X), S, psi.eval(X))
        got = table.eval(X) @ C.T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_rejects_constants_and_mismatched_weights(self):
        with pytest.raises(ValueError, match="degree at least 1"):
            quadratic_form_gradient(BasisSet(monomial_exponents(2, 0, 2)), np.eye(6))
        with pytest.raises(ValueError, match="S has shape"):
            quadratic_form_gradient(BasisSet(monomial_exponents(2, 1, 2)), np.eye(4))
