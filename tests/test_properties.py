"""Property tests of the batched maps, the basis tables, the batched
solution maps and batched rollouts, each against the single-state path or a
direct formula, and of rollout truncation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmanhj import systems
from koopmanhj.basis import BasisSet, monomial_basis, procedure2_basis
from koopmanhj.galerkin import (
    CHUNK,
    SampleStream,
    _draw,
    _residual_pass,
    approximate_eigenfunction_set,
    fit_blocks,
    linear_eigenfunction_set,
    sample_domain,
)
from koopmanhj.procedure1 import example1_eigenfunction_set, procedure1_solve
from koopmanhj.procedure2 import (
    UnstableEigenfunctions,
    default_phase_box,
    linear_manifold,
    nonlinear_manifold,
    procedure2_solve,
    unstable_eigfns,
)
from koopmanhj.simulate import _rk4, closed_loop
from koopmanhj.spectral import real_spectral_decomposition, solve_riccati
from koopmanhj.systems import (
    _fd_jacobian,
    builtin_example1,
    builtin_pendulum,
    control_affine_system,
    hamiltonian_vector_field,
    hj_residual,
    linearize,
    polynomial_system,
)

SETTINGS = settings(max_examples=25, deadline=None)
REL = 1e-13


def _points(n, lo=-1.0, hi=1.0, max_rows=6):
    """Batches of 1..max_rows states in [lo, hi]^n."""
    return st.integers(1, max_rows).flatmap(
        lambda k: arrays(np.float64, (k, n), elements=st.floats(lo, hi, width=64))
    )


def _assert_rel(got, want, rel=REL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= rel * scale


def _rowwise(fn, X):
    return np.array([np.asarray(fn(x), dtype=float) for x in X])


def _cubic_2d():
    return polynomial_system(
        [[(-1.0, (1, 0)), (0.5, (2, 1))], [(2.0, (0, 1)), (-1.0, (3, 0))]],
        [[1.0], [0.5]], [[2.0]], np.eye(2),
    )


def _user_system():
    """Pointwise user maps with a state-dependent input map and no
    supplied derivatives (every derivative by central differences)."""
    return control_affine_system(
        2, 1,
        f=lambda x: np.array([-x[0] + x[1] ** 2, -2.0 * x[1] + np.sin(x[0]) * x[1]]),
        g=lambda x: np.array([[1.0 + 0.5 * x[1] ** 2], [np.cos(x[0])]]),
        D=np.array([[1.5]]),
        q=lambda x: 0.5 * float(x @ x) + 0.25 * x[0] ** 4,
    )


def _theta_box():
    return _points(3, -np.pi, np.pi)


SYSTEMS = {
    "example1": (lambda: builtin_example1(0.5), _points(2)),
    "pendulum": (lambda: builtin_pendulum(9.81), _theta_box()),
    "polynomial": (_cubic_2d, _points(2)),
    "user": (_user_system, _points(2)),
}
MAPS = ("f", "g", "q", "jacobian_f", "jacobian_g", "grad_q", "R")


@pytest.mark.parametrize("name", sorted(SYSTEMS))
class TestBatchedMaps:
    def test_maps_equal_single_state_loop(self, name):
        build, pts = SYSTEMS[name]
        sys_ = build()

        @SETTINGS
        @given(pts)
        def check(X):
            for attr in MAPS:
                fn = getattr(sys_, attr)
                _assert_rel(fn(X), _rowwise(fn, X))
                # batches of any leading shape
                X3 = np.stack([X, X[::-1]])
                _assert_rel(fn(X3)[1], fn(X)[::-1])
            assert np.ndim(sys_.q(X[0])) == 0

        check()

    def test_hj_residual_and_lift_equal_single_state_loop(self, name):
        build, pts = SYSTEMS[name]
        sys_ = build()
        ham = hamiltonian_vector_field(sys_)
        n = sys_.n
        B = linearize(sys_).B
        P = B @ B.T + np.eye(n)

        def V_grad(X):
            return np.asarray(X) @ P.T + 0.1 * np.asarray(X) ** 3

        @SETTINGS
        @given(pts, st.floats(-2.0, 2.0))
        def check(X, scale):
            res = hj_residual(sys_, V_grad, X)
            _assert_rel(res, [hj_residual(sys_, V_grad, x) for x in X])
            assert isinstance(hj_residual(sys_, V_grad, X[0]), float)
            Z = np.concatenate([X, scale * X[:, ::-1]], axis=1)
            _assert_rel(ham.F(Z), _rowwise(ham.F, Z))
            Fn = lambda W: ham.F(W) - W @ ham.H0.T  # noqa: E731
            _assert_rel(Fn(Z), _rowwise(Fn, Z))

        check()


class TestLiftGradient:
    @pytest.mark.parametrize("name", ["pendulum", "user"])
    def test_product_rule_matches_central_differences(self, name):
        """The momentum equation's d(p^T R p)/dx from jacobian_g equals a
        central difference of p^T R(x) p."""
        build, pts = SYSTEMS[name]
        sys_ = build()
        ham = hamiltonian_vector_field(sys_)
        n = sys_.n

        @SETTINGS
        @given(pts, arrays(np.float64, (n,), elements=st.floats(-3.0, 3.0, width=64)))
        def check(X, p):
            for x in X:
                fd = _fd_jacobian(lambda y: float(p @ sys_.R(y) @ p), x)[0]
                want = (
                    -sys_.jacobian_f(x).T @ p + 0.5 * fd - sys_.grad_q(x)
                )
                got = ham.F(np.concatenate([x, p]))[n:]
                np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

        check()

    def test_pendulum_jacobian_g_matches_central_differences(self):
        sys_ = builtin_pendulum(9.81)

        @SETTINGS
        @given(_theta_box())
        def check(X):
            for x in X:
                fd = _fd_jacobian(lambda y: sys_.g(y).ravel(), x).reshape(3, 1, 3)
                np.testing.assert_allclose(sys_.jacobian_g(x), fd, rtol=1e-6, atol=1e-8)

        check()

    def test_lift_takes_no_finite_differences(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("finite-difference gradient called")

        ham = hamiltonian_vector_field(builtin_pendulum(9.81))
        monkeypatch.setattr(systems, "_fd_jacobian", forbidden)
        Z = np.random.default_rng(0).uniform(-1, 1, size=(5, 6))
        assert np.all(np.isfinite(ham.F(Z)))


class TestBasisTables:
    @SETTINGS
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.tuples(
                st.just(n),
                arrays(np.int64, st.tuples(st.integers(1, 8), st.just(n)),
                       elements=st.integers(0, 5)),
                arrays(np.float64, st.tuples(st.integers(1, 5), st.just(n)),
                       elements=st.floats(-1.5, 1.5, width=64)),
            )
        )
    )
    def test_eval_and_jacobian_match_direct_monomials(self, case):
        n, expo, Z = case
        basis = BasisSet(expo)
        direct = np.prod(Z[:, None, :] ** expo, axis=-1)
        _assert_rel(basis.eval(Z), direct)
        # d(x^a)/dx_j = a_j x^(a - e_j), written with the float power
        want = np.zeros(Z.shape[:1] + expo.shape)
        for j in range(n):
            dec = expo.copy()
            dec[:, j] = np.maximum(dec[:, j] - 1, 0)
            want[:, :, j] = expo[:, j] * np.prod(Z[:, None, :] ** dec, axis=-1)
        _assert_rel(basis.jacobian(Z), want)
        for k in range(Z.shape[0]):
            np.testing.assert_array_equal(basis.eval(Z[k]), basis.eval(Z)[k])
            np.testing.assert_array_equal(basis.jacobian(Z[k]), basis.jacobian(Z)[k])

    @SETTINGS
    @given(_points(4, max_rows=4))
    def test_procedure2_tables_match_finite_differences(self, Z):
        b = procedure2_basis(2, 4, 3)
        h = 1e-6
        fd = np.zeros(Z.shape[:1] + (b.M, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[:, :, j] = (b.eval(Z + e) - b.eval(Z - e)) / (2 * h)
        np.testing.assert_allclose(b.jacobian(Z), fd, rtol=0, atol=5e-9)


@pytest.fixture(scope="module")
def fitted():
    sys1 = builtin_example1(0.5)
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    eig = approximate_eigenfunction_set(
        sys1.f, linearize(sys1).A, monomial_basis(2, 2, 3), sample_domain(box, 2000, 3)
    )
    sol1 = procedure1_solve(sys1, eig)
    sys2 = builtin_example1(1.0)
    phase = default_phase_box(sys2, 0.4 * box, margin=1.0)
    sol2 = procedure2_solve(sys2, procedure2_basis(2, 3, 2), sample_domain(phase, 1500, 4))
    return sol1, sol2


class TestBatchedSolutions:
    @SETTINGS
    @given(_points(2, -0.4, 0.4))
    def test_batched_solution_maps_equal_single_state_calls(self, fitted, X):
        sol1, sol2 = fitted
        _assert_rel(sol1.control(X), _rowwise(sol1.control, X))
        _assert_rel(sol2.p_star(X), _rowwise(sol2.p_star, X))
        _assert_rel(sol2.control(X), _rowwise(sol2.control, X))
        _assert_rel(nonlinear_manifold(sol2.eigs, X),
                    _rowwise(lambda x: nonlinear_manifold(sol2.eigs, x), X))
        assert sol1.control(X[0]).shape == (1,)
        assert sol2.p_star(X[0]).shape == (2,)

    @SETTINGS
    @given(_points(2, -0.4, 0.4))
    def test_grad_value_equals_separate_basis_passes(self, fitted, X):
        """One basis power table for Phi and its jacobian gives the value
        gradient of two separate passes contracted by einsum."""
        sol1 = fitted[0]
        eig = sol1.eig
        for Y in (X, X[0]):
            Phi, jac = eig.Phi_jac(Y)
            _assert_rel(Phi, eig.Phi(Y))
            jac_alone = eig.Vt + eig.Theta @ eig.basis.jacobian(Y)
            _assert_rel(jac, jac_alone)
            want = np.einsum("...ij,...i->...j", jac_alone, eig.Phi(Y) @ sol1.L.T)
            _assert_rel(sol1.grad_value(Y), want)


# ----------------------------------------------------------------------
# Eigenfunction sets as data and the one zero-level solve, on example 1
# and the scalar cubic
# ----------------------------------------------------------------------

def _scalar_cubic():
    return polynomial_system([[(-1.0, (1,)), (1.0, (3,))]], [[1.0]], [[1.0]], [[1.0]])


ROUTE2_CASES = {
    "example1": (lambda: builtin_example1(1.0), [[-0.4, 0.4]] * 2, (3, 2), 1500, 4),
    "cubic": (_scalar_cubic, [[-0.35, 0.35]], (7, 5), 3000, 2),
}


@pytest.fixture(scope="module", params=sorted(ROUTE2_CASES))
def route2(request):
    make_sys, x_box, (d1, d2), L, seed = ROUTE2_CASES[request.param]
    sys_ = make_sys()
    phase = default_phase_box(sys_, x_box, margin=1.0)
    sol = procedure2_solve(sys_, procedure2_basis(sys_.n, d1, d2), sample_domain(phase, L, seed))
    return sol, np.asarray(x_box, dtype=float)


def _in_box(box):
    """Batches of 1..6 states inside ``box`` (rows [lo, hi])."""
    n = len(box)
    return _points(n, 0.0, 1.0).map(lambda U: box[:, 0] + U * (box[:, 1] - box[:, 0]))


class TestZeroLevelSolve:
    def test_p_star_is_on_the_zero_level_set(self, route2):
        sol, box = route2
        eigs = sol.eigs

        @SETTINGS
        @given(_in_box(box))
        def check(X):
            Z = np.concatenate([X, sol.p_star(X)], axis=-1)
            # scale: the largest term of Psi_u = Vt z + Theta Gamma(z)
            scale = np.max(np.abs(Z) @ np.abs(eigs.Vt).T
                           + np.abs(eigs.basis.eval(Z)) @ np.abs(eigs.Theta).T)
            assert np.max(np.abs(eigs.Phi(Z))) <= 1e-12 * scale

        check()

    def test_p_star_equals_the_two_step_form(self, route2):
        """``-G2^{-1}(Wu1 x + U11 Xi1)`` equals ``Jl_raw x - G2^{-1} G1``,
        ``G1 = U11 Xi1 + U12 Xi2 Jl_raw x``."""
        sol, box = route2
        eigs = sol.eigs
        Jl_raw = linear_manifold(eigs)

        @SETTINGS
        @given(_in_box(box))
        def check(X):
            C = eigs.U12 @ eigs.basis.xi2(X)
            G1 = eigs.basis.xi1(X) @ eigs.U11.T + (C @ (X @ Jl_raw.T)[..., None])[..., 0]
            p_n = -np.linalg.solve(eigs.Wu2_t + C, G1[..., None])[..., 0]
            _assert_rel(sol.p_star(X), X @ Jl_raw.T + p_n, rel=1e-12)

        check()


class TestComplementarityMessage:
    @SETTINGS
    @given(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
    def test_riccati_and_route2_raise_the_same_failure(self, a, q):
        """Without control authority (``g = 0``) the momentum block of the
        unstable rows vanishes: the state Riccati solve and the route-2
        solve fail with one message."""
        sys_ = polynomial_system([[(a, (1,))]], [[0.0]], [[1.0]], [[q]])
        with pytest.raises(RuntimeError, match="complementarity") as riccati:
            solve_riccati([[a]], [[0.0]], [[q]])
        samples = sample_domain(np.array([[-1.0, 1.0], [-1.0, 1.0]]), 300, 0)
        with pytest.raises(RuntimeError, match="complementarity") as route2:
            procedure2_solve(sys_, procedure2_basis(1, 2, 2), samples)
        assert str(riccati.value) == str(route2.value)


class TestEigenfunctionSetsAsData:
    @pytest.mark.parametrize("make_sys", [lambda: builtin_example1(1.0), _scalar_cubic],
                             ids=["example1", "cubic"])
    def test_linear_set_is_Vt_x(self, make_sys):
        sys_ = make_sys()
        n = sys_.n
        eig = linear_eigenfunction_set(linearize(sys_).A, [[-6.0, 6.0]] * n)

        @SETTINGS
        @given(_points(n, -6.0, 6.0))
        def check(X):
            for Y in (X, X[0]):
                Phi, jac = eig.Phi_jac(Y)
                _assert_rel(eig.Phi(Y), Y @ eig.Vt.T, rel=1e-14)
                _assert_rel(Phi, Y @ eig.Vt.T, rel=1e-14)
                _assert_rel(jac, np.broadcast_to(eig.Vt, Y.shape[:-1] + (n, n)), rel=1e-14)

        check()

    @SETTINGS
    @given(_points(2, -6.0, 6.0))
    def test_example1_set_is_the_closed_form(self, X):
        eig = example1_eigenfunction_set(box=((-6.0, 6.0),) * 2)
        for Y in (X, X[0]):
            x1, x2 = Y[..., 0], Y[..., 1]
            want = np.stack([x1 - 2.0 * x2, x1 + np.sin(x2)], axis=-1)
            want_jac = np.zeros(Y.shape[:-1] + (2, 2))
            want_jac[..., 0, :] = [1.0, -2.0]
            want_jac[..., 1, 0] = 1.0
            want_jac[..., 1, 1] = np.cos(x2)
            Phi, jac = eig.Phi_jac(Y)
            _assert_rel(eig.Phi(Y), want, rel=1e-14)
            _assert_rel(Phi, want, rel=1e-14)
            _assert_rel(jac, want_jac, rel=1e-14)

    @pytest.mark.parametrize("make_sys", [lambda: builtin_example1(1.0), _scalar_cubic],
                             ids=["example1", "cubic"])
    def test_route1_on_a_linear_set_is_lqr(self, make_sys):
        """The linear set goes through the collapsed gradient, and its
        feedback is the LQR law ``u = -D^{-1} B^T P x``."""
        sys_ = make_sys()
        lin = linearize(sys_)
        sol = procedure1_solve(sys_, linear_eigenfunction_set(lin.A, [[-1.0, 1.0]] * sys_.n))
        assert sol.grad_poly is not None
        K = np.linalg.solve(lin.D, lin.B.T @ solve_riccati(lin.A, lin.R0, lin.Q0).P)

        @SETTINGS
        @given(_points(sys_.n))
        def check(X):
            for Y in (X, X[0]):
                _assert_rel(sol.control(Y), -(Y @ K.T), rel=1e-12)

        check()


class TestSingularPointInBatch:
    def test_manifold_names_the_singular_point(self):
        basis = procedure2_basis(1, 2, 2)
        U = np.zeros((1, basis.M))
        U[0, basis.N] = -2.0  # G2(x) = 1 - 2x vanishes at x = 0.5
        eigs = UnstableEigenfunctions(
            Lambda=np.array([[1.0]]), Vt=np.array([[0.0, 1.0]]), Theta=U, basis=basis,
            box=np.array([[-1.0, 1.0], [-1.0, 1.0]]), blocks=((0, 1),),
            block_residuals=np.zeros(1), heldout_residuals=np.zeros(1), cond_J=np.ones(1),
        )
        X = np.array([[0.1], [-0.3], [0.5], [0.2]])
        with pytest.raises(RuntimeError, match=r"G2 singular at x=\[0.5\]"):
            nonlinear_manifold(eigs, X)

    def test_pendulum_names_the_singular_angle(self, monkeypatch):
        """With an inertia that makes the mass matrix singular where
        cos(theta - pi)^2 = 1/2, a batch through theta = 3 pi / 4 fails
        there and names it."""
        ml2 = (systems._PEND_m * systems._PEND_l) ** 2
        inertia = ml2 / (2 * (systems._PEND_M + systems._PEND_m)) - (
            systems._PEND_m * systems._PEND_l ** 2
        )
        monkeypatch.setattr(systems, "_PEND_I", inertia)
        sys_ = builtin_pendulum(9.81)
        X = np.array([[0.1, 0.0, 0.0], [3 * np.pi / 4, 1.0, 0.0], [0.2, 0.0, 0.0]])
        for attr in ("f", "g", "jacobian_f", "jacobian_g"):
            with pytest.raises(RuntimeError, match=r"singular at theta=2\.35619"):
                getattr(sys_, attr)(X)
        sys_.f(X[[0, 2]])  # the regular rows alone evaluate


# ----------------------------------------------------------------------
# Rollouts: rows of one batch against each row alone, truncated rollouts
# against the free rollout
# ----------------------------------------------------------------------

def _labelled_field(X):
    """``x1' = x2 x1^2 - x1``, ``x2' = 0``: the constant ``x2`` labels a
    row, and a row with ``x2 x1(0) > 1`` blows up in finite time."""
    X = np.asarray(X, dtype=float)
    return np.stack([X[..., 1] * X[..., 0] ** 2 - X[..., 0], 0.0 * X[..., 1]], axis=-1), None


def _labelled_system():
    """The labelled field with an input on ``x1``."""
    return control_affine_system(
        2, 1,
        f=lambda x: _labelled_field(x)[0],
        g=lambda x: np.array([[1.0], [0.0]]),
        D=np.array([[1.0]]),
        q=lambda x: 0.5 * float(x @ x),
    )


class TestRolloutTruncation:
    DT, T = 1e-2, 2.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.5, 1.0), min_size=2, max_size=5),
        st.lists(st.floats(-0.5, 5.0), min_size=5, max_size=5),
        st.sampled_from(["finite", "box"]),
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_in_a_batch_stops_as_it_stops_alone(self, x1s, labels, stop):
        """Rows that blow up (non-finite) or leave a box stop at the step
        they stop at alone, with the same states; the other rows run on."""
        X0 = np.array([[x1, label] for x1, label in zip(x1s, labels)])
        K = int(round(self.T / self.DT))
        kw = {} if stop == "finite" else {"admissible": lambda X: np.abs(X[..., 0]) <= 1.5}
        batch = _rk4(_labelled_field, X0, self.DT, K, **kw)
        assert batch.error is None and batch.kept.shape == (len(X0),)
        for i, x0 in enumerate(X0):
            alone = _rk4(_labelled_field, x0, self.DT, K, **kw)
            kept = int(alone.kept)
            assert int(batch.kept[i]) == kept
            _assert_rel(batch.states[: kept + 1, i], alone.states[: kept + 1], rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raising_step_stops_every_row_still_going(self):
        def field(X):
            if (X[..., 0] < 0.5).any():
                raise RuntimeError("no value below 0.5")
            return _labelled_field(X)

        X0 = np.array([[1.0, 0.0], [0.8, 0.0], [2.0, 5.0]])  # row 2 blows up first
        run = _rk4(field, X0, self.DT, 200)
        assert isinstance(run.error, RuntimeError)
        assert run.kept[2] < run.kept[0] == run.kept[1] < 200
        free = _rk4(_labelled_field, X0[:2], self.DT, 200)
        k = int(run.kept[0])
        np.testing.assert_array_equal(run.states[: k + 1, :2], free.states[: k + 1])

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.5, 1.0), st.floats(-0.5, 0.5), st.floats(0.2, 0.95),
           st.sampled_from(["raise", "raise_at_last_node"]))
    def test_truncated_rollout_is_a_prefix_of_the_free_rollout(self, x1, label, frac, mode):
        """A controller that raises at a chosen time (or at the last node)
        truncates the free rollout there: same states, inputs and costs up
        to the failure node, ``t_fail`` and diagnostic at that node, and a
        last trapezoid of ``dt`` times the previous node's cost."""
        sys_ = _labelled_system()
        x0 = np.array([x1, label])
        free = closed_loop(sys_, lambda x: -0.5 * x[:1], x0, dt=self.DT, T=self.T)
        assert not free.diverged
        last = free.states[-1]

        def ctrl(x):
            refused = (x == last).all() if mode == "raise_at_last_node" else x[0] < frac * x1
            if refused:
                raise RuntimeError("no input")
            return -0.5 * x[:1]

        got = closed_loop(sys_, ctrl, x0, dt=self.DT, T=self.T)
        k = got.times.size - 1
        assert 0 < k <= free.times.size - 1
        if mode == "raise_at_last_node":
            assert k == free.times.size - 1
        assert got.diverged and not got.converged and got.final_input is None
        assert got.t_fail == k * self.DT
        assert got.diagnostic == f"controller failed at t={k * self.DT:.6g}: no input"
        np.testing.assert_array_equal(got.states, free.states[: k + 1])
        np.testing.assert_array_equal(got.inputs, free.inputs[:k])
        np.testing.assert_array_equal(got.cumulative_costs[:k], free.cumulative_costs[:k])
        x, u = free.states[k - 1], free.inputs[k - 1]
        previous = 0.5 * float(x @ x) + 0.5 * float(u @ u)
        assert got.cumulative_costs[k] - got.cumulative_costs[k - 1] == pytest.approx(
            self.DT * previous, rel=1e-12)


STREAM_LENGTHS = st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
SEEDS = st.integers(0, 2**64 - 1)


@st.composite
def _boxes(draw):
    """Boxes of 1..4 coordinates with lo < hi."""
    dim = draw(st.integers(1, 4))
    lo = draw(arrays(np.float64, dim, elements=st.floats(-5.0, 5.0)))
    width = draw(arrays(np.float64, dim, elements=st.floats(0.01, 10.0)))
    return np.column_stack([lo, lo + width])


def _fitted_residual_case(name):
    """A field, dictionary, ``(S, W, Theta)`` blocks and box from a small fit."""
    if name == "lift":
        sys_ = builtin_example1(1.0)
        ham = hamiltonian_vector_field(sys_)
        box = default_phase_box(sys_, 0.4 * np.array([[-1.0, 1.0], [-1.0, 1.0]]), margin=1.0)
        basis = procedure2_basis(2, 3, 2)
        eigs = unstable_eigfns(ham, basis, sample_domain(box, 1500, 4))
        blocks = [(eigs.Lambda[o : o + r, o : o + r], eigs.Vt[o : o + r], eigs.Theta[o : o + r])
                  for o, r in eigs.blocks]
        return ham.F, basis, blocks, box
    if name == "example1":
        sys_, box, basis = builtin_example1(), np.array([[-1.0, 1.0]] * 2), monomial_basis(2, 2, 3)
    else:
        sys_ = builtin_pendulum(9.81)
        box, basis = np.array([[-3.0, 3.0], [-5.0, 5.0], [-5.0, 5.0]]), monomial_basis(3, 2, 2)
    eig = approximate_eigenfunction_set(
        sys_.f, linearize(sys_).A, basis, sample_domain(box, 3000, 1)
    )
    blocks = [(eig.Lambda[o : o + r, o : o + r], eig.Vt[o : o + r], eig.Theta[o : o + r])
              for o, r in eig.blocks]
    return sys_.f, basis, blocks, box


class TestStreamedSamples:
    """Sample passes stream CHUNK rows at a time and give the results of
    the materialized set, bit for bit."""

    @SETTINGS
    @given(_boxes(), STREAM_LENGTHS, SEEDS)
    def test_chunked_draw_equals_sample_domain(self, box, L, seed):
        chunks = list(SampleStream(box, L, seed).chunks())
        assert [len(c) for c in chunks[:-1]] == [CHUNK] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= CHUNK
        assert np.array_equal(np.concatenate(chunks), sample_domain(box, L, seed).points)

    @SETTINGS
    @given(_boxes(), STREAM_LENGTHS, SEEDS, st.sampled_from([1, 7, CHUNK, 4 * CHUNK]),
           st.sampled_from([1.0, 1e-3, 1e6]))
    def test_draw_equals_generator_uniform(self, box, L, seed, rows, scale):
        """``lo + (hi - lo) * random()`` gives the bits of ``Generator.uniform``
        on the same stream, block by block."""
        box = scale * box
        rng = np.random.default_rng(seed)
        blocks = list(_draw(box, L, seed, rows))
        assert sum(map(len, blocks)) == L
        for got in blocks:
            want = rng.uniform(box[:, 0], box[:, 1], size=got.shape)
            assert np.array_equal(got, want)

    @settings(max_examples=5, deadline=None)
    @given(SEEDS)
    def test_streamed_fit_equals_the_materialized_fit(self, seed):
        E = linearize(builtin_example1()).A
        dec = real_spectral_decomposition(E)
        blocks = [(dec.Lambda[o : o + r, o : o + r], dec.Vt[o : o + r]) for o, r in dec.blocks]
        basis = monomial_basis(2, 2, 3)
        box, L = np.array([[-1.0, 1.0], [-1.0, 1.0]]), 5 * CHUNK + 3
        f = builtin_example1().f
        rows = []

        def field(X):
            rows.append(len(X))
            return f(X)

        streamed, conds = fit_blocks(field, E, basis, blocks, SampleStream(box, L, seed))
        assert max(rows) == CHUNK and sum(rows) == L
        want, want_conds = fit_blocks(f, E, basis, blocks, sample_domain(box, L, seed))
        assert all(np.array_equal(a, b) for a, b in zip(streamed, want))
        assert np.array_equal(conds, want_conds)

    @pytest.mark.parametrize("name", ["example1", "lift", "pendulum"])
    def test_per_chunk_residual_equals_one_field_call(self, name):
        F, basis, blocks, box = _fitted_residual_case(name)

        @SETTINGS
        @given(STREAM_LENGTHS, SEEDS)
        def check(L, seed):
            pts = sample_domain(box, L, seed).points
            assert np.array_equal(
                _residual_pass(F, basis, blocks, pts), _residual_pass(F(pts), basis, blocks, pts)
            )

        check()
