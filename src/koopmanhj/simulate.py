"""Fixed-step rollouts, accumulated cost, the LQR baseline, and comparisons.

Everything here is deliberately deterministic: classical RK4 with a fixed
step, the feedback evaluated at every stage point, and the running cost
``integral of q(x) + 0.5 u^T D u`` accumulated by the trapezoid rule on the
step grid.  Identical inputs produce identical output bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .spectral import solve_riccati
from .systems import ControlAffineSystem, Linearization

__all__ = [
    "CONVERGENCE_THRESHOLD",
    "Trajectory",
    "ComparisonRow",
    "integrate_rk4",
    "closed_loop",
    "lqr_controller",
    "linear_controller",
    "compare_controllers",
    "pendulum_ic_cloud",
    "write_trajectory_csv",
    "write_comparison_csv",
]

CONVERGENCE_THRESHOLD = 1e-3  # |x(T)|_2 at the final retained node

_Field = Callable[[np.ndarray], Tuple[np.ndarray, Optional[np.ndarray]]]


@dataclass(frozen=True)
class Trajectory:
    """One rollout on a uniform time grid.

    ``states`` has one more row than ``inputs``: inputs are the feedback
    values at the step start nodes, ``final_input`` the evaluation at the
    last node (used only for the trapezoid cost and CSV export).
    ``converged`` means the rollout ran to completion and
    ``|x(T)|_2 <= 1e-3``; a truncated rollout (non-finite state or a
    controller failure, see ``diverged``/``diagnostic``) never converges.

    ``cumulative_costs`` is the trapezoid rule over the node costs
    ``q(x_k) + 0.5 u_k^T D u_k``.  When the rollout stops because
    ``x_{k+1}`` is not finite, node ``k`` keeps its own cost (with the
    stage-1 feedback at ``x_k``).  When the controller raises, while
    stepping from ``x_k`` or at the final node, that node has no feedback
    and costs what the node before it cost (0 for the first node).
    """

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, n)
    inputs: np.ndarray  # (K, p)
    running_cost: float
    converged: bool
    diverged: bool = False
    diagnostic: Optional[str] = None
    t_fail: Optional[float] = None
    cumulative_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    final_input: Optional[np.ndarray] = None


def _steps(dt: float, T: float) -> int:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if T < dt:
        raise ValueError(f"T must be at least dt, got T={T}, dt={dt}")
    return int(round(T / dt))


def _finite_rows(x: np.ndarray) -> np.ndarray:
    return np.isfinite(x).all(axis=-1)


def _rk4_step(
    field: _Field, x: np.ndarray, dt: float
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One classical RK4 step from ``x``: ``x_{k+1}`` and the stage-1 feedback."""
    k1, u = field(x)
    k2, _ = field(x + 0.5 * dt * k1)
    k3, _ = field(x + 0.5 * dt * k2)
    k4, _ = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), u


@dataclass(frozen=True)
class _Rollout:
    """Raw output of :func:`_rk4`.

    ``kept`` (shape ``x0.shape[:-1]``: 0-d for one state, ``(B,)`` for rows)
    counts the steps of each row: ``K``, or the step ``k`` at which the row
    stopped because ``x_{k+1}`` was not admissible or because the step
    raised ``error``.  ``states`` (``(K+1,) + x0.shape``) holds each row up
    to index ``kept``; ``inputs`` its stage-1 feedback up to ``kept``
    inclusive when it stopped as inadmissible, up to ``kept - 1`` otherwise.
    """

    states: np.ndarray
    inputs: Optional[np.ndarray]
    kept: np.ndarray
    error: Optional[Exception]


def _rk4(
    field: _Field,
    x0: np.ndarray,
    dt: float,
    K: int,
    p: int = 0,
    admissible: Callable[[np.ndarray], np.ndarray] = _finite_rows,
) -> _Rollout:
    """The one RK4 loop: ``K`` fixed steps of one state ``(n,)`` or of rows ``(B, n)``.

    ``field(x)`` returns ``(xdot, u)`` for states of the shape of ``x``, where
    ``u`` (``(..., p)``; ``None`` when ``p == 0``) is the feedback at ``x``;
    the kernel keeps the stage-1 value.  Each step tests ``admissible`` once,
    on ``x_{k+1}`` (by default: every coordinate finite, which also catches a
    non-finite stage derivative).  A row whose ``x_{k+1}`` is not admissible
    stops there and the other rows go on; a stopped row is held at its last
    state.  A step that raises stops every row still going.
    """
    x = np.array(x0, dtype=float)
    states = np.empty((K + 1,) + x.shape)
    states[0] = x
    inputs = np.empty((K,) + x.shape[:-1] + (p,)) if p else None
    kept = np.full(x.shape[:-1], K)
    going = np.ones(x.shape[:-1], dtype=bool)
    error: Optional[Exception] = None
    for k in range(K):
        try:
            xn, u = _rk4_step(field, x, dt)
        except Exception as exc:  # noqa: BLE001 — truncation is the contract
            kept[going] = k
            error = exc
            break
        if p:
            inputs[k] = u
        ok = admissible(xn)
        if not ok.all():
            kept[going & ~ok] = k
            going &= ok
            if not going.any():
                break
            xn = np.where(going[..., None], xn, x)
        states[k + 1] = x = xn
    return _Rollout(states=states, inputs=inputs, kept=kept, error=error)


def integrate_rk4(
    field: Callable[[np.ndarray], np.ndarray],
    x0: npt.ArrayLike,
    dt: float,
    T: float,
) -> Trajectory:
    """Classical 4th-order Runge-Kutta on an autonomous field, fixed step.

    A non-finite state truncates the rollout, flags it ``diverged``, and
    records the failure time.  An exception raised by ``field`` propagates.
    No inputs and no cost for a bare field.
    """
    K = _steps(dt, T)

    def bare(x: np.ndarray) -> Tuple[np.ndarray, None]:
        v = field(x)
        return (v if type(v) is np.ndarray else np.asarray(v, dtype=float)), None

    run = _rk4(bare, np.asarray(x0, dtype=float).ravel(), dt, K)
    if run.error is not None:
        raise run.error
    kept = int(run.kept)
    states = run.states[: kept + 1]
    diverged = kept < K
    converged = (not diverged) and float(np.linalg.norm(states[-1])) <= CONVERGENCE_THRESHOLD
    return Trajectory(
        times=np.arange(kept + 1) * dt,
        states=states,
        inputs=np.zeros((kept, 0)),
        running_cost=0.0,
        converged=converged,
        diverged=diverged,
        diagnostic="diverged" if diverged else None,
        t_fail=(kept + 1) * dt if diverged else None,
        cumulative_costs=np.zeros(kept + 1),
        final_input=np.zeros(0),
    )


def closed_loop(
    sys: ControlAffineSystem,
    controller: Callable[[np.ndarray], np.ndarray],
    x0: npt.ArrayLike,
    dt: float = 1e-3,
    T: float = 20.0,
) -> Trajectory:
    """Roll out ``xdot = f(x) + g(x) u`` with ``u = controller(x)``.

    The feedback is evaluated at every RK4 stage point.  Running cost is
    the trapezoid rule over the node values ``q(x_k) + 0.5 u_k^T D u_k``
    (node input = feedback at the node).  A controller exception or a
    non-finite state truncates the rollout with a diagnostic.
    """
    K = _steps(dt, T)
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != sys.n:
        raise ValueError(f"x0 has dimension {x.size}, system has n={sys.n}")
    f, g, p = sys.f, sys.g, sys.p

    def control(xs: np.ndarray) -> np.ndarray:
        u = controller(xs)
        if type(u) is not np.ndarray or u.shape != (p,):
            u = np.asarray(u, dtype=float).ravel()
        return u

    def field(xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        u = control(xs)
        return f(xs) + g(xs) @ u, u

    run = _rk4(field, x, dt, K, p=p)
    kept = int(run.kept)
    states = run.states[: kept + 1]
    nodes = np.full((kept + 1, p), np.nan)  # the feedback at each kept node
    nodes[:kept] = run.inputs[:kept]
    raised, final_input = run.error, None
    if kept == K:
        try:
            final_input = np.asarray(control(states[K]), dtype=float)
        except Exception as exc:  # noqa: BLE001
            raised = exc
    diagnostic: Optional[str] = None
    t_fail: Optional[float] = None
    if raised is not None:
        diagnostic, t_fail = f"controller failed at t={kept * dt:.6g}: {raised}", kept * dt
    elif kept < K:  # x_{k+1} not finite: node k keeps its stage-1 feedback
        nodes[kept] = run.inputs[kept]
        diagnostic, t_fail = "diverged", (kept + 1) * dt
    else:
        nodes[K] = final_input
    node_costs = sys.q(states) + 0.5 * ((nodes @ sys.D) * nodes).sum(axis=-1)
    if raised is not None:
        # no feedback at the last kept node: it costs what the node before it cost
        node_costs[kept] = node_costs[kept - 1] if kept > 0 else 0.0
    cumulative = np.zeros(kept + 1)
    if kept > 0:
        cumulative[1:] = np.cumsum(0.5 * dt * (node_costs[:-1] + node_costs[1:]))
    diverged = diagnostic is not None
    converged = (
        not diverged and float(np.linalg.norm(states[-1])) <= CONVERGENCE_THRESHOLD
    )
    return Trajectory(
        times=np.arange(kept + 1) * dt,
        states=states,
        inputs=run.inputs[:kept],
        running_cost=float(cumulative[-1]),
        converged=converged,
        diverged=diverged,
        diagnostic=diagnostic,
        t_fail=t_fail,
        cumulative_costs=cumulative,
        final_input=final_input,
    )


def lqr_controller(lin: Linearization) -> Tuple[np.ndarray, np.ndarray]:
    """Gain and cost matrix of the infinite-horizon regulator.

    ``P_r`` solves the Riccati equation for ``(A, R0, Q0)``;
    ``K = D^{-1} B^T P_r`` and the feedback is ``u = -K x``.
    """
    P_r = solve_riccati(lin.A, lin.R0, lin.Q0).P
    K = np.linalg.solve(lin.D, lin.B.T @ P_r)
    return K, P_r


def linear_controller(K: npt.ArrayLike) -> Callable[[np.ndarray], np.ndarray]:
    """Feedback ``u = -K x`` as a rollout-ready callable."""
    K = np.asarray(K, dtype=float)
    if K.ndim == 1:
        K = K.reshape(1, -1)
    return lambda x: -K @ np.asarray(x, dtype=float).ravel()


@dataclass(frozen=True)
class ComparisonRow:
    """One (controller, initial condition) cell of a comparison table."""

    controller: str
    ic_index: int
    x0: np.ndarray
    converged: bool
    diverged: bool
    running_cost: float
    max_abs_state: float
    diagnostic: str


def compare_controllers(
    sys: ControlAffineSystem,
    controllers: Sequence[Tuple[str, Callable[[np.ndarray], np.ndarray]]],
    x0_list: Sequence[npt.ArrayLike],
    dt: float = 1e-3,
    T: float = 20.0,
    on_trajectory: Optional[Callable[[str, int, Trajectory], None]] = None,
) -> List[ComparisonRow]:
    """Roll out every controller from every initial condition.

    Failures stay in their own cell as diagnostics; the table always has one
    row per (controller, x0) pair, in input order.  ``on_trajectory`` (if
    given) receives each completed rollout as ``(name, ic_index, traj)``.
    """
    rows: List[ComparisonRow] = []
    for name, ctrl in controllers:
        for i, x0 in enumerate(x0_list):
            x0a = np.asarray(x0, dtype=float).ravel()
            try:
                traj = closed_loop(sys, ctrl, x0a, dt=dt, T=T)
                if on_trajectory is not None:
                    on_trajectory(name, i, traj)
                rows.append(
                    ComparisonRow(
                        controller=name,
                        ic_index=i,
                        x0=x0a,
                        converged=traj.converged,
                        diverged=traj.diverged,
                        running_cost=traj.running_cost,
                        max_abs_state=float(np.max(np.abs(traj.states))),
                        diagnostic=traj.diagnostic or "",
                    )
                )
            except Exception as exc:  # noqa: BLE001 — table must not abort
                rows.append(
                    ComparisonRow(
                        controller=name,
                        ic_index=i,
                        x0=x0a,
                        converged=False,
                        diverged=True,
                        running_cost=float("nan"),
                        max_abs_state=float("nan"),
                        diagnostic=f"rollout failed: {exc}",
                    )
                )
    return rows


def pendulum_ic_cloud(
    center: npt.ArrayLike = (0.7, -4.2, 6.2),
    count: int = 10,
    seed: Optional[int] = None,
    rel_width: float = 0.1,
) -> np.ndarray:
    """Initial conditions i.i.d. uniform in a relative box around a center.

    Each coordinate ranges over ``center_i +- rel_width * |center_i|``;
    seed-controlled for reproducible experiment clouds.
    """
    center = np.asarray(center, dtype=float).ravel()
    half = rel_width * np.abs(center)
    rng = np.random.default_rng(seed)
    return center + rng.uniform(-1.0, 1.0, size=(count, center.size)) * half


def _fmt(x: float) -> str:
    """A number with 17 significant digits: every float round-trips exactly."""
    return f"{float(x):.17g}"


_CSV_CHUNK = 512  # rows formatted per write; bounds the memory of a file's text


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, x1..xn, u1..up, cumulative_cost; 17 significant digits.

    The bytes are those of ``csv.writer`` with the default dialect (comma
    separated, ``\\r\\n`` line ends; a missing value is an empty cell): every
    row holds numbers only, so no cell needs quoting.  Rows are formatted
    ``_CSV_CHUNK`` at a time with one ``%.17g`` row format.
    """
    n = traj.states.shape[1]
    p = traj.inputs.shape[1]
    Kp1 = traj.times.size
    K_in = traj.inputs.shape[0]
    has_cost = traj.cumulative_costs.size > 0
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(p)]
        + ["cumulative_cost"]
    )
    # rows up to K_in carry their input; the rest the final input if known
    tail_u = traj.final_input is not None and traj.final_input.size == p
    blocks = [(0, min(K_in, Kp1), traj.inputs, True), (K_in, Kp1, None, tail_u)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo, hi, U, with_u in blocks:
            cells = ["%.17g"] * (1 + n) + (["%.17g"] if with_u else [""]) * p
            cells += ["%.17g"] if has_cost else [""]
            row_format = ",".join(cells) + "\r\n"
            for start in range(lo, hi, _CSV_CHUNK):
                stop = min(start + _CSV_CHUNK, hi)
                cols = [traj.times[start:stop, None], traj.states[start:stop]]
                if with_u and p:
                    cols.append(
                        U[start:stop] if U is not None
                        else np.broadcast_to(traj.final_input, (stop - start, p))
                    )
                if has_cost:
                    cols.append(traj.cumulative_costs[start:stop, None])
                values = np.concatenate(cols, axis=1)
                fh.write((row_format * (stop - start)) % tuple(values.ravel().tolist()))


def write_comparison_csv(rows: Sequence[ComparisonRow], path: str) -> None:
    """One row per (controller, initial condition), input order preserved."""
    n = rows[0].x0.size if rows else 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["controller", "ic_index"]
            + [f"x0_{i + 1}" for i in range(n)]
            + ["converged", "diverged", "running_cost", "max_abs_state", "diagnostic"]
        )
        for r in rows:
            w.writerow(
                [r.controller, str(r.ic_index)]
                + [_fmt(v) for v in r.x0]
                + [
                    str(r.converged),
                    str(r.diverged),
                    _fmt(r.running_cost),
                    _fmt(r.max_abs_state),
                    r.diagnostic,
                ]
            )
