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


@dataclass(frozen=True)
class Trajectory:
    """One rollout on a uniform time grid.

    ``states`` has one more row than ``inputs``: inputs are the feedback
    values at the step start nodes, ``final_input`` the evaluation at the
    last node (used only for the trapezoid cost and CSV export).
    ``converged`` means the rollout ran to completion and
    ``|x(T)|_2 <= 1e-3``; a truncated rollout (non-finite state or a
    controller failure, see ``diverged``/``diagnostic``) never converges.
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


def _finite(*arrays: np.ndarray) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def _steps(dt: float, T: float) -> int:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if T < dt:
        raise ValueError(f"T must be at least dt, got T={T}, dt={dt}")
    return int(round(T / dt))


def integrate_rk4(
    field: Callable[[np.ndarray], np.ndarray],
    x0: npt.ArrayLike,
    dt: float,
    T: float,
) -> Trajectory:
    """Classical 4th-order Runge-Kutta on an autonomous field, fixed step.

    A non-finite state truncates the rollout, flags it ``diverged``, and
    records the failure time.  No inputs and no cost for a bare field.
    """
    K = _steps(dt, T)
    x = np.asarray(x0, dtype=float).ravel()
    n = x.size
    states = np.empty((K + 1, n))
    states[0] = x
    kept = K
    diverged = False
    t_fail = None
    for k in range(K):
        k1 = np.asarray(field(x), dtype=float)
        k2 = np.asarray(field(x + 0.5 * dt * k1), dtype=float)
        k3 = np.asarray(field(x + 0.5 * dt * k2), dtype=float)
        k4 = np.asarray(field(x + dt * k3), dtype=float)
        xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not _finite(k1, k2, k3, k4, xn):
            kept = k
            diverged = True
            t_fail = (k + 1) * dt
            break
        states[k + 1] = xn
        x = xn
    times = np.arange(kept + 1) * dt
    states = states[: kept + 1]
    converged = (not diverged) and float(np.linalg.norm(states[-1])) <= CONVERGENCE_THRESHOLD
    return Trajectory(
        times=times,
        states=states,
        inputs=np.zeros((kept, 0)),
        running_cost=0.0,
        converged=converged,
        diverged=diverged,
        diagnostic="diverged" if diverged else None,
        t_fail=t_fail,
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

    def rhs(xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        u = np.asarray(controller(xs), dtype=float).ravel()
        gx = np.asarray(sys.g(xs), dtype=float).reshape(sys.n, sys.p)
        return np.asarray(sys.f(xs), dtype=float).ravel() + gx @ u, u

    states = np.empty((K + 1, sys.n))
    inputs = np.empty((K, sys.p))
    node_costs = np.empty(K + 1)
    states[0] = x
    kept = K
    diverged = False
    diagnostic = None
    t_fail = None
    final_input: Optional[np.ndarray] = None

    def node_cost(xs: np.ndarray, u: np.ndarray) -> float:
        return float(sys.q(xs)) + 0.5 * float(u @ sys.D @ u)

    for k in range(K):
        try:
            k1, u1 = rhs(x)
            k2, _ = rhs(x + 0.5 * dt * k1)
            k3, _ = rhs(x + 0.5 * dt * k2)
            k4, _ = rhs(x + dt * k3)
        except Exception as exc:  # noqa: BLE001 — truncation is the contract
            kept = k
            diverged = True
            diagnostic = f"controller failed at t={k * dt:.6g}: {exc}"
            t_fail = k * dt
            break
        xn = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not _finite(k1, k2, k3, k4, xn):
            inputs[k] = u1
            node_costs[k] = node_cost(x, u1)
            kept = k
            diverged = True
            diagnostic = "diverged"
            t_fail = (k + 1) * dt
            break
        inputs[k] = u1
        node_costs[k] = node_cost(x, u1)
        states[k + 1] = xn
        x = xn

    if not diverged:
        try:
            final_input = np.asarray(controller(x), dtype=float).ravel()
            node_costs[K] = node_cost(x, final_input)
        except Exception as exc:  # noqa: BLE001
            diverged = True
            diagnostic = f"controller failed at t={K * dt:.6g}: {exc}"
            t_fail = K * dt
            kept = K  # states are all finite; cost excludes the last node
            final_input = None
            node_costs[K] = node_costs[K - 1] if K > 0 else 0.0

    times = np.arange(kept + 1) * dt
    states = states[: kept + 1]
    inputs = inputs[:kept]
    node_costs = node_costs[: kept + 1]
    cumulative = np.zeros(kept + 1)
    if kept > 0:
        cumulative[1:] = np.cumsum(0.5 * dt * (node_costs[:-1] + node_costs[1:]))
    converged = (
        (not diverged)
        and kept == K
        and float(np.linalg.norm(states[-1])) <= CONVERGENCE_THRESHOLD
    )
    return Trajectory(
        times=times,
        states=states,
        inputs=inputs,
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


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, x1..xn, u1..up, cumulative_cost; 17 significant digits."""
    n = traj.states.shape[1]
    p = traj.inputs.shape[1]
    Kp1 = traj.times.size
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"u{i + 1}" for i in range(p)]
            + ["cumulative_cost"]
        )
        for k in range(Kp1):
            if p == 0:
                u_cols: List[str] = []
            elif k < traj.inputs.shape[0]:
                u_cols = [_fmt(v) for v in traj.inputs[k]]
            elif traj.final_input is not None and traj.final_input.size == p:
                u_cols = [_fmt(v) for v in traj.final_input]
            else:
                u_cols = [""] * p
            w.writerow(
                [_fmt(traj.times[k])]
                + [_fmt(v) for v in traj.states[k]]
                + u_cols
                + [_fmt(traj.cumulative_costs[k]) if traj.cumulative_costs.size else ""]
            )


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
