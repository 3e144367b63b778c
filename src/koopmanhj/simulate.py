"""Fixed-step rollouts, accumulated cost, the LQR baseline, and comparisons.

Everything here is deliberately deterministic: classical RK4 with a fixed
step, the feedback evaluated at every stage point, and the running cost
``integral of q(x) + 0.5 u^T D u`` accumulated by the trapezoid rule on the
step grid.  Identical inputs produce identical output bytes, also where
:func:`compare_controllers` runs its rollouts side by side in forked
worker processes (one per usable CPU; in-process without ``fork``).

The plant of a rollout is the system's ``f`` and ``g``; a custom system
provides these two maps.  Every closed loop runs in one compiled loop that
holds the state in float locals through every RK4 step, generated once per
state dimension, input count and feedback law (:func:`_float_rk4`): each
stage evaluates the plant once, a route-1 or route-2 feedback reuses the
stage's ``g(x)``, and any other controller, LQR included, gives ``u`` on
floats (:func:`closed_loop`).  The array loop (:func:`_rk4`)
runs batches and bare fields.  A :func:`compare_controllers` cell writes
its trajectory CSV and makes its :class:`ComparisonRow` in the process
that ran it, and only the row comes back.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from .basis import BasisSet, Polynomial, _compile_function
from .spectral import solve_riccati
from .systems import ControlAffineSystem, Linearization, _momentum_length_error

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
    "write_table_csv",
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
    """Raw output of :func:`_rk4` and :func:`_float_rk4` (every closed loop).

    ``kept`` (shape ``x0.shape[:-1]``: 0-d for one state, ``(B,)`` for rows)
    counts the steps of each row: ``K``, or the step ``k`` at which the row
    stopped because ``x_{k+1}`` was not admissible or because the step
    raised ``error``.  ``states`` (``(K+1,) + x0.shape``) holds each row up
    to index ``kept``; ``inputs`` its stage-1 feedback up to ``kept``
    inclusive when it stopped as inadmissible, up to ``kept - 1`` otherwise.
    :func:`_float_rk4`'s arrays end with those rows.
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
    """The array RK4 loop: ``K`` fixed steps of one state ``(n,)`` or of rows ``(B, n)``.

    ``field(x)`` returns ``(xdot, u)`` for states of the shape of ``x``, where
    ``u`` (``(..., p)``; ``None`` when ``p == 0``) is the feedback at ``x``;
    the kernel keeps the stage-1 value.  Each step tests ``admissible`` once,
    on ``x_{k+1}`` (by default: every coordinate finite, which also catches a
    non-finite stage derivative).  A row whose ``x_{k+1}`` is not admissible
    stops there and the other rows go on; a stopped row is held at its last
    state.  A step that raises stops every row still going.

    This loop runs batches (a custom ``admissible`` included) and
    :func:`integrate_rk4`.  ``p`` is for the tests, which hold every closed
    loop's :func:`_float_rk4` to this loop on the same field as the
    array-loop reference.
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
        if admissible is not _finite_rows or not np.isfinite(xn).all():
            ok = admissible(xn)
            if not ok.all():
                kept[going & ~ok] = k
                going &= ok
                if not going.any():
                    break
                xn = np.where(going[..., None], xn, x)
        states[k + 1] = x = xn
    return _Rollout(states=states, inputs=inputs, kept=kept, error=error)


def _float_loop_source(n: int, p: int, law: str) -> str:
    """Source of ``rollout(x, dt, K, plant, <law>)``: ``K`` RK4 steps of one
    state of ``n`` floats on a float plant with ``p`` inputs, in
    straight-line code.

    The state is ``n`` float locals.  Each stage calls ``plant`` (``f`` as
    ``n`` floats, ``g`` as ``n`` rows of ``p`` floats) at the stage point as
    a tuple, and ``xdot_i = f_i + (0.0 + g_i0 u_0 + g_i1 u_1 + ...)``: the
    sum over the inputs taken left to right from +0.0, the order of
    :func:`~koopmanhj.systems._feedback_terms`.  For one input it has the
    bits of ``f(x) + g(x) @ u``.  ``u`` comes from the ``law``:

    * ``"momentum"``: a marked HJ feedback, from the momentum's ``n``
      floats at the point and the rows ``d`` of ``D^{-1}``, with the sums
      of :func:`~koopmanhj.systems._feedback_terms`; another length raises
      ``momentum_error(n, len)``.  It takes ``g`` from the stage's plant
      call, which ``control(x)`` would evaluate again;
    * ``"control"``: any other controller, ``control(point)`` on floats; an
      output of another length raises ``control_error((len,), p)``.

    Stage points and the combination are :func:`_rk4_step`'s operations in
    its order (``h = 0.5 * dt``; ``x_i + h k_i``; ``x_i + dt k3_i``;
    ``x_i + (dt / 6.0) (((k1_i + 2.0 k2_i) + 2.0 k3_i) + k4_i)``), and the
    test of ``x_{k+1}`` is ``isfinite`` on each coordinate.  The function
    returns the state tuples, the stage-1 inputs (flat, ``p`` per step),
    the steps kept and the exception that stopped the rollout, as
    :class:`_Rollout` counts them.
    """

    def names(prefix: str, count: int = n) -> List[str]:
        return [f"{prefix}{i}" for i in range(count)]

    def tup(items: Iterable[str]) -> str:  # a tuple display, one item included
        return "(" + "".join(f"{v}, " for v in items) + ")"

    def total(terms: Iterable[str]) -> str:  # summed left to right from +0.0
        return " + ".join(["0.0", *terms])

    law_params = {"momentum": "momentum, d", "control": "control"}[law]
    x, f, m, t = names("x"), names("f"), names("p"), names("t", p)
    g = [names(f"g{i}_", p) for i in range(n)]
    d = [names(f"d{j}_", p) for j in range(p)]
    body: List[str] = []

    def stage(s: int, point: str) -> None:
        u = names("v" if s == 1 else "u", p)
        if law == "momentum":
            body.append(f"m = momentum({point})")
        else:
            body.extend([
                f"w = control({point})",
                f"if len(w) != {p}:",
                f"    raise control_error((len(w),), {p})",
                f"{tup(u)} = w",
            ])
        body.append(f"{tup(f)}, {tup(map(tup, g))} = plant({point})")
        if law == "momentum":  # checked where feedback() checks it: after the plant
            body.extend([
                f"if len(m) != {n}:",
                f"    raise momentum_error({n}, len(m))",
                f"{tup(m)} = m",
                *(f"{tk} = {total(f'{gi[k]} * {pi}' for gi, pi in zip(g, m))}"
                  for k, tk in enumerate(t)),
                *(f"{uj} = -({total(f'{dj} * {tk}' for dj, tk in zip(dr, t))})"
                  for uj, dr in zip(u, d)),
            ])
        body.extend(f"k{s}_{i} = {fi} + ({total(f'{gk} * {uk}' for gk, uk in zip(gi, u))})"
                    for i, (fi, gi) in enumerate(zip(f, g)))

    y = names("y")
    stage(1, "X")
    for s, scale in ((2, "h"), (3, "h"), (4, "dt")):
        body.extend(f"{yi} = {xi} + {scale} * {k}"
                    for yi, xi, k in zip(y, x, names(f"k{s - 1}_")))
        body.append(f"Y = {tup(y)}")
        stage(s, "Y")
    z = names("z")
    body.extend(
        f"{zi} = {xi} + c * ((({k1} + 2.0 * {k2}) + 2.0 * {k3}) + {k4})"
        for zi, xi, k1, k2, k3, k4 in zip(z, x, *(names(f"k{s}_") for s in range(1, 5)))
    )
    body += [
        *(f"inputs.append({v})" for v in names("v", p)),
        f"if not ({' and '.join(f'isfinite({zi})' for zi in z)}):",
        "    return states, inputs, step, None",
        f"{tup(x)} = X = {tup(z)}",
        "states.append(X)",
    ]
    head = [
        f"def rollout(x, dt, K, plant, {law_params}):",
        f"    {tup(x)} = X = tuple(x)",
        "    h = 0.5 * dt",
        "    c = dt / 6.0",
        "    states = [X]",
        "    inputs = []",
        "    step = 0",
    ] + ([f"    {tup(map(tup, d))} = d"] if law == "momentum" else [])
    return "\n".join(head + [
        "    try:",
        "        for step in range(K):",
        *(f"            {line}" for line in body),
        "    except Exception as exc:",
        "        return states, inputs, step, exc",
        "    return states, inputs, K, None",
    ])


@functools.lru_cache(maxsize=None)
def _float_loop(n: int, p: int, law: str) -> Callable:
    """The compiled :func:`_float_loop_source` for ``n``, ``p`` and ``law``,
    built once per process and kept."""
    return _compile_function(
        _float_loop_source(n, p, law), "rollout", isfinite=math.isfinite,
        momentum_error=_momentum_length_error, control_error=_control_length_error,
    )


def _float_rk4(x0: np.ndarray, dt: float, K: int, p: int, law: str, *args) -> _Rollout:
    """``K`` RK4 steps of the one state ``x0`` ``(n,)`` with ``p`` inputs in
    the compiled loop of ``law`` (:func:`_float_loop_source`; ``args`` are
    the plant and the law's parameters).  A step that raises stops the
    rollout with ``error``, and so does a non-finite ``x_{k+1}``, as in
    :func:`_rk4`, whose states, inputs and steps kept it has bit for bit
    on the same field.  States and inputs become arrays once, at the end."""
    states, inputs, kept, error = _float_loop(x0.size, p, law)(x0.tolist(), dt, K, *args)
    return _Rollout(
        states=np.array(states),
        inputs=np.array(inputs).reshape(-1, p),
        kept=np.array(kept),
        error=error,
    )


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

    The feedback is evaluated at every RK4 stage point, and must give
    exactly ``p`` entries (any shape that ravels to ``(p,)``).  The loop
    runs compiled on the state's floats (:func:`_float_rk4`,
    :func:`_float_stage`), where each stage evaluates the plant once: from
    one call where the model gives one state's plant on floats
    (:attr:`~koopmanhj.systems.ControlAffineSystem.f_and_g_floats`, the
    built-in pendulum), else by calling ``f`` and ``g`` on the point's
    array (a custom system provides these two maps only).  A route-1 or
    route-2 feedback bound to a solution for ``sys`` (``control`` marked by
    :func:`~koopmanhj.systems.feedback_of`) takes the stage's ``g(x)`` and
    its momentum map on floats; any other controller gives ``u`` on floats,
    a :func:`linear_controller` by its compiled code (:func:`_float_stage`).
    The field is ``f(x) + g(x) u`` with ``g(x) u`` summed over the
    inputs left to right from +0.0; for one input that is the bits of
    ``f(x) + g(x) @ u``.

    ``dt`` and ``T`` are taken as Python floats, whatever their scalar
    type.  Running cost is the trapezoid rule over the node values
    ``q(x_k) + 0.5 u_k^T D u_k`` (node input = feedback at the node).  A
    controller exception or a non-finite state truncates the rollout with a
    diagnostic.
    """
    dt, T = float(dt), float(T)
    K = _steps(dt, T)
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != sys.n:
        raise ValueError(f"x0 has dimension {x.size}, system has n={sys.n}")
    p = sys.p
    control = _checked_control(controller, p)
    run = _float_rk4(x, dt, K, p, *_float_stage(sys, controller, control))
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


def _control_length_error(shape: tuple, p: int) -> ValueError:
    """A controller output of ``shape`` where the closed loop needs ``p``
    entries: one diagnostic for the checked call and every compiled stage."""
    return ValueError(f"controller returned shape {shape}, expected {p} entries")


def _checked_control(
    controller: Callable[[np.ndarray], np.ndarray], p: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``controller`` with its output raveled to ``(p,)``; any other size raises."""

    def control(xs: np.ndarray) -> np.ndarray:
        u = controller(xs)
        if type(u) is not np.ndarray or u.shape != (p,):
            shape = np.shape(u)
            u = np.asarray(u, dtype=float).ravel()
            if u.size != p:
                raise _control_length_error(shape, p)
        return u

    return control


def _float_stage(
    sys: ControlAffineSystem,
    controller: Callable[[np.ndarray], np.ndarray],
    control: Callable[[np.ndarray], np.ndarray],
) -> tuple:
    """The law and arguments of :func:`_float_rk4` for a closed loop.

    A feedback marked by :func:`~koopmanhj.systems.feedback_of` and bound
    to a solution for ``sys`` takes the ``momentum`` law with the rows of
    ``D^{-1}`` and the momentum map the mark names, the map that
    ``controller(x)`` calls; any other controller takes the ``control``
    law with itself.  Either map runs on one state's floats by one rule:
    its compiled ``floats`` where it has them (a
    :class:`~koopmanhj.basis.Polynomial`, whose call runs the same code:
    route 1's collapsed gradient, LQR, a static gain), else the map on the
    point's array as a list, a controller with its output checked
    (``control``).  The plant is the model's float entry where the system
    has one (:attr:`~koopmanhj.systems.ControlAffineSystem.f_and_g_floats`,
    the built-in pendulum), else :func:`_array_plant` on the system's ``f``
    and ``g``; the map is the same on either plant.
    """
    owner = getattr(controller, "__self__", None)
    name = getattr(controller, "feedback_momentum", None)
    marked = name is not None and getattr(owner, "sys", None) is sys
    m = getattr(owner, name) if marked else controller
    call = m if marked else control
    floats = getattr(m, "floats", None)
    if floats is None:
        floats = lambda xs: call(np.array(xs)).tolist()  # noqa: E731
    plant = sys.f_and_g_floats
    if plant is None:
        plant = _array_plant(sys, g_first=marked)
    if marked:
        return "momentum", plant, floats, sys.D_inv.tolist()
    return "control", plant, floats


def _array_plant(sys: ControlAffineSystem, g_first: bool) -> Callable[[tuple], Tuple[list, list]]:
    """One state's plant for :func:`_float_rk4` from the system's own maps:
    ``f`` and ``g`` called on ``np.array(xs)``, each returned as a list (a
    map may return any array-like of its shape).

    ``g_first`` (a marked feedback, whose ``u`` needs ``g(x)`` before the
    field needs ``f(x)``) calls ``g`` and then ``f``; otherwise ``f`` runs
    first, as in ``f(x) + g(x) @ u``.  So where both maps raise, the
    rollout reports the error that calling the feedback and then the field
    would.
    """
    f, g = sys.f, sys.g

    def plant(xs: tuple) -> Tuple[list, list]:
        x = np.array(xs)
        if g_first:
            gx = np.asarray(g(x)).tolist()
            return np.asarray(f(x)).tolist(), gx
        return np.asarray(f(x)).tolist(), np.asarray(g(x)).tolist()

    return plant


def lqr_controller(lin: Linearization) -> Tuple[np.ndarray, np.ndarray]:
    """Gain and cost matrix of the infinite-horizon regulator.

    ``P_r`` solves the Riccati equation for ``(A, R0, Q0)``;
    ``K = D^{-1} B^T P_r`` and the feedback is ``u = -K x``.
    """
    P_r = solve_riccati(lin.A, lin.R0, lin.Q0).P
    return _linear_gain(lin, P_r), P_r


def _linear_gain(lin: Linearization, P: np.ndarray) -> np.ndarray:
    """The gain ``K = D^{-1} B^T P`` of the quadratic value ``0.5 x^T P x``."""
    return np.linalg.solve(lin.D, lin.B.T @ P)


def linear_controller(K: npt.ArrayLike) -> Polynomial:
    """Feedback ``u = -K x``: the degree-1 :class:`~koopmanhj.basis.Polynomial`
    of ``-K`` (a 1-D ``K`` is one row) on the monomials ``x_1 .. x_n``.

    It takes one state ``(n,)`` or a batch ``(..., n)``.  Entry ``j`` of
    ``u`` is ``(-K_j1) x_1 + (-K_j2) x_2 + ...`` summed left to right in
    IEEE floats, the same operations for a batch row as for one state; a
    BLAS ``-K @ x`` may round it differently.  A closed loop runs its
    compiled ``floats`` (:func:`closed_loop`).
    """
    K = np.asarray(K, dtype=float)
    if K.ndim == 1:
        K = K.reshape(1, -1)
    return Polynomial(BasisSet(np.eye(K.shape[1], dtype=np.int64)), -K)


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


def _rollout(cell: tuple) -> ComparisonRow:
    """One cell's row, made where the cell runs: its :func:`closed_loop`
    run, with its trajectory CSV written where the cell names a path.  Any
    exception, the write's included, gives the ``rollout failed`` row."""
    name, i, sys_, ctrl, x0, dt, T, path = cell
    try:
        traj = closed_loop(sys_, ctrl, x0, dt=dt, T=T)
        if path is not None:
            write_trajectory_csv(traj, path)
    except Exception as exc:  # noqa: BLE001 — table must not abort
        return ComparisonRow(name, i, x0, False, True, math.nan, math.nan, f"rollout failed: {exc}")
    return ComparisonRow(name, i, x0, traj.converged, traj.diverged, traj.running_cost,
                         float(np.max(np.abs(traj.states))), traj.diagnostic or "")


# The cells of the table, in a pool worker only (set by ``_start_worker``).
_WORKER_CELLS: Sequence[tuple] = ()


def _start_worker(cells: Sequence[tuple]) -> None:
    """Pool worker initializer: keep the table's cells, and exit once the
    process that forked the worker is gone, so that a killed table leaves no
    worker behind.  A forked worker inherits ``cells`` with the process
    arguments, so no controller or system map is ever pickled."""
    import multiprocessing
    import threading

    global _WORKER_CELLS
    _WORKER_CELLS = cells
    parent = multiprocessing.parent_process()

    def exit_after_parent() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=exit_after_parent, daemon=True).start()


def _forked_rollout(index: int) -> ComparisonRow:
    """A pool worker's run of cell ``index`` of the cells it was started with."""
    return _rollout(_WORKER_CELLS[index])


def _pool_workers(cells: int) -> int:
    """Worker processes for ``cells`` rollouts: one per usable CPU, or 1
    (run in-process) where the platform cannot fork or tell its CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(cells, len(affinity(0))) if affinity is not None else 1
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


def compare_controllers(
    sys: ControlAffineSystem,
    controllers: Sequence[Tuple[str, Callable[[np.ndarray], np.ndarray]]],
    x0_list: Sequence[npt.ArrayLike],
    dt: float = 1e-3,
    T: float = 20.0,
    trajectory_csv: Optional[Callable[[str, int], str]] = None,
) -> List[ComparisonRow]:
    """Roll out every controller from every initial condition.

    Failures stay in their own cell as diagnostics; the table always has one
    row per (controller, x0) pair, in input order.  ``trajectory_csv`` (if
    given) names the file of each cell, ``trajectory_csv(name, ic_index)``.
    Each cell is one :func:`_rollout`: the process that runs it writes its
    trajectory there (:func:`write_trajectory_csv`) and makes its row, so
    only the row leaves that process; a write that raises fails its cell.

    The cells run concurrently in ``min(cells, len(os.sched_getaffinity(0)))``
    forked worker processes.  Each cell is the same deterministic
    :func:`closed_loop` call, so rows and written files are the bytes of a
    one-by-one run.  With one worker, or where the platform has no ``fork``
    start method or no CPU affinity, the cells run one after another in the
    calling process.
    """
    cells = []
    for name, ctrl in controllers:
        for i, x0 in enumerate(x0_list):
            path = trajectory_csv(name, i) if trajectory_csv is not None else None
            cells.append((name, i, sys, ctrl, np.asarray(x0, dtype=float).ravel(), dt, T, path))
    workers = _pool_workers(len(cells))
    if workers <= 1:
        return [_rollout(cell) for cell in cells]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, context, initializer=_start_worker, initargs=(cells,)
    ) as pool:
        try:
            return list(pool.map(_forked_rollout, range(len(cells))))
        except BaseException:  # an interrupt: start no further cell
            pool.shutdown(cancel_futures=True)
            raise


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


def _write_rows(fh, columns: Sequence[np.ndarray], cells: Sequence[str]) -> None:
    """Write the rows of the 2-D ``columns`` blocks side by side in one row
    format, ``_CSV_CHUNK`` rows at a time; the blocks have equal row counts.

    ``cells`` holds one format per CSV cell: ``"%.17g"`` takes the next
    column, ``""`` is an empty cell.  Rows end in ``\\r\\n``.
    """
    row_format = ",".join(cells) + "\r\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        block = np.concatenate([c[start : start + _CSV_CHUNK] for c in columns], axis=1)
        fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def write_table_csv(path, header: Sequence[str], table: npt.ArrayLike) -> None:
    """A header row and one row per row of the 2-D ``table``; 17 significant digits.

    The bytes are those of ``csv.writer`` with the default dialect (comma
    separated, ``\\r\\n`` line ends) writing ``_fmt`` of every number: the
    header names hold no comma, quote or line break, so no cell needs
    quoting.
    """
    table = np.asarray(table, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, [table], ["%.17g"] * table.shape[1])


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Columns: t, x1..xn, u1..up, cumulative_cost; 17 significant digits.

    Written like :func:`write_table_csv`; a missing value is an empty cell.
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
            cols = [traj.times[lo:hi, None], traj.states[lo:hi]]
            if with_u and p:
                cols.append(
                    U[lo:hi] if U is not None
                    else np.broadcast_to(traj.final_input, (hi - lo, p))
                )
            if has_cost:
                cols.append(traj.cumulative_costs[lo:hi, None])
            _write_rows(fh, cols, cells)


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
