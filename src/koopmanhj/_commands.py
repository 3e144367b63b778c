"""Implementations of the CLI subcommands.

Each ``cmd_*`` function takes a fully resolved :class:`~koopmanhj.config.RunConfig`,
runs the corresponding pipeline, and writes its outputs (CSV tables plus a
human-readable ``report.txt`` and the echoed ``resolved_config.yaml``) into
the configured output directory.  All outputs are deterministic functions of
the resolved configuration, so reruns produce byte-identical files.  Each
builds the system and its dictionaries, and makes the checks that need
them, before it creates the output directory, so a configuration error
leaves none.

Every numeric table goes through :func:`_write_csv` to the one writer,
:func:`~koopmanhj.simulate.write_table_csv` (17 significant digits, ``\\r\\n``
line ends).  ``cmd_solve`` is one body for both routes.
"""
from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .basis import BasisSet, monomial_basis, procedure2_basis, value_basis_xi3
from .config import ConfigError, RunConfig, build_system, write_resolved
from .galerkin import (
    approximate_eigenfunction_set,
    convergence_study,
    sample_domain,
)
from .procedure1 import procedure1_solve
from .procedure2 import default_phase_box, procedure2_solve
from .simulate import (
    compare_controllers,
    linear_controller,
    lqr_controller,
    pendulum_ic_cloud,
    write_comparison_csv,
    write_table_csv,
)
from .spectral import real_spectral_decomposition
from .systems import hj_residual, linearize

_MAX_GRID_POINTS = 1_000_000


def _ensure_out(cfg: RunConfig) -> Path:
    return write_resolved(cfg, cfg.out).parent


def _dictionary(cfg: RunConfig, sys_, procedure: int, L: int, key: str) -> BasisSet:
    """Route ``procedure``'s dictionary, for a fit on ``L`` samples (the
    config's ``key``): fewer samples than functions is a configuration error."""
    if procedure == 1:
        basis = monomial_basis(sys_.n, cfg.basis["deg_min"], cfg.basis["deg_max"])
    else:
        basis = procedure2_basis(sys_.n, cfg.basis["d1"], cfg.basis["d2"])
    if L < basis.M:
        raise ConfigError(
            f"underdetermined: {key} is {L}, fewer samples than the M={basis.M} "
            "functions of the basis"
        )
    return basis


def _write_csv(path: Path, header: Sequence[str], table: np.ndarray) -> None:
    """Every subcommand table; ``bench/tracing.py`` wraps this name (path first)."""
    write_table_csv(path, header, table)


def _grid_points(box: np.ndarray, points_per_dim: int) -> np.ndarray:
    n = box.shape[0]
    total = points_per_dim**n
    if total > _MAX_GRID_POINTS:
        raise ConfigError(
            f"evaluation grid has {total} points "
            f"({points_per_dim} per dimension in {n} dimensions); "
            f"limit is {_MAX_GRID_POINTS} — reduce grid_points_per_dim"
        )
    axes = [np.linspace(box[i, 0], box[i, 1], points_per_dim) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _matrix_lines(name: str, M: np.ndarray) -> List[str]:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{name}:"]
    for row in M:
        lines.append("  [" + ", ".join(f"{v: .9g}" for v in row) + "]")
    return lines


def _block_eigenvalues(Lambda: np.ndarray, blocks) -> List[Tuple[float, float]]:
    """(real, imag) per eigenfunction row, ordered as the rows are stored.

    A pair's block is ``[[a, -b], [b, a]]`` up to a diagonal row scaling
    (route 2 stores ``diag(s) Lambda diag(s)^-1``), which leaves
    ``sqrt(-Lambda[o, o+1] Lambda[o+1, o]) = b`` unchanged.
    """
    pairs: List[Tuple[float, float]] = []
    for off, size in blocks:
        if size == 1:
            pairs.append((float(Lambda[off, off]), 0.0))
        else:
            a = float(Lambda[off, off])
            b = float(np.sqrt(-Lambda[off, off + 1] * Lambda[off + 1, off]))
            pairs.append((a, b))
            pairs.append((a, -b))
    return pairs


def _eigenfunction_lines(eig, name: str) -> Tuple[List[str], List[str]]:
    """A fitted set's eigenvalue listing (``name_i: (real, imag)``) and its
    per-block certificate lines (training and held-out PDE residual RMS,
    ``cond(J)``)."""
    listing = [
        f"  {name}_{i + 1}: ({re:.9g}, {im:.9g})"
        for i, (re, im) in enumerate(_block_eigenvalues(eig.Lambda, eig.blocks))
    ]
    blocks = [
        f"  block {bi}: train={eig.block_residuals[bi]:.6g} "
        f"heldout={eig.heldout_residuals[bi]:.6g} "
        f"cond(J)={eig.cond_J[bi]:.6g}"
        for bi in range(len(eig.blocks))
    ]
    return listing, blocks


def _write_report(out: Path, lines: Sequence[str]) -> None:
    with open(out / "report.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# eigfun
# ----------------------------------------------------------------------

def cmd_eigfun(cfg: RunConfig) -> None:
    sys_ = build_system(cfg)
    basis = _dictionary(cfg, sys_, 1, cfg.samples["L"], "samples.L")
    out = _ensure_out(cfg)
    lin = linearize(sys_)
    samples = sample_domain(cfg.box, cfg.samples["L"], cfg.samples["seed"])
    eig = approximate_eigenfunction_set(sys_.f, lin.A, basis, samples)

    n, M = sys_.n, basis.M
    header = (
        ["func_index", "block_index", "lambda_real", "lambda_imag"]
        + [f"w_{j + 1}" for j in range(n)]
        + [f"theta_{j + 1}" for j in range(M)]
        + ["train_rms", "heldout_rms", "cond_J"]
    )
    block_of = np.repeat(np.arange(len(eig.blocks)), [size for _, size in eig.blocks])
    table = np.column_stack([
        np.arange(n), block_of, np.array(_block_eigenvalues(eig.Lambda, eig.blocks)),
        eig.Vt, eig.Theta, eig.block_residuals[block_of], eig.heldout_residuals[block_of],
        eig.cond_J[block_of],
    ])
    _write_csv(out / "eigenfunctions.csv", header, table)

    lines = [
        "eigenfunction approximation report",
        "==================================",
        f"system: {cfg.system['kind']} (state dimension {n})",
        f"basis: monomial degrees {cfg.basis['deg_min']}..{cfg.basis['deg_max']}"
        f" ({M} functions)",
        f"samples: L={cfg.samples['L']}, seed={cfg.samples['seed']}",
        "",
        "eigenvalues (real, imag):",
    ]
    listing, block_lines = _eigenfunction_lines(eig, "psi")
    lines += listing + ["", "per-block PDE residuals (RMS):"] + block_lines + [""]
    lines += _matrix_lines("linear parts (rows of Vt)", eig.Vt)
    lines += ["", "files: eigenfunctions.csv, resolved_config.yaml"]
    _write_report(out, lines)


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def _solve_procedure1(cfg: RunConfig, sys_, lin, basis: BasisSet):
    samples = sample_domain(cfg.box, cfg.samples["L"], cfg.samples["seed"])
    return procedure1_solve(sys_, approximate_eigenfunction_set(sys_.f, lin.A, basis, samples))


def _build_p2(cfg: RunConfig, sys_, basis2: BasisSet):
    phase_box = default_phase_box(sys_, cfg.box, margin=cfg.momentum_margin)
    samples = sample_domain(phase_box, cfg.samples["L"], cfg.samples["seed"])
    d3 = cfg.basis["d3"]
    xi3 = value_basis_xi3(sys_.n, d3) if d3 >= 2 else None
    return procedure2_solve(sys_, basis2, samples, xi3=xi3)


def cmd_solve(cfg: RunConfig) -> None:
    sys_ = build_system(cfg)
    grid = _grid_points(cfg.box, cfg.grid_points_per_dim)
    basis = _dictionary(cfg, sys_, cfg.procedure, cfg.samples["L"], "samples.L")
    out = _ensure_out(cfg)
    lin = linearize(sys_)
    n, p = sys_.n, sys_.p

    if cfg.procedure == 1:
        sol = _solve_procedure1(cfg, sys_, lin, basis)
        eig, name, grad, value = sol.eig, "psi", sol.grad_value, sol.value
        P_emb = sol.riccati_embedding
        K_lin = np.linalg.solve(lin.D, lin.B.T @ P_emb)
        # each underline is one '=' longer than its title: shipped reports keep these bytes
        title = [
            "stationary solution report (eigenfunction-coordinate quadratic form)",
            "=====================================================================",
        ]
        setup = [
            f"basis: monomial degrees {cfg.basis['deg_min']}..{cfg.basis['deg_max']}",
            f"samples: L={cfg.samples['L']}, seed={cfg.samples['seed']}",
            "",
            "eigenvalues (real, imag):",
        ]
        solution = (
            _matrix_lines("cost matrix L (eigenfunction coordinates)", sol.L)
            + _matrix_lines("quadratic-order value matrix P_r = Vt^T L Vt", P_emb)
            + _matrix_lines("linear feedback gain K = D^-1 B^T P_r", K_lin)
            + [
                "",
                f"Riccati residual |Lam^T L + L Lam - L R1 L + Q1|_F = "
                f"{sol.riccati.residual:.6g}",
            ]
        )
        fit_lines = []
    else:
        sol = _build_p2(cfg, sys_, basis)
        eig, name, grad = sol.eigs, "Psi", sol.p_star
        title = [
            "stationary solution report (zero-level set of unstable eigenfunctions)",
            "=======================================================================",
        ]
        setup = [
            f"basis: state degree {cfg.basis['d1']}, "
            f"momentum-linear degree {cfg.basis['d2']}",
            f"samples: L={cfg.samples['L']}, seed={cfg.samples['seed']}, "
            f"momentum margin={cfg.momentum_margin:g}",
            "",
            "unstable eigenvalues (real, imag):",
        ]
        solution = _matrix_lines("linear manifold coefficient Jl (symmetrized)", sol.Jl) + [
            f"Jl asymmetry |Jl_raw - Jl_raw^T|_F / max(1, |Jl_raw|_F): "
            f"{sol.jl_asymmetry:.6g}",
            "",
        ]
        vf = sol.value_fit
        if vf is not None:
            value = sol.value
            fit_lines = [""] + _matrix_lines("value coefficient matrix Jn", vf.Jn) + [
                f"value fit: rank={vf.rank}, gradient residual RMS="
                f"{vf.fit_residual:.6g}, PSD-projected residual RMS="
                f"{vf.fit_residual_psd:.6g}",
            ]
        else:
            value = sol.quadratic_value
            fit_lines = [
                "",
                "no value basis configured (basis.d3=0): value column is the "
                "quadratic part x^T Jl x / 2 only",
            ]

    values = value(grid)
    controls = sol.control(grid).reshape(len(grid), p)
    residuals = hj_residual(sys_, grad, grid)
    listing, block_lines = _eigenfunction_lines(eig, name)
    lines = (
        title + [f"system: {cfg.system['kind']} (state dimension {n})"] + setup + listing + [""]
        + solution + ["per-block PDE residuals (RMS):"] + block_lines + fit_lines + [
            "",
            f"evaluation grid: {cfg.grid_points_per_dim} points per dimension "
            f"({len(grid)} total)",
            f"max |stationary residual| on grid: {np.max(np.abs(residuals)):.6g}",
            "",
            "files: value_grid.csv, hj_residual.csv, resolved_config.yaml",
        ]
    )
    x_cols = [f"x{j + 1}" for j in range(n)]
    _write_csv(
        out / "value_grid.csv",
        x_cols + ["value"] + [f"u{j + 1}" for j in range(p)],
        np.column_stack([grid, values, controls]),
    )
    _write_csv(out / "hj_residual.csv", x_cols + ["residual"], np.column_stack([grid, residuals]))
    _write_report(out, lines)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _safe_name(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_") else "_" for c in name)


_ROUTES = {"procedure1": 1, "procedure2": 2}


def _controller_dictionaries(cfg: RunConfig, sys_) -> dict:
    """The dictionary of each route-1 or route-2 controller, by name."""
    return {
        spec: _dictionary(cfg, sys_, _ROUTES[spec], cfg.samples["L"], "samples.L")
        for spec in cfg.simulate["controllers"] if isinstance(spec, str) and spec in _ROUTES
    }


def _build_controllers(
    cfg: RunConfig, sys_, lin, bases: dict
) -> List[Tuple[str, Callable[[np.ndarray], np.ndarray]]]:
    """The named feedback laws; ``bases`` is :func:`_controller_dictionaries`."""
    named: List[Tuple[str, Callable[[np.ndarray], np.ndarray]]] = []
    for spec in cfg.simulate["controllers"]:
        if isinstance(spec, str):
            if spec == "lqr":
                K, _ = lqr_controller(lin)
                named.append(("lqr", linear_controller(K)))
            elif spec == "procedure1":
                sol = _solve_procedure1(cfg, sys_, lin, bases[spec])
                named.append(("procedure1", sol.control))
            elif spec == "procedure2":
                sol2 = _build_p2(cfg, sys_, bases[spec])
                named.append(("procedure2", sol2.control))
            else:  # pragma: no cover — config validation rejects other names
                raise ConfigError(f"unknown controller '{spec}'")
        else:
            gain = np.asarray(spec["gain"], dtype=float)
            named.append((str(spec["name"]), linear_controller(gain)))
    return named


def cmd_simulate(cfg: RunConfig) -> None:
    sys_ = build_system(cfg)
    if "ics" in cfg.simulate and "pendulum_cloud" in cfg.simulate:
        raise ConfigError(
            "simulate takes exactly one of simulate.ics and simulate.pendulum_cloud; "
            "both are set"
        )
    if "ics" in cfg.simulate:
        ics = cfg.simulate["ics"]
    elif "pendulum_cloud" in cfg.simulate:
        ics = pendulum_ic_cloud(**cfg.simulate["pendulum_cloud"])
    else:
        raise ConfigError(
            "simulate requires initial conditions: set simulate.ics or "
            "simulate.pendulum_cloud"
        )
    owners = {}  # trajectory file stem -> the first controller that writes it
    for spec in cfg.simulate["controllers"]:
        name = spec if isinstance(spec, str) else str(spec["name"])
        stem = f"traj_{_safe_name(name)}"
        if stem in owners:
            raise ConfigError(
                f"controllers '{owners[stem]}' and '{name}' would both write "
                f"{stem}_ic<k>.csv; give them names that differ in letters, digits, '-' or '_'"
            )
        owners[stem] = name
    bases = _controller_dictionaries(cfg, sys_)
    out = _ensure_out(cfg)
    lin = linearize(sys_)
    named = _build_controllers(cfg, sys_, lin, bases)

    rows = compare_controllers(
        sys_, named, list(ics), dt=cfg.integrator["dt"], T=cfg.integrator["T"],
        trajectory_csv=lambda name, i: str(out / f"traj_{_safe_name(name)}_ic{i}.csv"),
    )
    written = sum(not r.diagnostic.startswith("rollout failed:") for r in rows)
    write_comparison_csv(rows, str(out / "comparison.csv"))

    lines = [
        "closed-loop comparison report",
        "=============================",
        f"system: {cfg.system['kind']} (state dimension {sys_.n})",
        f"rollouts: dt={cfg.integrator['dt']:g}, T={cfg.integrator['T']:g}, "
        f"{len(ics)} initial conditions",
        "",
    ]
    for name, _ in named:
        sub = [r for r in rows if r.controller == name]
        conv = [r for r in sub if r.converged]
        costs = [r.running_cost for r in conv]
        lines.append(
            f"controller '{name}': converged {len(conv)}/{len(sub)}"
            + (
                f", running cost over converged runs: "
                f"min={min(costs):.6g} median={float(np.median(costs)):.6g} "
                f"max={max(costs):.6g}"
                if costs
                else ""
            )
        )
        for r in sub:
            if r.diagnostic:
                lines.append(f"  ic {r.ic_index}: {r.diagnostic}")
    lines += [
        "",
        f"files: comparison.csv, {written} trajectory files "
        "(traj_<controller>_ic<k>.csv), resolved_config.yaml",
    ]
    _write_report(out, lines)


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------

def cmd_converge(cfg: RunConfig) -> None:
    sys_ = build_system(cfg)
    lin = linearize(sys_)
    n_blocks = len(real_spectral_decomposition(lin.A).blocks)
    if cfg.eig_block >= n_blocks:
        raise ConfigError(
            f"'eig_block' is {cfg.eig_block}, but the drift linearization has "
            f"{n_blocks} eigenvalue blocks (valid: 0..{n_blocks - 1})"
        )
    basis = _dictionary(cfg, sys_, 1, min(cfg.converge["L_list"]), "min(converge.L_list)")
    out = _ensure_out(cfg)
    study = convergence_study(
        sys_.f,
        lin.A,
        basis,
        cfg.box,
        cfg.converge["L_list"],
        cfg.converge["trials"],
        cfg.samples["seed"],
        block_index=cfg.eig_block,
    )
    _write_csv(out / "convergence.csv", ["L", "trial", "error"], np.array(list(study.rows())))

    lines = [
        "sample-count convergence report",
        "===============================",
        f"system: {cfg.system['kind']} (state dimension {sys_.n})",
        f"basis: monomial degrees {cfg.basis['deg_min']}..{cfg.basis['deg_max']}",
        f"eigenvalue block index: {cfg.eig_block}",
        f"trials per sample count: {study.trials}, seed={cfg.samples['seed']}",
        "",
        "normalized eigenfunction error vs sample count:",
    ]
    for i, L in enumerate(study.L_values):
        q25, q50, q75 = study.quartiles[i]
        lines.append(
            f"  L={L}: mean={study.means[i]:.6g} "
            f"q25={q25:.6g} median={q50:.6g} q75={q75:.6g}"
        )
    lines += [
        "",
        f"log-log slope of mean error vs L: {study.slope:.4f}"
        " (Monte-Carlo rate -1/2 corresponds to -0.5)",
        "",
        "files: convergence.csv, resolved_config.yaml",
    ]
    _write_report(out, lines)
