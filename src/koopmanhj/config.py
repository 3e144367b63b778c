"""Run configuration: one versioned YAML file determines an entire run.

The schema is strict — unknown keys and malformed values are rejected
before any computation — and every omitted field is materialized with its
default so the output directory's ``resolved_config.yaml`` is a complete,
re-runnable record of the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np
import yaml

from .systems import (
    ControlAffineSystem,
    builtin_example1,
    builtin_pendulum,
    polynomial_system,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "build_system", "write_resolved"]

SCHEMA_VERSION = 1

_SYSTEM_KINDS = ("example1", "pendulum", "polynomial")
_CONTROLLER_NAMES = ("procedure1", "procedure2", "lqr")


class ConfigError(Exception):
    """Invalid or inconsistent run configuration (exit code 1)."""


@dataclass
class RunConfig:
    """The resolved YAML tree: one field per top-level key, in the order
    ``resolved_config.yaml`` lists them.

    Each section is a dict under its YAML key names, with every default
    filled in; matrices (``box``, ``system`` ``g_matrix``/``D``/``Q0``,
    ``simulate["ics"]``) are float arrays, and ``simulate`` holds ``ics``
    and ``pendulum_cloud`` only where the file sets them.
    """

    schema_version: int
    system: Dict[str, Any]
    box: np.ndarray  # (n, 2)
    basis: Dict[str, int]
    samples: Dict[str, int]
    integrator: Dict[str, float]
    procedure: int
    eig_block: int
    momentum_margin: float
    grid_points_per_dim: int
    converge: Dict[str, Any]
    simulate: Dict[str, Any]
    out: str


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _as_mapping(obj: Any, name: str) -> Dict[str, Any]:
    _require(isinstance(obj, dict), f"'{name}' must be a mapping")
    return obj


def _section(raw: Dict[str, Any], name: str) -> Dict[str, Any]:
    return _as_mapping(raw.pop(name, {}) or {}, name)


def _take(section: Optional[Dict[str, Any]], path: str, default: Any, kind: type = int,
          ok: Optional[Callable[[Any], bool]] = None, need: str = "") -> Any:
    """Read one scalar: pop the last key of the dotted ``path`` from
    ``section`` (with ``section=None``, check ``default`` itself: a list
    entry).  An int is accepted as a float, a bool never as a number, and
    a float must be finite; ``ok`` is the range predicate and ``need`` says
    it in the error."""
    val = default if section is None else section.pop(path.rpartition(".")[2], default)
    if kind is float and type(val) is int:
        val = float(val)
    _require(isinstance(val, kind) and not isinstance(val, bool),
             f"'{path}' must be {kind.__name__}, got {type(val).__name__}")
    _require(kind is not float or np.isfinite(val), f"'{path}' must be finite, got {val!r}")
    _require(ok is None or ok(val), f"'{path}' must be {need}, got {val!r}")
    return val


def _no_extras(section: Dict[str, Any], name: str) -> None:
    _require(not section, f"unknown key(s) in '{name}': {sorted(section)}")


def _parse_array(obj: Any, name: str, matrix: bool = True) -> np.ndarray:
    """``obj`` as a finite float array: a matrix (list of rows) unless
    ``matrix`` is false."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"'{name}' is not a numeric array: {exc}") from None
    _require(not matrix or arr.ndim == 2, f"'{name}' must be a matrix (list of rows)")
    _require(bool(np.isfinite(arr).all()), f"'{name}' must have finite entries")
    return arr


def _system(sec: Dict[str, Any]) -> Tuple[Dict[str, Any], int, int]:
    """The ``system`` section, and the state and input dimensions it sets."""
    system: Dict[str, Any] = {"kind": _take(sec, "system.kind", None, str,
                                            lambda v: v in _SYSTEM_KINDS,
                                            f"one of {_SYSTEM_KINDS}")}
    if system["kind"] == "example1":
        n, p = 2, 1
        system["control_weight"] = _take(sec, "system.control_weight", 1.0, float,
                                         lambda v: v > 0, "positive")
    elif system["kind"] == "pendulum":
        n, p = 3, 1
        system["g_gravity"] = _take(sec, "system.g_gravity", 9.81, float)
    else:
        f_terms = sec.pop("f_terms", None)
        _require(isinstance(f_terms, list) and f_terms,
                 "'system.f_terms' must be a non-empty list (one list per coordinate)")
        n = len(f_terms)
        system["f_terms"] = []
        for i, row in enumerate(f_terms):
            where = f"system.f_terms[{i}]"
            _require(isinstance(row, list),
                     f"'{where}' must be a list of [coeff, exponents] pairs")
            for t in row:
                _require(
                    isinstance(t, list) and len(t) == 2 and isinstance(t[1], list)
                    and len(t[1]) == n,
                    f"'{where}' entries must be [coeff, [e1..e{n}]]",
                )
            system["f_terms"].append([
                [_take(None, where, c, float), [_take(None, where, e) for e in expo]]
                for c, expo in row
            ])
        g_matrix = _parse_array(sec.pop("g_matrix", None), "system.g_matrix")
        _require(g_matrix.shape[0] == n,
                 f"'system.g_matrix' must have {n} rows, got {g_matrix.shape[0]}")
        p = g_matrix.shape[1]
        system["g_matrix"] = g_matrix
        system["D"] = _parse_array(sec.pop("D", None), "system.D")
        system["Q0"] = _parse_array(sec.pop("Q0", None), "system.Q0")
        _require(system["Q0"].shape == (n, n), f"'system.Q0' must be {n}x{n}")
    _no_extras(sec, "system")
    return system, n, p


def _simulate(sec: Dict[str, Any], n: int, p: int) -> Dict[str, Any]:
    simulate: Dict[str, Any] = {"controllers": sec.pop("controllers", ["procedure1", "lqr"])}
    _require(isinstance(simulate["controllers"], list) and simulate["controllers"],
             "'simulate.controllers' must be a non-empty list")
    for i, c in enumerate(simulate["controllers"]):
        where = f"simulate.controllers[{i}]"
        if isinstance(c, str):
            _require(c in _CONTROLLER_NAMES,
                     f"unknown controller {c!r}; use one of {_CONTROLLER_NAMES} "
                     f"or a {{name, gain}} mapping")
        else:
            c = _as_mapping(c, where)
            _require("name" in c and "gain" in c,
                     f"custom controller '{where}' needs 'name' and 'gain' (p x n matrix)")
            _no_extras({k: v for k, v in c.items() if k not in ("name", "gain")}, where)
            shape = _parse_array(c["gain"], f"{where}.gain").shape
            _require(shape == (p, n), f"'{where}.gain' must be p x n = {p} x {n} "
                                      f"(rows x columns), got {shape[0]} x {shape[1]}")
    ics = sec.pop("ics", None)
    if ics is not None:
        simulate["ics"] = _parse_array(ics, "simulate.ics")
        _require(simulate["ics"].shape[1] == n, f"'simulate.ics' rows must have {n} entries")
    cloud = sec.pop("pendulum_cloud", None)
    if cloud is not None:
        csec = _as_mapping(cloud, "simulate.pendulum_cloud")
        center = _parse_array(csec.pop("center", [0.7, -4.2, 6.2]),
                              "simulate.pendulum_cloud.center", matrix=False).ravel()
        _require(center.size == n, f"'simulate.pendulum_cloud.center' must have {n} entries")
        simulate["pendulum_cloud"] = {
            "center": center.tolist(),
            "count": _take(csec, "simulate.pendulum_cloud.count", 10, int,
                           lambda v: v >= 1, "positive"),
            "seed": _take(csec, "simulate.pendulum_cloud.seed", 2024, int,
                          lambda v: v >= 0, "non-negative"),
            "rel_width": _take(csec, "simulate.pendulum_cloud.rel_width", 0.1, float,
                               lambda v: v >= 0, "non-negative"),
        }
        _no_extras(csec, "simulate.pendulum_cloud")
    _no_extras(sec, "simulate")
    return simulate


def load_config(
    path: Union[str, Path],
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
) -> RunConfig:
    """Parse and validate a YAML run configuration.

    ``seed_override``/``out_override`` implement the corresponding
    command-line flags and are checked as the keys they replace.  The
    system's own invariants (a positive definite ``D``, a drift vanishing
    at the origin) are checked by :func:`build_system`.
    """
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = _as_mapping(yaml.safe_load(Path(path).read_text()), "config")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None

    schema_version = _take(raw, "schema_version", None, int,
                           lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION))
    system, n, p = _system(_as_mapping(raw.pop("system", None), "system"))

    box = _parse_array(raw.pop("box", None), "box")
    _require(box.shape == (n, 2), f"'box' must be {n} rows of [lo, hi]")
    _require(bool(np.all(box[:, 0] < box[:, 1])), "'box' rows must satisfy lo < hi")

    sec = _section(raw, "basis")
    basis = {
        "deg_min": _take(sec, "basis.deg_min", 2, int, lambda v: v >= 2, "at least 2"),
        "deg_max": _take(sec, "basis.deg_max", 5),
        "d1": _take(sec, "basis.d1", 5, int, lambda v: v >= 2, "at least 2"),
        "d2": _take(sec, "basis.d2", 3, int, lambda v: v >= 1, "at least 1"),
        "d3": _take(sec, "basis.d3", 0, int, lambda v: v == 0 or v >= 2,
                    "0 (no value fit) or at least 2"),
    }
    _no_extras(sec, "basis")
    _require(basis["deg_min"] <= basis["deg_max"],
             "'basis' degrees must satisfy 2 <= deg_min <= deg_max")

    sec = _section(raw, "samples")
    if seed_override is not None:
        sec["seed"] = seed_override
    samples = {
        "L": _take(sec, "samples.L", 10000, int, lambda v: v >= 1, "positive"),
        "seed": _take(sec, "samples.seed", 0, int, lambda v: v >= 0, "non-negative"),
    }
    _no_extras(sec, "samples")

    sec = _section(raw, "integrator")
    dt = _take(sec, "integrator.dt", 1e-3, float, lambda v: v > 0, "positive")
    integrator = {"dt": dt,
                  "T": _take(sec, "integrator.T", 20.0, float, lambda v: v >= dt, "at least dt")}
    _no_extras(sec, "integrator")

    procedure = _take(raw, "procedure", 1, int, lambda v: v in (1, 2), "1 or 2")
    eig_block = _take(raw, "eig_block", 0, int, lambda v: v >= 0, "non-negative")
    momentum_margin = _take(raw, "momentum_margin", 2.0, float, lambda v: v > 0, "positive")
    grid_points_per_dim = _take(raw, "grid_points_per_dim", 50 if n <= 2 else 5, int,
                                lambda v: v >= 2, "at least 2")

    sec = _section(raw, "converge")
    L_list = sec.pop("L_list", [100, 1000, 10000])
    _require(isinstance(L_list, list) and len(L_list) >= 2,
             "'converge.L_list' must be a list of at least two positive integers")
    converge = {
        "L_list": [_take(None, f"converge.L_list[{i}]", v, int, lambda v: v >= 1, "positive")
                   for i, v in enumerate(L_list)],
        "trials": _take(sec, "converge.trials", 20, int, lambda v: v >= 1, "positive"),
    }
    _no_extras(sec, "converge")

    simulate = _simulate(_section(raw, "simulate"), n, p)

    if out_override is not None:
        raw["out"] = out_override
    out = _take(raw, "out", "out", str, bool, "a non-empty path string")
    _no_extras(raw, "config")

    return RunConfig(schema_version, system, box, basis, samples, integrator, procedure,
                     eig_block, momentum_margin, grid_points_per_dim, converge, simulate, out)


def build_system(cfg: RunConfig) -> ControlAffineSystem:
    """Instantiate the configured system; an invariant it violates (say, a
    ``D`` that is not positive definite) is a :class:`ConfigError`."""
    s = cfg.system
    try:
        if s["kind"] == "example1":
            return builtin_example1(control_weight=s["control_weight"])
        if s["kind"] == "pendulum":
            return builtin_pendulum(g_gravity=s["g_gravity"])
        return polynomial_system(s["f_terms"], s["g_matrix"], s["D"], s["Q0"])
    except ValueError as exc:
        raise ConfigError(f"invalid 'system' ({s['kind']}): {exc}") from None


def _plain(val: Any) -> Any:
    if isinstance(val, dict):
        return {k: _plain(v) for k, v in val.items()}
    return val.tolist() if isinstance(val, np.ndarray) else val


def write_resolved(cfg: RunConfig, out_dir: Union[str, Path]) -> Path:
    """Echo the fully materialized configuration into the output directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "resolved_config.yaml"
    tree = {f.name: _plain(getattr(cfg, f.name)) for f in fields(cfg)}
    path.write_text(yaml.safe_dump(tree, sort_keys=False, default_flow_style=None))
    return path
