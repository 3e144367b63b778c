"""The three workloads: their configs, generated from the workload seed.

Each workload is a list of subcommand operations on configs written here
from the seed; the program sees only the generated files.  Sizes follow the
repository's shipped configs, so each workload makes a layer do most of the
work that another workload barely touches:

* ``eigfit_example1``: Galerkin fits on many small sample sets and one
  1e6-point dense reference; basis and drift evaluation dominate.
* ``manifold_p2``: route 2 on the 4-D Hamiltonian lift and on the scalar
  cubic; the lift, the per-point manifold loops and the value fit dominate.
* ``rollout_pendulum``: closed-loop RK4 rollouts with an expensive
  (procedure 1) and a cheap (LQR) controller; the fit is a small share.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

# The pendulum's fit-sample seed is part of its experiment definition (the
# feedback gain depends on it).  Its initial condition is one point of the
# fixed ten-point cloud of that experiment (seed 2024, 10% around the
# center), picked by the workload seed: the procedure-1 rollout converges
# from each of the ten, crossing |x| = 1e-3 by t = 11.6 s, so a 12 s horizon
# makes every pick a converging one.  A cloud drawn afresh from the workload
# seed would not: the controller fails to converge from some points of the
# same 10% box, and those runs would fail on some seeds only.  One initial
# condition per round keeps a run near 30 s.
PENDULUM_FIT_SEED = 12345
PENDULUM_CLOUD = {"center": (0.7, -4.2, 6.2), "rel_width": 0.1, "seed": 2024, "count": 10}
PENDULUM_COUNT = 1
PENDULUM_T = 12.0
PENDULUM_DT = 1e-3


def pendulum_cloud():
    """The experiment's initial-condition cloud, drawn as the program draws it."""
    import numpy as np

    center = np.array(PENDULUM_CLOUD["center"])
    half = PENDULUM_CLOUD["rel_width"] * np.abs(center)
    rng = np.random.default_rng(PENDULUM_CLOUD["seed"])
    return center + rng.uniform(-1.0, 1.0, size=(PENDULUM_CLOUD["count"], 3)) * half


def pendulum_ics(seed: int):
    cloud = pendulum_cloud()
    first = derive_seed(seed, "rollout_pendulum", "ics") % len(cloud)
    return [cloud[(first + k) % len(cloud)].tolist() for k in range(PENDULUM_COUNT)]


def derive_seed(seed: int, workload: str, tag: str) -> int:
    digest = hashlib.sha256(f"{workload}/{tag}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _example1(weight: float, box: float) -> str:
    return (f"system: {{kind: example1, control_weight: {weight!r}}}\n"
            f"box: [[{-box!r}, {box!r}], [{-box!r}, {box!r}]]\n")


CUBIC_SYSTEM = (
    "system:\n"
    "  kind: polynomial\n"
    "  f_terms: [[[-1.0, [1]], [1.0, [3]]]]\n"
    "  g_matrix: [[1.0]]\n"
    "  D: [[1.0]]\n"
    "  Q0: [[1.0]]\n"
    "box: [[-0.35, 0.35]]\n"
)


def _configs(workload: str, seed: int):
    """(name, subcommand, YAML body without schema/out) per operation."""
    s = lambda tag: derive_seed(seed, workload, tag)  # noqa: E731
    if workload == "eigfit_example1":
        return [
            ("eigfun", "eigfun", _example1(1.0, 1.0)
             + f"basis: {{deg_min: 2, deg_max: 5}}\nsamples: {{L: 10000, seed: {s('eigfun')}}}\n"),
            ("solve1", "solve", _example1(0.5, 1.0)
             + f"basis: {{deg_min: 2, deg_max: 5}}\nsamples: {{L: 10000, seed: {s('solve1')}}}\n"
             + "procedure: 1\ngrid_points_per_dim: 50\n"),
            ("converge", "converge", _example1(1.0, 1.0)
             + f"basis: {{deg_min: 2, deg_max: 3}}\nsamples: {{seed: {s('converge')}}}\n"
             + "converge: {L_list: [100, 1000, 10000], trials: 20}\neig_block: 1\n"),
        ]
    if workload == "manifold_p2":
        return [
            ("solve2", "solve", _example1(1.0, 0.4)
             + f"basis: {{d1: 6, d2: 4, d3: 0}}\nsamples: {{L: 6000, seed: {s('solve2')}}}\n"
             + "procedure: 2\nmomentum_margin: 1.0\ngrid_points_per_dim: 21\n"),
            ("cubic_solve2", "solve", CUBIC_SYSTEM
             + f"basis: {{d1: 7, d2: 5, d3: 2}}\nsamples: {{L: 3000, seed: {s('cubic')}}}\n"
             + "procedure: 2\nmomentum_margin: 1.25\ngrid_points_per_dim: 41\n"),
        ]
    if workload == "rollout_pendulum":
        ics = "".join(f"    - [{a!r}, {b!r}, {c!r}]\n" for a, b, c in pendulum_ics(seed))
        return [
            ("simulate", "simulate",
             "system: {kind: pendulum, g_gravity: 9.81}\n"
             "box: [[-3.0, 3.0], [-5.0, 5.0], [-5.0, 5.0]]\n"
             "basis: {deg_min: 2, deg_max: 2}\n"
             f"samples: {{L: 10000, seed: {PENDULUM_FIT_SEED}}}\n"
             f"integrator: {{dt: {PENDULUM_DT!r}, T: {PENDULUM_T!r}}}\n"
             "simulate:\n"
             "  controllers: [procedure1, lqr]\n"
             "  ics:\n" + ics),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("eigfit_example1", "manifold_p2", "rollout_pendulum")


def write_plan(workload: str, seed: int, work_dir: Path) -> dict:
    """Write the workload's configs under ``work_dir``; return the plan."""
    ops = []
    for name, sub, body in _configs(workload, seed):
        config = work_dir / f"{name}.yaml"
        out = work_dir / "out" / name
        config.write_text(f"schema_version: 1\n{body}out: {str(out)!r}\n")
        op = {"name": name, "subcommand": sub, "config": str(config), "out": str(out),
              "argv": [sub, "--config", str(config)], "rollouts": []}
        if sub == "simulate":
            # one operation per (controller, initial condition), in the
            # order the comparison table lists them
            op["rollouts"] = [
                {"controller": c, "ic": k, "nonlinear": c != "lqr"}
                for c in ("procedure1", "lqr") for k in range(PENDULUM_COUNT)
            ]
        ops.append(op)
    plan = {"workload": workload, "seed": seed, "work_dir": str(work_dir), "ops": ops}
    (work_dir / "plan.json").write_text(json.dumps(plan, indent=1))
    return plan
