"""Microseconds per closed-loop RK4 step of a simulate config's controllers.

Usage (from the repository root):

    python3 tools/step_probe.py configs/pendulum_simulate.yaml [--src DIR ...]
        [--runs N]

Any config with a ``simulate`` section works.  Besides the shipped
``configs/*_simulate.yaml``, ``tools/probe_configs/`` holds three whose
closed loops call a system's own array maps at every stage: the scalar
cubic (a polynomial system) and example 1, each with the procedure-1,
procedure-2 and LQR feedbacks, and a two-input polynomial system with the
procedure-1 and LQR feedbacks and a static gain.

Builds the config's system and controllers from the ``koopmanhj`` package
under ``--src`` (default: this repository's ``src``), then times
``closed_loop`` from the config's first initial condition over
``SECONDS`` of simulated time, once per controller per run, the
controllers interleaved within each run.  BLAS runs on one thread.  A short untimed rollout per
controller comes first, so one-time work (such as compiling a gradient)
stays out of the figures.

With several ``--src`` trees, each run starts one fresh process per tree,
the trees in turn, so that the trees share the host's load.  The last line
of standard output is one JSON object: per tree and controller, the
minimum and the median microseconds per step over the runs, and the
sha256 of the rollout's ``states`` then ``inputs`` bytes.  With several
trees, each controller's ``same_as_first`` says whether its digest equals
the first tree's, that is, whether the trees roll out the same bits.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
IC = 0  # index of the initial condition every rollout starts from
SECONDS = 2.0  # simulated time per rollout


def _digest(traj) -> str:
    """sha256 of a rollout's ``states`` and then its ``inputs``, as float64 bytes."""
    return hashlib.sha256(traj.states.tobytes() + traj.inputs.tobytes()).hexdigest()


def _time_controllers(config: str, runs: int) -> dict:
    """Per controller, the microseconds per step of each of ``runs`` rollouts
    and the digest of each rollout."""
    import numpy as np

    from koopmanhj import _commands
    from koopmanhj.config import build_system, load_config
    from koopmanhj.simulate import closed_loop, pendulum_ic_cloud
    from koopmanhj.systems import linearize

    cfg = load_config(config)
    sys_ = build_system(cfg)
    sim = cfg.simulate
    ics = sim["ics"] if "ics" in sim else pendulum_ic_cloud(**sim["pendulum_cloud"])
    x0 = np.asarray(ics[IC], dtype=float)
    # older trees have no _controller_dictionaries: their _build_controllers
    # builds each dictionary itself, and they stay comparable
    bases = getattr(_commands, "_controller_dictionaries", None)
    extra = (bases(cfg, sys_),) if bases else ()
    named = _commands._build_controllers(cfg, sys_, linearize(sys_), *extra)
    dt = cfg.integrator["dt"]
    steps = int(round(SECONDS / dt))
    for _, ctrl in named:  # untimed: one-time work stays out of the figures
        closed_loop(sys_, ctrl, x0, dt=dt, T=10 * dt)
    out = {name: [] for name, _ in named}
    digests = {name: [] for name, _ in named}
    for _ in range(runs):
        for name, ctrl in named:
            start = time.perf_counter()
            traj = closed_loop(sys_, ctrl, x0, dt=dt, T=steps * dt)
            out[name].append((time.perf_counter() - start) / steps * 1e6)
            digests[name].append(_digest(traj))
    return {"steps": steps, "us_per_step": out, "sha256": digests}


def _summary(samples: dict, digests: dict) -> dict:
    """Min and median per controller, and its digest: one string where
    every run gave the same bits, else the list of distinct digests."""
    out = {}
    for name, v in samples.items():
        distinct = sorted(set(digests[name]))
        out[name] = {
            "min": min(v), "median": statistics.median(v), "runs": len(v),
            "sha256": distinct[0] if len(distinct) == 1 else distinct,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--src", action="append", help="package tree (repeatable)")
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--raw", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    trees = [str(Path(s).resolve()) for s in (args.src or [ROOT / "src"])]
    config = str(Path(args.config).resolve())

    if len(trees) == 1:
        for var in THREAD_VARS:
            os.environ[var] = "1"
        sys.path.insert(0, trees[0])
        timed = _time_controllers(config, args.runs)
        if args.raw:
            print(json.dumps(timed))
            return 0
        result = {trees[0]: _summary(timed["us_per_step"], timed["sha256"])}
    else:
        samples = {tree: {} for tree in trees}
        digests = {tree: {} for tree in trees}
        env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        for _ in range(args.runs):
            for tree in trees:
                proc = subprocess.run(
                    [sys.executable, __file__, config, "--src", tree, "--runs", "1", "--raw"],
                    env=env, stdout=subprocess.PIPE, check=True, text=True,
                )
                timed = json.loads(proc.stdout.strip().splitlines()[-1])
                for name, v in timed["us_per_step"].items():
                    samples[tree].setdefault(name, []).extend(v)
                    digests[tree].setdefault(name, []).extend(timed["sha256"][name])
        result = {tree: _summary(samples[tree], digests[tree]) for tree in trees}
        first = result[trees[0]]
        for tree in trees:
            for name, row in result[tree].items():
                row["same_as_first"] = row["sha256"] == first[name]["sha256"]
    print(json.dumps({"config": config, "seconds": SECONDS, "ic": IC, "trees": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
