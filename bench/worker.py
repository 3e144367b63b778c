"""One workload in one fresh process: set up, then repeat whole rounds.

Started by ``run.py`` with the BLAS thread variables pinned to 1 and the
repository's ``src`` on the path.  Two modes:

* ``--setup-only``: import numpy, scipy and ``koopmanhj``, load each of the
  plan's configs, build its system and linearize it; print the two times.
* otherwise: the same set-up, then rounds of the plan's subcommands, each
  called in-process through ``koopmanhj.cli.main``.  A round is every
  operation of the workload once.  Rounds repeat until ``--seconds`` have
  passed, at least two, so that every run compares a repeat's output files
  with the first round's byte for byte.  With ``--trace 1`` rounds alternate
  untraced and traced, ending on a traced one.

The result (round timings, exit codes, output mismatches, peak memory,
machine facts) goes to ``--result`` as JSON; with tracing, spans and layer
statistics go to ``--trace-file``.  Solutions captured in the first round
are saved for the checks as ``captured.npz`` next to the plan.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SOLUTION_CALLS = ("approximate_eigenfunction_set", "procedure1_solve",
                  "procedure2_solve", "convergence_study")


def set_up(plan):
    """Import the program and prepare each config's system; returns seconds."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import koopmanhj._commands  # noqa: F401
    import koopmanhj.cli  # noqa: F401
    from koopmanhj.config import build_system, load_config
    from koopmanhj.systems import linearize

    t1 = perf_counter()
    for op in plan["ops"]:
        linearize(build_system(load_config(op["config"])))
    t2 = perf_counter()
    return {"import_s": t1 - t0, "config_s": t2 - t1}


class SolutionTimer:
    """Times the calls that produce a certified solution, around the names
    the subcommands call, and keeps the solutions returned in one round."""

    def __init__(self):
        self.seconds = 0.0
        self.captured = []
        self.capture = False
        self._depth = 0

    def install(self):
        from koopmanhj import _commands

        undo = []
        for name in SOLUTION_CALLS:
            orig = getattr(_commands, name)
            setattr(_commands, name, self._timed(orig))
            undo.append((_commands, name, orig))
        return undo

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += perf_counter() - t0
            if self.capture:
                self.captured.append(result)
            return result

        return timed


def restore(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def output_hashes(out_dir):
    hashes = {}
    for path in sorted(Path(out_dir).iterdir()):
        hashes[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def save_captured(plan, op_solutions, path):
    """Arrays of the solutions the checks need, keyed by operation index."""
    import numpy as np

    arrays = {}
    for i, solutions in op_solutions.items():
        for sol in solutions:
            if hasattr(sol, "riccati_embedding"):  # route 1
                arrays[f"op{i}_Vt"] = sol.eig.Vt
                arrays[f"op{i}_Theta"] = sol.eig.Theta
                arrays[f"op{i}_L"] = sol.L
                arrays[f"op{i}_Lambda"] = sol.eig.Lambda
            elif hasattr(sol, "p_star"):  # route 2
                eigs = sol.eigs
                arrays[f"op{i}_Jl"] = sol.Jl
                arrays[f"op{i}_Wu_t"] = eigs.Wu_t
                arrays[f"op{i}_U"] = eigs.U
                grid = Path(plan["ops"][i]["out"]) / "value_grid.csv"
                with open(grid) as fh:
                    rows = list(csv.reader(fh))[1:]
                X = np.array([[float(v) for v in r[: eigs.n]] for r in rows])
                arrays[f"op{i}_grid"] = X
                arrays[f"op{i}_p_star"] = np.array([sol.p_star(x) for x in X])
    np.savez(path, **arrays)


def machine_facts():
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run(plan, seconds, traced_mode, trace_file):
    setup = set_up(plan)
    from koopmanhj import cli

    timer = SolutionTimer()
    tracer = None
    if traced_mode:
        from tracing import Tracer

        tracer = Tracer()

    rounds, trace_rounds, reference = [], [], None
    start = perf_counter()
    while True:
        r = len(rounds)
        traced = traced_mode and r % 2 == 1
        undo = []
        if traced:
            tracer.reset()
            undo += tracer.install()
        undo += timer.install()
        timer.seconds = 0.0
        timer.capture = r == 0
        op_solutions, ops = {}, []
        for i, op in enumerate(plan["ops"]):
            call = tracer.wrap("op." + op["name"], cli.main, record=True) if traced else cli.main
            t0 = perf_counter()
            rc = call(list(op["argv"]))
            ops.append({"name": op["name"], "rc": rc, "seconds": perf_counter() - t0})
            if timer.captured:
                op_solutions[i], timer.captured = timer.captured, []
        restore(undo)
        record = {
            "traced": traced,
            "total_s": sum(o["seconds"] for o in ops),
            "solution_s": timer.seconds,
            "ops": ops,
        }
        if traced:
            record["layers"] = tracer.layer_metrics()
            trace_rounds.append({
                "round": r,
                "spans": [
                    {"id": s[0], "name": s[1], "start": s[2] - start, "end": s[3] - start,
                     "parent": s[4]} for s in tracer.spans
                ],
                "stats": {k: {"calls": v[0], "points": v[1], "incl_s": v[2], "self_s": v[3]}
                          for k, v in sorted(tracer.stats.items())},
                "counters": dict(tracer.counters),
            })
        hashes = {}
        for op in plan["ops"]:
            hashes.update(output_hashes(op["out"]))
        if reference is None:
            reference = hashes
            save_captured(plan, op_solutions, Path(plan["work_dir"]) / "captured.npz")
            op_solutions.clear()
        record["mismatched"] = sorted(
            k for k in set(reference) | set(hashes) if reference.get(k) != hashes.get(k)
        )
        rounds.append(record)
        elapsed = perf_counter() - start
        if len(rounds) >= 2 and elapsed >= seconds and (traced or not traced_mode):
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace_file:
        Path(trace_file).write_text(json.dumps({"rounds": trace_rounds}))
    return {
        "setup": setup,
        "rounds": rounds,
        "peak_rss_mb": peak_kb / 1024.0,
        "facts": machine_facts(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--trace-file")
    args = ap.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    if args.setup_only:
        print(json.dumps(set_up(plan)))
        return 0
    result = run(plan, args.seconds, bool(args.trace), args.trace_file)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
