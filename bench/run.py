"""Benchmark of the fit -> solve -> closed-loop pipeline.

Usage (from the repository root; no install needed, ``src`` is put on the
path of the processes that run the program):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's configs from the seed, measures set-up time in
several fresh processes, runs the workload's rounds in one more fresh
process (``worker.py``, one BLAS thread), checks the outputs
(``checks.py``), and prints the metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Full results and traces are kept under
``bench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS
from workloads import WORKLOADS, write_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"
SETUP_PROBES = 8  # extra fresh processes that only set up; the worker is one more
DEADLINE_S = 170.0  # every run ends within 180 s


class BenchError(RuntimeError):
    pass


def _remaining(t_start):
    left = DEADLINE_S - (time.monotonic() - t_start)
    if left <= 1.0:
        raise BenchError("out of time")
    return left


def run_workload(plan, seconds, trace, t_start):
    work = Path(plan["work_dir"])
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    setups = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(work / "plan.json"), "--setup-only"],
            env=env, stdout=subprocess.PIPE, timeout=_remaining(t_start), check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited with {proc.returncode}")
        setups.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    result_path = work / "worker_result.json"
    cmd = [sys.executable, str(WORKER), str(work / "plan.json"), "--seconds", str(seconds),
           "--trace", str(trace), "--result", str(result_path)]
    if trace:
        cmd += ["--trace-file", str(RESULTS / f"trace-{plan['workload']}-seed{plan['seed']}.json")]
    proc = subprocess.run(cmd, env=env, timeout=_remaining(t_start), check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["setups"] = setups + [result["setup"]]
    return result


def evaluate(plan, result):
    """Run the checks on the first round's outputs and count operations."""
    from checks import rollout_converged, run_op_checks

    first = result["rounds"][0]["ops"]
    checks, converged = [], {}
    for i, op in enumerate(plan["ops"]):
        if first[i]["rc"] != 0:
            continue
        checks += [(i, *c) for c in run_op_checks(plan, i, Path(plan["work_dir"]))]
        for r, spec in enumerate(op["rollouts"]):
            converged[(i, r)] = rollout_converged(plan, i, spec)
    unconverged = {(i, r) for (i, r), ok in converged.items()
                   if not ok and plan["ops"][i]["rollouts"][r]["nonlinear"]}
    failed_checks = [c for c in checks if not c[3]]
    bad_ops = {c[0] for c in failed_checks if c[1] is None}
    bad_rollouts = {(c[0], c[1]) for c in failed_checks if c[1] is not None} | unconverged

    attempted = failed = 0
    for rnd in result["rounds"]:
        for i, op in enumerate(plan["ops"]):
            op_failed = rnd["ops"][i]["rc"] != 0 or i in bad_ops or bool(rnd["mismatched"])
            attempted += 1 + len(op["rollouts"])
            failed += op_failed + sum(op_failed or (i, r) in bad_rollouts
                                      for r in range(len(op["rollouts"])))
    mismatched = sorted({m for rnd in result["rounds"] for m in rnd["mismatched"]})
    correct = not failed_checks and not mismatched
    return checks, converged, attempted, failed, correct, mismatched


def metrics(result, trace):
    untraced = [r for r in result["rounds"] if not r["traced"]]
    setup_total = [s["import_s"] + s["config_s"] for s in result["setups"]]
    total = statistics.median(r["total_s"] for r in untraced)
    if not trace:
        return {
            "total_s": (total, "s"),
            "setup_s": (statistics.median(setup_total), "s"),
            "solution_s": (statistics.median(r["solution_s"] for r in untraced), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    from tracing import unit_of

    traced = [r for r in result["rounds"] if r["traced"]]
    out = {name: (statistics.median(r["layers"][name] for r in traced), unit_of(name))
           for name in traced[0]["layers"]}
    traced_total = statistics.median(r["total_s"] for r in traced)
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in result["setups"]), "s")
    out["setup.config_s"] = (statistics.median(s["config_s"] for s in result["setups"]), "s")
    out["trace.untraced_total_s"] = (total, "s")
    out["trace.traced_total_s"] = (traced_total, "s")
    out["trace.overhead_s"] = (traced_total - total, "s")
    out["trace.overhead_pct_of_untraced"] = (100.0 * (traced_total - total) / total, "%")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not (ROOT / "src" / "koopmanhj" / "__init__.py").is_file():
        print(f"bench: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        plan = write_plan(args.workload, args.seed, work.resolve())
        result = run_workload(plan, args.seconds, args.trace, t_start)
        checks, converged, attempted, failed, correct, mismatched = evaluate(plan, result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = metrics(result, args.trace)

    for i, r, name, ok, detail in checks:
        where = plan["ops"][i]["name"] + ("" if r is None else f" rollout {r}")
        print(f"[{'PASS' if ok else 'FAIL'}] {where}: {name}: {detail}")
    for (i, r), ok in converged.items():
        spec = plan["ops"][i]["rollouts"][r]
        print(f"[INFO] {plan['ops'][i]['name']} rollout {r} ({spec['controller']} from initial "
              f"condition {spec['ic']}): {'converged' if ok else 'did not converge'}"
              + ("" if spec["nonlinear"] else " (LQR baseline: recorded, never a failure)"))
    for m in mismatched:
        print(f"[FAIL] output differs between rounds: {Path(m).relative_to(work.resolve())}")
    print(f"rounds: {len(result['rounds'])} ({sum(r['traced'] for r in result['rounds'])} traced);"
          f" operations attempted {attempted}, failed {failed}")
    print("machine: " + json.dumps(result["facts"], sort_keys=True))
    for name, (value, unit) in values.items():
        print(f"{name:48s} {value:14.6g} {unit}")

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"summary": summary, "plan": plan, "facts": result["facts"], "setups": result["setups"],
         "rounds": result["rounds"], "peak_rss_mb": result["peak_rss_mb"],
         "checks": [list(c) for c in checks],
         "rollouts_converged": [[i, r, ok] for (i, r), ok in converged.items()]}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
