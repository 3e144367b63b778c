"""sha256 of every output file of every shipped and probe config, for one or more trees.

Usage (from the repository root):

    python3 tools/config_digest.py [--src DIR ...]

Runs each ``configs/*.yaml`` and then each ``tools/probe_configs/*.yaml``
(a polynomial system's closed loops with one input and with two, and route
2's feedback in a closed loop) through the command-line interface with the
``koopmanhj`` package under each ``--src`` tree (default: this repository's
``src``): the subcommand the config's keys name (``simulate``,
``converge``, ``procedure`` for ``solve``, else ``eigfun``), in a fresh
process with BLAS on one thread.  Every tree's run of a config writes to
the same output directory, emptied first, so that ``resolved_config.yaml``,
which names that directory, compares too.

One line per output file gives its sha256 per tree and ``same_as_first``:
whether every tree wrote the bytes of the first.  Where a CSV file's bytes
differ from the first tree's but its header and row count do not, one
indented line per differing column and tree follows, with the number of
differing cells and the largest ``|a - b|`` over them (nan where a
differing cell is not a number).  The last line of standard output is one
JSON object: per config, the subcommand, each tree's exit code and wall
time, and per file the digests, ``same_as_first`` and, per later tree,
those column moves (``moved``).

Exit status: 0 when every config is ``same_as_first`` (every tree's run
exited 0, wrote files, and wrote the first tree's bytes), else 1, so the
byte-identity check can gate a script.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
COMMANDS = (("simulate", "simulate"), ("converge", "converge"), ("procedure", "solve"))
CONFIGS = sorted((ROOT / "configs").glob("*.yaml")) + sorted(
    (ROOT / "tools" / "probe_configs").glob("*.yaml")
)


def _subcommand(config: Path) -> str:
    """The subcommand a config is written for, from its top-level keys."""
    keys = yaml.safe_load(config.read_text())
    return next((command for key, command in COMMANDS if key in keys), "eigfun")


def _digests(out: Path) -> dict:
    """sha256 of every file under ``out``, by its path relative to ``out``."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return float("nan")


def _moved(first: Path, other: Path):
    """Per differing column of two CSV files with the same header and row
    count: ``{"cells": differing cells, "max_abs": largest |a - b|}``; None
    for files of another kind, header or length."""
    if first.suffix != ".csv":
        return None
    with first.open(newline="") as fa, other.open(newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(a) != len(b) or not a or a[0] != b[0] or any(
        len(ra) != len(rb) for ra, rb in zip(a, b)
    ):
        return None
    diffs: dict = {}
    for ra, rb in zip(a[1:], b[1:]):
        for name, ca, cb in zip(a[0], ra, rb):
            if ca != cb:
                diffs.setdefault(name, []).append(abs(_number(ca) - _number(cb)))
    return {
        name: {"cells": len(d), "max_abs": max(d) if not any(map(math.isnan, d)) else math.nan}
        for name, d in diffs.items()
    }


def _run(tree: str, command: str, config: Path, out: Path) -> dict:
    """One CLI run of ``config`` on the package under ``tree``, writing to ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=tree, **{v: "1" for v in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "koopmanhj", command, "--config", str(config), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return {"exit": proc.returncode, "wall_s": wall,
            "files": _digests(out) if out.is_dir() else {}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", help="package tree (repeatable)")
    args = ap.parse_args(argv)
    trees = [str(Path(s).resolve()) for s in (args.src or [ROOT / "src"])]
    result = {}
    with tempfile.TemporaryDirectory() as work:
        for config in CONFIGS:
            command = _subcommand(config)
            out = Path(work) / config.stem
            kept = Path(work) / "first" / config.stem  # the first tree's files
            runs, moved = {}, {}
            for tree in trees:
                runs[tree] = _run(tree, command, config, out)
                if tree == trees[0]:
                    if out.is_dir():
                        shutil.copytree(out, kept)
                    continue
                for name, digest in runs[tree]["files"].items():
                    if runs[trees[0]]["files"].get(name, digest) != digest:
                        moved.setdefault(name, {})[tree] = _moved(kept / name, out / name)
            first = runs[trees[0]]["files"]
            files = {}
            for name in sorted(set().union(*(r["files"] for r in runs.values()))):
                digests = {tree: runs[tree]["files"].get(name) for tree in trees}
                same = len(set(digests.values())) == 1
                files[name] = {"sha256": digests, "same_as_first": same,
                               "moved": moved.get(name, {})}
                shown = " ".join(str(d)[:16] for d in digests.values())
                print(f"{config.stem}/{name} {shown} same_as_first={same}")
                for tree, cols in moved.get(name, {}).items():
                    for col, m in (cols or {}).items():
                        print(f"    {col}: {m['cells']} cells, max |a - b| "
                              f"{m['max_abs']:.3g} ({tree})")
            result[config.stem] = {
                "command": command,
                "runs": {tree: {k: r[k] for k in ("exit", "wall_s")} for tree, r in runs.items()},
                "files": files,
                "same_as_first": all(f["same_as_first"] for f in files.values())
                and bool(first) and all(r["exit"] == 0 for r in runs.values()),
            }
    print(json.dumps({"trees": trees, "configs": result}))
    return 0 if all(c["same_as_first"] for c in result.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
