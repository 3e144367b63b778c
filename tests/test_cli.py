"""End-to-end command-line tests: exit codes, output files, determinism.

Most cases drive ``main()`` in-process for speed; two subprocess cases
confirm the installed entry points.  Exit code contract: 0 success,
1 configuration/usage error, 2 numerical failure.
"""
import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from koopmanhj.cli import _THREAD_ENV_VARS, main


def dump_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return str(path)


def example1_cfg(out, **overrides):
    cfg = {
        "schema_version": 1,
        "system": {"kind": "example1"},
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "basis": {"deg_min": 2, "deg_max": 3},
        "samples": {"L": 500, "seed": 0},
        "out": str(out),
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestEigfun:
    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = dump_cfg(tmp_path, example1_cfg(out1), "c1.yaml")
        cfg2 = dump_cfg(tmp_path, example1_cfg(out2), "c2.yaml")
        assert main(["eigfun", "--config", cfg1]) == 0
        assert main(["eigfun", "--config", cfg2]) == 0
        for name in ("eigenfunctions.csv", "report.txt", "resolved_config.yaml"):
            assert (out1 / name).is_file()
        assert (out1 / "eigenfunctions.csv").read_bytes() == (
            out2 / "eigenfunctions.csv"
        ).read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
        rows = read_csv(out1 / "eigenfunctions.csv")
        assert len(rows) == 2
        assert list(rows[0])[:4] == [
            "func_index", "block_index", "lambda_real", "lambda_imag",
        ]
        assert [float(r["lambda_real"]) for r in rows] == [-1.0, 2.0]
        # first eigenfunction of this system is exactly linear
        assert all(abs(float(rows[0][f"theta_{j}"])) < 1e-10 for j in range(1, 8))
        assert float(rows[0]["w_1"]) == pytest.approx(1.0)
        assert float(rows[0]["w_2"]) == pytest.approx(-2.0)

    def test_linear_polynomial_system_has_no_nonlinear_coefficients(self, tmp_path):
        out = tmp_path / "lin"
        cfg = dump_cfg(tmp_path, {
            "schema_version": 1,
            "system": {
                "kind": "polynomial",
                "f_terms": [[[-1.0, [1, 0]]], [[-2.5, [0, 1]]]],
                "g_matrix": [[1.0], [0.0]],
                "D": [[1.0]],
                "Q0": [[1.0, 0.0], [0.0, 1.0]],
            },
            "box": [[-1.0, 1.0], [-1.0, 1.0]],
            "basis": {"deg_min": 2, "deg_max": 3},
            "samples": {"L": 400, "seed": 1},
            "out": str(out),
        })
        assert main(["eigfun", "--config", cfg]) == 0
        rows = read_csv(out / "eigenfunctions.csv")
        assert [float(r["lambda_real"]) for r in rows] == [-2.5, -1.0]
        for r in rows:
            assert all(abs(float(r[f"theta_{j}"])) < 1e-9 for j in range(1, 8))

    def test_seed_override_lands_in_echo(self, tmp_path):
        out = tmp_path / "seeded"
        cfg = dump_cfg(tmp_path, example1_cfg(out))
        assert main(["eigfun", "--config", cfg, "--seed", "7"]) == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["samples"]["seed"] == 7

    def test_out_override(self, tmp_path):
        cfg = dump_cfg(tmp_path, example1_cfg(tmp_path / "orig"))
        target = tmp_path / "moved"
        assert main(["eigfun", "--config", cfg, "--out", str(target)]) == 0
        assert (target / "eigenfunctions.csv").is_file()
        assert not (tmp_path / "orig").exists()


class TestSolve:
    def test_procedure1_grid_outputs(self, tmp_path):
        out = tmp_path / "p1"
        cfg = dump_cfg(tmp_path, example1_cfg(
            out, samples={"L": 1000, "seed": 0}, grid_points_per_dim=5,
        ))
        assert main(["solve", "--config", cfg]) == 0
        grid = read_csv(out / "value_grid.csv")
        res = read_csv(out / "hj_residual.csv")
        assert len(grid) == 25 and len(res) == 25
        assert list(grid[0]) == ["x1", "x2", "value", "u1"]
        assert list(res[0]) == ["x1", "x2", "residual"]
        report = (out / "report.txt").read_text()
        assert "max |stationary residual|" in report
        # value is nonnegative on the grid, zero only near the origin
        vals = np.array([float(r["value"]) for r in grid])
        assert np.all(vals >= -1e-12)

    def test_procedure2_without_value_basis(self, tmp_path):
        out = tmp_path / "p2"
        cfg = dump_cfg(tmp_path, example1_cfg(
            out,
            procedure=2,
            basis={"d1": 4, "d2": 3},
            samples={"L": 1500, "seed": 0},
            box=[[-0.4, 0.4], [-0.4, 0.4]],
            momentum_margin=1.0,
            grid_points_per_dim=5,
        ))
        assert main(["solve", "--config", cfg]) == 0
        report = (out / "report.txt").read_text()
        assert "no value basis configured" in report
        grid = read_csv(out / "value_grid.csv")
        # surrogate value is the quadratic form of the linear coefficient
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["procedure"] == 2
        assert len(grid) == 25

    def test_grid_size_guard(self, tmp_path, capsys):
        out = tmp_path / "big"
        cfg = dump_cfg(tmp_path, example1_cfg(
            out, samples={"L": 300, "seed": 0}, grid_points_per_dim=1200,
        ))
        code = main(["solve", "--config", cfg])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "grid" in err


class TestRoute2Eigenvalues:
    def test_complex_unstable_pair_is_reported_as_fitted(self, tmp_path):
        """The undamped oscillator with a cubic spring has a complex pair of
        unstable Hamiltonian eigenvalues; route 2 stores its block row-scaled,
        and the report must still list the pair of the linearization."""
        out = tmp_path / "osc"
        cfg = dump_cfg(tmp_path, {
            "schema_version": 1,
            "system": {
                "kind": "polynomial",
                "f_terms": [[[1.0, [0, 1]]], [[-1.0, [1, 0]], [0.1, [3, 0]]]],
                "g_matrix": [[0.0], [1.0]],
                "D": [[1.0]],
                "Q0": [[1.0, 0.0], [0.0, 1.0]],
            },
            "box": [[-0.3, 0.3], [-0.3, 0.3]],
            "basis": {"d1": 3, "d2": 2},
            "samples": {"L": 3000, "seed": 1},
            "procedure": 2,
            "momentum_margin": 1.0,
            "grid_points_per_dim": 5,
            "out": str(out),
        })
        assert main(["solve", "--config", cfg]) == 0
        listed = [
            tuple(float(v) for v in line.split(": ", 1)[1].strip("()").split(", "))
            for line in (out / "report.txt").read_text().splitlines()
            if line.startswith("  Psi_")
        ]
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        H0 = np.block([[A, -np.diag([0.0, 1.0])], [-np.eye(2), -A.T]])
        lam = max(np.linalg.eigvals(H0), key=lambda z: (z.real, z.imag))
        assert lam.imag > 0
        assert listed == [
            pytest.approx((lam.real, lam.imag), rel=1e-8),
            pytest.approx((lam.real, -lam.imag), rel=1e-8),
        ]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {
    "example1_eigfun": "eigfun",
    "example1_solve1": "solve",
    "example1_solve2": "solve",
    "cubic_solve2": "solve",
    "example1_converge": "converge",
}


@pytest.fixture(scope="module")
def shipped_runs(tmp_path_factory):
    """The shipped configs that run in seconds, each run twice."""
    root = tmp_path_factory.mktemp("shipped")
    for run in ("a", "b"):
        for name, command in SHIPPED.items():
            argv = [command, "--config", str(CONFIGS / f"{name}.yaml"),
                    "--out", str(root / run / name)]
            assert main(argv) == 0, name
    return root


def _line_key(line):
    """A report line without its values: the text before its first ':' or
    ' = ', else the whole line; a matrix row, numbers only, is '  ['."""
    if line.startswith("  ["):
        return "  ["
    return re.split(r":| = ", line, maxsplit=1)[0]


class TestShippedConfigs:
    def test_reruns_write_identical_bytes(self, shipped_runs):
        """Every file of a rerun has the bytes of the first run; the resolved
        config differs only in the ``out:`` line that names its directory."""
        for name in SHIPPED:
            first, again = shipped_runs / "a" / name, shipped_runs / "b" / name
            files = sorted(p.name for p in first.iterdir())
            assert files == sorted(p.name for p in again.iterdir())
            assert "report.txt" in files and "resolved_config.yaml" in files
            for fname in files:
                a, b = (first / fname).read_bytes(), (again / fname).read_bytes()
                if fname == "resolved_config.yaml":
                    a, b = ([line for line in x.splitlines() if not line.startswith(b"out:")]
                            for x in (a, b))
                assert a == b, (name, fname)

    ROUTE1 = [
        "stationary solution report (eigenfunction-coordinate quadratic form)",
        "=====================================================================",
        "system", "basis", "samples", "",
        "eigenvalues (real, imag)", "  psi_1", "  psi_2", "",
        "cost matrix L (eigenfunction coordinates)", "  [", "  [",
        "quadratic-order value matrix P_r", "  [", "  [",
        "linear feedback gain K", "  [", "",
        "Riccati residual |Lam^T L + L Lam - L R1 L + Q1|_F",
        "per-block PDE residuals (RMS)", "  block 0", "  block 1", "",
        "evaluation grid", "max |stationary residual| on grid", "", "files",
    ]
    ROUTE2_HEAD = [
        "stationary solution report (zero-level set of unstable eigenfunctions)",
        "=======================================================================",
        "system", "basis", "samples", "",
        "unstable eigenvalues (real, imag)",
    ]
    ROUTE2_TAIL = ["", "evaluation grid", "max |stationary residual| on grid", "", "files"]
    JL_ASYMMETRY = "Jl asymmetry |Jl_raw - Jl_raw^T|_F / max(1, |Jl_raw|_F)"
    EXPECTED = {
        "example1_solve1": ROUTE1,
        "example1_solve2": ROUTE2_HEAD + [
            "  Psi_1", "  Psi_2", "",
            "linear manifold coefficient Jl (symmetrized)", "  [", "  [", JL_ASYMMETRY, "",
            "per-block PDE residuals (RMS)", "  block 0", "  block 1", "",
            "no value basis configured (basis.d3=0)",
        ] + ROUTE2_TAIL,
        "cubic_solve2": ROUTE2_HEAD + [
            "  Psi_1", "",
            "linear manifold coefficient Jl (symmetrized)", "  [", JL_ASYMMETRY, "",
            "per-block PDE residuals (RMS)", "  block 0", "",
            "value coefficient matrix Jn", "  [", "value fit",
        ] + ROUTE2_TAIL,
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_solve_report_line_order(self, shipped_runs, name):
        """Route 1, and route 2 without (example 1) and with (the cubic) a
        value basis."""
        text = (shipped_runs / "a" / name / "report.txt").read_text()
        assert text.endswith("\n")
        assert [_line_key(line) for line in text.splitlines()] == self.EXPECTED[name]


class TestSimulate:
    def test_rollout_outputs(self, tmp_path):
        out = tmp_path / "sim"
        cfg = dump_cfg(tmp_path, example1_cfg(
            out,
            samples={"L": 500, "seed": 0},
            integrator={"dt": 0.01, "T": 2.0},
            simulate={
                "controllers": [
                    "procedure1",
                    {"name": "static", "gain": [[1.0, 0.5]]},
                ],
                "ics": [[0.2, 0.1]],
            },
        ))
        assert main(["simulate", "--config", cfg]) == 0
        rows = read_csv(out / "comparison.csv")
        assert [(r["controller"], r["ic_index"]) for r in rows] == [
            ("procedure1", "0"), ("static", "0"),
        ]
        for name in ("traj_procedure1_ic0.csv", "traj_static_ic0.csv"):
            assert (out / name).is_file()
        traj = read_csv(out / "traj_procedure1_ic0.csv")
        assert list(traj[0]) == ["t", "x1", "x2", "u1", "cumulative_cost"]
        assert len(traj) == 201
        assert float(traj[0]["cumulative_cost"]) == 0.0

    def test_same_bytes_pooled_and_on_one_cpu(self, tmp_path, monkeypatch):
        """The rollouts run in forked workers with two usable CPUs and in
        the calling process with one; every file but the resolved config
        (which names its own output directory) has the same bytes."""
        files = {}
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = tmp_path / f"cpus{len(cpus)}"
            cfg = dump_cfg(tmp_path, example1_cfg(
                out,
                integrator={"dt": 0.01, "T": 3.0},
                simulate={
                    "controllers": [
                        "procedure1", "lqr", {"name": "static", "gain": [[1.0, 0.5]]},
                    ],
                    "ics": [[0.2, 0.1], [-0.5, 0.4], [0.3, -0.6]],
                },
            ), f"c{len(cpus)}.yaml")
            assert main(["simulate", "--config", cfg]) == 0
            files[len(cpus)] = {
                p.name: p.read_bytes() for p in out.iterdir() if p.name != "resolved_config.yaml"
            }
        assert len(files[1]) == 1 + 1 + 9  # comparison, report, 3 x 3 trajectories
        assert files[2] == files[1]

    def test_missing_initial_conditions(self, tmp_path, capsys):
        out = tmp_path / "noic"
        cfg = dump_cfg(tmp_path, example1_cfg(
            out, simulate={"controllers": ["lqr"]},
        ))
        assert main(["simulate", "--config", cfg]) == 1
        assert "initial conditions" in capsys.readouterr().err


class TestConverge:
    def test_study_outputs(self, tmp_path):
        out = tmp_path / "conv"
        cfg = dump_cfg(tmp_path, example1_cfg(
            out,
            basis={"deg_min": 2, "deg_max": 2},
            eig_block=1,
            converge={"L_list": [50, 100], "trials": 2},
        ))
        assert main(["converge", "--config", cfg]) == 0
        rows = read_csv(out / "convergence.csv")
        assert list(rows[0]) == ["L", "trial", "error"]
        assert len(rows) == 4
        assert [r["L"] for r in rows] == ["50", "50", "100", "100"]
        assert all(float(r["error"]) > 0 for r in rows)
        assert "log-log slope" in (out / "report.txt").read_text()

    def test_out_of_range_block_is_a_configuration_error(self, tmp_path, capsys):
        """Example 1 has two eigenvalue blocks, so ``eig_block: 2`` is a
        configuration error (exit 1), not a numerical failure."""
        cfg = dump_cfg(tmp_path, example1_cfg(
            tmp_path / "conv", eig_block=2, converge={"L_list": [50, 100], "trials": 2},
        ))
        assert main(["converge", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "'eig_block' is 2" in err and "2 eigenvalue blocks" in err


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["eigfun", "--config", str(tmp_path / "none.yaml")]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = dump_cfg(tmp_path, example1_cfg(tmp_path / "o", rocket=1))
        assert main(["eigfun", "--config", cfg]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_subcommand(self, capsys):
        assert main(["transmogrify", "--config", "x.yaml"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag(self, capsys):
        assert main(["eigfun"]) == 1
        capsys.readouterr()

    def test_numerical_failure_is_exit_2(self, tmp_path, capsys):
        """A system with no control authority makes the momentum block of
        the unstable eigenfunctions singular; that is a numerical failure,
        not a configuration error."""
        out = tmp_path / "fail"
        cfg = dump_cfg(tmp_path, {
            "schema_version": 1,
            "system": {
                "kind": "polynomial",
                "f_terms": [[[1.0, [1]]]],
                "g_matrix": [[0.0]],
                "D": [[1.0]],
                "Q0": [[1.0]],
            },
            "box": [[-1.0, 1.0]],
            "basis": {"d1": 2, "d2": 2},
            "samples": {"L": 300, "seed": 0},
            "procedure": 2,
            "out": str(out),
        })
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "complementarity" in err


_CUBIC = {"kind": "polynomial", "f_terms": [[[-1.0, [1]]]], "g_matrix": [[1.0]],
          "D": [[1.0]], "Q0": [[1.0]]}


@pytest.mark.parametrize("sub, overrides, key", [
    ("solve", {"system": {**_CUBIC, "f_terms": [[[-1.0, [1.5]]]]}, "box": [[-1, 1]]},
     "system.f_terms[0]"),
    ("solve", {"system": {**_CUBIC, "f_terms": [[["a", [1]]]]}, "box": [[-1, 1]]},
     "system.f_terms[0]"),
    ("solve", {"system": {**_CUBIC, "f_terms": [[[-1.0, [1]], [0.5, [0]]]]},
               "box": [[-1, 1]]}, "f_terms[0]"),
    ("solve", {"system": {**_CUBIC, "D": [[1.0, 0.0], [0.0, 1.0]]}, "box": [[-1, 1]]},
     "control weight D"),
    ("solve", {"system": {**_CUBIC, "D": [[-1.0]]}, "box": [[-1, 1]]}, "control weight D"),
    ("solve", {"system": {**_CUBIC, "Q0": [[1.0, 0.0]]}, "box": [[-1, 1]]}, "Q0 shape"),
    ("simulate", {"system": {"kind": "example1", "control_weight": -1.0},
                  "simulate": {"ics": [[0.1, 0.1]]}}, "control_weight"),
    ("simulate", {"system": {"kind": "pendulum", "g_gravity": -1},
                  "box": [[-3, 3], [-5, 5], [-5, 5]], "simulate": {"pendulum_cloud": {}}},
     "g_gravity"),
    ("solve", {"procedure": True}, "procedure"),
    ("solve", {"procedure": 1.0}, "procedure"),
    ("converge", {"eig_block": True}, "eig_block"),
    ("solve", {"momentum_margin": True}, "momentum_margin"),
    ("converge", {"converge": {"L_list": [True, 100]}}, "converge.L_list[0]"),
    ("simulate", {"simulate": {"controllers": [{"name": "k", "gain": [[1, 0], [0, 1]]}],
                               "ics": [[0.1, 0.1]]}}, "simulate.controllers[0].gain"),
    ("simulate", {"simulate": {"pendulum_cloud": {"center": ["a", 0.0]}}},
     "simulate.pendulum_cloud.center"),
])
def test_invalid_config_exits_1_without_output(tmp_path, capsys, sub, overrides, key):
    out = tmp_path / "o"
    cfg = dump_cfg(tmp_path, example1_cfg(out, **overrides))
    assert main([sub, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("flags, threads", [
    ([], "1"), (["--thr", "4"], "4"), (["--threads=3"], "3"), (["--threads", "0"], "1"),
])
def test_blas_threads_follow_the_parsed_flag(tmp_path, monkeypatch, flags, threads):
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "unset")  # restored after the test
    assert main(["eigfun", "--config", str(tmp_path / "none.yaml"), *flags]) == 1
    assert {os.environ[var] for var in _THREAD_ENV_VARS} == {threads}


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "koopmanhj", "eigfun",
             "--config", str(tmp_path / "missing.yaml")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "configuration error" in proc.stderr

    def test_console_script(self):
        proc = subprocess.run(
            ["koopman-hj", "transmogrify"], capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()
