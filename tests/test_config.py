"""Configuration parsing, validation, defaults, and the resolved echo."""
import numpy as np
import pytest
import yaml

from koopmanhj.config import (
    ConfigError,
    build_system,
    load_config,
    write_resolved,
)


def dump_cfg(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def minimal(**overrides):
    cfg = {
        "schema_version": 1,
        "system": {"kind": "example1"},
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
    }
    cfg.update(overrides)
    return cfg


class TestDefaults:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = load_config(dump_cfg(tmp_path, minimal()))
        assert cfg.system == {"kind": "example1", "control_weight": 1.0}
        np.testing.assert_array_equal(cfg.box, [[-1, 1], [-1, 1]])
        assert cfg.basis == {"deg_min": 2, "deg_max": 5, "d1": 5, "d2": 3, "d3": 0}
        assert cfg.samples == {"L": 10000, "seed": 0}
        assert cfg.integrator == {"dt": 1e-3, "T": 20.0}
        assert cfg.procedure == 1
        assert cfg.eig_block == 0
        assert cfg.momentum_margin == 2.0
        assert cfg.grid_points_per_dim == 50
        assert cfg.converge == {"L_list": [100, 1000, 10000], "trials": 20}
        assert cfg.simulate == {"controllers": ["procedure1", "lqr"]}
        assert cfg.out == "out"

    def test_pendulum_defaults(self, tmp_path):
        cfg = load_config(
            dump_cfg(tmp_path, minimal(
                system={"kind": "pendulum"},
                box=[[-3, 3], [-5, 5], [-5, 5]],
            ))
        )
        assert cfg.system == {"kind": "pendulum", "g_gravity": 9.81}
        assert cfg.grid_points_per_dim == 5  # three-dimensional grid default
        assert build_system(cfg).n == 3

    def test_cloud_defaults_are_plain_floats(self, tmp_path):
        cfg = load_config(
            dump_cfg(tmp_path, minimal(
                system={"kind": "pendulum"},
                box=[[-3, 3], [-5, 5], [-5, 5]],
                simulate={"pendulum_cloud": {}},
            ))
        )
        assert cfg.simulate["pendulum_cloud"] == {
            "center": [0.7, -4.2, 6.2], "count": 10, "seed": 2024, "rel_width": 0.1,
        }
        assert all(type(v) is float for v in cfg.simulate["pendulum_cloud"]["center"])
        # the echo must serialize with the safe dumper
        write_resolved(cfg, tmp_path / "echo")

    def test_overrides(self, tmp_path):
        path = dump_cfg(tmp_path, minimal(samples={"L": 50, "seed": 3}, out="abc"))
        cfg = load_config(path, seed_override=11, out_override="xyz")
        assert cfg.samples["L"] == 50
        assert cfg.samples["seed"] == 11
        assert cfg.out == "xyz"

    @pytest.mark.parametrize("seed, out, msg", [
        (-1, None, "samples.seed"), (None, "", "'out'"),
    ])
    def test_overrides_are_validated(self, tmp_path, seed, out, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(dump_cfg(tmp_path, minimal()), seed_override=seed, out_override=out)


class TestPolynomialSystems:
    def test_cubic_parses_and_builds(self, tmp_path):
        cfg = load_config(dump_cfg(tmp_path, minimal(
            system={
                "kind": "polynomial",
                "f_terms": [[[-1.0, [1]], [1.0, [3]]]],
                "g_matrix": [[1.0]],
                "D": [[1.0]],
                "Q0": [[1.0]],
            },
            box=[[-0.5, 0.5]],
        )))
        sys_ = build_system(cfg)
        assert sys_.n == 1 and sys_.p == 1
        assert sys_.f(np.array([0.5]))[0] == pytest.approx(-0.5 + 0.125)

    @pytest.mark.parametrize("mutate, msg", [
        (lambda s: s.pop("f_terms"), "f_terms"),
        (lambda s: s.update(f_terms=[[[1.0, [1, 0]]]]), "f_terms"),
        (lambda s: s.update(g_matrix=[[1.0], [2.0]]), "g_matrix"),
        (lambda s: s.update(f_terms=[[[-1.0, [1.5]]]]), r"'system\.f_terms\[0\]' must be int"),
        (lambda s: s.update(f_terms=[[[-1.0, [True]]]]), r"'system\.f_terms\[0\]' must be int"),
        (lambda s: s.update(f_terms=[[["a", [1]]]]), r"'system\.f_terms\[0\]' must be float"),
    ])
    def test_polynomial_validation(self, tmp_path, mutate, msg):
        system = {
            "kind": "polynomial",
            "f_terms": [[[-1.0, [1]]]],
            "g_matrix": [[1.0]],
            "D": [[1.0]],
            "Q0": [[1.0]],
        }
        mutate(system)
        with pytest.raises(ConfigError, match=msg):
            load_config(dump_cfg(tmp_path, minimal(system=system, box=[[-1, 1]])))

    @pytest.mark.parametrize("system, box, msg", [
        ({"kind": "pendulum", "g_gravity": -1.0}, [[-3, 3], [-5, 5], [-5, 5]], "g_gravity"),
        ({"kind": "example1", "control_weight": -1.0}, [[-1, 1], [-1, 1]],
         "control_weight must be positive"),
        ({"kind": "polynomial", "f_terms": [[[-1.0, [1]]]], "g_matrix": [[1.0]],
          "D": [[1.0]], "Q0": [[1.0, 0.0]]}, [[-1, 1]], r"Q0 shape \(1, 2\) != \(1, 1\)"),
        ({"kind": "polynomial", "f_terms": [[[-1.0, [1]]]], "g_matrix": [[1.0]],
          "D": [[1.0, 0.0], [0.0, 1.0]], "Q0": [[1.0]]}, [[-1, 1]], "control weight D shape"),
        ({"kind": "polynomial", "f_terms": [[[-1.0, [1]]]], "g_matrix": [[1.0]],
          "D": [[-1.0]], "Q0": [[1.0]]}, [[-1, 1]], "control weight D must be positive"),
        ({"kind": "polynomial", "f_terms": [[[-1.0, [1]], [0.5, [0]]]], "g_matrix": [[1.0]],
          "D": [[1.0]], "Q0": [[1.0]]}, [[-1, 1]], r"f_terms\[0\] has a constant term"),
        ({"kind": "polynomial", "f_terms": [[[-1.0, [-1]]]], "g_matrix": [[1.0]],
          "D": [[1.0]], "Q0": [[1.0]]}, [[-1, 1]], r"negative exponent in f_terms\[0\]"),
    ])
    def test_invalid_system_parameters(self, tmp_path, system, box, msg):
        """The system's own invariants are checked once, by its constructor;
        ``build_system`` reports a violation as a configuration error."""
        cfg = load_config(dump_cfg(tmp_path, minimal(system=system, box=box)))
        with pytest.raises(ConfigError, match=msg):
            build_system(cfg)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "missing.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(path)

    @pytest.mark.parametrize("mutate, msg", [
        (lambda c: c.update(schema_version=2), "schema_version"),
        (lambda c: c.pop("schema_version"), "schema_version"),
        (lambda c: c.update(system={"kind": "rocket"}), "system.kind"),
        (lambda c: c.update(system={"kind": "example1", "mass": 1}), "unknown key"),
        (lambda c: c.update(typo=1), "unknown key"),
        (lambda c: c.update(box=[[-1, 1]]), "box"),
        (lambda c: c.update(box=[[1, -1], [-1, 1]]), "lo < hi"),
        (lambda c: c.update(basis={"deg_min": 1}), "deg_min"),
        (lambda c: c.update(basis={"deg_min": 4, "deg_max": 3}), "deg_min"),
        (lambda c: c.update(basis={"d1": 1}), "d1"),
        (lambda c: c.update(basis={"d2": 0}), "d2"),
        (lambda c: c.update(basis={"d3": 1}), "d3"),
        (lambda c: c.update(basis={"span": 3}), "unknown key"),
        (lambda c: c.update(samples={"L": 0}), "L"),
        (lambda c: c.update(samples={"L": True}), "must be int"),
        (lambda c: c.update(integrator={"dt": 0.0}), "dt"),
        (lambda c: c.update(integrator={"dt": 0.5, "T": 0.1}), "T"),
        (lambda c: c.update(procedure=3), "procedure"),
        (lambda c: c.update(eig_block=-1), "eig_block"),
        (lambda c: c.update(momentum_margin=0), "momentum_margin"),
        (lambda c: c.update(grid_points_per_dim=1), "grid_points_per_dim"),
        (lambda c: c.update(converge={"L_list": [100]}), "L_list"),
        (lambda c: c.update(converge={"L_list": [100, 0]}), "L_list"),
        (lambda c: c.update(converge={"trials": 0}), "trials"),
        (lambda c: c.update(simulate={"controllers": []}), "controllers"),
        (lambda c: c.update(simulate={"controllers": ["pid"]}), "unknown controller"),
        (lambda c: c.update(simulate={"controllers": [{"name": "k"}]}), "gain"),
        (lambda c: c.update(simulate={"controllers": [{"name": "k", "gain": [[1.0]]}]}),
         "columns"),
        (lambda c: c.update(simulate={"ics": [[0.1]]}), "ics"),
        (lambda c: c.update(simulate={"pendulum_cloud": {"center": [1.0]}}), "center"),
        (lambda c: c.update(simulate={"pendulum_cloud": {
            "center": [0.5, 0.5], "count": 0}}), "count"),
        (lambda c: c.update(out=""), "out"),
        (lambda c: c.update(schema_version=True), "'schema_version' must be int"),
        (lambda c: c.update(procedure=True), "'procedure' must be int"),
        (lambda c: c.update(procedure=1.0), "'procedure' must be int"),
        (lambda c: c.update(eig_block=True), "'eig_block' must be int"),
        (lambda c: c.update(momentum_margin=True), "'momentum_margin' must be float"),
        (lambda c: c.update(grid_points_per_dim=5.0), "'grid_points_per_dim' must be int"),
        (lambda c: c.update(converge={"L_list": [True, 100]}),
         r"'converge\.L_list\[0\]' must be int"),
        (lambda c: c.update(converge={"L_list": [100, 1.5e3]}),
         r"'converge\.L_list\[1\]' must be int"),
        (lambda c: c.update(samples={"seed": -1}), "samples.seed"),
        (lambda c: c.update(simulate={"controllers": [
            {"name": "k", "gain": [[1.0, 0.0], [0.0, 1.0]]}]}),
         r"'simulate\.controllers\[0\]\.gain' must be p x n = 1 x 2"),
        (lambda c: c.update(simulate={"pendulum_cloud": {"center": ["a", 0.0]}}),
         "'simulate.pendulum_cloud.center' is not a numeric array"),
        (lambda c: c.update(simulate={"pendulum_cloud": {"center": [0.5, 0.5], "seed": -1}}),
         "simulate.pendulum_cloud.seed"),
        (lambda c: c.update(simulate={"pendulum_cloud": {
            "center": [0.5, 0.5], "rel_width": -0.1}}), "simulate.pendulum_cloud.rel_width"),
        (lambda c: c.update(simulate={"controllers": [
            {"name": "k", "gain": [[1.0, 0.0]], "gian": 1}]}),
         r"unknown key\(s\) in 'simulate\.controllers\[0\]'"),
        (lambda c: c.update(integrator={"T": float("inf")}), "'integrator.T' must be finite"),
        (lambda c: c.update(momentum_margin=float("nan")), "'momentum_margin' must be finite"),
        (lambda c: c.update(box=[[-float("inf"), 1.0], [-1.0, 1.0]]),
         "'box' must have finite entries"),
    ])
    def test_rejections(self, tmp_path, mutate, msg):
        cfg = minimal()
        mutate(cfg)
        with pytest.raises(ConfigError, match=msg):
            load_config(dump_cfg(tmp_path, cfg))


class TestResolvedEcho:
    def test_echo_reloads_to_the_same_configuration(self, tmp_path):
        original = minimal(
            basis={"deg_min": 2, "deg_max": 4},
            samples={"L": 123, "seed": 9},
            simulate={
                "controllers": ["lqr", {"name": "static", "gain": [[0.5, 0.25]]}],
                "ics": [[0.1, 0.2], [0.3, -0.4]],
            },
            out=str(tmp_path / "run1"),
        )
        cfg = load_config(dump_cfg(tmp_path, original))
        echo_path = write_resolved(cfg, cfg.out)
        assert echo_path.name == "resolved_config.yaml"
        cfg2 = load_config(echo_path)
        echo2 = write_resolved(cfg2, tmp_path / "run2")
        assert echo_path.read_text() != ""
        a = yaml.safe_load(echo_path.read_text())
        b = yaml.safe_load(echo2.read_text())
        assert a == b
        np.testing.assert_array_equal(cfg.simulate["ics"], cfg2.simulate["ics"])
        assert cfg.simulate["controllers"] == cfg2.simulate["controllers"]
        assert cfg.basis == cfg2.basis

    def test_polynomial_echo_round_trip(self, tmp_path):
        original = minimal(
            system={
                "kind": "polynomial",
                "f_terms": [[[-1.0, [1]], [1.0, [3]]]],
                "g_matrix": [[1.0]],
                "D": [[1.0]],
                "Q0": [[1.0]],
            },
            box=[[-0.5, 0.5]],
        )
        cfg = load_config(dump_cfg(tmp_path, original))
        echo = write_resolved(cfg, tmp_path / "echo")
        cfg2 = load_config(echo)
        assert cfg2.system["f_terms"] == cfg.system["f_terms"]
        np.testing.assert_array_equal(cfg2.system["g_matrix"], cfg.system["g_matrix"])


# Every key set, numbers given as ints where the echo writes floats, and
# mappings in a different key order than the echo's.
_FULL = {
    "schema_version": 1,
    "system": {
        "kind": "polynomial",
        "f_terms": [[[-1, [1, 0]], [0.5, [0, 3]]], [[-2.5, [0, 1]], [1, [2, 1]]]],
        "g_matrix": [[0], [1]],
        "D": [[2]],
        "Q0": [[1, 0], [0, 3]],
    },
    "box": [[-1, 1], [-0.5, 2]],
    "basis": {"deg_min": 2, "deg_max": 4, "d1": 3, "d2": 2, "d3": 2},
    "samples": {"seed": 7, "L": 400},
    "integrator": {"T": 3, "dt": 0.01},
    "procedure": 2,
    "eig_block": 1,
    "momentum_margin": 1,
    "grid_points_per_dim": 7,
    "converge": {"trials": 4, "L_list": [50, 500]},
    "simulate": {
        "controllers": ["lqr", {"gain": [[0, -1]], "name": "static"}, "procedure2"],
        "ics": [[0.1, 0], [-1, 0.25]],
        "pendulum_cloud": {"rel_width": 0.2, "seed": 5, "count": 3, "center": [1, -2]},
    },
    "out": "runs/full",
}

_FULL_ECHO = """\
schema_version: 1
system:
  kind: polynomial
  f_terms:
  - - - -1.0
      - [1, 0]
    - - 0.5
      - [0, 3]
  - - - -2.5
      - [0, 1]
    - - 1.0
      - [2, 1]
  g_matrix:
  - [0.0]
  - [1.0]
  D:
  - [2.0]
  Q0:
  - [1.0, 0.0]
  - [0.0, 3.0]
box:
- [-1.0, 1.0]
- [-0.5, 2.0]
basis: {deg_min: 2, deg_max: 4, d1: 3, d2: 2, d3: 2}
samples: {L: 400, seed: 7}
integrator: {dt: 0.01, T: 3.0}
procedure: 2
eig_block: 1
momentum_margin: 1.0
grid_points_per_dim: 7
converge:
  L_list: [50, 500]
  trials: 4
simulate:
  controllers:
  - lqr
  - gain:
    - [0, -1]
    name: static
  - procedure2
  ics:
  - [0.1, 0.0]
  - [-1.0, 0.25]
  pendulum_cloud:
    center: [1.0, -2.0]
    count: 3
    seed: 5
    rel_width: 0.2
out: runs/full
"""

_EXAMPLE1_ECHO = """\
schema_version: 1
system: {kind: example1, control_weight: 2.0}
box:
- [-1.0, 1.0]
- [-1.0, 1.0]
basis: {deg_min: 2, deg_max: 5, d1: 5, d2: 3, d3: 0}
samples: {L: 10000, seed: 0}
integrator: {dt: 0.001, T: 20.0}
procedure: 1
eig_block: 0
momentum_margin: 2.0
grid_points_per_dim: 50
converge:
  L_list: [100, 1000, 10000]
  trials: 20
simulate:
  controllers: [procedure1, lqr]
out: out
"""

_PENDULUM_ECHO = """\
schema_version: 1
system: {kind: pendulum, g_gravity: 9.0}
box:
- [-3.0, 3.0]
- [-5.0, 5.0]
- [-5.0, 5.0]
basis: {deg_min: 2, deg_max: 5, d1: 5, d2: 3, d3: 0}
samples: {L: 10000, seed: 0}
integrator: {dt: 0.001, T: 20.0}
procedure: 1
eig_block: 0
momentum_margin: 2.0
grid_points_per_dim: 5
converge:
  L_list: [100, 1000, 10000]
  trials: 20
simulate:
  controllers: [procedure1, lqr]
  pendulum_cloud:
    center: [0.7, -4.2, 6.2]
    count: 10
    seed: 2024
    rel_width: 0.1
out: out
"""


class TestGoldenEcho:
    """``resolved_config.yaml`` bytes, pinned: every key set, and each
    built-in kind with its defaults filled in."""

    @pytest.mark.parametrize("raw, expected", [
        (_FULL, _FULL_ECHO),
        (minimal(system={"kind": "example1", "control_weight": 2}), _EXAMPLE1_ECHO),
        (minimal(system={"kind": "pendulum", "g_gravity": 9},
                 box=[[-3, 3], [-5, 5], [-5, 5]], simulate={"pendulum_cloud": {}}),
         _PENDULUM_ECHO),
    ], ids=["every_key", "example1_defaults", "pendulum_defaults"])
    def test_echo_bytes(self, tmp_path, raw, expected):
        cfg = load_config(dump_cfg(tmp_path, raw))
        echo = write_resolved(cfg, tmp_path / "echo")
        assert echo.read_bytes() == expected.encode()
        # the echo reloads to itself
        again = write_resolved(load_config(echo), tmp_path / "again")
        assert again.read_bytes() == expected.encode()
