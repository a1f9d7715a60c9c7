"""CLI and experiment drivers: artifacts, determinism, exit codes.

Exit code contract: 0 success, 1 verification failure, 2 config error,
3 numeric failure.
"""

import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import concentration_config_dict, reference_config_dict
from evomeasure import cli, kernels
from evomeasure.cli import main
from evomeasure.config import RunConfig
from evomeasure.reductions import DiscreteSystem

ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    with open(p, "w") as fh:
        json.dump(cfg, fh)
    return p


def small_reference(**over):
    cfg = reference_config_dict(cells=16, T=0.2, dt=0.01)
    cfg.update(over)
    return cfg


# ─── config validation ───────────────────────────────────────────────


def test_config_roundtrip_and_build():
    cfg = RunConfig.from_dict(small_reference())
    space, kernel, fp, u = cfg.build()
    assert space.n == 16
    assert u.total_mass() == pytest.approx(1.0)
    assert fp.family == "ricker"


def test_config_missing_section_rejected():
    from evomeasure import ConfigError

    bad = small_reference()
    del bad["kernel"]
    with pytest.raises(ConfigError, match="kernel"):
        RunConfig.from_dict(bad)


def test_config_bad_values_rejected():
    from evomeasure import ConfigError

    with pytest.raises(ConfigError):
        RunConfig.from_dict(small_reference(T=-1.0))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(small_reference(dt=0.0))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(small_reference(solver="euler"))
    for radius in (-1.0, 0.0, "x"):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(small_reference(picard={"ball_radius": radius}))
    for stride in ("x", 0, -3, float("inf")):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(small_reference(summary_stride=stride))
    # non-finite horizons and steps (JSON's NaN/Infinity literals)
    for over in ({"T": float("nan")}, {"T": float("inf")}, {"dt": float("nan")},
                 {"dt": float("inf")}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(small_reference(**over))
    for picard in ({"max_iter": 0}, {"max_iter": float("inf")}, {"tol": -1.0}, {"tol": 0.0},
                   {"tol": float("nan")}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(small_reference(picard=picard))
    # fractional integer settings are refused, not truncated
    for over in ({"picard": {"max_iter": 2.5}}, {"summary_stride": 3.9}, {"seed": 1.7}):
        with pytest.raises(ConfigError, match="whole number"):
            RunConfig.from_dict(small_reference(**over))
    for space in ({"kind": "grid1d", "bounds": [0.0, 2.0], "cells": 16.7},
                  {"kind": "grid2d", "bounds": [[0.0, 2.0], [0.0, 2.0]], "cells": [4.9, 3.2]}):
        with pytest.raises(ConfigError, match="space.cells"):
            RunConfig.from_dict(small_reference(space=space)).build()
    # an integral float is still an integer
    cfg = RunConfig.from_dict(small_reference(seed=2.0, summary_stride=3.0,
                                              space={"kind": "grid1d", "bounds": [0.0, 2.0],
                                                     "cells": 16.0}))
    assert (cfg.seed, cfg.summary_stride, cfg.build()[0].n) == (2, 3, 16)


def test_horizon_override_takes_the_default_step(tmp_path):
    # no dt in the config: --T 0.01 runs at dt = T/2000, not at the config T's
    cfg = small_reference(T=1.0, summary_stride=100000)
    del cfg["dt"]
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                 "--T", "0.01"])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["T"] == 0.01 and meta["dt"] == 0.01 / 2000.0
    assert meta["n_nodes"] == 2001


def test_bad_summary_stride_exits_2_before_running(tmp_path):
    cfg = small_reference(summary_stride="x")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("section, value", [("space", 5), ("kernel", []), ("fitness", "x"),
                                            ("initial", None), ("picard", 5)])
def test_a_section_that_is_not_an_object_exits_2(section, value, tmp_path, capsys):
    from evomeasure import ConfigError

    cfg = small_reference(**{section: value})
    with pytest.raises(ConfigError, match=f"config section '{section}' is not a JSON object"):
        RunConfig.from_dict(cfg)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert f"'{section}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("space, bad", [
    ({"kind": "atoms", "points": [0.0, 0.5, float("nan")]}, "point 2 is not finite: [nan]"),
    ({"kind": "atoms", "points": [0.0, 0.5, float("inf")]}, "point 2 is not finite: [inf]"),
    ({"kind": "grid2d", "bounds": [[0.0, 1.0], [0.0, float("nan")]], "cells": [2, 2]},
     "point 0 is not finite: [0.25, nan]"),
])
def test_a_space_with_a_non_finite_entry_exits_2(space, bad, tmp_path, capsys):
    n = 3 if space["kind"] == "atoms" else 4
    cfg = small_reference(space=space, kernel={"variant": "dirac"},
                          initial={"kind": "weights", "weights": [1.0 / n] * n})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()


def grid2d_reference(cells):
    return small_reference(space={"kind": "grid2d", "bounds": [[0.0, 1.0], [0.0, 1.0]], "cells": cells},
                           kernel={"variant": "dirac"},
                           fitness={"family": "logistic", "a": {"trait": 0}, "b": 1.0})


def refit(**coefs):
    """The small reference with fitness coefficients replaced."""
    return small_reference(fitness={**small_reference()["fitness"], **coefs})


def one_infinite_birth_coefficient():
    a = small_reference()["fitness"]["a"]
    return refit(a=[*a[:5], float("inf"), *a[6:]])


def overflowing_initial_measures():
    huge = [1e308, 1e308] + [0.0] * 14
    return [{"kind": "weights", "weights": huge, "mass": 1.0},
            {"kind": "gaussian", "center": 1.0, "sigma": 0.2, "baseline": 1e308, "mass": 1.0},
            {"kind": "weights", "weights": huge}]


def floored_concentration(floor):
    """The small concentration problem with its mortality floor replaced."""
    cfg = concentration_config_dict(cells=16, T=1.0, dt=0.05)
    return {**cfg, "fitness": {**cfg["fitness"], "floor": floor}}


def every_command():
    """Each command with a small config it runs."""
    return [("simulate", small_reference()), ("verify", small_reference()),
            ("dirac-limit", concentration_config_dict(cells=16, T=1.0, dt=0.05)),
            ("mutation-limit", small_reference(sigmas=[0.2]))]


@pytest.mark.parametrize("command, cfg, message", [
    # grid_2d read cells[1] of a one-entry list, and ran a 2x2 grid on a three-entry one
    ("simulate", grid2d_reference([4]), "space.cells needs two entries (nx, ny), got 1"),
    ("simulate", grid2d_reference([2, 2, 7]), "space.cells needs two entries (nx, ny), got 3"),
    # numpy's uniform sampler raises OverflowError on an infinite range
    ("simulate", small_reference(initial={"kind": "random", "high": float("inf")}),
     "range exceeds valid bounds"),
    ("simulate", small_reference(initial={"kind": "random", "low": -float("inf")}),
     "range exceeds valid bounds"),
    # an infinite step count, which time_grid cannot convert to an integer
    ("simulate", small_reference(T=1e308, dt=0.01), "T / dt must be finite"),
    # a zero mass has no concentration: every share and distance would be NaN
    ("dirac-limit", {**concentration_config_dict(cells=16, T=1.0, dt=0.05),
                     "initial": {"kind": "uniform", "mass": 0.0}},
     "dirac-limit needs a positive initial mass"),
    # non-finite rate coefficients made K~ NaN (a traceback), or RK4's first step non-finite
    ("simulate", refit(a=float("nan")), "coefficient a is not finite: nan"),
    ("simulate", refit(c=float("nan")), "coefficient c is not finite: nan"),
    ("simulate", refit(b=float("inf")), "coefficient b is not finite: inf"),
    ("simulate", refit(floor=float("inf")), "fitness floor is not finite: inf"),
    ("simulate", one_infinite_birth_coefficient(), "coefficient a is not finite: inf"),
    ("verify", refit(a=float("nan")), "coefficient a is not finite: nan"),
    ("verify", refit(c=float("nan")), "coefficient c is not finite: nan"),
    # finite weights whose sum overflows: rescaled to the zero measure, or a numeric failure
    *[(command, small_reference(initial=initial), "the initial measure's total mass is not finite: inf")
      for command in ("simulate", "verify") for initial in overflowing_initial_measures()],
    # a Gaussian width whose 2 sigma^2 underflows: a ZeroDivisionError, or a NaN kernel diagonal
    *[(command, {**cfg, "kernel": {"variant": "gaussian", "sigma": sigma}},
       f"sigma must be positive and finite with 1 / (2 sigma^2) finite, got {sigma!r}")
      for command, cfg in every_command() for sigma in (1e-300, 1e-160)],
    # the initial Gaussian's width: 0 / 0 at the center, or a NaN sigma, made a NaN total mass
    *[(command, small_reference(initial={"kind": "gaussian", "center": 1.0625, "sigma": sigma}),
       f"initial gaussian: sigma must be positive and finite with 1 / (2 sigma^2) finite, got {sigma!r}")
      for command in ("simulate", "verify") for sigma in (1e-300, float("nan"))],
    # 1e17 nodes, 8e17 bytes, past any address space: numpy's MemoryError
    *[(command, {**cfg, "T": 1e8, "dt": 1e-9},
       "the node grid of T = 100000000.0 at dt = 1e-09 has 1e+17 nodes, which cannot be allocated")
      for command, cfg in every_command()],
    # a mortality floor above every birth rate reported a negative target mass and exited 0
    ("dirac-limit", floored_concentration(5.0),
     "the largest (a - floor) / b is -3.01125, at cell 7, so the population goes extinct"),
    # JSON's true was read as the integer 1
    ("simulate", small_reference(space={"kind": "grid1d", "bounds": [0.0, 2.0], "cells": True}),
     "space.cells must be a whole number, got True"),
    ("simulate", grid2d_reference([True, 3]), "space.cells must be a whole number, got True"),
    ("simulate", small_reference(seed=True), "seed must be a whole number, got True"),
    ("simulate", small_reference(summary_stride=True), "summary_stride must be a whole number, got True"),
    ("simulate", small_reference(solver="picard", picard={"max_iter": True}),
     "picard.max_iter must be a whole number, got True"),
    ("simulate", refit(a={"trait": True}), "coefficient a: trait index must be a whole number, got True"),
    # numpy.random refused it in verify's sampler (a traceback and exit 1), and simulate ignored it
    *[(command, small_reference(seed=-1), "seed must be nonnegative, got -1") for command in ("simulate", "verify")],
    # JSON's true was read as the number 1.0
    ("simulate", small_reference(T=True), "T must be a number, got True"),
    ("simulate", small_reference(dt=True), "dt must be a number, got True"),
    ("simulate", small_reference(solver="picard", picard={"tol": True}), "picard.tol must be a number, got True"),
    ("simulate", small_reference(solver="picard", picard={"ball_radius": True}),
     "picard.ball_radius must be a number, got True"),
    ("simulate", small_reference(kernel={"variant": "gaussian", "sigma": True}),
     "kernel.sigma must be a number, got True"),
    ("simulate", small_reference(initial={"kind": "uniform", "mass": True}), "initial.mass must be a number, got True"),
    ("simulate", small_reference(space={"kind": "grid1d", "bounds": [False, 2.0], "cells": 16}),
     "space.bounds must be a number, got False"),
    ("simulate", refit(floor=True), "fitness.floor must be a number, got True"),
    ("verify", refit(b=True), "coefficient b must be a number, got True"),
    ("mutation-limit", small_reference(sigmas=[0.4, True]), "sigma must be a number, got True"),
    # JSON's true and false inside an array were read as 1.0 and 0.0
    ("verify", refit(b=[True] + [1.0] * 15), "coefficient b must hold only numbers, got True"),
    ("simulate", refit(a=[1.0] * 15 + [False]), "coefficient a must hold only numbers, got False"),
    ("simulate", small_reference(initial={"kind": "weights", "weights": [0.1] * 15 + [True]}),
     "initial.weights must hold only numbers, got True"),
    ("simulate", small_reference(initial={"kind": "gaussian", "center": [True], "sigma": 0.5}),
     "initial.center must hold only numbers, got True"),
    ("simulate", {**grid2d_reference([4, 4]), "space": {"kind": "grid2d", "bounds": [[0.0, True], [0.0, 1.0]],
                                                         "cells": [4, 4]}},
     "space.bounds must hold only numbers, got True"),
    ("simulate", small_reference(kernel={"variant": "matrix", "rows": [[True] + [0.0] * 15] + np.eye(16)[1:].tolist()}),
     "kernel.rows must hold only numbers, got True"),
    ("simulate", small_reference(space={"kind": "atoms", "points": [[0.15 * i] for i in range(15)] + [[True]]}),
     "space.points must hold only numbers, got True"),
])
def test_a_config_that_cannot_run_exits_2_without_output(command, cfg, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


NUMPY_MEMORY_ERROR = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_a_run_too_large_for_memory_exits_2(command, tmp_path, capsys, monkeypatch):
    # at 100000 cells simulate's Gaussian table, and verify's class-system
    # identity on a Dirac grid, cannot be allocated: numpy's MemoryError was a
    # traceback and exit 1.  The allocation is refused here, not attempted:
    # a host that overcommits memory may grant it
    def refuse(*args):
        raise MemoryError(NUMPY_MEMORY_ERROR)

    if command == "simulate":
        monkeypatch.setattr(kernels, "gaussian_kernel", refuse)
        cfg = small_reference()
    else:  # after verify has forked its child
        monkeypatch.setattr(DiscreteSystem, "from_measure_problem", staticmethod(refuse))
        cfg = small_reference(kernel={"variant": "dirac"})
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"the run does not fit in memory: {NUMPY_MEMORY_ERROR}"]
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # no child is left running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_an_output_path_that_cannot_be_a_directory_exits_2(command, out, tmp_path, capsys):
    # an existing file, or a path below one: the artifacts cannot be written
    (tmp_path / "file").write_text("kept\n")
    args = [command, "--config", str(write_config(tmp_path, small_reference())), "--out", str(tmp_path / out)]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write the artifacts: ")
    assert (tmp_path / "file").read_text() == "kept\n"


def test_config_mean_fitness_with_picard_is_config_error(tmp_path):
    cfg = small_reference(
        fitness={"family": "mean_fitness", "a": 1.0},
        solver="picard",
    )
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_random_initial_is_seed_deterministic():
    cfg = small_reference(initial={"kind": "random", "mass": 1.0})
    u1 = RunConfig.from_dict(cfg).build()[3]
    u2 = RunConfig.from_dict(cfg).build()[3]
    assert np.array_equal(u1.weights, u2.weights)
    cfg2 = dict(cfg, seed=1)
    u3 = RunConfig.from_dict(cfg2).build()[3]
    assert not np.array_equal(u1.weights, u3.weights)


# ─── simulate ────────────────────────────────────────────────────────


def test_simulate_zero_fitness_constant_trajectory(tmp_path):
    cfg = small_reference(fitness={"family": "constant", "a": 0.0, "b": 0.0})
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    header, body = rows[0], rows[1:]
    assert header == "t,index,weight"
    by_index = {}
    for line in body:
        t, i, w = line.split(",")
        by_index.setdefault(i, set()).add(w)
    assert all(len(ws) == 1 for ws in by_index.values()), "weights changed over time"


def test_simulate_outputs_parse_back_and_match_masses(tmp_path):
    cfg = small_reference()
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    lines = (out / "trajectory.csv").read_text().strip().splitlines()[1:]
    times = sorted({float(l.split(",")[0]) for l in lines})
    assert len(times) == meta["n_nodes"]
    # rebuild the final state from the CSV and compare the cached mass
    final_t = max(times)
    weights = np.zeros(16)
    for line in lines:
        t, i, w = line.split(",")
        if float(t) == final_t:
            weights[int(i)] = float(w)
    assert weights.sum() == meta["final_mass"]
    # summary rows replay exactly
    for row in (out / "summary.csv").read_text().strip().splitlines()[1:]:
        t, mass, bl = row.split(",")
        assert float(mass) >= 0.0


def test_simulate_deterministic_outputs(tmp_path):
    cfg = small_reference(initial={"kind": "random", "mass": 1.0}, seed=7)
    p = write_config(tmp_path, cfg)
    main(["simulate", "--config", str(p), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(p), "--out", str(tmp_path / "b")])
    for name in ("trajectory.csv", "summary.csv", "metadata.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_picard_records_cross_distance(tmp_path):
    cfg = small_reference(solver="picard")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["rk4_cross_sup_tv"] <= 1e-5
    assert meta["trajectory_meta"]["windows"]


def test_simulate_picard_long_run_has_the_rk4_node_count(tmp_path):
    # zero net growth on two atoms, 1858 steps: seams summed as floats once
    # drifted into a 1e-12 extra window, and the RK4 cross-check then met a
    # node more than it had
    cfg = {
        "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "constant", "a": [1.0, 1.0], "b": [1.0, 1.0]},
        "initial": {"kind": "weights", "weights": [0.5, 0.5]},
        "solver": "picard",
        "T": 92.9,
        "dt": 0.05,
    }
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    assert json.loads((out / "metadata.json").read_text())["n_nodes"] == 1859


def test_simulate_picard_horizon_off_the_step_grid_passes(tmp_path):
    # T / dt = 39.5: the last Picard window must end with the same shortened
    # step as the RK4 cross-check, so both runs share node times
    cfg = reference_config_dict(cells=16, T=0.395, dt=0.01, solver="picard")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["rk4_cross_sup_tv"] <= 1e-5


def test_simulate_config_error_exit_2(tmp_path):
    cfg = small_reference(solver="nope")
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    code = main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    good = str(write_config(tmp_path, small_reference(), name="good.json"))
    for flag in ("--T", "--dt"):
        for value in ("nan", "inf", "-1"):
            code = main(["simulate", "--config", good, "--out", str(tmp_path / "out"), flag, value])
            assert code == 2
    assert not (tmp_path / "out").exists()


def test_negative_or_nonfinite_initial_mass_exits_2(tmp_path):
    # the nonnegativity check runs on the unscaled weights: a negative mass
    # must be refused on its own, not reach the solver, and leave no --out
    out = tmp_path / "out"
    for mass in (-1.0, float("nan"), float("inf")):
        p = write_config(tmp_path, small_reference(initial={"kind": "uniform", "mass": mass}))
        for command in (["simulate"], ["verify"], ["mutation-limit", "--sigmas", "0.2"]):
            assert main([*command, "--config", str(p), "--out", str(out)]) == 2
            assert not out.exists()


def test_simulate_nan_kernel_matrix_exits_2(tmp_path):
    cfg = small_reference(space={"kind": "atoms", "points": [[0.0], [1.0]]},
                          kernel={"variant": "matrix", "rows": [[float("nan"), 1.0], [1.0, 0.0]]},
                          fitness={"family": "constant", "a": 1.0, "b": 1.0})
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_simulate_fractional_trait_index_exits_2(tmp_path):
    # {"trait": 1.7} used to read coordinate 1; an integral float still reads it
    space = {"kind": "grid2d", "bounds": [[0.0, 1.0], [0.0, 1.0]], "cells": [2, 2]}
    for trait, want in ((1.7, 2), (1.0, 0)):
        cfg = small_reference(space=space, T=0.01,
                              fitness={"family": "logistic", "a": {"trait": trait}, "b": 1.0})
        code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(tmp_path / f"out{trait}")])
        assert code == want


def test_simulate_numeric_failure_exit_3(tmp_path):
    # the planted negativity problem from the solver tests, via the CLI
    cfg = {
        "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
        "kernel": {"variant": "matrix", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        "fitness": {"family": "constant", "a": [6.0, 0.0], "b": [0.0, 12.0]},
        "initial": {"kind": "weights", "weights": [1.0, 1e-6]},
        "solver": "rk4",
        "T": 3.0,
        "dt": 0.3,
    }
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    assert code == 3


def test_constants_without_a_window_exit_3(tmp_path, capsys):
    # exp(400 X) overflows the rate tables, so no contraction window exists
    cfg = small_reference(T=0.01, fitness={"family": "ricker", "a": 1.0, "c": -400.0,
                                           "b": 0.5, "floor": 0.2})
    path = write_config(tmp_path, cfg)
    for args in (["verify"], ["simulate", "--solver", "picard"]):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([*args, "--config", str(path), "--out", str(tmp_path / args[0])])
        assert code == 3
        assert "numeric failure: no positive window" in capsys.readouterr().err


def test_no_window_exit_names_the_broken_assumption(tmp_path, capsys):
    cfg = small_reference(T=0.01, fitness={"family": "ricker", "a": 1.0, "c": -400.0,
                                           "b": 0.5, "floor": 0.2})
    path = write_config(tmp_path, cfg)
    for args in (["verify"], ["simulate", "--solver", "picard"]):
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([*args, "--config", str(path), "--out", str(tmp_path / args[0])]) == 3
        assert "f1_not_nonincreasing at X=" in capsys.readouterr().err


def test_simulate_two_trait_logistic_mass_reaches_equilibrium(tmp_path):
    # pure-selection logistic classes in int(R^2_+): the mass column
    # approaches (q1 - floor)/q2 of the surviving class
    floor = 1e-3
    cfg = {
        "space": {"kind": "atoms", "points": [[1.0, 1.0], [1.0, 2.0]]},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "logistic", "a": {"trait": 0}, "b": {"trait": 1}, "floor": floor},
        "initial": {"kind": "weights", "weights": [0.2, 0.3]},
        "solver": "rk4",
        "T": 60.0,
        "dt": 0.01,
    }
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["final_mass"] == pytest.approx((1.0 - floor) / 1.0, abs=5e-3)


# ─── verify ──────────────────────────────────────────────────────────


def test_verify_reference_all_pass(tmp_path):
    cfg = small_reference()
    out = tmp_path / "v"
    code = main(["verify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"]
    for name in ("assumptions", "lipschitz_field", "positivity", "gronwall",
                 "semigroup_identity", "semigroup_composition", "discrete_reduction",
                 "normalized_fd"):
        assert name in report["checks"], name
        assert report["checks"][name]["passed"], name


def test_verify_horizon_off_the_step_grid_passes(tmp_path):
    # T / dt = 333.33...: the last RK4 step is shortened to end at T, and the
    # class-system oracle must step on the same grid
    cfg = reference_config_dict(cells=16, T=1.0, dt=0.003)
    out = tmp_path / "v"
    code = main(["verify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["discrete_reduction"]["passed"]
    assert checks["normalized_fd"]["passed"]


def test_verify_planted_assumption_violation_fails(tmp_path):
    # f2 = b X with no floor: no inherent mortality, so the floor check fails
    cfg = small_reference(fitness={"family": "logistic", "a": 1.0, "b": 0.5, "floor": 0.0})
    out = tmp_path / "v"
    code = main(["verify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "verify.json").read_text())
    assert not report["checks"]["assumptions"]["passed"]
    assert report["checks"]["assumptions"]["violations"]


def test_verify_holds_each_trajectory_once(monkeypatch):
    # at 64 cells no trajectory is held: the RK4 reference is read once, in
    # blocks of 64 nodes, with the class-system identity and the coarse
    # frequency gaps checked on each block, the semigroup restart is one step
    # from the node before T, and the dt/2 run on [0, 1] is read in blocks
    # too; the traced peak is 0.2-0.45 references.  A collected reference peaks at 1.1-1.2, a materialized
    # dt/2 run higher still.  tracemalloc sees only this process, so the
    # guard runs twice: with the dt/2 run in the forked child and the
    # restart in this process, and all inline, where os.fork is missing.  A warm-up call in each mode first takes the one-time
    # allocations of a process (about 0.37 reference; inline, also the
    # import of numpy.random, which a forked verify makes in its child) out
    # of the measurement
    import os
    import tracemalloc

    from evomeasure.experiments import verify

    for forked in (True, False):
        if not forked:
            monkeypatch.delattr(os, "fork")
        verify(RunConfig.from_dict(reference_config_dict(cells=8, T=0.2, dt=0.01)))
        for T in (4.0, 2.0):
            cfg = RunConfig.from_dict(reference_config_dict(cells=64, T=T, dt=1e-3))
            tracemalloc.start()
            try:
                report = verify(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report["passed"]
            reference_bytes = (round(T / 1e-3) + 1) * 64 * 8
            assert peak <= 0.75 * reference_bytes, \
                f"forked={forked}, T={T}: traced peak {peak / reference_bytes:.2f} references"


def test_verify_records_the_references_clips(tmp_path):
    # class 1 receives a 1e-9 share of class 0's births and dies at rate 18:
    # at dt = 0.1 every RK4 step dips its weight below zero by far less than
    # the abort tolerance and clips it (the problem of
    # test_rk4_records_clips_that_do_not_abort); the positivity record of an
    # rk4 verify carries the reference's clip record
    from evomeasure import rk4_integrate

    cfg = {
        "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
        "kernel": {"variant": "matrix", "rows": [[1.0 - 1e-9, 1e-9], [0.0, 1.0]]},
        "fitness": {"family": "constant", "a": [1.0, 0.0], "b": [26.0, 18.0]},
        "initial": {"kind": "weights", "weights": [1.0, 0.0]},
        "solver": "rk4",
        "T": 1.0,
        "dt": 0.1,
    }
    _, kernel, fp, u = RunConfig.from_dict(cfg).build()
    meta = rk4_integrate(u, kernel, fp, 1.0, 0.1).meta
    assert meta["clip_count"] == 10 and meta["clip_max"] > 0.0
    for solver, dt, clips in (("rk4", 0.1, (10, meta["clip_max"])), ("rk4", 0.01, (0, 0.0)),
                              ("picard", 0.01, None)):
        out = tmp_path / f"{solver}{dt}"
        main(["verify", "--config", str(write_config(tmp_path, dict(cfg, solver=solver, dt=dt))),
              "--out", str(out)])
        positivity = json.loads((out / "verify.json").read_text())["checks"]["positivity"]
        assert positivity["passed"]
        if clips is None:
            assert "clip_count" not in positivity and "clip_max" not in positivity
        else:
            assert (positivity["clip_count"], positivity["clip_max"]) == clips


def test_verify_oversized_dt_fails_positivity(tmp_path):
    cfg = {
        "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
        "kernel": {"variant": "matrix", "rows": [[0.0, 1.0], [1.0, 0.0]]},
        "fitness": {"family": "constant", "a": [6.0, 0.0], "b": [0.0, 12.0]},
        "initial": {"kind": "weights", "weights": [1.0, 1e-6]},
        "solver": "rk4",
        "T": 3.0,
        "dt": 0.3,
    }

    # step-size bisection oracle: bracket the positivity threshold and check
    # the planted dt sits above it (and a safe dt below it)
    from evomeasure import NumericError, rk4_integrate

    space, kernel, fp, u = RunConfig.from_dict(dict(cfg, dt=0.01)).build()

    def fails(dt):
        try:
            rk4_integrate(u, kernel, fp, 3.0, dt)
            return False
        except NumericError:
            return True

    lo, hi = 0.01, 0.3
    assert not fails(lo) and fails(hi)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if not fails(mid) else (lo, mid)
    assert lo < hi <= 0.3  # the failure threshold sits at or below the planted dt

    out = tmp_path / "v"
    code = main(["verify", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "verify.json").read_text())
    assert not report["checks"]["positivity"]["passed"]
    assert "step" in report["checks"]["positivity"]["witness"]


# ─── dirac-limit ─────────────────────────────────────────────────────


def test_dirac_limit_two_atoms(tmp_path):
    cfg = {
        "space": {"kind": "atoms", "points": [[1.0, 1.0], [1.0, 2.0]]},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "logistic", "a": {"trait": 0}, "b": {"trait": 1}, "floor": 1e-3},
        "initial": {"kind": "weights", "weights": [0.25, 0.25]},
        "solver": "rk4",
        "T": 40.0,
        "dt": 0.01,
    }
    out = tmp_path / "d"
    code = main(["dirac-limit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "dirac_limit.json").read_text())
    assert not report["tie"]
    assert report["fittest_index_floored"] == 0
    assert report["final_fraction"] > 0.99
    rows = (out / "concentration.csv").read_text().strip().splitlines()
    assert rows[0] == "t,mass_fraction,bl_to_atom,total_mass"
    assert len(rows) > 3


def test_dirac_limit_tie_reports_shares(tmp_path):
    # two distinct strategy points with identical rate coefficients: the
    # symmetry keeps the shares at their initial proportions
    cfg = {
        "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "logistic", "a": [1.0, 1.0], "b": [1.0, 1.0], "floor": 1e-3},
        "initial": {"kind": "weights", "weights": [0.3, 0.2]},
        "solver": "rk4",
        "T": 20.0,
        "dt": 0.01,
    }
    out = tmp_path / "d"
    code = main(["dirac-limit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "dirac_limit.json").read_text())
    assert report["tie"]
    # identical fitness ratios: shares stay at their initial proportions
    shares = report["final_shares"]
    assert shares[0] == pytest.approx(0.6, abs=1e-9)
    assert (out / "shares.csv").exists()


def test_dirac_limit_requires_dirac_kernel(tmp_path):
    cfg = concentration_config_dict(cells=16, T=1.0, dt=0.01)
    out = tmp_path / "d"
    for kernel in ({"variant": "uniform"}, {"variant": "gaussian", "sigma": 0.2}):
        cfg["kernel"] = kernel
        code = main(["dirac-limit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
        assert code == 2
        assert not out.exists()


def test_non_object_config_exits_2(tmp_path):
    p = write_config(tmp_path, [1, 2])
    for over in ([], ["--T", "0.1"]):
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out"), *over]) == 2


# ─── mutation-limit ──────────────────────────────────────────────────


def test_mutation_limit_sweep(tmp_path):
    cfg = reference_config_dict(cells=32, T=0.5, dt=0.005)
    out = tmp_path / "m"
    code = main(["mutation-limit", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out), "--sigmas", "0.4,0.1,0.025"])
    assert code == 0
    report = json.loads((out / "mutation_limit.json").read_text())
    assert report["strictly_decreasing"]
    header = (out / "mutation_limit.csv").read_text().splitlines()[0]
    assert header == "t,sigma_0.4,sigma_0.1,sigma_0.025"


def test_mutation_limit_cell_local_sigma_matches_dirac(tmp_path):
    # sigma far below the cell size: the kernel rows equal the Dirac rows,
    # so the distance to the pure-selection run is solver-tolerance level
    cfg = reference_config_dict(cells=16, T=0.2, dt=0.01)
    out = tmp_path / "m"
    code = main(["mutation-limit", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(out), "--sigmas", "0.003"])
    assert code == 0
    report = json.loads((out / "mutation_limit.json").read_text())
    assert report["final_distances"][0] <= 1e-8


def test_mutation_limit_needs_sigmas(tmp_path):
    cfg = reference_config_dict(cells=16, T=0.2, dt=0.01)
    code = main(["mutation-limit", "--config", str(write_config(tmp_path, cfg)),
                 "--out", str(tmp_path / "m")])
    assert code == 2


def test_mutation_limit_bad_sigmas_exit_2_before_running(tmp_path):
    cfg = reference_config_dict(cells=16, T=0.2, dt=0.01)
    p = str(write_config(tmp_path, cfg))
    for sigmas in ("0.4,-1", "0", "nan", "inf", "0.1,0.2", "0.4,0.2,0.2", "0.4,1e-300", "0.4,1e-160"):
        assert main(["mutation-limit", "--config", p, "--out", str(tmp_path / "out"),
                     "--sigmas", sigmas]) == 2
    p = str(write_config(tmp_path, dict(cfg, sigmas=[0.2, "x"]), name="listed.json"))
    assert main(["mutation-limit", "--config", p, "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigmas", ["42", 0.2])
def test_mutation_limit_config_sigmas_must_be_a_list(sigmas, tmp_path, capsys):
    # the string "42" once ran sigma = 4 and sigma = 2, one character each
    cfg = dict(reference_config_dict(cells=16, T=0.2, dt=0.01), sigmas=sigmas)
    out = tmp_path / "out"
    assert main(["mutation-limit", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
    assert "the config's 'sigmas' must be a JSON list" in capsys.readouterr().err
    assert not out.exists()


def test_mutation_limit_huge_sigma_dominates(tmp_path):
    # a near-uniform kernel sits at the top of the sweep
    cfg = reference_config_dict(cells=16, T=0.2, dt=0.01)
    cfg["summary_stride"] = 10
    p = write_config(tmp_path, cfg)
    args = ["mutation-limit", "--config", str(p), "--sigmas", "5.0,0.4,0.1"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 0
    rep = json.loads((tmp_path / "out" / "mutation_limit.json").read_text())
    dists = rep["final_distances"]
    assert dists[0] == max(dists)


# ─── the program entry ───────────────────────────────────────────────


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    p = write_config(tmp_path, concentration_config_dict(cells=16, T=1.0, dt=0.05))
    frozen = gc.get_freeze_count()
    assert main(["dirac-limit", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("command, config", [("dirac-limit", "cfg.json"), ("dirac-limit", "missing.json"),
                                             ("verify", "cfg.json")], ids=["cfg.json", "missing.json", "verify"])
def test_the_module_run_as_main_freezes_and_exits_with_mains_code(command, config, tmp_path):
    # verify forks its child from the frozen heap, and writes the same bytes
    write_config(tmp_path, small_reference() if command == "verify"
                 else concentration_config_dict(cells=16, T=1.0, dt=0.05))
    out = tmp_path / "out"
    args = [command, "--config", str(tmp_path / config), "--out", str(out)]
    want = main(args)
    written = {p.name: p.read_bytes() for p in out.glob("*")}
    script = (
        "import atexit, gc, runpy\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "runpy.run_module('evomeasure.cli', run_name='__main__', alter_sys=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == want, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "frozen True", proc.stdout
    assert {p.name: p.read_bytes() for p in out.glob("*")} == written


def test_the_console_script_is_the_program_entry():
    # read with a regex: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text()
    target = re.search(r'^\[project\.scripts\]\nevomeasure = "([\w.]+):(\w+)"$', text, re.M)
    assert target is not None
    assert getattr(importlib.import_module(target[1]), target[2]) is cli.entry
