"""The benchmark workloads: run configs, CLI arguments and output checks.

Each workload is one `evomeasure` CLI command on a config built here from a
seed.  Seed 0 gives the literal configs described in README.md; any other
seed multiplies the initial weights by independent factors in [0.9, 1.1]
(mass renormalized to 1), so work sizes stay the same and every check still
holds.  Nothing else depends on the seed.

`check(name, out_dir, seed)` returns a list of failure messages for one
invocation's artifacts; an empty list means the outputs are correct.  At
seed 0 it also compares the values returned by `reference_values` with the
ones recorded in reference.json (by `selftest.py --record`) from the engine
at commit 8b39e71, within TOLERANCES, so that a reordered floating-point sum
or another exact LP formulation still passes but a changed result does not.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

# Seed-0 reference comparison: |value - reference| <= abs + rel * |reference|.
# Flat distances come from an LP solved to HiGHS's tolerances: the dense and
# the neighbour-only 1-D formulations (both exact) differ by up to 3e-9 on
# dirac_limit_1d, so they get 5e-8, twenty times below the 1e-6 change the
# self-test must flag.  Finite-difference residuals divide rounding of the
# states by dt, so only their leading digits are stable.  Everything else is
# plain float arithmetic, where reordered sums move the last few digits.
TOLERANCES = {  # key -> (abs, rel)
    "bl_to_atom": (5e-8, 0.0),
    "bl_to_final": (5e-8, 0.0),
    "normalized_fd": (0.0, 1e-3),
    "normalized_fd_coarse": (0.0, 1e-3),
}
DEFAULT_TOLERANCE = (1e-15, 1e-9)

# picard_2d: bound on the sup-TV distance between the Picard and RK4 runs
# (the unmodified engine gives 5.3e-8) and on the exponential-mass-bound excess.
CROSS_SOLVER_TOL = 1e-6
GRONWALL_TOL = 1e-6

PERTURBATION = 0.1


def _centers(lo: float, hi: float, cells: int) -> list[float]:
    h = (hi - lo) / cells
    return [lo + h * (i + 0.5) for i in range(cells)]


def _perturbed(weights: list[float], seed: int) -> dict:
    rng = random.Random(seed)
    w = [x * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)) for x in weights]
    return {"kind": "weights", "weights": w, "mass": 1.0}


def _dirac_limit_1d(seed: int) -> dict:
    # criterion 09's concentration problem at 64 cells: Dirac kernel, a kinked
    # birth ceiling peaking at q* = 0.93, logistic mortality with a floor
    q = _centers(0.0, 2.0, 64)
    initial = {"kind": "gaussian", "center": [0.7], "sigma": 0.5, "baseline": 0.5, "mass": 1.0}
    if seed:
        h = 2.0 / 64
        initial = _perturbed(
            [(0.5 + math.exp(-((x - 0.7) ** 2) / (2 * 0.5 * 0.5))) * h for x in q], seed
        )
    return {
        "space": {"kind": "grid1d", "bounds": [0.0, 2.0], "cells": 64},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "logistic", "a": [2.0 - 1.5 * abs(x - 0.93) for x in q],
                    "b": 1.0, "floor": 1e-3},
        "initial": initial,
        "solver": "rk4",
        "T": 200.0,
        "dt": 0.05,
        "seed": 0,
    }


def _verify_1d(seed: int) -> dict:
    # the tests' reference Ricker/Gaussian problem at 128 cells
    q = _centers(0.0, 2.0, 128)
    initial = {"kind": "uniform", "mass": 1.0}
    if seed:
        initial = _perturbed([1.0 / 128] * 128, seed)
    return {
        "space": {"kind": "grid1d", "bounds": [0.0, 2.0], "cells": 128},
        "kernel": {"variant": "gaussian", "sigma": 0.15},
        "fitness": {"family": "ricker", "a": [1.0 + 0.5 * x for x in q],
                    "c": 0.6, "b": 0.5, "floor": 0.2},
        "initial": initial,
        "solver": "rk4",
        "T": 4.0,
        "dt": 1e-3,
        "seed": 0,
    }


def _picard_2d(seed: int) -> dict:
    initial = {"kind": "gaussian", "center": [0.7, 1.0], "sigma": 0.5, "baseline": 0.2, "mass": 1.0}
    if seed:
        # grid2d point order: the x index is the outer loop
        xs = ys = _centers(0.0, 2.0, 16)
        initial = _perturbed(
            [(0.2 + math.exp(-((x - 0.7) ** 2 + (y - 1.0) ** 2) / (2 * 0.5 * 0.5))) / 64
             for x in xs for y in ys],
            seed,
        )
    return {
        "space": {"kind": "grid2d", "bounds": [[0.0, 2.0], [0.0, 2.0]], "cells": [16, 16]},
        "kernel": {"variant": "gaussian", "sigma": 0.2},
        "fitness": {"family": "ricker", "a": {"trait": 0}, "c": 0.6, "b": 0.5, "floor": 0.5},
        "initial": initial,
        "solver": "picard",
        "T": 2.0,
        "dt": 1e-3,
        # above the 2001 nodes: summary.csv holds t=0 and t=T only, one real LP
        "summary_stride": 100000,
        "seed": 0,
    }


CONFIGS = {"dirac_limit_1d": _dirac_limit_1d, "verify_1d": _verify_1d, "picard_2d": _picard_2d}
COMMANDS = {"dirac_limit_1d": "dirac-limit", "verify_1d": "verify", "picard_2d": "simulate"}
NAMES = tuple(CONFIGS)


def config(name: str, seed: int) -> dict:
    return CONFIGS[name](seed)


def cli_args(name: str, config_path, out_dir) -> list[str]:
    return [COMMANDS[name], "--config", str(config_path), "--out", str(out_dir)]


# ─── output checks ───────────────────────────────────────────────────


def _column(path: Path, name: str) -> list[float]:
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    return [float(line.split(",")[i]) for line in lines[1:]]


def _final_state_tv(path: Path, n: int) -> float:
    """TV of the last time node of a long-form ``t,index,weight`` CSV."""
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 200 * (n + 1)))
        tail = fh.read().decode().splitlines()[-n:]
    rows = [line.split(",") for line in tail]
    if len({r[0] for r in rows}) != 1 or sorted(int(r[1]) for r in rows) != list(range(n)):
        raise ValueError("the last trajectory rows are not one complete time node")
    return math.fsum(abs(float(r[2])) for r in rows)


def reference_values(name: str, out_dir) -> dict:
    """The numbers compared against reference.json at seed 0."""
    out = Path(out_dir)
    if name == "dirac_limit_1d":
        report = json.loads((out / "dirac_limit.json").read_text())
        return {
            "bl_to_atom": _column(out / "concentration.csv", "bl_to_atom"),
            "final_mass": report["final_mass"],
        }
    if name == "verify_1d":
        checks = json.loads((out / "verify.json").read_text())["checks"]
        return {
            "lipschitz_observed_ratio": checks["lipschitz_field"]["observed_ratio"],
            "gronwall_excess": checks["gronwall"]["excess"],
            "normalized_fd": checks["normalized_fd"]["max_discrepancy"],
            "normalized_fd_coarse": checks["normalized_fd"]["coarse"],
        }
    if name == "picard_2d":
        meta = json.loads((out / "metadata.json").read_text())
        return {
            "bl_to_final": _column(out / "summary.csv", "bl_to_final"),
            "final_mass": meta["final_mass"],
            "final_state_tv": _final_state_tv(out / "trajectory.csv", 16 * 16),
        }
    raise KeyError(name)


def _check_reference(name: str, out: Path) -> list[str]:
    ref = json.loads(REFERENCE_FILE.read_text())[name]
    got = reference_values(name, out)
    failures = []
    for key, expected in ref.items():
        tol_abs, tol_rel = TOLERANCES.get(key, DEFAULT_TOLERANCE)
        values, expected = (got[key], expected) if isinstance(expected, list) else ([got[key]], [expected])
        if len(values) != len(expected):
            failures.append(f"{key} has {len(values)} values, the seed-0 reference {len(expected)}")
            continue
        for i, (v, r) in enumerate(zip(values, expected)):
            if not abs(v - r) <= tol_abs + tol_rel * abs(r):
                failures.append(f"{key}[{i}] = {v!r} differs from the seed-0 reference {r!r} "
                                f"beyond abs {tol_abs:g} + rel {tol_rel:g}")
                break
    return failures


def _check_dirac_limit(out: Path, seed: int) -> list[str]:
    report = json.loads((out / "dirac_limit.json").read_text())
    cfg = config("dirac_limit_1d", seed)["fitness"]
    ratio = [(a - cfg["floor"]) / cfg["b"] for a in cfg["a"]]
    best = max(range(len(ratio)), key=ratio.__getitem__)
    failures = []
    if report["fittest_index_floored"] != best:
        failures.append(f"fittest_index_floored is {report['fittest_index_floored']}, expected {best}")
    if report["tie"]:
        failures.append("dirac-limit reported a tie; the fittest class is unique")
    if len(_column(out / "concentration.csv", "bl_to_atom")) != 201:
        failures.append("concentration.csv does not hold 201 sampled times")
    return failures


def _check_verify(out: Path, seed: int) -> list[str]:
    del seed
    report = json.loads((out / "verify.json").read_text())
    failures = [f"verify check {k} failed" for k, c in report["checks"].items() if not c["passed"]]
    if not report["passed"]:
        failures.append("verify.json reports passed=false")
    return failures


def _check_picard(out: Path, seed: int) -> list[str]:
    del seed
    meta = json.loads((out / "metadata.json").read_text())
    failures = []
    if not meta["gronwall_excess"] <= GRONWALL_TOL:
        failures.append(f"gronwall_excess {meta['gronwall_excess']!r} > {GRONWALL_TOL:g}")
    if not meta["rk4_cross_sup_tv"] <= CROSS_SOLVER_TOL:
        failures.append(f"rk4_cross_sup_tv {meta['rk4_cross_sup_tv']!r} > {CROSS_SOLVER_TOL:g}")
    if len(_column(out / "summary.csv", "bl_to_final")) != 2:
        failures.append("summary.csv does not hold exactly t=0 and t=T")
    return failures


_CHECKS = {"dirac_limit_1d": _check_dirac_limit, "verify_1d": _check_verify, "picard_2d": _check_picard}


def check(name: str, out_dir, seed: int) -> list[str]:
    """Failure messages for one invocation's artifacts (empty when correct)."""
    out = Path(out_dir)
    try:
        failures = _CHECKS[name](out, seed)
        if seed == 0:
            failures += _check_reference(name, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        failures = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
    return failures
