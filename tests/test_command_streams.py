"""The commands that read a run once, against their materialized versions.

``verify``, ``dirac-limit`` and ``mutation-limit`` read each run, RK4 or
Picard, node by node and keep only what their checks and summaries need.
The oracle is the code that collected every run into a full trajectory
first, kept here verbatim (only renamed, with the summary-node rule, the
mass bound of the trajectory and the ``_flow`` wrapper of the configured
run inlined, with ``dirac-limit``'s flat distance to the fittest atom in
its closed form, which ``test_measures`` holds against ``bl_distance``, and
with its refusal of a zero initial mass): every report, CSV and JSON file
must be byte-equal to it, with the same witnesses and the same refusals.
Traced-peak guards hold each command to a fraction of one trajectory.
``verify`` runs its Lipschitz sampler, its class-system oracle, its
restart and its frequency-gap runs in forked children; without ``os.fork``
it computes them inline, and both paths are held to the same bytes.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import concentration_config_dict, reference_components, reference_config_dict
from evomeasure import NumericError, experiments
from evomeasure.config import RunConfig
from evomeasure.dynamics import Trajectory, field_lipschitz_ratio, flow, rk4_integrate, rk4_stream, write_csv_rows
from evomeasure.experiments import _forked, _write_json, dirac_limit, mutation_limit, verify
from evomeasure.errors import ConfigError
from evomeasure.fitness import estimate_constants, verify_assumptions
from evomeasure.kernels import dirac_kernel, gaussian_kernel
from evomeasure.measures import bl_distance
from evomeasure.reductions import frequency_gaps
from oracles import class_system_gap

ROOT = Path(__file__).resolve().parents[1]


# ─── the materialized commands, verbatim ─────────────────────────────


def _flow(cfg, u, kernel, fp, T):
    """``flow`` on [0, T] with the config's solver settings."""
    return flow(u, kernel, fp, T, solver=cfg.solver, dt=cfg.dt, tol=cfg.picard_tol,
                max_iter=cfg.picard_max_iter, ball_radius=cfg.ball_radius)


def materialized_summary_stride(cfg, traj):
    return cfg.summary_stride or max(1, traj.n_nodes // 200)


def materialized_summary_nodes(traj, stride):
    return [*range(0, traj.n_nodes - 1, max(1, stride)), traj.n_nodes - 1]


def materialized_mass_bound_excess(traj, m_f1):
    bound = traj.masses[0] * np.exp(m_f1 * traj.times)
    scale = np.maximum(bound, 1e-300)
    return float(np.max(traj.masses / scale - 1.0))


def materialized_verify(cfg, out_dir=None):
    space, kernel, fp, u = cfg.build()
    checks = {}

    def record(name, passed, **info):
        checks[name] = {"passed": bool(passed), **info}

    u_mass = u.total_mass()
    ball = cfg.ball_radius if cfg.ball_radius is not None else max(1.0, u_mass)

    constants = None
    if fp.mean_fitness_mortality:
        record("assumptions", True, applicable=False)
    else:
        constants = estimate_constants(fp, u_mass, ball)
        report = verify_assumptions(fp, k_tilde=constants.k_tilde)
        info = {k: v for k, v in report.to_dict().items() if k != "passed"}
        record("assumptions", report.passed, **info)

    if constants is not None:
        k_f = constants.B1 + constants.B2 + (constants.L1 + constants.L2) * constants.C1
        worst = field_lipschitz_ratio(kernel, fp.truncated(constants.k_tilde), constants.C1,
                                      np.random.default_rng(cfg.seed))
        record("lipschitz_field", worst <= k_f, observed_ratio=worst, bound=k_f)

    reference, fpt, rk4_witness = None, None, None
    try:
        reference = rk4_integrate(u, kernel, fp, cfg.T, cfg.dt)
        fpt = fp.truncated(reference.meta["k_tilde"])
    except NumericError as exc:
        rk4_witness = str(exc)

    def head(t):
        if reference is None:
            raise NumericError(rk4_witness)
        n = int(np.searchsorted(reference.times, t + 1e-9 * cfg.dt, side="right"))
        return Trajectory(space, reference.times[:n], reference.weights[:n])

    positive_mass = False
    try:
        if cfg.solver == "rk4":
            traj = head(cfg.T)
            record("positivity", True, clip_count=reference.meta["clip_count"],
                   clip_max=reference.meta["clip_max"])
        else:
            traj = _flow(cfg, u, kernel, fp, cfg.T)
            record("positivity", True)
        if constants is not None:
            excess = materialized_mass_bound_excess(traj, constants.B1)
            record("gronwall", excess <= 1e-6, excess=excess, M_f1=constants.B1)
        positive_mass = bool(np.all(traj.masses > 0))
        del traj
    except NumericError as exc:
        record("positivity", False, witness=str(exc))

    ident = _flow(cfg, u, kernel, fp, 0.0)
    record("semigroup_identity", np.array_equal(ident.weights[0], u.weights))
    if cfg.T > 0:
        t1 = max(cfg.dt, np.floor(0.5 * cfg.T / cfg.dt) * cfg.dt)
        if t1 < cfg.T:
            try:
                end = rk4_stream(head(t1).final, kernel, fpt, cfg.T - t1, cfg.dt).run_to_end()
                gap = end.add_scaled(-1.0, reference.final).tv_norm()
                record("semigroup_composition", gap <= 1e-6, tv_gap=gap, split_at=t1)
            except NumericError as exc:
                record("semigroup_composition", False, witness=str(exc))

    if not fp.mean_fitness_mortality:
        try:
            mtraj = head(min(cfg.T, 10.0))
            gap = class_system_gap(mtraj, kernel, fpt, u, cfg.dt)
            record("discrete_reduction", gap <= 1e-10, max_discrepancy=gap, tolerance=1e-10,
                   T=mtraj.times[-1])
        except NumericError as exc:
            record("discrete_reduction", False, max_discrepancy=float("nan"), tolerance=1e-10,
                   witness=str(exc))

    if positive_mass and not fp.mean_fitness_mortality:
        try:
            coarse = head(min(cfg.T, 1.0))
            rc, nc = frequency_gaps(coarse, kernel, fp)
            rf, nf = frequency_gaps(rk4_stream(u, kernel, fpt, coarse.times[-1], cfg.dt / 2.0),
                                    kernel, fp)
            if kernel.is_dirac:
                tol = max(1e-12, rc / 2.8)
                record("replicator_fd", rc <= 1e-10 or rf <= tol, max_discrepancy=rf, tolerance=tol,
                       coarse=rc)
            tol = max(1e-12, nc / 2.8)
            record("normalized_fd", nc <= 1e-10 or nf <= tol, max_discrepancy=nf, tolerance=tol,
                   coarse=nc)
        except NumericError as exc:
            record("normalized_fd", False, max_discrepancy=float("nan"), tolerance=0.0,
                   witness=str(exc))

    reductions = [{"case": name, "max_discrepancy": c["max_discrepancy"],
                   "tolerance": c["tolerance"], "pass": c["passed"]}
                  for name, c in checks.items() if "tolerance" in c]
    passed = all(c["passed"] for c in checks.values())
    report = {"passed": passed, "checks": checks, "reductions": reductions, "seed": cfg.seed}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "verify.json", report)
    return report


def materialized_dirac_limit(cfg, out_dir):
    space, kernel, fp, u = cfg.build()
    if not kernel.is_dirac:
        raise ConfigError("dirac-limit requires the Dirac (pure selection) kernel")
    if fp.family != "logistic":
        raise ConfigError("dirac-limit expects the logistic fitness family")
    a = fp.params["a"]
    b = fp.params["b"]
    floor = fp.params["floor"]
    if np.any(b <= 0):
        raise ConfigError("dirac-limit needs positive density-mortality coefficients")
    if not u.total_mass() > 0:
        raise ConfigError("dirac-limit needs a positive initial mass")
    ratio_floored = (a - floor) / b
    ratio_raw = a / b
    order = np.argsort(ratio_floored)
    best = int(order[-1])
    if not ratio_floored[best] > 0:
        raise ConfigError(f"dirac-limit needs a positive target mass: the largest (a - floor) / b is "
                          f"{float(ratio_floored[best])!r}, at cell {best}, so the population goes extinct")
    tie = bool(len(order) > 1 and ratio_floored[order[-2]] >= ratio_floored[best] - 1e-12)

    traj = _flow(cfg, u, kernel, fp, cfg.T)
    to_atom = np.minimum(2.0, np.linalg.norm(space.points - space.points[best], axis=1))
    rows = []
    for k in materialized_summary_nodes(traj, materialized_summary_stride(cfg, traj)):
        mass = traj.masses[k]
        frac = traj.weights[k, best] / mass if mass > 0 else 0.0
        dist = float(traj.weights[k] @ to_atom) / mass if mass > 0 else float("nan")
        rows.append((traj.times[k], frac, dist, mass))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_rows(out / "concentration.csv", "t,mass_fraction,bl_to_atom,total_mass", rows)

    fracs = np.array([r[1] for r in rows])
    dists = np.array([r[2] for r in rows])
    reach = next((rows[i][0] for i in range(len(rows)) if fracs[i] >= 0.95), None)
    report = {
        "tie": tie,
        "fittest_index_floored": best,
        "fittest_index_unfloored": int(np.argmax(ratio_raw)),
        "fittest_point": space.points[best].tolist(),
        "target_mass": float(ratio_floored[best]),
        "final_mass": traj.masses[-1],
        "final_fraction": float(fracs[-1]),
        "final_bl_to_atom": float(dists[-1]),
        "t_fraction_reaches_095": reach,
        "fraction_trend_monotone": bool(np.all(np.diff(fracs) >= -1e-9)),
        "bl_trend_monotone": bool(np.all(np.diff(dists) <= 1e-9)),
    }
    if tie:
        shares = (traj.weights[-1] / traj.masses[-1]).tolist()
        report["final_shares"] = shares
        write_csv_rows(out / "shares.csv", "index,share", enumerate(shares))
    _write_json(out / "dirac_limit.json", report)
    return report


def materialized_mutation_limit(cfg, sigmas, out_dir):
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ConfigError("mutation-limit needs at least one sigma")
    space, _, fp, u = cfg.build()

    base = _flow(cfg, u, dirac_kernel(space), fp, cfg.T)
    runs = [_flow(cfg, u, gaussian_kernel(space, s), fp, cfg.T) for s in sigmas]

    idx = materialized_summary_nodes(base, materialized_summary_stride(cfg, base))
    table = np.empty((len(idx), len(sigmas)))
    for c, traj in enumerate(runs):
        for r, k in enumerate(idx):
            table[r, c] = bl_distance(traj.state(k), base.state(k))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_rows(out / "mutation_limit.csv", "t," + ",".join(f"sigma_{s:g}" for s in sigmas),
                   np.column_stack([base.times[idx], table]))

    final = table[-1]
    nonincreasing = all(final[i + 1] <= final[i] * 1.05 for i in range(len(sigmas) - 1))
    strictly = all(final[i + 1] < final[i] for i in range(len(sigmas) - 1))
    report = {
        "sigmas": sigmas,
        "final_distances": final.tolist(),
        "nonincreasing_with_slack": bool(nonincreasing),
        "strictly_decreasing": bool(strictly),
        "passed": bool(nonincreasing),
    }
    _write_json(out / "mutation_limit.json", report)
    return report


# ─── configs ─────────────────────────────────────────────────────────


SPACES = {
    "grid1d": {"kind": "grid1d", "bounds": [0.0, 2.0], "cells": 6},
    "grid2d": {"kind": "grid2d", "bounds": [[0.0, 1.0], [0.0, 1.0]], "cells": [3, 2]},
    "atoms": {"kind": "atoms", "points": [[0.0], [0.4], [1.0], [1.7]]},
}


def _kernel(space, variant):
    if variant == "matrix":
        n = {"grid1d": 6, "grid2d": 6, "atoms": 4}[space]
        mix = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        rows = 0.9 * np.eye(n) + 0.1 * mix / mix.sum(axis=1, keepdims=True)
        return {"variant": "matrix", "rows": rows.tolist()}
    return {"dirac": {"variant": "dirac"}, "gaussian": {"variant": "gaussian", "sigma": 0.3}}[variant]


FITNESS = {
    "logistic": {"family": "logistic", "a": {"trait": 0}, "b": 1.0, "floor": 0.05},
    "ricker": {"family": "ricker", "a": 1.5, "c": 0.6, "b": 0.5, "floor": 0.2},
    "mean_fitness": {"family": "mean_fitness", "a": {"trait": 0}},
}


def config(space="grid1d", kernel="gaussian", fitness="ricker", **top):
    return {"space": SPACES[space], "kernel": _kernel(space, kernel), "fitness": FITNESS[fitness],
            "initial": {"kind": "gaussian", "center": [0.6] * (2 if space == "grid2d" else 1),
                        "sigma": 0.5, "baseline": 0.1, "mass": 1.0},
            "solver": "rk4", "T": 0.37, "dt": 0.05, "seed": 3, **top}


# the oversized step of test_verify_oversized_dt_fails_positivity: RK4 aborts
# on a negative weight at its first step
NEGATIVITY_ABORT = {
    "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
    "kernel": {"variant": "matrix", "rows": [[0.0, 1.0], [1.0, 0.0]]},
    "fitness": {"family": "constant", "a": [6.0, 0.0], "b": [0.0, 12.0]},
    "initial": {"kind": "weights", "weights": [1.0, 1e-6]},
    "T": 3.0,
    "dt": 0.3,
}
# pure growth at rate 1: the mass passes the K~ of e^60 near t = 60
K_TILDE_REFUSAL = {
    "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
    "kernel": {"variant": "dirac"},
    "fitness": {"family": "constant", "a": [1.0, 0.5], "b": [0.0, 0.0]},
    "initial": {"kind": "weights", "weights": [0.5, 0.5]},
    "T": 70.0,
    "dt": 0.5,
}
# the zero measure stays zero: every mass is 0
ZERO_MASS = dict(config("atoms", "gaussian", "logistic"), initial={"kind": "weights", "weights": [0.0] * 4})
# a kernel leaking 1e-9 into a class dying at rate 18: every step clips
CLIPPING = {
    "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
    "kernel": {"variant": "matrix", "rows": [[1.0 - 1e-9, 1e-9], [0.0, 1.0]]},
    "fitness": {"family": "constant", "a": [1.0, 0.0], "b": [26.0, 18.0]},
    "initial": {"kind": "weights", "weights": [1.0, 0.0]},
    "T": 1.0,
    "dt": 0.1,
}

VERIFY_CASES = {
    "grid1d-gaussian-T-off-grid": config(),
    "grid1d-dirac-logistic": config(kernel="dirac", fitness="logistic", T=1.23, dt=0.1),
    "grid2d-matrix-logistic": config("grid2d", "matrix", "logistic", T=1.23, dt=0.1),
    "grid2d-gaussian-T-on-grid": config("grid2d", T=0.5),
    "atoms-dirac-T-above-10": config("atoms", "dirac", "logistic", T=12.05, dt=0.1),
    "atoms-matrix-T-above-10": config("atoms", "matrix", "ricker", T=10.5, dt=0.25),
    "atoms-gaussian-T-one": config("atoms", T=1.0, dt=0.1),
    "T-below-dt": config(T=0.03),
    "mean-fitness": config(fitness="mean_fitness", T=1.37, dt=0.1),
    "mean-fitness-dirac": config("atoms", "dirac", "mean_fitness"),
    "picard": config(solver="picard", T=0.3, dt=0.01),
    "picard-dirac-2d": config("grid2d", "dirac", "logistic", solver="picard", T=0.25, dt=0.01),
    "T-zero": config(T=0.0),
    "T-zero-picard": config(T=0.0, solver="picard"),
    "clipping": dict(CLIPPING, solver="rk4"),
    "negativity-abort": dict(NEGATIVITY_ABORT, solver="rk4"),
    "negativity-abort-picard": dict(NEGATIVITY_ABORT, solver="picard"),
    "k-tilde-refusal": dict(K_TILDE_REFUSAL, solver="rk4"),
    "zero-mass": ZERO_MASS,
    "zero-mass-picard": dict(ZERO_MASS, solver="picard", dt=0.01),
}

# a mortality floor above every birth rate: the target mass is negative
EXTINCT = concentration_config_dict(cells=8, T=1.0, dt=0.05)
EXTINCT["fitness"] = EXTINCT["fitness"] | {"floor": 5.0}

DIRAC_LIMIT_CASES = {
    "grid1d-concentration": concentration_config_dict(cells=16, T=20.0, dt=0.05),
    "tie": {
        "space": {"kind": "atoms", "points": [[0.0], [1.0]]},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "logistic", "a": [1.0, 1.0], "b": [1.0, 1.0], "floor": 1e-3},
        "initial": {"kind": "weights", "weights": [0.3, 0.2]},
        "T": 20.0,
        "dt": 0.01,
    },
    "atoms-2d-stride": {
        "space": {"kind": "atoms", "points": [[1.0, 1.0], [1.0, 2.0]]},
        "kernel": {"variant": "dirac"},
        "fitness": {"family": "logistic", "a": {"trait": 0}, "b": {"trait": 1}, "floor": 1e-3},
        "initial": {"kind": "weights", "weights": [0.25, 0.25]},
        "T": 5.03,
        "dt": 0.01,
        "summary_stride": 7,
    },
    "grid2d-T-below-1": config("grid2d", "dirac", "logistic", T=0.37, dt=0.01),
    "picard": concentration_config_dict(cells=8, T=1.0, dt=0.01) | {"solver": "picard"},
    "T-zero": concentration_config_dict(cells=8, T=0.0),
    "zero-mass": ZERO_MASS | {"kernel": {"variant": "dirac"}},
    "negativity-abort": concentration_config_dict(cells=8, T=20.0, dt=4.0),
    "extinct": EXTINCT,
}

MUTATION_LIMIT_CASES = {
    "grid1d": (reference_config_dict(cells=8, T=0.33, dt=0.01), [0.4, 0.1]),
    "grid1d-picard": (reference_config_dict(cells=8, T=0.2, dt=0.01, solver="picard"), [0.4, 0.1]),
    "grid2d": (config("grid2d", T=0.2), [0.5, 0.2]),
    "atoms-stride": (config("atoms", T=1.3, dt=0.01, summary_stride=9), [1.0, 0.3, 0.05]),
    "T-zero": (reference_config_dict(cells=8, T=0.0), [0.4]),
    # the baseline and the first sigma run pass, the wide kernel's run aborts
    "negativity-abort": (NEGATIVITY_ABORT, [0.1, 5.0]),
}


# ─── byte equality ───────────────────────────────────────────────────


def _outcome(f, out):
    """repr of the result, or the type and message of the refusal, and the
    bytes of every file written."""
    try:
        result = repr(f(out))
    except (ValueError, NumericError) as exc:
        result = ("refused", type(exc).__name__, str(exc))
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    return result, files


def _assert_same(streamed, materialized, tmp_path):
    got = _outcome(streamed, tmp_path / "streamed")
    want = _outcome(materialized, tmp_path / "materialized")
    assert got == want


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


def assert_no_child_left(fds_before):
    """No child process is left unreaped, and no descriptor is left open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds_before


def inline(monkeypatch, f):
    """``f`` where ``os.fork`` is missing: ``verify`` runs no child."""
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return f()


@pytest.mark.parametrize("case", VERIFY_CASES)
def test_verify_is_the_materialized_verify_bytewise(case, tmp_path, monkeypatch):
    # the forked path and the inline path alike
    cfg = RunConfig.from_dict(VERIFY_CASES[case])
    fds = open_fds()
    _assert_same(lambda out: verify(cfg, out), lambda out: materialized_verify(cfg, out), tmp_path)
    assert_no_child_left(fds)
    _assert_same(lambda out: inline(monkeypatch, lambda: verify(cfg, out)),
                 lambda out: materialized_verify(cfg, out), tmp_path / "inline")


@pytest.mark.parametrize("case", DIRAC_LIMIT_CASES)
def test_dirac_limit_is_the_materialized_dirac_limit_bytewise(case, tmp_path):
    cfg = RunConfig.from_dict(DIRAC_LIMIT_CASES[case])
    _assert_same(lambda out: dirac_limit(cfg, out), lambda out: materialized_dirac_limit(cfg, out),
                 tmp_path)


@pytest.mark.parametrize("case", MUTATION_LIMIT_CASES)
def test_mutation_limit_is_the_materialized_mutation_limit_bytewise(case, tmp_path):
    d, sigmas = MUTATION_LIMIT_CASES[case]
    cfg = RunConfig.from_dict(d)
    _assert_same(lambda out: mutation_limit(cfg, sigmas, out),
                 lambda out: materialized_mutation_limit(cfg, sigmas, out), tmp_path)


def test_the_failing_cases_fail_as_intended(tmp_path):
    # the refusals the cases above compare are the ones their names promise,
    # and verify reaps the child it does not read
    fds = open_fds()

    def checks(d):
        report = verify(RunConfig.from_dict(d))
        assert_no_child_left(fds)
        return report["checks"]

    assert "below the negativity tolerance" in checks(VERIFY_CASES["negativity-abort"])["positivity"]["witness"]
    assert "exceeds the truncation level" in checks(VERIFY_CASES["k-tilde-refusal"])["positivity"]["witness"]
    zero = checks(VERIFY_CASES["zero-mass"])
    assert zero["positivity"]["passed"] and "normalized_fd" not in zero
    assert checks(VERIFY_CASES["clipping"])["positivity"]["clip_count"] > 0
    with pytest.raises(NumericError, match="negativity"):
        dirac_limit(RunConfig.from_dict(DIRAC_LIMIT_CASES["negativity-abort"]), tmp_path / "d")
    with pytest.raises(ConfigError, match="goes extinct"):
        dirac_limit(RunConfig.from_dict(DIRAC_LIMIT_CASES["extinct"]), tmp_path / "d")
    d, sigmas = MUTATION_LIMIT_CASES["negativity-abort"]
    with pytest.raises(NumericError, match="negativity"):
        mutation_limit(RunConfig.from_dict(d), sigmas, tmp_path / "m")


@pytest.mark.parametrize("case", ["grid1d-gaussian-T-off-grid", "atoms-matrix-T-above-10"])
def test_discrete_reduction_compares_every_node_up_to_ten(case, monkeypatch):
    # the oracle's node at min(T, 10), the last one the check compares, moved
    # by 1e-6 in one entry: the gap reads 1e-6, so no node is left out
    cfg = RunConfig.from_dict(VERIFY_CASES[case])
    nodes = experiments.discrete_nodes

    def shifted_last(sys, x0, T, dt):
        times, states = nodes(sys, x0, T, dt)
        assert T == min(cfg.T, 10.0)
        return times, (x + (k == len(times) - 1) * 1e-6 * np.eye(len(x))[0] for k, x in enumerate(states))

    monkeypatch.setattr(experiments, "discrete_nodes", shifted_last)
    check = verify(cfg)["checks"]["discrete_reduction"]
    assert not check["passed"]
    assert check["max_discrepancy"] == pytest.approx(1e-6, rel=1e-6)


# ─── the forked children ─────────────────────────────────────────────


def test_verify_forks_one_child_per_independent_run(monkeypatch):
    # the Lipschitz sampler, the class-system oracle and the frequency gaps
    # at dt and dt/2 (not under mean-fitness mortality) and the semigroup
    # restart (not at T = 0, where there is no split).  The parent computes
    # no frequency gap of its own, so it calls frequency_gaps nowhere
    forks, gap_calls = [], []
    fork, gaps = os.fork, experiments.frequency_gaps

    def counting_fork():
        forks.append(1)
        return fork()

    def counting_gaps(run, kernel, fp):
        gap_calls.append(1)
        return gaps(run, kernel, fp)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(experiments, "frequency_gaps", counting_gaps)
    fds = open_fds()
    for d, n_forks, n_gap_calls in ((reference_config_dict(cells=128, T=4.0, dt=1e-3), 4, 0),
                                    (VERIFY_CASES["mean-fitness"], 1, 0), (VERIFY_CASES["T-zero"], 3, 0)):
        forks.clear()
        gap_calls.clear()
        assert verify(RunConfig.from_dict(d))["passed"]
        assert (len(forks), len(gap_calls)) == (n_forks, n_gap_calls), d
        assert_no_child_left(fds)


@pytest.mark.parametrize("planted", [NumericError("planted refusal"), ValueError("planted value")])
def test_an_exception_in_the_dt2_child_reaches_the_parent(planted, tmp_path, monkeypatch):
    # a fork inherits the patched frequency_gaps: a NumericError of the dt/2
    # run is the normalized_fd witness, a ValueError propagates unchanged;
    # the forked and the inline path report alike
    cfg = RunConfig.from_dict(VERIFY_CASES["grid1d-dirac-logistic"])
    gaps = experiments.frequency_gaps

    def planted_gaps(run, kernel, fp):
        if run.meta["dt"] == cfg.dt / 2.0:
            raise planted
        return gaps(run, kernel, fp)

    monkeypatch.setattr(experiments, "frequency_gaps", planted_gaps)
    fds = open_fds()
    forked = _outcome(lambda out: verify(cfg, out), tmp_path / "forked")
    assert_no_child_left(fds)
    assert forked == _outcome(lambda out: inline(monkeypatch, lambda: verify(cfg, out)),
                              tmp_path / "inline")
    if isinstance(planted, ValueError):
        assert forked == (("refused", "ValueError", "planted value"), None)
    else:
        report = json.loads(forked[1]["verify.json"])
        assert report["checks"]["normalized_fd"]["witness"] == "planted refusal"
        assert not report["checks"]["normalized_fd"]["passed"]
        assert "replicator_fd" not in report["checks"]


@pytest.mark.parametrize("planted, at", [(NumericError("planted refusal"), 2),
                                         (NumericError("planted refusal"), 20),
                                         (ValueError("planted value"), 20),
                                         (ValueError("planted at oracle node 2"), 2)])
def test_an_exception_in_the_oracle_stream_reaches_the_parent(planted, at, tmp_path, monkeypatch):
    # a fork inherits the patched discrete_nodes: the oracle's exception
    # at node ``at`` is raised where the pass reads that node, inside the
    # reference's first unit of time (node 2) or past it (node 20); a
    # NumericError is every RK4-based check's witness, a ValueError
    # propagates unchanged, also where the pass reads the node inside the
    # first unit of time; the forked and the inline path report alike
    cfg = RunConfig.from_dict(VERIFY_CASES["atoms-matrix-T-above-10"])
    nodes = experiments.discrete_nodes

    def planted_nodes(sys, x0, T, dt):
        times, states = nodes(sys, x0, T, dt)

        def raising():
            for k, x in enumerate(states):
                if k == at:
                    raise planted
                yield x

        return times, raising()

    monkeypatch.setattr(experiments, "discrete_nodes", planted_nodes)
    fds = open_fds()
    forked = _outcome(lambda out: verify(cfg, out), tmp_path / "forked")
    assert_no_child_left(fds)
    assert forked == _outcome(lambda out: inline(monkeypatch, lambda: verify(cfg, out)),
                              tmp_path / "inline")
    if isinstance(planted, ValueError):
        assert forked == (("refused", "ValueError", str(planted)), None)
    else:
        checks = json.loads(forked[1]["verify.json"])["checks"]
        assert checks["positivity"]["witness"] == "planted refusal"
        assert checks["discrete_reduction"]["witness"] == "planted refusal"
        assert not checks["discrete_reduction"]["passed"]


def test_an_interrupt_in_the_parent_reaps_the_children(monkeypatch):
    # the three children are started when the mass bound is checked
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "mass_bound_excess", interrupted)
    fds = open_fds()
    with pytest.raises(KeyboardInterrupt):
        verify(RunConfig.from_dict(VERIFY_CASES["grid1d-dirac-logistic"]))
    assert_no_child_left(fds)


def test_forked_outcomes_that_do_not_arrive_are_runtime_errors():
    fds = open_fds()
    assert _forked(lambda: (1.5, np.arange(3))).result()[0] == 1.5
    with pytest.raises(RuntimeError, match="exit status 7"):
        _forked(lambda: os._exit(7)).result()
    with pytest.raises(RuntimeError, match="cannot be pickled: .*pickle"):
        _forked(lambda: lambda: 0).result()
    with pytest.raises(RuntimeError, match="cannot be pickled: KeyError: .*lambda"):
        _forked(lambda: {}[lambda: 0]).result()
    _forked(lambda: __import__("time").sleep(60)).cancel()
    assert_no_child_left(fds)


def test_a_forked_stream_arrives_node_by_node_with_its_outcome():
    def stream(n_nodes, end):
        yield from (np.full(3, k, dtype=float) for k in range(n_nodes))
        end()

    fds = open_fds()
    nodes = _forked(lambda: stream(2, lambda: None), stream=True).nodes(3)
    assert [x.tolist() for x in nodes] == [[0.0] * 3, [1.0] * 3]
    # the generator's exception after its nodes, and a child that dies early
    nodes = _forked(lambda: stream(1, lambda: {}["planted"]), stream=True).nodes(3)
    assert next(nodes).tolist() == [0.0] * 3
    with pytest.raises(KeyError, match="planted"):
        next(nodes)
    with pytest.raises(RuntimeError, match="exit status 7"):
        list(_forked(lambda: stream(1, lambda: os._exit(7)), stream=True).nodes(3))
    # a child blocked on a full pipe is ended by cancel
    child = _forked(lambda: stream(10**6, lambda: None), stream=True)
    assert next(child.nodes(3)).tolist() == [0.0] * 3
    child.cancel()
    assert_no_child_left(fds)


# ─── traced peaks ────────────────────────────────────────────────────


def _traced_peak(run) -> int:
    run()  # warm-up: one-time allocations are not the command's
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dirac_limit_keeps_only_its_summary_rows(tmp_path):
    # 4001 nodes at 64 cells: the run is 2 MB, its 201 summary rows are
    # four numbers each; a collected run peaks above 1 trajectory
    cfg = RunConfig.from_dict(concentration_config_dict(cells=64, T=20.0, dt=0.005))
    peak = _traced_peak(lambda: dirac_limit(cfg, tmp_path))
    trajectory_bytes = 4001 * 64 * 8
    assert peak <= 0.25 * trajectory_bytes, f"traced peak {peak / trajectory_bytes:.2f} trajectories"


def test_mutation_limit_keeps_only_the_baselines_summary_rows(tmp_path):
    # two sigmas at 64 cells, 4001 nodes a run: the baseline keeps 201 rows
    # (0.05 trajectory) and each sigma run is read node by node; collected
    # runs peak at 3 trajectories
    cfg = RunConfig.from_dict(reference_config_dict(cells=64, T=4.0, dt=1e-3))
    peak = _traced_peak(lambda: mutation_limit(cfg, [0.4, 0.1], tmp_path))
    trajectory_bytes = 4001 * 64 * 8
    assert peak <= 0.25 * trajectory_bytes, f"traced peak {peak / trajectory_bytes:.2f} trajectories"


def test_dirac_limit_reads_a_picard_run_window_by_window(tmp_path):
    # 5001 nodes at 64 cells: each converged window's nodes are read and let
    # go; a collected Picard run peaks above 2 trajectories
    cfg = RunConfig.from_dict(concentration_config_dict(cells=64, T=5.0, dt=1e-3) | {"solver": "picard"})
    peak = _traced_peak(lambda: dirac_limit(cfg, tmp_path))
    trajectory_bytes = 5001 * 64 * 8
    assert peak <= 0.75 * trajectory_bytes, f"traced peak {peak / trajectory_bytes:.2f} trajectories"


def test_picard_flow_holds_one_trajectory():
    # the windows are written into the one collected array, and the traced
    # peak is 1.21 trajectories.  Windows kept apart and stacked at the end
    # peak above 2 trajectories
    sp, kernel, fp, u = reference_components(cells=64)
    peak = _traced_peak(lambda: flow(u, kernel, fp, 4.0, solver="picard", dt=1e-3))
    trajectory_bytes = 4001 * 64 * 8
    assert peak <= 1.5 * trajectory_bytes, f"traced peak {peak / trajectory_bytes:.2f} trajectories"


# ─── imports ─────────────────────────────────────────────────────────


@pytest.mark.parametrize("solver", ["rk4", "picard"])
def test_a_2d_dirac_limit_loads_no_scipy(solver, tmp_path):
    # the distance to the fittest atom is a closed form: no 2-D flat-metric LP
    cfg = DIRAC_LIMIT_CASES["grid2d-T-below-1"] | {"solver": solver}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import evomeasure.cli\n"
        "assert evomeasure.cli.main(['dirac-limit', '--config', 'cfg.json', '--out', 'out']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout
    assert len((tmp_path / "out" / "concentration.csv").read_text().splitlines()) > 2


@pytest.mark.parametrize("command, cfg", [
    ("verify", reference_config_dict(cells=16, T=1.5, dt=0.01)),
    ("dirac-limit", concentration_config_dict(cells=16, T=1.0, dt=0.05)),
])
def test_1d_runs_load_no_numpy_ma(command, cfg, tmp_path):
    # distinct points and the nodes a central difference checks are found
    # without np.unique or np.setdiff1d, which import numpy.ma in NumPy 2.4
    # (NumPy 1.x imports it with numpy itself)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    script = (
        "import sys\n"
        "import evomeasure.cli\n"
        "print('numpy.ma' in sys.modules)\n"
        f"assert evomeasure.cli.main(['{command}', '--config', 'cfg.json', '--out', 'out']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[-1] == lines[0], proc.stdout
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert lines[-1] == "False", proc.stdout


def test_cli_and_a_1d_dirac_limit_load_no_numpy_random(tmp_path):
    # numpy.random is only verify's Lipschitz sampler's; the CLI import
    # (setup time of every command) and a 1-D dirac-limit run go without it
    (tmp_path / "cfg.json").write_text(json.dumps(concentration_config_dict(cells=16, T=1.0, dt=0.05)))
    script = (
        "import sys\n"
        "import evomeasure.cli\n"
        "print('numpy.random' in sys.modules)\n"
        "evomeasure.cli.main(['dirac-limit', '--config', 'cfg.json', '--out', 'out'])\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False"), proc.stdout


def test_a_forked_verify_loads_numpy_random_only_in_its_child(tmp_path):
    # the Lipschitz sampler draws its pairs in a forked child, so the
    # parent's modules stay without numpy.random; without os.fork the
    # sampler runs inline and loads it, with the same report
    (tmp_path / "cfg.json").write_text(json.dumps(reference_config_dict(cells=16, T=1.5, dt=0.01)))
    script = (
        "import os, sys\n"
        "import evomeasure.cli\n"
        "if sys.argv[1] == 'inline':\n"
        "    del os.fork\n"
        "assert evomeasure.cli.main(['verify', '--config', 'cfg.json', '--out', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = {}
    for out in ("forked", "inline"):
        proc = subprocess.run([sys.executable, "-c", script, out], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        loaded[out] = proc.stdout.splitlines()[-1]
    assert loaded == {"forked": "False", "inline": "True"}
    assert ((tmp_path / "forked" / "verify.json").read_bytes()
            == (tmp_path / "inline" / "verify.json").read_bytes())
