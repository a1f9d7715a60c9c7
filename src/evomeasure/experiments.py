"""Experiment drivers behind the CLI: simulations, verification, limits.

Each driver takes a RunConfig, runs the library, and writes plain data
artifacts (CSV columns plus a JSON report).  Output is deterministic for a
fixed config and seed: nothing time- or machine-dependent goes into the
files (wall times are printed, not stored).
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

import numpy as np

from .config import RunConfig
# vector_field, integrate_discrete, mm_residual and normalized_trajectory are not
# called here: perfbench/tracer.py looks the names up in this module to trace
# their calls
from .dynamics import (NodeStream, _block_rows, _CentralDifferences, field_lipschitz_ratio, flow, flow_stream,
                       mass_bound_excess, node_blocks, rk4_stream, vector_field, write_csv_rows)
from .errors import ConfigError, NumericError
from .fitness import estimate_constants, verify_assumptions
from .kernels import dirac_kernel, gaussian_kernel
from .measures import MeasureVec, bl_distance
from .reductions import (
    _class_identity,
    _frequency_rows,
    _normalized,
    frequency_gaps,
    integrate_discrete,
    mm_residual,
    normalized_trajectory,
)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _summary_nodes(cfg: RunConfig, n_nodes: int) -> list[int]:
    """Every ``summary_stride``-th node index (about 200 in all by default), then the last."""
    return [*range(0, n_nodes - 1, cfg.summary_stride or max(1, n_nodes // 200)), n_nodes - 1]


def _run(cfg: RunConfig, u, kernel, fp) -> NodeStream:
    """The configured run on [0, T] as a node stream, with either solver."""
    return flow_stream(u, kernel, fp, cfg.T, solver=cfg.solver, dt=cfg.dt, tol=cfg.picard_tol,
                       max_iter=cfg.picard_max_iter, ball_radius=cfg.ball_radius)


class _Child:
    """``fn()`` computed in the forked child process ``pid``, which sends its
    pickled ``(ok, value)`` outcome through the pipe whose read end is
    ``fd``; with no child (``pid`` None), computed inline by ``result``."""

    def __init__(self, fn, pid: int | None = None, fd: int | None = None):
        self._fn, self._pid = fn, pid
        self._pipe = None if fd is None else open(fd, "rb")

    def result(self):
        """fn's value, or fn's exception raised here; a forked child is reaped."""
        if self._pid is None:
            return self._fn()
        pipe, self._pipe = self._pipe, None
        with pipe:
            data = pipe.read()
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        if not data or status != 0:
            raise RuntimeError(f"a forked child sent no outcome (exit status "
                               f"{os.waitstatus_to_exitcode(status)})")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    def cancel(self) -> None:
        """End and reap the child, unless its outcome has been read."""
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _forked(fn) -> _Child:
    """Start ``fn()`` in a forked child process; read it with ``result()``,
    or end the child with ``cancel()``.

    The child writes one pickled ``(ok, value)`` outcome to a pipe, an
    exception that cannot be pickled as a ``RuntimeError`` naming it, and
    leaves by ``os._exit``: none of the parent's ``finally`` blocks, exit
    handlers or stdio buffers run in it.  Where ``os.fork`` is missing or
    refused, ``result()`` computes ``fn()`` inline instead.
    """
    fd, wfd = os.pipe()
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork on this platform, or a fork refused
        os.close(fd)
        os.close(wfd)
        return _Child(fn)
    if pid:
        os.close(wfd)
        return _Child(fn, pid, fd)
    status = 1
    try:
        os.close(fd)
        with open(wfd, "wb") as pipe:
            try:
                outcome = (True, fn())
            except Exception as exc:
                outcome = (False, exc)
            try:
                data = pickle.dumps(outcome)
            except Exception as exc:
                shown = outcome[1] if not outcome[0] else exc
                data = pickle.dumps((False, RuntimeError(
                    f"a forked child's outcome cannot be pickled: {type(shown).__name__}: {shown}")))
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


# ─── simulate ────────────────────────────────────────────────────────


def simulate(cfg: RunConfig, out_dir) -> dict:
    """Run the configured flow; write trajectory, summary and metadata files.

    When the Picard solver is selected, an RK4 run at the same dt is read
    node by node against it and the sup-TV cross distance recorded in the
    metadata.
    """
    space, kernel, fp, u = cfg.build()
    traj = _run(cfg, u, kernel, fp).collect()
    meta = {
        "solver": cfg.solver,
        "T": cfg.T,
        "dt": cfg.dt,
        "seed": cfg.seed,
        "n_nodes": traj.n_nodes,
        "initial_mass": traj.masses[0],
        "final_mass": traj.masses[-1],
        "trajectory_meta": traj.meta,
    }
    if cfg.solver == "picard":
        meta["rk4_cross_sup_tv"] = traj.sup_tv_distance(rk4_stream(u, kernel, fp, cfg.T, cfg.dt))
    if not fp.mean_fitness_mortality:
        m_f1 = float(np.max(fp.f1(0.0)))
        meta["M_f1"] = m_f1
        meta["gronwall_excess"] = traj.mass_bound_excess(m_f1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj.write_csv(out / "trajectory.csv")
    traj.write_summary_csv(out / "summary.csv", _summary_nodes(cfg, traj.n_nodes))
    _write_json(out / "metadata.json", meta)
    return meta


# ─── verify ──────────────────────────────────────────────────────────


def verify(cfg: RunConfig, out_dir=None) -> dict:
    """Run the named invariant checks on a config; report pass/fail each.

    Checks: rate assumptions, the Lipschitz bound of the vector field, flow
    positivity, the exponential mass bound, the semigroup axioms, the
    reduction to the finite class system, and (where defined)
    finite-difference consistency of the frequency dynamics.  The RK4-based
    checks follow one pair, truncated at the K~ of the RK4 reference, which
    carries that level to the restart, the dt/2 run and the class system.
    No trajectory is held: the reference is read once, in blocks of
    ``_block_rows(n)`` consecutive nodes (a block's product with an (n, n)
    table stays at 2^18 multiply-adds, which OpenBLAS computes on one
    thread), in one loop that keeps its node masses, its last two nodes,
    the class-system gap and the coarse frequency gaps.  At each node w_k
    on [0, min(T, 10)] the measure field F(w_k) and the class field
    P (f1 w_k) - f2 w_k, P = rows^T, are one vector up to round-off, each
    computed for a whole block by one matrix product; the gap is the
    largest TV(difference) / max(1, TV(w_k)), against a tolerance of
    1e-13.  The coarse normalized and (Dirac kernels) replicator gaps are
    the central differences of the reference's head on [0, min(T, 1)],
    carried from block to block.  After the pass, one fresh RK4 step
    restarts the node at t1 = ``times[-2]`` and lands on the node at T
    within 1e-13 max(1, TV(w_T)): the composition.  The Lipschitz sampler
    and the dt/2 run on [0, min(T, 1)] with its frequency gaps run in one
    forked child process (``_forked``), started before the pass and read
    once after it; the sampler loads ``numpy.random`` in the child alone.
    An exception other than a ``NumericError`` propagates unchanged: from
    the pass, the sampler or the restart, and from the frequency gaps where
    the frequency check reads them.  Where ``os.fork`` is missing or
    refused, the child's work runs inline after the pass, on the same
    blocks and with the same bytes.  A caller with threads of its own
    should not rely on the fork; Python >= 3.12 warns when it forks a
    process with threads (an OpenBLAS thread pool counts), and the child's
    calls are invisible to an in-process tracer.
    """
    space, kernel, fp, u = cfg.build()
    checks: dict[str, dict] = {}

    def record(name, passed, **info):
        checks[name] = {"passed": bool(passed), **info}

    # rate assumptions on a sampling lattice
    constants = None
    if fp.mean_fitness_mortality:
        record("assumptions", True, applicable=False)
    else:
        constants = estimate_constants(fp, u.total_mass(), cfg.ball_radius)
        report = verify_assumptions(fp, k_tilde=constants.k_tilde)
        info = {k: v for k, v in report.to_dict().items() if k != "passed"}
        record("assumptions", report.passed, **info)

    # one pass over the RK4 reference on [0, T] feeds every RK4-based check
    # below, and those integrate ``fpt``, the pair truncated at its level K~
    # (fixed before the first node).  The pass keeps the node masses, the
    # last two nodes, the class-system gap on [0, min(T, 10)] and the coarse
    # frequency gaps on [0, min(T, 1)] (neither under mean-fitness
    # mortality, which has no pointwise f2)
    reference = rk4_stream(u, kernel, fp, cfg.T, cfg.dt)
    fpt = fp.truncated(reference.meta["k_tilde"])
    times = reference.times

    def nodes_upto(t: float) -> int:
        """The number of reference nodes up to t (within round-off of the node times)."""
        return int(np.searchsorted(times, t + 1e-9 * cfg.dt, side="right"))

    n_class = n_head = 0
    if not fp.mean_fitness_mortality:
        n_class, n_head = nodes_upto(min(cfg.T, 10.0)), nodes_upto(min(cfg.T, 1.0))
    masses = np.empty(len(times))
    class_gap, split, last, rk4_witness = 0.0, None, None, None

    def sampled():
        """The Lipschitz sampler's ratio, and the dt/2 run's frequency gaps or the exception that ended them."""
        ratio = field_lipschitz_ratio(kernel, fp.truncated(constants.k_tilde), constants.C1,
                                      np.random.default_rng(cfg.seed))
        try:
            return ratio, frequency_gaps(rk4_stream(u, kernel, fpt, times[n_head - 1], cfg.dt / 2.0), kernel, fp)
        except Exception as exc:
            return ratio, exc

    # the sampler and the dt/2 run need no reference node: one forked child
    # computes them beside the pass, read once after it, or ended in the
    # finally below
    child = _Child(lambda: (None, None))  # a mean-fitness pair has neither
    try:
        if not fp.mean_fitness_mortality:
            child = _forked(sampled)
            class_gaps = _class_identity(kernel, fpt)
            # the head's gaps, or the exception that ended them
            coarse = _CentralDifferences(times[:n_head], _frequency_rows(kernel, fp))
        try:
            k = 0
            for W in node_blocks(reference.weights, _block_rows(space.n)):
                # the reference's nodes are nonnegative: their TV is their mass
                X = masses[k:k + len(W)] = W.sum(axis=1)
                # the block's first c rows are on [0, min(T, 10)], its first h on [0, min(T, 1)]
                c, h = n_class - k, n_head - k
                if c > 0:
                    class_gap = np.maximum(class_gap, class_gaps(W[:c], X[:c]).max())
                if h > 0 and not isinstance(coarse, Exception):
                    try:
                        coarse.add(_normalized(W[:h], X[:h], times[k:k + h]), X[:h])
                    except Exception as exc:
                        coarse = exc
                split, last = (W[-2] if len(W) > 1 else last), W[-1]
                k += len(W)
        except NumericError as exc:
            rk4_witness = str(exc)
        worst, fine = child.result()
    finally:
        child.cancel()

    def reference_passed() -> None:
        """Raise the reference's refusal, if it had one."""
        if rk4_witness is not None:
            raise NumericError(rk4_witness)

    # Lipschitz bound of the truncated field on a TV ball
    if not fp.mean_fitness_mortality:
        k_f = constants.B1 + constants.B2 + (constants.L1 + constants.L2) * constants.C1
        record("lipschitz_field", worst <= k_f, observed_ratio=worst, bound=k_f)

    # positivity and the mass bound along the configured run, on the
    # reference's node times; an RK4 run records the reference's clips, a
    # Picard run is read for its masses.  Only the sign of the masses is kept.
    positive_mass = False
    try:
        if cfg.solver == "rk4":
            reference_passed()
            run_masses = masses
            record("positivity", True, clip_count=reference.meta["clip_count"],
                   clip_max=reference.meta["clip_max"])
        else:
            run_masses = np.fromiter((w.sum() for w in _run(cfg, u, kernel, fp).weights), dtype=float,
                                     count=len(times))
            record("positivity", True)
        if constants is not None:
            excess = mass_bound_excess(times, run_masses, constants.B1)
            record("gronwall", excess <= 1e-6, excess=excess, M_f1=constants.B1)
        positive_mass = bool(np.all(run_masses > 0))
    except NumericError as exc:
        record("positivity", False, witness=str(exc))

    # semigroup axioms: identity at 0, and composition at t1 = times[-2] > 0
    # (a grid of two steps or more): one fresh RK4 step from the node at t1
    # is the reference's last step, unless the step reads absolute time or
    # keeps state between calls
    ident = flow(u, kernel, fp, 0.0)
    record("semigroup_identity", np.array_equal(ident.weights[0], u.weights))
    if len(times) > 2:
        try:
            reference_passed()
            end = rk4_stream(MeasureVec(space, split), kernel, fpt, cfg.T - times[-2], cfg.dt).run_to_end()
            gap = end.add_scaled(-1.0, MeasureVec(space, last)).tv_norm()
            record("semigroup_composition", gap <= 1e-13 * max(1.0, masses[-1]), tv_gap=gap, split_at=times[-2])
        except NumericError as exc:
            record("semigroup_composition", False, witness=str(exc))

    # the finite class system is the same ODE: its field is the measure
    # field at every reference node, up to round-off
    if not fp.mean_fitness_mortality:
        try:
            reference_passed()
            gap = float(class_gap)
            record("discrete_reduction", gap <= 1e-13, max_discrepancy=gap, tolerance=1e-13,
                   T=times[n_class - 1])
        except NumericError as exc:
            record("discrete_reduction", False, max_discrepancy=float("nan"), tolerance=1e-13,
                   witness=str(exc))

    # frequency-dynamics consistency, at two resolutions (order check)
    if positive_mass and not fp.mean_fitness_mortality:
        try:
            reference_passed()
            for outcome in (coarse, fine):
                if isinstance(outcome, Exception):
                    raise outcome
            gaps, _ = coarse.gaps()  # the normalized gap, then the replicator gap under a Dirac kernel
            nc, (rf, nf) = gaps[0], fine
            if kernel.is_dirac:
                rc = gaps[1]
                tol = max(1e-12, rc / 2.8)
                record("replicator_fd", rc <= 1e-10 or rf <= tol, max_discrepancy=rf,
                       tolerance=tol, coarse=rc)
            tol = max(1e-12, nc / 2.8)
            record("normalized_fd", nc <= 1e-10 or nf <= tol, max_discrepancy=nf, tolerance=tol,
                   coarse=nc)
        except NumericError as exc:
            record("normalized_fd", False, max_discrepancy=float("nan"), tolerance=0.0,
                   witness=str(exc))

    # the reduction equivalences are the checks with a tolerance, reported a
    # second time in the {case, max_discrepancy, tolerance, pass} schema
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


# ─── Dirac concentration ─────────────────────────────────────────────


def dirac_limit(cfg: RunConfig, out_dir) -> dict:
    """Track mass concentration onto the fittest class under pure selection.

    Requires a Dirac kernel, a logistic-family fitness (birth a(q),
    mortality floor + b(q) X) and a positive target mass (a - floor) / b at
    the fittest cell; without it the population goes extinct.  Emits a time
    series of the mass share in the fittest cell and the flat distance
    between the normalized state and the unit atom there, plus trend
    summaries.  The run is read once, node by node, and only the summary
    nodes' rows are kept.
    """
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

    # the flat distance from p >= 0 of unit mass to the atom at q* is sum_i p_i min(2, |q_i - q*|): no
    # admissible f has f(q_i) - f(q*) above min(2, |q_i - q*|), and f = min(1, |q - q*| - 1) attains it
    to_atom = np.minimum(2.0, np.linalg.norm(space.points - space.points[best], axis=1))
    run = _run(cfg, u, kernel, fp)
    keep = set(_summary_nodes(cfg, len(run.times)))
    rows = []
    for k, w in enumerate(run.weights):
        if k in keep:
            mass = w.sum()
            frac = w[best] / mass if mass > 0 else 0.0
            dist = float(w @ to_atom) / mass if mass > 0 else float("nan")
            rows.append((run.times[k], frac, dist, mass))
    # w is the last node, and rows[-1] its row
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
        "final_mass": rows[-1][3],
        "final_fraction": float(fracs[-1]),
        "final_bl_to_atom": float(dists[-1]),
        "t_fraction_reaches_095": reach,
        "fraction_trend_monotone": bool(np.all(np.diff(fracs) >= -1e-9)),
        "bl_trend_monotone": bool(np.all(np.diff(dists) <= 1e-9)),
    }
    if tie:
        shares = (w / rows[-1][3]).tolist()
        report["final_shares"] = shares
        write_csv_rows(out / "shares.csv", "index,share", enumerate(shares))
    _write_json(out / "dirac_limit.json", report)
    return report


# ─── mutation -> selection continuity ────────────────────────────────


def mutation_limit(cfg: RunConfig, sigmas, out_dir) -> dict:
    """Compare Gaussian-kernel runs against the pure-selection baseline.

    For each sigma in the (decreasing) list, runs the config with a Gaussian
    kernel of that width and measures the flat distance to the Dirac-kernel
    run at sampled times; the report checks that the final-time distance is
    nonincreasing along the list (5% slack).  Each run is read once, node by
    node, one kernel at a time; only the baseline's summary rows are kept.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ConfigError("mutation-limit needs at least one sigma")
    space, _, fp, u = cfg.build()

    base = _run(cfg, u, dirac_kernel(space), fp)
    idx = _summary_nodes(cfg, len(base.times))
    keep = set(idx)

    def summary_rows(run):
        """The weights of ``run`` at the summary nodes, read node by node."""
        return (w for k, w in enumerate(run.weights) if k in keep)

    # read to the end as well: a suspended stream would hold its run
    base_rows = np.fromiter(summary_rows(base), dtype=(float, space.n))
    table = np.empty((len(idx), len(sigmas)))
    for c, s in enumerate(sigmas):
        # zip reads the rows to the end, which lets go of the run and its kernel
        rows = summary_rows(_run(cfg, u, gaussian_kernel(space, s), fp))
        table[:, c] = [bl_distance(MeasureVec(space, a), MeasureVec(space, b))
                       for a, b in zip(rows, base_rows, strict=True)]
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
