"""The node streams against the materialized runs they replace.

``verify`` reads its RK4 reference, the semigroup restart, the
class-system oracle and the dt/2 run node by node.  The oracle is the code
that materialized the last three as full arrays, kept here verbatim (only
renamed): every streamed result must be bitwise equal to it, with the same
node counts and the same refusals.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_components
from evomeasure import DiscreteSystem, MeasureVec, NumericError, constant_pair, matrix_kernel, zero_measure
from evomeasure.dynamics import (
    NodeStream,
    Trajectory,
    finite_difference_residual,
    rk4_integrate,
    rk4_stream,
    sup_tv,
    time_grid,
)
from evomeasure.reductions import discrete_nodes, discrete_rhs, frequency_gaps, mm_residual, mm_rhs, replicator_check
from test_dynamics import random_pair, random_problem

NEG_ABORT = 1e-8


# ─── the materialized runs, verbatim ─────────────────────────────────


def materialized_rk4_integrate(u, kernel, fp, T, dt):
    m_f1 = float(np.max(fp.f1(0.0)))
    if fp.k_tilde is None:
        fp = fp.truncated(max(1.0, u.total_mass()) * math.exp(min(m_f1 * T, 60.0)) * 1.1 + 1.0)
    meta = {"dt": dt, "M_f1": m_f1, "k_tilde": fp.k_tilde}

    times = time_grid(T, dt)
    out = np.empty((len(times), u.space.n))
    out[0] = u.weights
    w = u.weights.copy()
    clip_count, clip_max = 0, 0.0
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        k1 = materialized_field_weights(w, kernel, fp)
        k2 = materialized_field_weights(w + 0.5 * h * k1, kernel, fp)
        k3 = materialized_field_weights(w + 0.5 * h * k2, kernel, fp)
        k4 = materialized_field_weights(w + h * k3, kernel, fp)
        w = w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        lowest = float(w.min())
        if not (lowest >= 0.0 and w.max() < math.inf):
            w, clipped = materialized_enforce_nonneg(w, lowest, k + 1, times[k + 1])
            clip_count += clipped
            clip_max = max(clip_max, -lowest)
        out[k + 1] = w
    meta.update(clip_count=clip_count, clip_max=clip_max)
    traj = Trajectory(u.space, times, out, meta=meta)
    materialized_refuse_mass_above(traj, fp.k_tilde, "step")
    return traj


def materialized_refuse_mass_above(traj, k_tilde, node):
    over = np.flatnonzero(traj.masses > k_tilde)
    if len(over):
        k = over[0]
        raise NumericError(
            f"mass {traj.masses[k]} at {node} {k} (t={traj.times[k]}) exceeds the truncation "
            f"level K~={k_tilde}; the clamped vector field is not the model's"
        )


def materialized_enforce_nonneg(w, lowest, step, t):
    if not np.all(np.isfinite(w)):
        raise NumericError(f"RK4 produced non-finite weights at step {step} (t={t})")
    tv = float(np.abs(w).sum())
    if lowest < -NEG_ABORT * max(1.0, tv):
        raise NumericError(
            f"weight {lowest} at step {step} (t={t}) is below the negativity "
            f"tolerance; the step size is too large"
        )
    return np.maximum(w, 0.0), np.count_nonzero(w < 0.0)


def materialized_field_weights(w, kernel, fp):
    X = float(w.sum())
    f1 = fp.f1(X)
    births = kernel.push_births(f1 * w)
    if fp.mean_fitness_mortality:
        fbar = float(np.dot(f1, w)) / X if X != 0.0 else 0.0
        deaths = fbar * w
    else:
        deaths = fp.f2(X) * w
    return births - deaths


def materialized_max_row_tv(diff):
    return float(np.abs(diff, out=diff).sum(axis=1).max())


def materialized_rk4(rhs, x0, T, dt):
    x = np.asarray(x0, dtype=float).copy()
    times = time_grid(T, dt)
    out = np.empty((len(times), len(x)))
    out[0] = x
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[k + 1] = x
    return times, out


def materialized_class_system_gap(mtraj, kernel, fpt, u, dt):
    sys = DiscreteSystem.from_measure_problem(kernel, fpt)
    _, xs = materialized_rk4(lambda x: discrete_rhs(x, sys), u.weights, mtraj.times[-1], dt)
    return materialized_max_row_tv(np.subtract(mtraj.weights, xs, out=xs))


def materialized_central_difference_gap(times, state, rhs, skip=()):
    h = np.diff(times)
    even = np.abs(h[1:] - h[:-1]) <= 1e-6 * np.maximum(h[1:], h[:-1])
    ks = np.setdiff1d(np.flatnonzero(even) + 1, skip)
    worst = 0.0
    for k in ks:
        row = state(k + 1) - state(k - 1)
        row /= times[k + 1] - times[k - 1]
        row -= rhs(k)
        worst = np.maximum(worst, np.abs(row, out=row).sum())
    return float(worst), len(ks)


def materialized_finite_difference_residual(traj, kernel, fp, skip=()):
    w = traj.weights
    return materialized_central_difference_gap(
        traj.times, w.__getitem__, lambda k: materialized_field_weights(w[k], kernel, fp), skip)[0]


def materialized_positive_masses(traj):
    if np.any(traj.masses <= 0.0):
        k = int(np.argmin(traj.masses))
        raise ValueError(f"cannot normalize: mass {traj.masses[k]} at t={traj.times[k]}")
    return traj.masses


def materialized_frequency_gap(traj, rhs):
    masses = materialized_positive_masses(traj)
    p = lambda k: traj.weights[k] / masses[k]
    return materialized_central_difference_gap(traj.times, p, lambda k: rhs(p(k), float(masses[k])))


def materialized_mm_residual(traj, kernel, fp):
    return materialized_frequency_gap(traj, lambda p, X: mm_rhs(p, X, kernel, fp))


def materialized_replicator_check(traj, kernel, fp):
    def rhs(p, X):
        fvals = fp.f1(X) - fp.f2(X)
        return (fvals - float(np.dot(fvals, p))) * p

    return materialized_frequency_gap(traj, rhs)


# ─── bitwise equality ────────────────────────────────────────────────


def _outcome(f):
    """The result, or the type and message of the refusal raised."""
    try:
        return f()
    except (ValueError, NumericError) as exc:
        return "refused", type(exc).__name__, str(exc)


def _refused(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] == "refused"


def _run(traj):
    return traj.times.tobytes(), traj.weights.tobytes(), traj.meta


@settings(max_examples=120, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant", "mean_fitness", "stiff"]),
    truncate=st.booleans(),
    vanishing=st.sampled_from([False, False, False, True]),
    n_steps=st.integers(1, 30),
    last_step=st.sampled_from([1.0, 0.3, 0.999]),
    seed=st.integers(0, 2**32 - 1),
)
def test_node_streams_are_the_materialized_runs_bitwise(
    space_kind, n, kernel_kind, family, truncate, vanishing, n_steps, last_step, seed
):
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    dt = float(rng.uniform(0.005, 0.05))
    if family == "stiff":
        # deaths at 15-30 against dt up to 0.12 under a kernel that mixes a
        # share eps: RK4 clips round-off-sized dips (and aborts on large ones)
        eps = 10.0 ** rng.uniform(-10.0, -2.0)
        mix = rng.uniform(0.0, 1.0, (sp.n, sp.n))
        kernel = matrix_kernel(sp, (1.0 - eps) * np.eye(sp.n) + eps * mix / mix.sum(axis=1, keepdims=True))
        fp = constant_pair(sp, a=rng.uniform(0.0, 2.0, sp.n), b=rng.uniform(15.0, 30.0, sp.n))
        dt = float(rng.uniform(0.05, 0.12))
        # empty classes receive only the mixed share: there the dips show
        u = MeasureVec(sp, u.weights * (np.arange(sp.n) % 2 == 0))
    else:
        fp = random_pair(rng, sp, family)
    if truncate and family != "stiff":
        # a low level refuses some runs, from node 0 on
        fp = fp.truncated(float(rng.uniform(0.3, 3.0)))
    if vanishing:
        u = zero_measure(sp)
    T = (n_steps - 1 + last_step) * dt

    # the collected stream: nodes, times and meta with its clip keys
    want = _outcome(lambda: materialized_rk4_integrate(u, kernel, fp, T, dt))
    got = _outcome(lambda: rk4_integrate(u, kernel, fp, T, dt))
    if _refused(want):
        assert got == want
        return
    ref = got
    assert _run(ref) == _run(want)
    fpt = fp.truncated(ref.meta["k_tilde"])

    # the restart from a node keeps only its end state
    k1 = int(rng.integers(0, ref.n_nodes))
    rest = T - ref.times[k1]
    want = _outcome(lambda: materialized_rk4_integrate(ref.state(k1), kernel, fpt, rest, dt)
                    .final.weights.tobytes())
    got = _outcome(lambda: rk4_stream(ref.state(k1), kernel, fpt, rest, dt).run_to_end().weights.tobytes())
    assert got == want

    # the finite-difference residual over a random skip set
    skip = tuple(int(k) for k in rng.choice(ref.n_nodes, size=rng.integers(0, ref.n_nodes + 1),
                                            replace=False))
    assert (finite_difference_residual(ref, kernel, fpt, skip)
            == materialized_finite_difference_residual(ref, kernel, fpt, skip))
    if family == "mean_fitness":
        return

    # the running class-system gap against the full arrays
    _, oracle = discrete_nodes(DiscreteSystem.from_measure_problem(kernel, fpt), u.weights, T, dt)
    assert sup_tv(ref.weights, oracle) == materialized_class_system_gap(ref, kernel, fpt, u, dt)

    # the frequency gaps of the trajectory and of a stream (the dt/2 run of
    # verify), against the materialized checks of the collected runs
    half = _outcome(lambda: materialized_rk4_integrate(u, kernel, fpt, T, dt / 2.0))
    for read, traj in ((lambda: ref, ref), (lambda: rk4_stream(u, kernel, fpt, T, dt / 2.0), half)):
        if _refused(traj):
            # every streamed check meets the refusal of the run
            assert _outcome(lambda: mm_residual(read(), kernel, fpt)) == traj
            assert _outcome(lambda: frequency_gaps(read(), kernel, fpt)) == traj
            continue
        want_mm = _outcome(lambda: materialized_mm_residual(traj, kernel, fpt))
        assert _outcome(lambda: astuple(mm_residual(read(), kernel, fpt))) == want_mm
        want_rep = None
        if kernel.is_dirac:
            want_rep = _outcome(lambda: materialized_replicator_check(traj, kernel, fpt))
            assert _outcome(lambda: astuple(replicator_check(read(), kernel, fpt))) == want_rep
        want = want_mm if _refused(want_mm) else (want_rep and want_rep[0], want_mm[0])
        assert _outcome(lambda: frequency_gaps(read(), kernel, fpt)) == want


def test_a_stream_read_to_the_end_has_no_node_left():
    sp, kernel, fp, u = reference_components(cells=8)
    run = rk4_stream(u, kernel, fp, 0.1, 0.03)
    assert np.array_equal(run.run_to_end().weights, rk4_integrate(u, kernel, fp, 0.1, 0.03).final.weights)
    with pytest.raises(ValueError, match="no node left"):
        run.run_to_end()
    with pytest.raises(ValueError, match="no node left"):
        NodeStream(sp, np.array([0.0]), iter(()), {}).run_to_end()
