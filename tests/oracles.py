"""The test-side oracles, each rule written out once.

Every module that compares the package against an independent computation
imports it from here: the RK4 loop, the measure field and its clip/abort
step, the collected RK4 run, the max row TV, the central-difference gap, the
frequency checks, the class-system gap, the refusal capture, the 1-D
Wasserstein distance and the random problem generators.  They share with
the package its data types, ``time_grid`` (the node grid every run lives on)
and the frequency field ``mm_rhs``.
"""

import math

import numpy as np

from evomeasure import (
    DiscreteSystem,
    MeasureVec,
    NumericError,
    atoms,
    beverton_holt_pair,
    constant_pair,
    dirac_kernel,
    gaussian_kernel,
    grid_1d,
    grid_2d,
    logistic_pair,
    matrix_kernel,
    mean_fitness_pair,
    ricker_pair,
)
from evomeasure.dynamics import Trajectory, time_grid
from evomeasure.reductions import mm_rhs

# hard failure threshold for negative weights, relative to max(1, TV)
NEG_ABORT = 1e-8


# ─── RK4 ─────────────────────────────────────────────────────────────


def rk4(rhs, x0, T, dt):
    """Classical fixed-step RK4 for x' = rhs(x) on ``time_grid(T, dt)``:
    the node times and one state per node."""
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


def field_weights(w, kernel, fp):
    """The measure field at weights w: births pushed through the kernel
    minus deaths, or minus the mean birth rate under mean-fitness mortality."""
    X = float(w.sum())
    f1 = fp.f1(X)
    births = kernel.push_births(f1 * w)
    if fp.mean_fitness_mortality:
        fbar = float(np.dot(f1, w)) / X if X != 0.0 else 0.0
        deaths = fbar * w
    else:
        deaths = fp.f2(X) * w
    return births - deaths


def enforce_nonneg(w, lowest, step, t):
    """A step's weights that are not finite or dip below zero: raise, or
    return them clipped with the number of entries clipped."""
    if not np.all(np.isfinite(w)):
        raise NumericError(f"RK4 produced non-finite weights at step {step} (t={t})")
    tv = float(np.abs(w).sum())
    if lowest < -NEG_ABORT * max(1.0, tv):
        raise NumericError(
            f"weight {lowest} at step {step} (t={t}) is below the negativity "
            f"tolerance; the step size is too large"
        )
    return np.maximum(w, 0.0), np.count_nonzero(w < 0.0)


def rk4_run(u, kernel, fp, T, dt):
    """RK4 of the measure field from u, collected with its clip record.

    An untruncated pair is truncated above the a-priori mass bound.  Nodes
    above K~ are kept: ``refuse_mass_above`` is the separate check."""
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
        k1 = field_weights(w, kernel, fp)
        k2 = field_weights(w + 0.5 * h * k1, kernel, fp)
        k3 = field_weights(w + 0.5 * h * k2, kernel, fp)
        k4 = field_weights(w + h * k3, kernel, fp)
        w = w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        lowest = float(w.min())
        if not (lowest >= 0.0 and w.max() < math.inf):
            w, clipped = enforce_nonneg(w, lowest, k + 1, times[k + 1])
            clip_count += clipped
            clip_max = max(clip_max, -lowest)
        out[k + 1] = w
    meta.update(clip_count=clip_count, clip_max=clip_max)
    return Trajectory(u.space, times, out, meta=meta)


def refuse_mass_above(traj):
    """``traj``, or the refusal of its first step whose mass exceeds its K~."""
    k_tilde = traj.meta["k_tilde"]
    over = np.flatnonzero(traj.masses > k_tilde)
    if len(over):
        k = over[0]
        raise NumericError(
            f"mass {traj.masses[k]} at step {k} (t={traj.times[k]}) exceeds the truncation "
            f"level K~={k_tilde}; the clamped vector field is not the model's"
        )
    return traj


# ─── gaps ────────────────────────────────────────────────────────────


def max_row_tv(a, b):
    """Max over rows of TV(a[k] - b[k])."""
    return float(np.abs(a - b).sum(axis=1).max())


def class_rhs(x, sys):
    """The class system's right-hand side sum_j f1 P_ij x_j - f2 x_i, written out."""
    X = float(np.sum(x))
    return sys.P @ (sys.fp.f1(X) * x) - sys.fp.f2(X) * x


def class_system_gap(traj, kernel, fpt, u, dt):
    """Max row TV between ``traj`` and the class system of (kernel, fpt)
    integrated from u to its last node."""
    sys = DiscreteSystem.from_measure_problem(kernel, fpt)
    _, xs = rk4(lambda x: class_rhs(x, sys), u.weights, traj.times[-1], dt)
    return max_row_tv(traj.weights, xs)


def central_difference_gap(times, state, rhs):
    """Max TV gap between the central difference of ``state(k)`` and
    ``rhs(k)`` over interior nodes between equal steps, and the number of
    nodes checked."""
    h = np.diff(times)
    even = np.abs(h[1:] - h[:-1]) <= 1e-6 * np.maximum(h[1:], h[:-1])
    ks = np.flatnonzero(even) + 1
    worst = 0.0
    for k in ks:
        row = state(k + 1) - state(k - 1)
        row /= times[k + 1] - times[k - 1]
        row -= rhs(k)
        worst = np.maximum(worst, np.abs(row, out=row).sum())
    return float(worst), len(ks)


def finite_difference_residual(traj, kernel, fp):
    """The central-difference gap of a trajectory against the measure field."""
    w = traj.weights
    return central_difference_gap(traj.times, w.__getitem__,
                                  lambda k: field_weights(w[k], kernel, fp))[0]


def _frequency_gap(traj, rhs):
    """The central-difference gap of the frequencies p = w / X against
    rhs(p, X); a nonpositive mass is refused."""
    if np.any(traj.masses <= 0.0):
        k = int(np.argmin(traj.masses))
        raise ValueError(f"cannot normalize: mass {traj.masses[k]} at t={traj.times[k]}")
    p = lambda k: traj.weights[k] / traj.masses[k]
    return central_difference_gap(traj.times, p, lambda k: rhs(p(k), float(traj.masses[k])))


def mm_residual(traj, kernel, fp):
    """The frequency gap against the normalized (mutation-selection) field."""
    return _frequency_gap(traj, lambda p, X: mm_rhs(p, X, kernel, fp))


def replicator_check(traj, fp):
    """The frequency gap against the replicator field of a Dirac kernel."""

    def rhs(p, X):
        fvals = fp.f1(X) - fp.f2(X)
        return (fvals - float(np.dot(fvals, p))) * p

    return _frequency_gap(traj, rhs)


# ─── refusals ────────────────────────────────────────────────────────


def outcome(f):
    """The result, or the type and message of the refusal raised."""
    try:
        return f()
    except (ValueError, NumericError) as exc:
        return "refused", type(exc).__name__, str(exc)


def refused(result) -> bool:
    return isinstance(result, tuple) and result[0] == "refused"


# ─── measures ────────────────────────────────────────────────────────


def wasserstein1_cdf(points, w1, w2):
    """Exact 1-Wasserstein between equal-mass nonnegative 1-D measures.

    W1 = integral of |F1 - F2| over the line, with F the cumulative weights
    at the sorted support points.
    """
    order = np.argsort(points)
    x = points[order]
    c1 = np.cumsum(w1[order])
    c2 = np.cumsum(w2[order])
    gaps = np.diff(x)
    return float(np.sum(np.abs(c1[:-1] - c2[:-1]) * gaps))


# ─── random problems ─────────────────────────────────────────────────


def random_pair(rng, sp, family, scalar=False):
    """An untruncated rate pair of ``family`` with random coefficients: a
    drawn per point, and b and c per point or, with ``scalar``, one draw
    each, which makes the pair separable."""
    a = lambda lo, hi: rng.uniform(lo, hi, sp.n)
    coef = (lambda lo, hi: float(rng.uniform(lo, hi))) if scalar else a
    floor = float(rng.uniform(0.05, 0.5))
    if family == "logistic":
        return logistic_pair(sp, a=a(0.2, 2.0), b=coef(0.1, 1.0), floor=floor)
    if family == "beverton_holt":
        return beverton_holt_pair(sp, a=a(0.2, 2.0), c=coef(0.1, 1.0), b=coef(0.1, 1.0), floor=floor)
    if family == "ricker":
        return ricker_pair(sp, a=a(0.2, 2.0), c=coef(0.1, 1.0), b=coef(0.1, 1.0), floor=floor)
    if family == "constant":
        return constant_pair(sp, a=a(0.0, 2.0), b=coef(0.0, 2.0))
    a, c = coef(0.2, 2.0), coef(0.1, 1.0)
    return mean_fitness_pair(sp, lambda X, points: a * np.exp(-c * X))


def random_problem(rng, space_kind, n, kernel_kind):
    """A random space, kernel and truncated rate pair, and an initial measure."""
    if space_kind == "grid1d":
        sp = grid_1d(0.0, float(rng.uniform(0.5, 2.0)), n)
    elif space_kind == "grid2d":
        sp = grid_2d([[0.0, 1.0], [0.0, float(rng.uniform(0.5, 2.0))]], (n, int(rng.integers(1, 4))))
    else:
        sp = atoms(rng.uniform(0.0, 1.0, (n, int(rng.integers(1, 3)))))
    if kernel_kind == "dirac":
        kernel = dirac_kernel(sp)
    elif kernel_kind == "gaussian":
        kernel = gaussian_kernel(sp, float(rng.uniform(0.05, 0.5)))
    else:
        rows = rng.uniform(0.0, 1.0, (sp.n, sp.n))
        kernel = matrix_kernel(sp, rows / rows.sum(axis=1, keepdims=True))
    fp = random_pair(rng, sp, "ricker" if rng.random() < 0.5 else "logistic")
    u = MeasureVec(sp, rng.uniform(0.0, 1.0, sp.n) / sp.n)
    return sp, kernel, fp.truncated(float(rng.uniform(1.0, 4.0))), u
