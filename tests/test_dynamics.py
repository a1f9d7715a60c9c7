"""Solvers: the vector field, RK4, the discounted kernel and Picard.

Independent oracles: hand algebra for the field, a test-local scalar RK4
for mass dynamics, the paper's discounted kernel gamma_bar written out
term by term as the oracle for the integral operator, closed-form
survival factors, and cross-solver comparisons at matching grids.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_components
from evomeasure import (
    DiscreteSystem,
    MeasureVec,
    NumericError,
    atoms,
    beverton_holt_pair,
    constant_pair,
    custom_pair,
    dirac_kernel,
    estimate_constants,
    field_lipschitz_ratio,
    flow,
    gaussian_kernel,
    grid_1d,
    grid_2d,
    integrate_discrete,
    logistic_pair,
    matrix_kernel,
    mean_fitness_pair,
    picard_operator,
    picard_solve,
    ricker_pair,
    rk4_integrate,
    unit_atom,
    uniform_kernel,
    vector_field,
    zero_measure,
)
from evomeasure.dynamics import (
    NEG_ABORT,
    Trajectory,
    _central_difference_gap,
    _cumulative_trapezoid,
    finite_difference_residual,
    rk4_stream,
    time_grid,
)

RNG = np.random.default_rng(3)


def rk4_oracle(rhs, y0, T, dt):
    """Test-local fixed-step RK4 on a vector state; the oracle side."""
    y = np.asarray(y0, dtype=float).copy()
    n = max(1, int(round(T / dt)))
    ts = np.linspace(0.0, T, n + 1)
    out = [y.copy()]
    for k in range(n):
        h = ts[k + 1] - ts[k]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(y.copy())
    return ts, np.array(out)


# ─── vector field ────────────────────────────────────────────────────


def test_field_of_zero_measure_is_zero():
    sp, kernel, fp, _ = reference_components(cells=16)
    out = vector_field(zero_measure(sp), kernel, fp)
    assert np.array_equal(out.weights, np.zeros(sp.n))


def test_field_dirac_is_pure_selection():
    sp, _, fp, u = reference_components(cells=16)
    out = vector_field(u, dirac_kernel(sp), fp)
    X = u.total_mass()
    expected = (fp.f1(X) - fp.f2(X)) * u.weights
    assert np.allclose(out.weights, expected, atol=1e-15)


def test_field_births_balance_deaths_for_equal_constant_rates():
    # each kernel row sums to 1, so f1 = f2 = c moves mass around but the
    # total is conserved: sum_i sum_j c row_j[i] w_j - sum_i c w_i = 0
    sp = grid_1d(0.0, 1.0, 12)
    fp = constant_pair(sp, a=0.7, b=0.7)
    m = MeasureVec(sp, RNG.uniform(0, 1, sp.n))
    for kernel in (dirac_kernel(sp), uniform_kernel(sp)):
        out = vector_field(m, kernel, fp)
        assert abs(out.total_mass()) <= 1e-12


def test_field_space_mismatch():
    sp, kernel, fp, u = reference_components(cells=16)
    other = zero_measure(grid_1d(0.0, 1.0, 16))
    with pytest.raises(ValueError):
        vector_field(other, kernel, fp)


# ─── RK4 ─────────────────────────────────────────────────────────────


def test_rk4_zero_field_is_constant():
    sp = grid_1d(0.0, 1.0, 8)
    fp = constant_pair(sp, a=0.0, b=0.0)
    u = MeasureVec(sp, RNG.uniform(0, 1, sp.n))
    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=2.0, dt=0.1)
    assert np.array_equal(traj.weights[-1], u.weights)
    assert np.array_equal(traj.weights[7], u.weights)


def test_rk4_logistic_atom_matches_scalar_oracle():
    # single atom, f1 = 1, f2 = 0.1 + X: mass solves X' = X(0.9 - X),
    # so X -> 0.9; oracle integrates the scalar ODE at dt/10
    sp = atoms([[1.0]])
    fp = logistic_pair(sp, a=1.0, b=1.0, floor=0.1)
    u = MeasureVec(sp, np.array([0.5]))
    dt = 0.01
    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=30.0, dt=dt)
    _, xs = rk4_oracle(lambda y: y * (0.9 - y), [0.5], 30.0, dt / 10.0)
    assert traj.masses[-1] == pytest.approx(xs[-1, 0], abs=1e-9)
    assert traj.masses[-1] == pytest.approx(0.9, abs=1e-6)
    # a few interior nodes against the dense oracle
    for k in (300, 1500, 2400):
        assert traj.masses[k] == pytest.approx(xs[10 * k, 0], abs=1e-9)


def test_rk4_fourth_order_self_convergence():
    sp, kernel, fp, u = reference_components(cells=16)
    fine = rk4_integrate(u, kernel, fp, T=1.0, dt=1.0 / 4096)
    errs = []
    for dt in (1.0 / 64, 1.0 / 128):
        traj = rk4_integrate(u, kernel, fp, T=1.0, dt=dt)
        errs.append(float(np.abs(traj.weights[-1] - fine.weights[-1]).sum()))
    ratio = errs[0] / errs[1]
    assert 10.0 < ratio < 25.0, f"expected ~16x error drop, got {ratio}"


def test_rk4_rejects_bad_steps_and_negative_initial():
    sp, kernel, fp, u = reference_components(cells=8)
    with pytest.raises(ValueError):
        rk4_integrate(u, kernel, fp, T=1.0, dt=0.0)
    bad = MeasureVec(sp, np.full(sp.n, -1.0))
    with pytest.raises(ValueError):
        rk4_integrate(bad, kernel, fp, T=1.0, dt=0.1)


def test_rk4_aborts_on_heavy_negativity():
    # swap kernel with asymmetric birth/death: at dt = 0.3 the stage mixing
    # undershoots zero hard; at dt = 0.01 the same problem integrates fine
    sp = atoms([[0.0], [1.0]])
    kern = matrix_kernel(sp, [[0.0, 1.0], [1.0, 0.0]])
    fp = constant_pair(sp, a=np.array([6.0, 0.0]), b=np.array([0.0, 12.0]))
    u = MeasureVec(sp, np.array([1.0, 1e-6]))
    with pytest.raises(NumericError, match="step"):
        rk4_integrate(u, kern, fp, T=3.0, dt=0.3)
    traj = rk4_integrate(u, kern, fp, T=3.0, dt=0.01)
    assert traj.weights.min() >= -1e-12


def test_rk4_aborts_when_mass_reaches_the_clamp():
    # logistic growth towards X = (2 - 0.1) / 0.1 = 19, pre-truncated at
    # K~ = 3: past X = 3 the clamped mortality no longer follows the model
    sp = atoms([[0.0], [1.0]])
    fp = logistic_pair(sp, a=2.0, b=0.1, floor=0.1)
    u = MeasureVec(sp, np.array([0.5, 0.5]))
    with pytest.raises(NumericError, match=r"step \d+ \(t=.*K~=3\.0"):
        rk4_integrate(u, dirac_kernel(sp), fp.truncated(3.0), T=2.0, dt=0.05)
    # the same growth under the default level, above the a-priori bound
    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=2.0, dt=0.05)
    assert traj.masses.max() > 3.0


def test_rk4_refuses_the_first_node_above_k_tilde_before_a_later_abort():
    # births of class 2 raise the mass past K~ = 5 at step 17, while the
    # mortality 5 X, 7.5 X of classes 0 and 1 (clamped at X = 5) is stiff at
    # dt = 0.1: read to the end, the run would abort on negativity at step 26
    sp = atoms([[0.0], [1.0], [2.0]])
    kern = matrix_kernel(sp, [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fp = custom_pair(sp, lambda X, points: np.array([1.0, 0.0, 2.0]),
                     lambda X, points: np.array([5.0 * X, 7.5 * X, 0.0])).truncated(5.0)
    u = MeasureVec(sp, np.array([1.0, 0.0, 0.2]))
    with pytest.raises(NumericError, match=r"weight .* at step 26 \(t=2\.6\)"):
        parent_rk4_weights(u, kern, fp, 3.0, 0.1)
    run = rk4_stream(u, kern, fp, 3.0, 0.1)
    nodes = parent_rk4_weights(u, kern, fp, run.times[17], 0.1)
    masses = nodes.sum(axis=1)
    assert np.all(masses[:17] <= 5.0) and masses[17] > 5.0
    message = (f"mass {masses[17]} at step 17 (t={run.times[17]}) exceeds the truncation "
               f"level K~=5.0; the clamped vector field is not the model's")
    read = []
    with pytest.raises(NumericError, match=re.escape(message)):
        for w in run.weights:
            read.append(w)
    # the refused node and every node after it are never yielded
    assert np.array_equal(read, nodes[:17])
    assert next(run.weights, None) is None
    with pytest.raises(NumericError, match=re.escape(message)):
        rk4_integrate(u, kern, fp, 3.0, 0.1)


def test_rk4_records_clips_that_do_not_abort():
    # w0' = (1 - eps - 26) w0, w1' = eps w0 - 18 w1 from w1 = 0: at h = 0.1
    # both h-scaled rates lie left of the minimum of the RK4 polynomial R, so
    # each step's w1 entry is eps h (R(-2.5) - R(-1.8)) / (-0.7) w0 < 0, far
    # inside the abort tolerance: every one of the 10 steps clips one entry
    sp = atoms([[0.0], [1.0]])
    eps = 1e-9
    kern = matrix_kernel(sp, [[1.0 - eps, eps], [0.0, 1.0]])
    fp = constant_pair(sp, a=np.array([1.0, 0.0]), b=np.array([26.0, 18.0]))
    u = MeasureVec(sp, np.array([1.0, 0.0]))
    R = lambda x: 1 + x + x**2 / 2 + x**3 / 6 + x**4 / 24
    traj = rk4_integrate(u, kern, fp, T=1.0, dt=0.1)
    assert traj.meta["clip_count"] == 10
    assert traj.meta["clip_max"] == pytest.approx(eps * 0.1 * (R(-2.5) - R(-1.8)) / 0.7, rel=1e-6)
    assert 0.0 < traj.meta["clip_max"] < NEG_ABORT
    assert traj.weights.min() == 0.0
    # a step inside the positive region clips nothing
    clean = rk4_integrate(u, kern, fp, T=1.0, dt=0.01)
    assert (clean.meta["clip_count"], clean.meta["clip_max"]) == (0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rk4_names_the_step_of_a_non_finite_weight(bad):
    # the birth rate of atom 0 turns ``bad`` in the k4 stage of step 3 only:
    # call 1 is rk4_integrate's M_f1 probe, then four stages per step, so
    # step 3's weights hold exactly one non-finite entry
    sp = atoms([[0.0], [1.0], [2.0]])
    calls = []

    def birth(X, points):
        calls.append(X)
        rates = np.full(len(points), 1.0)
        if len(calls) == 1 + 4 * 2 + 4:
            rates[0] = bad
        return rates

    fp = custom_pair(sp, birth, lambda X, points: np.full(len(points), 0.5))
    u = MeasureVec(sp, np.array([0.2, 0.3, 0.5]))
    t3 = time_grid(1.0, 0.1)[3]
    with pytest.raises(NumericError, match=re.escape(f"non-finite weights at step 3 (t={t3})")):
        rk4_integrate(u, dirac_kernel(sp), fp, T=1.0, dt=0.1)


def test_trajectory_invariants_cached_masses():
    sp, kernel, fp, u = reference_components(cells=16)
    traj = rk4_integrate(u, kernel, fp, T=0.5, dt=0.01)
    for k in (0, 10, traj.n_nodes - 1):
        assert traj.masses[k] == traj.state(k).total_mass()
    assert traj.mass_bound_excess(traj.meta["M_f1"]) <= 1e-6
    # the row sums are the per-row np.sum bitwise even from a column-major
    # array, whose axis-1 reduction would add in another order
    rng = np.random.default_rng(5)
    sp = grid_1d(0.0, 1.0, 128)
    w = np.asfortranarray(rng.uniform(0.0, 1.0, (6, sp.n)) * 10.0 ** rng.integers(-8, 8, (6, sp.n)))
    traj = Trajectory(sp, np.arange(6.0), w)
    assert traj.masses.tobytes() == np.array([np.sum(row) for row in w]).tobytes()


def test_trajectory_refuses_an_overflowing_row_sum():
    # finite weights of 1e308 whose row sum overflows: refused at the first
    # such row, not cached as an infinite mass
    sp = atoms([[0.0], [1.0]])
    w = np.array([[1.0, 2.0], [1e308, 1e308], [1e308, 1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"t=0\.5 .* overflows"):
        Trajectory(sp, np.array([0.0, 0.5, 1.0]), w)
    # negatives inside a row whose |w| sum overflows cannot be judged
    # against the round-off tolerance: refused, not passed as round-off
    w = np.array([[1.0, 1.0, 1.0], [1e308, -1e308, 1e308]])
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"t=1\.0 .* overflows"):
        Trajectory(atoms([[0.0], [1.0], [2.0]]), [0.0, 1.0], w)
    # a sum at the top of the float range is still accepted
    ok = Trajectory(sp, np.array([0.0, 0.5]), np.array([[1.0, 2.0], [8e307, 8e307]]))
    assert ok.masses[1] == 1.6e308


def parent_validate(t, w):
    """The validation of ``Trajectory.__post_init__`` before it took row
    minima first: one full isfinite pass and one full |w| row sum."""
    if not np.all(np.isfinite(w)):
        raise NumericError("trajectory contains non-finite weights")
    tv = np.abs(w).sum(axis=1)
    tol = 1e-12 * np.maximum(1.0, tv)
    worst = w.min(axis=1)
    if np.any(worst < -tol):
        k = int(np.argmin(worst + tol))
        raise NumericError(
            f"trajectory state at t={t[k]} has weight {worst[k]}, below -tol_neg"
        )


def parent_sup_tv_distance(a, b):
    return float(np.max(np.abs(a.weights - b.weights).sum(axis=1)))


def parent_central_difference_gap(traj, rhs, skip=()):
    t, w = traj.times, traj.weights
    h = np.diff(t)
    even = np.abs(h[1:] - h[:-1]) <= 1e-6 * np.maximum(h[1:], h[:-1])
    ks = np.setdiff1d(np.flatnonzero(even) + 1, skip)
    if len(ks) == 0:
        return 0.0, 0
    deriv = (w[ks + 1] - w[ks - 1]) / (t[ks + 1] - t[ks - 1])[:, None]
    gaps = np.abs(deriv - np.stack([rhs(k) for k in ks])).sum(axis=1)
    return float(gaps.max()), len(ks)


def _raised(f):
    try:
        f()
    except NumericError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(1, 12),
    n=st.integers(1, 6),
    last_step=st.sampled_from([1.0, 0.4, 1.0 + 1e-9, 1.0 + 1e-3]),
    inject=st.lists(
        st.sampled_from(["nan", "inf", "-inf", "huge", "neg_inside", "neg_outside"]), max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_validation_and_row_tv_are_the_parent_passes(n_nodes, n, last_step, inject, seed):
    # the parent's full-pass validation, sup_tv_distance and central
    # difference gap are the oracle: same accept/reject with the same
    # message, bitwise-equal gaps and the same number of nodes checked
    rng = np.random.default_rng(seed)
    sp = atoms(rng.uniform(0.0, 1.0, n))
    h = float(rng.uniform(0.01, 1.0))
    times = h * np.arange(n_nodes)
    if n_nodes > 1:
        times[-1] = times[-2] + h * last_step
    w = rng.uniform(0.0, 1.0, (n_nodes, n)) * 10.0 ** rng.integers(-3, 4, (n_nodes, 1))
    for kind in inject:
        k, i = rng.integers(n_nodes), rng.integers(n)
        # negatives on either side of the round-off tolerance 1e-12 max(1, TV)
        tol = 1e-12 * max(1.0, float(np.abs(w[k]).sum()))
        w[k, i] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "huge": 1e308,
                   "neg_inside": -0.5 * tol, "neg_outside": -2.0 * tol}[kind]
    want = _raised(lambda: parent_validate(times, w))
    with np.errstate(over="ignore"):
        sums = w.sum(axis=1)
    if want is None and not np.all(np.isfinite(sums)):
        # the parent accepted finite weights whose row sum overflows; they are
        # refused, naming the first such row
        k = int(np.flatnonzero(~np.isfinite(sums))[0])
        want = f"trajectory state at t={times[k]} has finite weights whose sum overflows"
    assert _raised(lambda: Trajectory(sp, times, w)) == want
    if want is not None:
        return
    traj = Trajectory(sp, times, w)
    other = Trajectory(sp, times, rng.uniform(0.0, 1.0, (n_nodes, n)))
    assert traj.sup_tv_distance(other) == parent_sup_tv_distance(traj, other)
    rhs_rows = rng.normal(size=(n_nodes, n))
    rhs = lambda k: rhs_rows[k]
    skip = tuple(int(k) for k in rng.choice(n_nodes, size=rng.integers(0, n_nodes + 1), replace=False))
    nodes = zip(traj.weights, range(n_nodes))
    (gap,), count = _central_difference_gap(traj.times, nodes, [lambda w, k: rhs(k)], skip)
    want_gap, want_count = parent_central_difference_gap(traj, rhs, skip)
    assert gap == want_gap and count == want_count


def test_write_csv_matches_a_per_entry_loop(tmp_path):
    # the per-row template writes exactly what one format() per entry does
    rng = np.random.default_rng(7)
    sp = atoms(rng.uniform(0.0, 1.0, 12))
    w = rng.uniform(0.0, 1.0, (5, sp.n)) * 10.0 ** rng.integers(-300, 300, (5, sp.n))
    w[0, :3] = [0.0, 1e-320, 1.0]
    traj = Trajectory(sp, np.cumsum(rng.uniform(1e-9, 1e3, 5)), w)
    traj.write_csv(tmp_path / "t.csv")
    lines = ["t,index,weight\n"]
    for t, row in zip(traj.times, traj.weights):
        lines += [f"{format(t, '.17g')},{i},{format(x, '.17g')}\n" for i, x in enumerate(row)]
    assert (tmp_path / "t.csv").read_text() == "".join(lines)


def test_cumulative_trapezoid_is_scipys_bitwise():
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(3)
    for n_nodes in (1, 2, 3, 17, 200):
        x = np.cumsum(rng.uniform(1e-4, 1.0, n_nodes))
        y = rng.normal(size=(n_nodes, int(rng.integers(1, 9)))) * 10.0 ** rng.uniform(-5, 5)
        want = cumulative_trapezoid(y, x=x, axis=0, initial=0.0)
        assert np.array_equal(_cumulative_trapezoid(y, x), want)


# ─── the discounted kernel: the oracle for the integral operator ─────


def mortality_integral(fp, alpha, s, k):
    """int_{t_s}^{t_k} f2(alpha(tau)(Q), q_i) dtau per point: the trapezoid
    over the candidate's nodes s..k, summed cell by cell."""
    t = alpha.times[s : k + 1]
    f2 = np.array([fp.f2(x) for x in alpha.masses[s : k + 1]])
    return (0.5 * np.diff(t)[:, None] * (f2[1:] + f2[:-1])).sum(axis=0)


def gamma_bar(fp, kernel, alpha, s, k, j):
    """gamma(q_hat_j) discounted by the mortality accumulated from t_s to t_k:
    the net proportion of q_hat_j's offspring born at t_s still alive at t_k."""
    return kernel.apply(j).weights * np.exp(-mortality_integral(fp, alpha, s, k))


def picard_oracle(alpha, u, kernel, fp):
    """[S alpha](t_k) = e^(-int_0^t_k f2) u
    + trapz_s sum_j f1(alpha(s)(Q), q_hat_j) alpha_j(s) gamma_bar_{s,t_k}(q_hat_j)."""
    out = np.empty_like(alpha.weights)
    for k in range(alpha.n_nodes):
        terms = [
            sum(fp.f1(alpha.masses[s])[j] * alpha.weights[s, j] * gamma_bar(fp, kernel, alpha, s, k, j)
                for j in range(u.space.n))
            for s in range(k + 1)
        ]
        h = np.diff(alpha.times[: k + 1])
        births = sum(0.5 * h[m] * (terms[m] + terms[m + 1]) for m in range(k))
        out[k] = np.exp(-mortality_integral(fp, alpha, 0, k)) * u.weights + births
    return out


def test_gamma_bar_oracle_cases():
    sp = grid_1d(0.0, 1.0, 6)
    kernel = uniform_kernel(sp)
    fp = constant_pair(sp, a=0.0, b=0.5)
    times = np.linspace(0, 1, 11)
    alpha = Trajectory(sp, times, np.ones((11, sp.n)))
    # t = s: the kernel row unchanged
    assert np.array_equal(gamma_bar(fp, kernel, alpha, 4, 4, 2), kernel.apply(2).weights)
    # constant mortality scales the whole row by e^{-c (t-s)}
    for s, k in [(0, 10), (3, 7)]:
        g = gamma_bar(fp, kernel, alpha, s, k, 2)
        factor = np.exp(-0.5 * (times[k] - times[s]))
        assert np.allclose(g, factor * kernel.apply(2).weights, rtol=1e-12)
        assert g.sum() <= 1.0 + 1e-12
    # Dirac kernel: single atom scaled by its own survival factor
    gd = gamma_bar(fp, dirac_kernel(sp), alpha, 0, 10, 3)
    expected = np.zeros(sp.n)
    expected[3] = np.exp(-0.5)
    assert np.allclose(gd, expected, rtol=1e-12)


def random_pair(rng, sp, family):
    """An untruncated rate pair of ``family`` with random coefficients."""
    coef = lambda lo, hi: rng.uniform(lo, hi, sp.n)
    floor = float(rng.uniform(0.05, 0.5))
    if family == "logistic":
        return logistic_pair(sp, a=coef(0.2, 2.0), b=coef(0.1, 1.0), floor=floor)
    if family == "beverton_holt":
        return beverton_holt_pair(sp, a=coef(0.2, 2.0), c=coef(0.1, 1.0), b=coef(0.1, 1.0), floor=floor)
    if family == "ricker":
        return ricker_pair(sp, a=coef(0.2, 2.0), c=coef(0.1, 1.0), b=coef(0.1, 1.0), floor=floor)
    if family == "constant":
        return constant_pair(sp, a=coef(0.0, 2.0), b=coef(0.0, 2.0))
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


@settings(max_examples=60, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    n_nodes=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_picard_operator_equals_the_gamma_bar_oracle(space_kind, n, kernel_kind, n_nodes, seed):
    # any candidate path (uneven steps, masses above and below K~) from u
    rng = np.random.default_rng(seed)
    sp, kernel, fp, u = random_problem(rng, space_kind, n, kernel_kind)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.2, n_nodes - 1))])
    weights = rng.uniform(0.0, 2.0, (n_nodes, sp.n)) / sp.n
    weights[0] = u.weights
    alpha = Trajectory(sp, times, weights)
    out = picard_operator(alpha, u, kernel, fp)
    expected = picard_oracle(alpha, u, kernel, fp)
    assert np.abs(out.weights - expected).sum(axis=1).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rk4_of_the_pair_truncated_at_the_references_level(space_kind, n, kernel_kind, seed):
    # the pair truncated at the reference's K~ carries the level: integrating
    # it reproduces the reference bitwise, and a restart from a grid node t1
    # follows the same field to T
    rng = np.random.default_rng(seed)
    sp, kernel, fp, u = random_problem(rng, space_kind, n, kernel_kind)
    fp = replace(fp, k_tilde=None)
    T, dt = float(rng.uniform(0.1, 1.0)), 0.05
    ref = rk4_integrate(u, kernel, fp, T, dt)
    fpt = fp.truncated(ref.meta["k_tilde"])
    assert np.array_equal(rk4_integrate(u, kernel, fpt, T, dt).weights, ref.weights)
    k1 = int(rng.integers(1, ref.n_nodes - 1))
    second = rk4_integrate(ref.state(k1), kernel, fpt, T - ref.times[k1], dt)
    assert second.final.add_scaled(-1.0, ref.final).tv_norm() <= 1e-6


# the RK4 loops as they stood before the node bookkeeping was trimmed,
# verbatim: the oracles for bitwise equality


def parent_field_weights(w, kernel, fp):
    X = float(np.sum(w))
    births = kernel.push_births(fp.f1(X) * w)
    if fp.mean_fitness_mortality:
        fbar = float(np.dot(fp.f1(X), w)) / X if X != 0.0 else 0.0
        deaths = fbar * w
    else:
        deaths = fp.f2(X) * w
    return births - deaths


def parent_enforce_nonneg(w, step, t):
    lowest = float(w.min())
    if lowest >= 0.0:
        return w
    tv = float(np.abs(w).sum())
    if lowest < -NEG_ABORT * max(1.0, tv):
        raise NumericError(
            f"weight {lowest} at step {step} (t={t}) is below the negativity "
            f"tolerance; the step size is too large"
        )
    return np.maximum(w, 0.0)


def parent_rk4_weights(u, kernel, fp, T, dt):
    m_f1 = float(np.max(fp.f1(0.0)))
    if fp.k_tilde is None:
        fp = fp.truncated(max(1.0, u.total_mass()) * math.exp(min(m_f1 * T, 60.0)) * 1.1 + 1.0)
    times = time_grid(T, dt)
    out = np.empty((len(times), u.space.n))
    out[0] = u.weights
    w = u.weights.copy()
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        k1 = parent_field_weights(w, kernel, fp)
        k2 = parent_field_weights(w + 0.5 * h * k1, kernel, fp)
        k3 = parent_field_weights(w + 0.5 * h * k2, kernel, fp)
        k4 = parent_field_weights(w + h * k3, kernel, fp)
        w = w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(w)):
            raise NumericError(f"RK4 produced non-finite weights at step {k + 1} (t={times[k + 1]})")
        w = parent_enforce_nonneg(w, k + 1, times[k + 1])
        out[k + 1] = w
    return out


def parent_discrete_rhs(x, sys):
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError(f"state must have {sys.n} entries")
    X = float(np.sum(x))
    return sys.P @ (sys.fp.f1(X) * x) - sys.fp.f2(X) * x


def parent_rk4(rhs, x0, T, dt):
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


@settings(max_examples=60, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant", "mean_fitness"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rk4_nodes_are_the_parent_loops_bitwise(space_kind, n, kernel_kind, family, seed):
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    fp = random_pair(rng, sp, family)
    T, dt = float(rng.uniform(0.1, 1.0)), 0.05
    traj = rk4_integrate(u, kernel, fp, T, dt)
    assert traj.weights.tobytes() == parent_rk4_weights(u, kernel, fp, T, dt).tobytes()
    for k in range(traj.n_nodes):
        assert traj.masses[k] == traj.state(k).total_mass()
    if family == "ricker":
        a, c = fp.params["a"], fp.params["c"]
        for X in traj.masses:
            assert fp.f1(X).tobytes() == (a * np.exp(-c * X)).tobytes()
    if family == "mean_fitness":
        return
    sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
    times, xs = integrate_discrete(sys, u.weights, T, dt)
    want_times, want = parent_rk4(lambda x: parent_discrete_rhs(x, sys), u.weights, T, dt)
    assert times.tobytes() == want_times.tobytes()
    assert xs.tobytes() == want.tobytes()
    for wrong in (sp.n + 1, sp.n - 1):
        with pytest.raises(ValueError, match=f"{sp.n} entries"):
            integrate_discrete(sys, np.full(wrong, 0.1), T, dt)


def test_picard_operator_exponential_mass_path():
    # f1 = 0, f2 = X and a candidate of mass e^t: the mortality integral is
    # e^t - 1, so [S alpha](t) = u e^{-(e^t - 1)} up to the trapezoid error
    # O(h^2) of the sampled path
    sp = grid_1d(0.0, 1.0, 4)
    fp = custom_pair(sp, lambda X, pts: np.zeros(len(pts)), lambda X, pts: X * np.ones(len(pts)))
    u = MeasureVec(sp, np.full(sp.n, 1.0 / sp.n))
    h = 0.01
    ts = np.arange(0.0, 1.0 + h / 2, h)
    alpha = Trajectory(sp, ts, np.exp(ts)[:, None] * u.weights)
    out = picard_operator(alpha, u, dirac_kernel(sp), fp.truncated(10.0))
    exact = np.exp(-(np.exp(ts) - 1.0))[:, None] * u.weights
    assert np.abs(out.weights - exact).max() <= 5 * h**2


# ─── Picard operator ─────────────────────────────────────────────────


def test_picard_operator_pure_decay():
    # alpha == u with f1 = 0: only the decayed initial term survives
    sp = grid_1d(0.0, 1.0, 5)
    fp = constant_pair(sp, a=0.0, b=0.7).truncated(3.0)
    u = MeasureVec(sp, RNG.uniform(0.2, 1.0, sp.n))
    times = np.linspace(0.0, 0.5, 26)
    alpha = Trajectory(sp, times, np.tile(u.weights, (26, 1)))
    out = picard_operator(alpha, u, dirac_kernel(sp), fp)
    assert np.array_equal(out.weights[0], u.weights)
    for k in (7, 25):
        assert np.allclose(out.weights[k], u.weights * np.exp(-0.7 * times[k]), rtol=1e-12)


def test_picard_operator_requires_truncation_and_matching_start():
    sp, kernel, fp, u = reference_components(cells=8)
    times = np.linspace(0.0, 0.05, 6)
    alpha = Trajectory(sp, times, np.tile(u.weights, (6, 1)))
    with pytest.raises(ValueError, match="truncated"):
        picard_operator(alpha, u, kernel, fp)
    other = MeasureVec(sp, u.weights * 2.0)
    with pytest.raises(ValueError, match="initial"):
        picard_operator(alpha, other, kernel, fp.truncated(3.0))


def test_picard_single_application_contracts_toward_solution():
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    dt = 1e-3
    window = np.floor(tc.b / dt) * dt
    ref = rk4_integrate(u, kernel, fp, window, dt)
    alpha0 = Trajectory(sp, ref.times.copy(), np.tile(u.weights, (ref.n_nodes, 1)))
    d0 = alpha0.sup_tv_distance(ref)
    alpha1 = picard_operator(alpha0, u, kernel, fp.truncated(tc.k_tilde))
    d1 = alpha1.sup_tv_distance(ref)
    assert d1 <= tc.kappa * d0 * (1 + 1e-3) + 1e-6


# ─── Picard solve ────────────────────────────────────────────────────


def test_picard_zero_rates_converges_immediately():
    sp = grid_1d(0.0, 1.0, 5)
    fp = constant_pair(sp, a=0.0, b=0.0)
    u = MeasureVec(sp, RNG.uniform(0, 1, sp.n))
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    traj = picard_solve(u, dirac_kernel(sp), fp, tc, dt=0.01)
    assert traj.meta["iterations"] == 1
    assert np.array_equal(traj.weights[-1], u.weights)


def test_picard_observed_ratios_below_kappa():
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    assert tc.kappa < 1.0
    traj = picard_solve(u, kernel, fp, tc, dt=1e-3, tol=1e-10)
    ratios = traj.meta["contraction_ratios"]
    assert ratios, "expected a multi-iteration solve"
    assert all(r <= tc.kappa for r in ratios)
    assert traj.meta["iterations"] <= 30


def test_picard_fixed_point_residual_below_tolerance():
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    tol = 1e-10
    traj = picard_solve(u, kernel, fp, tc, dt=1e-3, tol=tol)
    again = picard_operator(traj, u, kernel, fp.truncated(tc.k_tilde))
    assert traj.sup_tv_distance(again) <= tol


def test_picard_matches_rk4_at_matching_grids():
    # cross-solver oracle; the constant is frozen from the reference run
    # (observed 2.7e-9 at dt=1e-3, scaling as dt^2)
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    for dt in (1e-3, 5e-4):
        window = np.floor(tc.b / 1e-3) * 1e-3
        tol = 1e-10
        traj = picard_solve(u, kernel, fp, tc, dt=dt, tol=tol, window=window)
        ref = rk4_integrate(u, kernel, fp, window, dt)
        assert traj.sup_tv_distance(ref) <= 0.01 * (dt**2 + tol)


def test_picard_window_cannot_exceed_contraction_bound():
    sp, kernel, fp, u = reference_components(cells=8)
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    with pytest.raises(ValueError, match="window"):
        picard_solve(u, kernel, fp, tc, dt=1e-3, window=tc.b * 2)


def test_picard_refuses_a_converged_node_above_k_tilde():
    # a constant pair ignores X, so truncating it at K~ = 1.01 (just above
    # the initial mass 1) changes no rate: the solve at the estimated K~ is
    # the same path, and the check names its first node above 1.01
    sp = grid_1d(0.0, 1.0, 4)
    fp = constant_pair(sp, a=2.0, b=0.5)
    u = MeasureVec(sp, np.full(sp.n, 0.25))
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    free = picard_solve(u, dirac_kernel(sp), fp, tc, dt=1e-3)
    k = int(np.flatnonzero(free.masses > 1.01)[0])
    assert 0 < k < free.n_nodes - 1
    message = (f"mass {free.masses[k]} at node {k} (t={free.times[k]}) exceeds the "
               f"truncation level K~=1.01; the clamped vector field is not the model's")
    with pytest.raises(NumericError, match=re.escape(message)):
        picard_solve(u, dirac_kernel(sp), fp, replace(tc, k_tilde=1.01), dt=1e-3)


def test_picard_rejects_bad_settings_and_mean_fitness():
    sp, kernel, fp, u = reference_components(cells=8)
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(u, kernel, fp, tc, dt=1e-3, max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        picard_solve(u, kernel, fp, tc, dt=1e-3, tol=-1.0)
    # the refusal comes from the pair's f2, the one place that states it
    with pytest.raises(ValueError, match="contraction theory; use RK4"):
        picard_solve(u, kernel, mean_fitness_pair(sp, 1.0), tc, dt=1e-3)


def test_picard_reports_last_residual_when_out_of_iterations():
    sp, kernel, fp, u = reference_components(cells=8)
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    with pytest.raises(NumericError, match="residual"):
        picard_solve(u, kernel, fp, tc, dt=1e-3, tol=1e-300, max_iter=3)


# ─── flow ────────────────────────────────────────────────────────────


def test_flow_time_zero_is_identity():
    sp, kernel, fp, u = reference_components(cells=8)
    for solver in ("rk4", "picard"):
        traj = flow(u, kernel, fp, 0.0, solver=solver)
        assert traj.n_nodes == 1
        assert np.array_equal(traj.weights[0], u.weights)


def test_flow_needs_dt_after_time_zero():
    sp, kernel, fp, u = reference_components(cells=8)
    for solver in ("rk4", "picard"):
        with pytest.raises(ValueError, match="dt"):
            flow(u, kernel, fp, 0.5, solver=solver)


def test_flow_semigroup_property():
    sp, kernel, fp, u = reference_components(cells=32)
    dt = 1e-3
    whole = flow(u, kernel, fp, 1.0, solver="rk4", dt=dt)
    first = flow(u, kernel, fp, 0.4, solver="rk4", dt=dt)
    second = flow(first.final, kernel, fp, 0.6, solver="rk4", dt=dt)
    gap = second.final.add_scaled(-1.0, whole.final).tv_norm()
    assert gap <= 1e-6


def test_flow_picard_windows_recompute_constants():
    sp, kernel, fp, u = reference_components(cells=16)
    traj = flow(u, kernel, fp, 0.5, solver="picard", dt=1e-3)
    windows = traj.meta["windows"]
    assert len(windows) >= 2
    masses = [w["constants"]["u_mass"] for w in windows]
    assert masses[0] == pytest.approx(u.total_mass())
    # the population grows here, so later windows see larger masses
    assert masses[-1] > masses[0]
    for w in windows:
        assert all(r < 1.0 for r in w["contraction_ratios"])


def test_flow_picard_agrees_with_rk4_globally():
    sp, kernel, fp, u = reference_components()
    fl_p = flow(u, kernel, fp, 1.0, solver="picard", dt=1e-3)
    fl_r = flow(u, kernel, fp, 1.0, solver="rk4", dt=1e-3)
    assert np.allclose(fl_p.times, fl_r.times)
    assert fl_p.sup_tv_distance(fl_r) <= 1e-4


def test_flow_rejects_mean_fitness_picard():
    sp = grid_1d(0.0, 1.0, 4)
    fp = mean_fitness_pair(sp, 1.0)
    u = MeasureVec(sp, np.full(4, 0.25))
    with pytest.raises(ValueError, match="RK4|rk4"):
        flow(u, dirac_kernel(sp), fp, 1.0, solver="picard", dt=1e-3)


def test_flow_picard_rejects_oversized_dt():
    sp, kernel, fp, u = reference_components(cells=8)
    with pytest.raises(NumericError, match="dt"):
        flow(u, kernel, fp, 1.0, solver="picard", dt=0.5)


# ─── field Lipschitz bound and continuous dependence ─────────────────


def test_field_lipschitz_inequality_on_tv_ball():
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    k_f = tc.B1 + tc.B2 + (tc.L1 + tc.L2) * tc.C1
    worst = field_lipschitz_ratio(kernel, fp.truncated(tc.k_tilde), tc.C1, np.random.default_rng(11))
    assert 0.0 < worst <= k_f


def test_field_lipschitz_ratio_of_a_linear_field():
    # constant rates a, b with the Dirac kernel: F(mu) = (a - b) mu, so every
    # pair's ratio is |a - b|
    sp = grid_1d(0.0, 1.0, 16)
    for a, b in ((2.0, 0.5), (0.3, 1.7)):
        fp = constant_pair(sp, a, b)
        ratio = field_lipschitz_ratio(dirac_kernel(sp), fp, 3.0, np.random.default_rng(0))
        assert ratio == pytest.approx(abs(a - b), abs=1e-12)


def test_continuous_dependence_on_initial_measure():
    sp, kernel, fp, u = reference_components(cells=32)
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    k_f = tc.B1 + tc.B2 + (tc.L1 + tc.L2) * tc.C1
    T = 1.0
    base = flow(u, kernel, fp, T, solver="rk4", dt=1e-3)
    bump = RNG.uniform(0, 1, sp.n)
    bump /= bump.sum()
    for delta in (1e-3, 1e-4):
        pert = MeasureVec(sp, u.weights + delta * bump)
        other = flow(pert, kernel, fp, T, solver="rk4", dt=1e-3)
        gap = other.final.add_scaled(-1.0, base.final).tv_norm()
        assert gap <= np.exp(k_f * T) * delta * 1.1


@settings(max_examples=60, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearby_initial_measures_separate_at_most_exponentially(space_kind, n, kernel_kind, family,
                                                                seed):
    # continuous dependence on initial data: TV(mu(t) - nu(t)) <= e^(K_F t) TV(mu(0) - nu(0)),
    # with K_F = B1 + B2 + (L1 + L2) C1 the Lipschitz bound of the truncated
    # field on the TV ball of radius C1.  The ball radius is the a-priori mass
    # bound at T, so the ball holds both flows.  An RK4 step on that ball is
    # Lipschitz with at most e^(K_F h) and a clip with 1, so the bound holds
    # at every node, up to the round-off of the TV sums
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    fp = random_pair(rng, sp, family)
    T, dt = float(rng.uniform(0.1, 1.0)), 0.01
    delta = 10.0 ** rng.uniform(-4.0, -1.0)
    v = MeasureVec(sp, u.weights * rng.uniform(1.0 - delta, 1.0 + delta, sp.n))
    mass = max(u.total_mass(), v.total_mass())
    tc = estimate_constants(fp, mass, max(1.0, mass * math.exp(float(np.max(fp.f1(0.0))) * T)))
    k_f = tc.B1 + tc.B2 + (tc.L1 + tc.L2) * tc.C1
    fpt = fp.truncated(tc.k_tilde)
    gap0 = u.add_scaled(-1.0, v).tv_norm()
    mu, nu = rk4_stream(u, kernel, fpt, T, dt), rk4_stream(v, kernel, fpt, T, dt)
    for k, (a, b) in enumerate(zip(mu.weights, nu.weights, strict=True)):
        t = mu.times[k]
        ratio = float(np.abs(a - b).sum()) / (math.exp(k_f * t) * gap0)
        assert ratio <= 1.0 + 1e-9, (
            f"pair {u.weights.tolist()} / {v.weights.tolist()}: node {k} (t={t}) separates "
            f"{ratio} times the bound e^(K_F t) TV(mu(0) - nu(0)), K_F={k_f}")


# ─── differential/integral consistency ───────────────────────────────


def test_finite_difference_residual_matches_a_node_loop():
    # the plain per-node loop is the reference: nodes in ``skip`` and nodes
    # between steps of unequal length (here before the shortened last step)
    # are left out
    sp, kernel, fp, u = reference_components(cells=16)
    traj = rk4_integrate(u, kernel, fp, 0.395, 0.01)
    fpt = fp.truncated(traj.meta["k_tilde"])
    skip = (5, 17)
    t, w = traj.times, traj.weights
    worst = 0.0
    for k in range(1, traj.n_nodes - 1):
        h1, h2 = t[k] - t[k - 1], t[k + 1] - t[k]
        if k in skip or abs(h1 - h2) > 1e-12 * max(h1, h2):
            continue
        deriv = (w[k + 1] - w[k - 1]) / (t[k + 1] - t[k - 1])
        f = vector_field(traj.state(k), kernel, fpt).weights
        worst = max(worst, float(np.abs(deriv - f).sum()))
    assert traj.n_nodes == 41 and t[-1] - t[-2] < 0.0051
    assert finite_difference_residual(traj, kernel, fpt, skip=skip) == worst


def test_central_difference_gap_of_a_nan_rhs_is_nan():
    # a NaN right-hand side at one interior node makes the gap NaN, wherever
    # that node falls among larger and smaller gaps, so no check can pass on it
    sp = atoms([[0.0], [1.0]])
    traj = Trajectory(sp, 0.1 * np.arange(8.0), RNG.uniform(0.0, 1.0, (8, 2)))
    for bad in (1, 3, 6):
        rows = np.zeros((8, 2))
        rows[bad] = [np.nan, 0.0]
        rows[4] = [1e6, 0.0]
        nodes = zip(traj.weights, range(8))
        (gap,), count = _central_difference_gap(traj.times, nodes, [lambda w, k: rows[k]])
        assert count == 6 and math.isnan(gap)


def test_picard_trajectory_solves_the_ode_at_order_two():
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    fpt = fp.truncated(tc.k_tilde)
    window = np.floor(tc.b / 1e-3) * 1e-3
    res = []
    for dt in (1e-3, 5e-4):
        traj = picard_solve(u, kernel, fp, tc, dt=dt, tol=1e-12, window=window)
        res.append(finite_difference_residual(traj, kernel, fpt))
    order = np.log2(res[0] / res[1])
    assert order >= 1.8, f"observed order {order} (residuals {res})"


def test_pure_selection_equivalence_with_decoupled_ode():
    # Dirac kernel: the measure model is n decoupled weight ODEs coupled
    # only through X; integrate them with the test-local RK4 at the same dt
    sp, _, fp, u = reference_components(cells=32)
    dt = 1e-3
    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=1.0, dt=dt)
    fpt = fp.truncated(traj.meta["k_tilde"])

    def rhs(w):
        X = float(np.sum(w))
        return (fpt.f1(X) - fpt.f2(X)) * w

    _, ws = rk4_oracle(rhs, u.weights, 1.0, dt)
    gap = float(np.max(np.abs(traj.weights - ws).sum(axis=1)))
    assert gap <= 1e-8


# ─── positivity and mass bound over random problems ──────────────────


def test_two_trait_grid_logistic_run():
    # two-trait classes on a 2-D box: birth = q1, mortality = floor + q2 X;
    # the population concentrates on the best birth-to-death ratio
    from evomeasure import gaussian_kernel, grid_2d

    sp = grid_2d([[1.0, 2.0], [1.0, 2.0]], (8, 8))
    fp = logistic_pair(sp, a={"trait": 0}, b={"trait": 1}, floor=1e-2)
    u = MeasureVec(sp, sp.cell_volumes.copy())
    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=30.0, dt=0.01)
    assert traj.weights.min() >= -1e-12
    best = np.argmax((sp.points[:, 0] - 1e-2) / sp.points[:, 1])
    shares = traj.weights[-1] / traj.masses[-1]
    assert np.argmax(shares) == best
    # mutation variant stays positive and mass-bounded too
    traj2 = rk4_integrate(u, gaussian_kernel(sp, 0.3), fp, T=2.0, dt=0.01)
    assert traj2.mass_bound_excess(float(np.max(fp.f1(0.0)))) <= 1e-6


def test_positivity_and_gronwall_on_random_problems():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(4, 16))
        sp = grid_1d(0.0, float(rng.uniform(0.5, 2.0)), n)
        from evomeasure import ricker_pair, logistic_pair, gaussian_kernel

        if rng.random() < 0.5:
            fp = ricker_pair(sp, a=rng.uniform(0.2, 2.0, n), c=float(rng.uniform(0.1, 1.0)),
                             b=rng.uniform(0.1, 1.0, n), floor=float(rng.uniform(0.05, 0.5)))
        else:
            fp = logistic_pair(sp, a=rng.uniform(0.2, 2.0, n),
                               b=rng.uniform(0.1, 1.0, n), floor=float(rng.uniform(0.05, 0.5)))
        kind = rng.integers(0, 3)
        kernel = (dirac_kernel(sp) if kind == 0 else
                  uniform_kernel(sp) if kind == 1 else
                  gaussian_kernel(sp, float(rng.uniform(0.05, 0.5))))
        u = MeasureVec(sp, rng.uniform(0.0, 1.0, n) * sp.cell_volumes)
        T = float(rng.uniform(0.5, 2.0))
        traj = rk4_integrate(u, kernel, fp, T, dt=0.01)
        m_f1 = float(np.max(fp.f1(0.0)))
        assert traj.mass_bound_excess(m_f1) <= 1e-6, f"trial {trial}"
        tol = 1e-12 * max(1.0, float(np.abs(traj.weights).sum(axis=1).max()))
        assert traj.weights.min() >= -tol, f"trial {trial}"
