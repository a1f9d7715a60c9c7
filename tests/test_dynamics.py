"""Solvers: the vector field, RK4, the discounted kernel and Picard.

Independent oracles: hand algebra for the field, the RK4 loop of
``oracles`` for mass dynamics, the paper's discounted kernel gamma_bar written out
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

from conftest import concentration_config_dict, reference_components
from evomeasure import (
    DiscreteSystem,
    MeasureVec,
    NumericError,
    atoms,
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
    integrate_replicator_mutator,
    logistic_pair,
    matrix_kernel,
    mean_fitness_pair,
    picard_operator,
    picard_solve,
    ricker_pair,
    rk4_integrate,
    uniform_kernel,
    vector_field,
    zero_measure,
)
from evomeasure.config import RunConfig
from evomeasure.errors import ConfigError
from evomeasure.dynamics import (
    NEG_ABORT,
    Trajectory,
    _central_difference_gap,
    _cumulative_trapezoid,
    finite_difference_residual,
    flow_stream,
    node_blocks,
    rk4_stream,
    time_grid,
)
from evomeasure.kernels import MutationKernel
from oracles import (central_difference_gap, class_rhs, max_row_tv, outcome, random_pair, random_problem,
                     refuse_mass_above, refused, rk4, rk4_run)

RNG = np.random.default_rng(3)


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
    _, xs = rk4(lambda y: y * (0.9 - y), [0.5], 30.0, dt / 10.0)
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
        rk4_run(u, kern, fp, 3.0, 0.1)
    run = rk4_stream(u, kern, fp, 3.0, 0.1)
    nodes = rk4_run(u, kern, fp, run.times[17], 0.1)
    masses = nodes.masses
    assert np.all(masses[:17] <= 5.0) and masses[17] > 5.0
    message = (f"mass {masses[17]} at step 17 (t={run.times[17]}) exceeds the truncation "
               f"level K~=5.0; the clamped vector field is not the model's")
    read = []
    with pytest.raises(NumericError, match=re.escape(message)):
        for w in run.weights:
            read.append(w)
    # the refused node and every node after it are never yielded
    assert np.array_equal(read, nodes.weights[:17])
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


def indexed_blocks(weights, size):
    """``node_blocks`` of ``weights``, each with the indices of its nodes as its data."""
    return ((W, np.arange(k, k + len(W))) for k, W in zip(range(0, len(weights), size), node_blocks(weights, size)))


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
    # the parent's full-pass validation, the max row TV and the central
    # difference gap are the oracle: same accept/reject with the same
    # message, bitwise-equal gaps and the same number of nodes checked.  The
    # gap is read in blocks of a random size, the last two rows carried on
    rng = np.random.default_rng(seed)
    sp = atoms(rng.uniform(0.0, 1.0, n))
    h = float(rng.uniform(0.01, 1.0))
    times = h * np.arange(n_nodes)
    if n_nodes > 1:
        times[-1] = times[-2] + h * last_step
    w = rng.uniform(0.0, 1.0, (n_nodes, n)) * 10.0 ** rng.integers(-3, 4, (n_nodes, 1))
    # the planted inf and 1e308 weights overflow, and inf - inf is NaN, in
    # the sums and differences below: on purpose, so numpy is told not to warn
    with np.errstate(over="ignore", invalid="ignore"):
        for kind in inject:
            k, i = rng.integers(n_nodes), rng.integers(n)
            # negatives on either side of the round-off tolerance 1e-12 max(1, TV)
            tol = 1e-12 * max(1.0, float(np.abs(w[k]).sum()))
            w[k, i] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "huge": 1e308,
                       "neg_inside": -0.5 * tol, "neg_outside": -2.0 * tol}[kind]
        want = outcome(lambda: parent_validate(times, w))
        sums = w.sum(axis=1)
        traj = outcome(lambda: Trajectory(sp, times, w))
    if want is None and not np.all(np.isfinite(sums)):
        # the parent accepted finite weights whose row sum overflows; they are
        # refused, naming the first such row
        k = int(np.flatnonzero(~np.isfinite(sums))[0])
        want = ("refused", "NumericError",
                f"trajectory state at t={times[k]} has finite weights whose sum overflows")
    if want is not None:
        assert traj == want
        return
    other = Trajectory(sp, times, rng.uniform(0.0, 1.0, (n_nodes, n)))
    assert traj.sup_tv_distance(other) == max_row_tv(traj.weights, other.weights)
    rhs_rows = rng.normal(size=(n_nodes, n))
    rhs = lambda k: rhs_rows[k]
    size = int(rng.integers(1, n_nodes + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        (gap,), count = _central_difference_gap(traj.times, indexed_blocks(traj.weights, size),
                                                 [lambda W, ks: rhs(ks)])
        want_gap, want_count = central_difference_gap(traj.times, traj.weights.__getitem__, rhs)
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
    assert max_row_tv(out.weights, expected) <= 1e-12


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


@settings(max_examples=60, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant", "mean_fitness"]),
    scalar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rk4_nodes_are_the_parent_loops_bitwise(space_kind, n, kernel_kind, family, scalar, seed):
    # test_streams holds the nodes to the oracle's RK4 run; here the cached
    # masses, each family's rates and separable factors, and the class
    # system's RK4, all bitwise
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    fp = random_pair(rng, sp, family, scalar=scalar)
    T, dt = float(rng.uniform(0.1, 1.0)), 0.05
    traj = rk4_integrate(u, kernel, fp, T, dt)
    for k in range(traj.n_nodes):
        assert traj.masses[k] == traj.state(k).total_mass()
    if family == "mean_fitness":
        return
    p = fp.params
    a, b, c = p["a"], p["b"], p.get("c")
    death = (lambda X: b) if family == "constant" else lambda X: p["floor"] + b * X
    if family == "ricker":
        birth, phi = lambda X: a * np.exp(-c * X), lambda x: math.exp(-c * x)
    elif family == "beverton_holt":
        birth, phi = lambda X: a / (1 + c * X), lambda x: 1 / (1 + c * x)
    else:
        birth, phi = lambda X: a, lambda x: 1.0
    for X in traj.masses:
        assert fp.f1(X).tobytes() == birth(X).tobytes()
        assert fp.f2(X).tobytes() == np.broadcast_to(death(X), sp.n).tobytes()
        if scalar:
            x = float(X)
            assert (fp.factors[1](x), fp.factors[2](x)) == (phi(x), death(x))
    sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
    times, xs = integrate_discrete(sys, u.weights, T, dt)
    want_times, want = rk4(lambda x: class_rhs(x, sys), u.weights, T, dt)
    assert times.tobytes() == want_times.tobytes()
    assert xs.tobytes() == want.tobytes()
    for wrong in (sp.n + 1, sp.n - 1):
        with pytest.raises(ValueError, match=f"{sp.n} entries"):
            integrate_discrete(sys, np.full(wrong, 0.1), T, dt)


@settings(max_examples=150, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant", "stiff"]),
    n_steps=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_rk4_of_a_separable_pair_is_the_stage_form_to_round_off(space_kind, n, kernel_kind, family,
                                                                  n_steps, seed):
    # scalar b and c: the package takes the polynomial step, the oracle the
    # stage form of the same RK4 map.  Every node agrees to round-off, and a
    # K~ refusal or a negativity abort names the same step
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    dt = float(rng.uniform(0.005, 0.05))
    if family == "stiff":
        # deaths at 15-30 under a kernel that mixes a share eps, from a
        # measure with empty classes: RK4 clips dips, or aborts on large ones
        eps = 10.0 ** rng.uniform(-10.0, -2.0)
        mix = rng.uniform(0.0, 1.0, (sp.n, sp.n))
        kernel = matrix_kernel(sp, (1.0 - eps) * np.eye(sp.n) + eps * mix / mix.sum(axis=1, keepdims=True))
        fp = constant_pair(sp, a=rng.uniform(0.0, 2.0, sp.n), b=float(rng.uniform(15.0, 30.0)))
        dt = float(rng.uniform(0.05, 0.12))
        u = MeasureVec(sp, u.weights * (np.arange(sp.n) % 2 == 0))
    else:
        fp = random_pair(rng, sp, family, scalar=True)
    fp = fp.truncated(float(rng.uniform(0.3, 3.0)))
    assert fp.factors is not None
    T = n_steps * dt
    want = outcome(lambda: refuse_mass_above(rk4_run(u, kernel, fp, T, dt)))
    got = outcome(lambda: rk4_integrate(u, kernel, fp, T, dt))
    if refused(want):
        # the messages up to the offending mass or weight, which is round-off apart
        unvalued = lambda r: (r[:2], re.sub(r"^(mass|weight) \S+ ", "", r[2]))
        assert refused(got) and unvalued(got) == unvalued(want)
        return
    assert not refused(got), got
    assert got.meta["k_tilde"] == want.meta["k_tilde"]
    tv = np.abs(want.weights).sum(axis=1)
    gap = np.abs(got.weights - want.weights).sum(axis=1)
    assert np.all(gap <= 1e-12 * np.maximum(1.0, tv)), float(np.max(gap / np.maximum(1.0, tv)))


def test_a_separable_step_clamps_its_stage_masses():
    # x' = x (1 - floor - x) from 0.5 in steps of 1.5: stage 4 overshoots
    # K~ = 0.82 while the nodes stay below it, so the clamp sets that
    # stage's rates; the node is the oracle's, and not the unclamped one
    sp = atoms([[0.0]])
    fp = logistic_pair(sp, a=1.0, b=1.0)
    assert fp.factors is not None
    u, kernel = MeasureVec(sp, np.array([0.5])), dirac_kernel(sp)
    node = lambda run, k_tilde: float(run(u, kernel, fp.truncated(k_tilde), 1.5, 1.5).final.weights[0])
    assert node(rk4_integrate, 0.82) == pytest.approx(node(rk4_run, 0.82), rel=0.0, abs=1e-15)
    assert abs(node(rk4_integrate, 0.82) - node(rk4_run, 2.0)) > 1e-4


def test_a_dirac_separable_run_pushes_nothing_and_is_the_stage_form(monkeypatch):
    # the concentration problem at 64 cells over 4000 steps: under the Dirac
    # kernel M = diag(a), so a step is p(a) w without a push, and every node
    # is the stage form's to round-off
    cfg = RunConfig.from_dict(concentration_config_dict(cells=64))
    _, kernel, fp, u = cfg.build()
    assert kernel.is_dirac and fp.factors is not None
    want = rk4_run(u, kernel, fp, cfg.T, cfg.dt)

    def refuse(self, v):
        raise AssertionError("the Dirac step pushed through the kernel")

    monkeypatch.setattr(MutationKernel, "push_births", refuse)
    got = rk4_integrate(u, kernel, fp, cfg.T, cfg.dt)
    assert got.n_nodes == 4001
    tv = np.abs(want.weights).sum(axis=1)
    gap = np.abs(got.weights - want.weights).sum(axis=1)
    assert np.all(gap <= 1e-12 * np.maximum(1.0, tv)), float(np.max(gap / np.maximum(1.0, tv)))


@pytest.mark.parametrize("a, weights, dt, message", [
    (1e80, [0.5, 0.5], 0.05, "RK4 produced non-finite weights at step 1 "),
    (1e80, [0.0, 0.5], 0.05, None),
    (1e76, [0.0, 0.5], 30.0, "is below the negativity tolerance"),
])
def test_a_dirac_pair_whose_fourth_power_overflows_is_the_stage_form(a, weights, dt, message):
    # a^4 = inf at a = 1e80; at a = 1e76 it is finite, but alpha_4 a^4
    # overflows for h = 30.  With mass at that point the run aborts at the
    # oracle's step with its message (up to the offending weight); with none
    # there the point keeps weight 0, where a power of a formed before the
    # product with w would give inf * 0 = NaN
    sp = atoms([[0.0], [1.0]])
    fp = logistic_pair(sp, a=np.array([a, 1.0]), b=1.0)
    u, kernel = MeasureVec(sp, np.array(weights)), dirac_kernel(sp)
    with np.errstate(over="ignore", invalid="ignore"):
        want = outcome(lambda: refuse_mass_above(rk4_run(u, kernel, fp, 10 * dt, dt)))
        got = outcome(lambda: rk4_integrate(u, kernel, fp, 10 * dt, dt))
    if message is not None:
        unvalued = lambda r: (r[:2], re.sub(r"^weight \S+ ", "", r[2]))
        assert refused(want) and unvalued(got) == unvalued(want)
        assert message in want[2] and "at step 1 " in want[2]
        return
    assert not refused(want) and not refused(got)
    assert np.max(np.abs(got.weights - want.weights)) <= 1e-15


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


def test_picard_start_check_is_absolute():
    # a candidate 5e-4 off a start of weight 100 is not the initial measure
    sp, kernel, fp, _ = reference_components(cells=8)
    u = MeasureVec(sp, np.full(sp.n, 100.0))
    weights = np.tile(u.weights, (3, 1))
    weights[0, 0] += 5e-4
    alpha = Trajectory(sp, np.array([0.0, 0.01, 0.02]), weights)
    with pytest.raises(ValueError, match="initial"):
        picard_operator(alpha, u, kernel, fp.truncated(300.0))


def parent_picard_operator(alpha, u, kernel, fp):
    """The integral operator with its rates and pushes taken node by node."""
    times = alpha.times
    f2_tab = np.stack([fp.f2(x) for x in alpha.masses])
    cumint = _cumulative_trapezoid(f2_tab, times)
    births = np.stack(
        [kernel.push_births(fp.f1(x) * w) for x, w in zip(alpha.masses, alpha.weights)]
    )
    out = np.exp(-cumint) * (u.weights[None, :] + _cumulative_trapezoid(np.exp(cumint) * births, times))
    out[0] = u.weights
    return Trajectory(alpha.space, times.copy(), out)


def test_picard_flow_on_a_2d_grid_is_the_per_node_operators(monkeypatch):
    # the whole-window rate tables and block push change only the order of
    # the sums: same windows and iterations, weights equal to round-off
    sp = grid_2d([[0.0, 1.0], [0.0, 1.0]], (5, 4))
    kernel = gaussian_kernel(sp, 0.3)
    fp = ricker_pair(sp, a={"trait": 0}, c=0.6, b=0.5, floor=0.5)
    u = MeasureVec(sp, np.exp(-np.sum((sp.points - 0.4) ** 2, axis=1)) / sp.n)
    got = flow(u, kernel, fp, 0.3, solver="picard", dt=0.005)
    monkeypatch.setattr("evomeasure.dynamics.picard_operator", parent_picard_operator)
    want = flow(u, kernel, fp, 0.3, solver="picard", dt=0.005)
    assert len(got.meta["windows"]) >= 2
    for g, w in zip(got.meta["windows"], want.meta["windows"], strict=True):
        assert (g["t_start"], g["window"], g["iterations"]) == (w["t_start"], w["window"], w["iterations"])
    assert np.array_equal(got.times, want.times)
    assert np.all(np.abs(got.weights - want.weights) <= 1e-13 * np.abs(want.weights))


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
    # at the call, as RK4 does, before any node of a stream is read; the
    # mean-fitness refusal comes from the pair's f2, the one place that states it
    sp, kernel, fp, u = reference_components(cells=8)
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    for settings_, pair, message in ((dict(max_iter=0), fp, "max_iter"), (dict(tol=-1.0), fp, "tol"),
                                     ({}, mean_fitness_pair(sp, 1.0), "contraction theory; use RK4")):
        with pytest.raises(ValueError, match=message):
            picard_solve(u, kernel, pair, tc, dt=1e-3, **settings_)
        with pytest.raises(ValueError, match=message):
            flow_stream(u, kernel, pair, 1.0, solver="picard", dt=1e-3, **settings_)


def test_every_run_refuses_a_negative_initial_measure_at_the_call():
    sp, kernel, fp, u = reference_components(cells=8)
    bad = MeasureVec(sp, np.concatenate([[-0.1], u.weights[1:]]))
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    for run in (lambda: flow_stream(bad, kernel, fp, 1.0, solver="picard", dt=1e-3),
                lambda: flow_stream(bad, kernel, fp, 0.0, solver="picard"),
                lambda: flow_stream(bad, kernel, fp, 0.0),
                lambda: flow_stream(bad, kernel, fp, 1.0, dt=1e-3),
                lambda: picard_solve(bad, kernel, fp, tc, dt=1e-3)):
        with pytest.raises(ValueError, match="initial measure must be nonnegative"):
            run()


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
        # its node is 0.0 at T = -0.0 too, so a trajectory CSV writes no "-0"
        assert not np.signbit(flow(u, kernel, fp, -0.0, solver=solver).times[0])


def test_flow_needs_dt_after_time_zero():
    sp, kernel, fp, u = reference_components(cells=8)
    for solver in ("rk4", "picard"):
        with pytest.raises(ValueError, match="dt"):
            flow(u, kernel, fp, 0.5, solver=solver)


def _grid_callers():
    """Each entry point that lays a run on ``time_grid``, as f(T, dt);
    ``picard_solve``'s horizon is its contraction window, so it takes dt only."""
    sp, kernel, fp, u = reference_components(cells=8)
    classes = DiscreteSystem.from_measure_problem(kernel, fp.truncated(10.0))
    tc = estimate_constants(fp, u.total_mass())
    x0, Q = np.full(3, 1.0 / 3.0), np.eye(3)
    return {
        "time_grid": time_grid,
        "integrate_discrete": lambda T, dt: integrate_discrete(classes, u.weights, T, dt),
        "integrate_replicator_mutator": lambda T, dt: integrate_replicator_mutator(x0, np.ones(3), Q, T, dt),
        "rk4_integrate": lambda T, dt: rk4_integrate(u, kernel, fp, T, dt),
        "flow-rk4": lambda T, dt: flow(u, kernel, fp, T, dt=dt),
        "flow-picard": lambda T, dt: flow(u, kernel, fp, T, solver="picard", dt=dt),
        "picard_solve": lambda T, dt: picard_solve(u, kernel, fp, tc, dt=dt),
    }


BAD_GRIDS = [
    # one step of length 1, or two equal nodes at -1
    (1.0, -0.1, "dt must be positive and finite, got -0.1"),
    (-1.0, 0.1, "T must be nonnegative and finite, got -1.0"),
    # a NaN step count, an infinite one, or a K~ of NaN
    (1.0, float("nan"), "dt must be positive and finite, got nan"),
    (1.0, 0.0, "dt must be positive and finite, got 0.0"),
    (float("nan"), 0.1, "T must be nonnegative and finite, got nan"),
    (float("inf"), 0.1, "T must be nonnegative and finite, got inf"),
    (1.0, float("inf"), "dt must be positive and finite, got inf"),
]


@pytest.mark.parametrize("caller, T, dt, message", [
    (caller, T, dt, message) for caller in _grid_callers() for T, dt, message in BAD_GRIDS
    if caller != "picard_solve" or message.startswith("dt ")])
def test_a_grid_of_a_bad_horizon_or_step_is_refused(caller, T, dt, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _grid_callers()[caller](T, dt)


@pytest.mark.parametrize("caller", [caller for caller in _grid_callers() if caller != "picard_solve"])
def test_a_grid_whose_node_count_overflows_is_a_config_error(caller):
    # a finite T and dt whose quotient is infinite: math.ceil raised an
    # OverflowError; now the refusal of a grid too large to allocate
    with pytest.raises(ConfigError, match=re.escape(
            "the node grid of T = 1e+300 at dt = 1e-10 has inf nodes, which cannot be allocated")):
        _grid_callers()[caller](1e300, 1e-10)


@pytest.mark.parametrize("solver, settings, message", [
    ("bogus", {}, "unknown solver 'bogus'"),
    ("picard", {"tol": -1.0}, "tol must be positive"),
    ("picard", {"max_iter": 0}, "max_iter must be at least 1"),
    ("rk4", {"dt": -1.0}, "dt must be positive and finite, got -1.0"),
    # a NaN tol passed `tol <= 0` and ran every window to max_iter
    ("picard", {"tol": float("nan")}, "tol must be positive and finite, got nan"),
    ("picard", {"tol": float("inf")}, "tol must be positive and finite, got inf"),
])
def test_flow_checks_its_arguments_at_time_zero(solver, settings, message):
    # at T = 0 the flow is the identity, but the arguments it is given are
    # refused there as at T > 0
    sp, kernel, fp, u = reference_components(cells=8)
    for T in (0.0, 0.5):
        with pytest.raises(ValueError, match=re.escape(message)):
            flow(u, kernel, fp, T, solver=solver, **({"dt": 0.1} | settings))
    mean_fitness = mean_fitness_pair(sp, 1.0)
    for T in (0.0, 0.5):
        with pytest.raises(ValueError, match="use RK4"):
            flow(u, kernel, mean_fitness, T, solver="picard", dt=0.1)


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


def test_flow_rejects_mean_fitness_picard():
    sp = grid_1d(0.0, 1.0, 4)
    fp = mean_fitness_pair(sp, 1.0)
    u = MeasureVec(sp, np.full(4, 0.25))
    with pytest.raises(ValueError, match="RK4|rk4"):
        flow(u, dirac_kernel(sp), fp, 1.0, solver="picard", dt=1e-3)


def test_a_mean_fitness_birth_rate_equal_at_every_point_is_its_own_mean():
    # a callable returning one rate for all points: the mean birth rate is
    # that rate, so the run is the run of the rate given at every point, to
    # round-off, and its mass stays at 1
    sp = grid_1d(0.0, 1.0, 4)
    u = MeasureVec(sp, np.array([0.1, 0.2, 0.3, 0.4]))
    runs = [rk4_integrate(u, gaussian_kernel(sp, 0.3), mean_fitness_pair(sp, f1), 2.0, 0.01)
            for f1 in (lambda X, p: 1.5 * np.exp(-0.5 * X), lambda X, p: np.full(len(p), 1.5 * np.exp(-0.5 * X)))]
    assert max_row_tv(runs[0].weights, runs[1].weights) <= 1e-13
    assert np.max(np.abs(runs[0].masses - 1.0)) <= 1e-13


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kernel_kind", ["dirac", "gaussian"])
@pytest.mark.parametrize("space_kind", ["grid1d", "grid2d", "atoms"])
def test_picard_nodes_do_not_depend_on_where_the_windows_are_cut(space_kind, kernel_kind, seed):
    # a window from node k0 carries e^(-(I_k - I_k0)) w_k0 plus its own
    # trapezoid sums, which add up to the sums over [0, t_k]: ball radii 1
    # and 8 cut [0, T] into different windows, and the nodes agree to the
    # Picard tolerance
    rng = np.random.default_rng(seed)
    sp, kernel, fp, u = random_problem(rng, space_kind, int(rng.integers(1, 6)), kernel_kind)
    fp, tol = replace(fp, k_tilde=None), 1e-10
    coarse, fine = (flow(u, kernel, fp, 0.5, solver="picard", dt=0.0025, tol=tol, ball_radius=a)
                    for a in (1.0, 8.0))
    assert len(coarse.meta["windows"]) < len(fine.meta["windows"])
    assert coarse.sup_tv_distance(fine) <= 10 * tol


def test_flow_picard_nodes_are_the_rk4_grid_bitwise():
    # T / dt = 39.5: windows are runs of whole steps of time_grid(T, dt), so
    # no seam is a float sum and the last window ends with the grid's
    # shortened step
    sp, kernel, fp, u = reference_components(cells=16)
    traj = flow(u, kernel, fp, 0.395, solver="picard", dt=0.01)
    assert np.array_equal(traj.times, time_grid(0.395, 0.01))
    assert len(traj.meta["windows"]) >= 2


def test_sup_tv_distance_refuses_different_node_counts():
    sp = grid_1d(0.0, 1.0, 2)
    two = Trajectory(sp, np.array([0.0, 0.1]), np.ones((2, 2)))
    three = Trajectory(sp, np.array([0.0, 0.1, 0.2]), np.ones((3, 2)))
    for a, b in ((two, three), (three, two)):
        with pytest.raises(ValueError, match="different time grids"):
            a.sup_tv_distance(b)


def test_sup_tv_distance_refuses_a_time_mismatch_at_late_times():
    sp = grid_1d(0.0, 1.0, 2)
    a = Trajectory(sp, np.array([0.0, 200.0]), np.ones((2, 2)))
    b = Trajectory(sp, np.array([0.0, 200.002]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="different time grids"):
        a.sup_tv_distance(b)


def test_flow_picard_rejects_oversized_dt():
    sp, kernel, fp, u = reference_components(cells=8)
    with pytest.raises(NumericError, match="dt"):
        flow(u, kernel, fp, 1.0, solver="picard", dt=0.5)


# ─── field Lipschitz bound and continuous dependence ─────────────────


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


@settings(max_examples=40, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_picard_and_rk4_agree_at_order_two(space_kind, n, kernel_kind, seed):
    # the Picard flow over its contraction windows (default ball) converges to
    # the same solution as RK4: halving dt divides the sup-TV gap by about 4.
    # The pair is untruncated, so each solver truncates at its own level
    rng = np.random.default_rng(seed)
    sp, kernel, fp, u = random_problem(rng, space_kind, n, kernel_kind)
    fp = replace(fp, k_tilde=None)
    gaps = []
    for dt in (0.02, 0.01):
        picard = flow(u, kernel, fp, 0.3, solver="picard", dt=dt, tol=1e-13)
        gaps.append(picard.sup_tv_distance(flow(u, kernel, fp, 0.3, dt=dt)))
    if gaps[0] > 1e-10:
        assert gaps[0] / gaps[1] >= 3.5, f"gaps {gaps} at dt = 0.02, 0.01"


# ─── differential/integral consistency ───────────────────────────────


def test_finite_difference_residual_matches_a_node_loop():
    # the plain per-node loop is the reference: nodes between steps of
    # unequal length (here before the shortened last step) are left out
    sp, kernel, fp, u = reference_components(cells=16)
    traj = rk4_integrate(u, kernel, fp, 0.395, 0.01)
    fpt = fp.truncated(traj.meta["k_tilde"])
    t, w = traj.times, traj.weights
    worst = 0.0
    for k in range(1, traj.n_nodes - 1):
        h1, h2 = t[k] - t[k - 1], t[k + 1] - t[k]
        if abs(h1 - h2) > 1e-12 * max(h1, h2):
            continue
        deriv = (w[k + 1] - w[k - 1]) / (t[k + 1] - t[k - 1])
        f = vector_field(traj.state(k), kernel, fpt).weights
        worst = max(worst, float(np.abs(deriv - f).sum()))
    assert traj.n_nodes == 41 and t[-1] - t[-2] < 0.0051
    assert finite_difference_residual(traj, kernel, fpt) == worst


def test_central_difference_gap_of_a_nan_rhs_is_nan():
    # a NaN right-hand side at one interior node makes the gap NaN, wherever
    # that node falls among larger and smaller gaps and whatever the blocks,
    # so no check can pass on it
    sp = atoms([[0.0], [1.0]])
    traj = Trajectory(sp, 0.1 * np.arange(8.0), RNG.uniform(0.0, 1.0, (8, 2)))
    for bad in (1, 3, 6):
        rows = np.zeros((8, 2))
        rows[bad] = [np.nan, 0.0]
        rows[4] = [1e6, 0.0]
        for size in (1, 3, 8):
            (gap,), count = _central_difference_gap(traj.times, indexed_blocks(traj.weights, size),
                                                     [lambda W, ks: rows[ks]])
            assert count == 6 and math.isnan(gap)


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

    _, ws = rk4(rhs, u.weights, 1.0, dt)
    assert max_row_tv(traj.weights, ws) <= 1e-8


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


@settings(max_examples=60, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_positivity_mass_bound_and_class_exactness_on_random_problems(space_kind, n, kernel_kind,
                                                                     family, seed):
    # criteria 06 and 07 on 2-D grids and atom sets too: nonnegative to
    # round-off, below u(Q) e^(M_f1 t), and the class system's RK4 to 1e-10
    rng = np.random.default_rng(seed)
    sp, kernel, _, u = random_problem(rng, space_kind, n, kernel_kind)
    fp = random_pair(rng, sp, family)
    T = float(rng.uniform(0.5, 2.0))
    traj = rk4_integrate(u, kernel, fp, T, dt=0.01)
    tv = float(np.abs(traj.weights).sum(axis=1).max())
    assert traj.weights.min() >= -1e-12 * max(1.0, tv)
    assert traj.mass_bound_excess(float(np.max(fp.f1(0.0)))) <= 1e-6
    sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
    assert max_row_tv(traj.weights, integrate_discrete(sys, u.weights, T, 0.01)[1]) <= 1e-10
