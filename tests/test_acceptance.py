"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 01-11 are checked here and nowhere else in the suite; the module
tests cover what the criteria do not.  Every criterion runs at its stated
tolerance and within its stated runtime budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np

from conftest import concentration_config_dict, reference_components, reference_config_dict
from evomeasure import (
    DiscreteSystem,
    MeasureVec,
    atoms,
    bl_distance,
    dirac_kernel,
    estimate_constants,
    field_lipschitz_ratio,
    flow,
    integrate_discrete,
    integrate_replicator_mutator,
    matrix_kernel,
    picard_solve,
    quasispecies_run,
    rk4_integrate,
)
from evomeasure.config import RunConfig
from evomeasure.dynamics import finite_difference_residual
from oracles import max_row_tv, wasserstein1_cdf


def report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s/{limit:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, budget {limit}s"


def test_criterion_01_lipschitz_field_inequality():
    t0 = time.perf_counter()
    sp, kernel, fp, u = reference_components(cells=64)
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    k_f = tc.B1 + tc.B2 + (tc.L1 + tc.L2) * tc.C1
    worst = field_lipschitz_ratio(kernel, fp.truncated(tc.k_tilde), tc.C1, np.random.default_rng(2024))
    report(1, 0.0 < worst <= k_f, time.perf_counter() - t0, 5.0,
           f"worst TV ratio {worst:.4f} vs K_F(C_W) = {k_f:.4f} over 200 pairs")


def test_criterion_02_contraction_realized():
    t0 = time.perf_counter()
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    traj = picard_solve(u, kernel, fp, tc, dt=1e-3, tol=1e-10, max_iter=30)
    ratios = traj.meta["contraction_ratios"]
    iters = traj.meta["iterations"]
    ok = tc.kappa < 1.0 and iters <= 30 and len(ratios) > 0 and all(r <= tc.kappa for r in ratios)
    report(2, ok, time.perf_counter() - t0, 10.0,
           f"kappa {tc.kappa:.3f}, {iters} iterations, max ratio "
           f"{max(ratios):.4f}, final residual {traj.meta['residuals'][-1]:.2e}")


def test_criterion_03_differential_integral_equivalence():
    t0 = time.perf_counter()
    sp, kernel, fp, u = reference_components()
    tc = estimate_constants(fp, u.total_mass(), 1.0)
    fpt = fp.truncated(tc.k_tilde)
    window = np.floor(tc.b / 1e-3) * 1e-3
    res = []
    for dt in (1e-3, 5e-4):
        traj = picard_solve(u, kernel, fp, tc, dt=dt, tol=1e-12, window=window)
        res.append(finite_difference_residual(traj, kernel, fpt))
    order = float(np.log2(res[0] / res[1]))
    report(3, order >= 1.8, time.perf_counter() - t0, 10.0,
           f"central-difference vs field: order {order:.2f} (residuals {res[0]:.2e}, {res[1]:.2e})")


def test_criterion_04_cross_solver_agreement():
    t0 = time.perf_counter()
    sp, kernel, fp, u = reference_components()
    gaps = []
    for dt in (1e-3, 5e-4):
        p = flow(u, kernel, fp, 1.0, solver="picard", dt=dt, tol=1e-10)
        r = flow(u, kernel, fp, 1.0, solver="rk4", dt=dt)
        gaps.append(p.sup_tv_distance(r))
    ok = gaps[0] <= 1e-4 and gaps[1] < gaps[0]
    report(4, ok, time.perf_counter() - t0, 10.0,
           f"sup-TV gap {gaps[0]:.2e} at dt=1e-3 (tol 1e-4); {gaps[1]:.2e} at dt=5e-4")


def test_criterion_05_semigroup_and_identity():
    t0 = time.perf_counter()
    sp, kernel, fp, u = reference_components()
    ident = flow(u, kernel, fp, 0.0, solver="rk4", dt=1e-3)
    exact = bool(np.array_equal(ident.weights[0], u.weights))
    whole = flow(u, kernel, fp, 1.0, solver="rk4", dt=1e-3)
    first = flow(u, kernel, fp, 0.4, solver="rk4", dt=1e-3)
    second = flow(first.final, kernel, fp, 0.6, solver="rk4", dt=1e-3)
    gap = second.final.add_scaled(-1.0, whole.final).tv_norm()
    ok = exact and gap <= 1e-6
    report(5, ok, time.perf_counter() - t0, 5.0,
           f"flow(0)=u exact: {exact}; composition TV gap {gap:.2e} (tol 1e-6)")


def test_criterion_06_positivity_and_gronwall_random_problems():
    t0 = time.perf_counter()
    from evomeasure import gaussian_kernel, grid_1d, logistic_pair, ricker_pair, uniform_kernel

    rng = np.random.default_rng(404)
    worst_excess = -np.inf
    ok = True
    for trial in range(100):
        n = int(rng.integers(4, 16))
        sp = grid_1d(0.0, float(rng.uniform(0.5, 2.0)), n)
        if rng.random() < 0.5:
            fp = ricker_pair(sp, a=rng.uniform(0.2, 2.0, n), c=float(rng.uniform(0.1, 1.0)),
                             b=rng.uniform(0.1, 1.0, n), floor=float(rng.uniform(0.05, 0.5)))
        else:
            fp = logistic_pair(sp, a=rng.uniform(0.2, 2.0, n),
                               b=rng.uniform(0.1, 1.0, n), floor=float(rng.uniform(0.05, 0.5)))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            kernel = dirac_kernel(sp)
        elif kind == 1:
            kernel = uniform_kernel(sp)
        elif kind == 2:
            kernel = gaussian_kernel(sp, float(rng.uniform(0.05, 0.5)))
        else:
            rows = rng.uniform(0, 1, (n, n))
            kernel = matrix_kernel(sp, rows / rows.sum(axis=1, keepdims=True))
        u = MeasureVec(sp, rng.uniform(0.0, 1.0, n) * sp.cell_volumes)
        traj = rk4_integrate(u, kernel, fp, float(rng.uniform(0.5, 2.0)), dt=0.01)
        tv = float(np.abs(traj.weights).sum(axis=1).max())
        if traj.weights.min() < -1e-12 * max(1.0, tv):
            ok = False
        excess = traj.mass_bound_excess(float(np.max(fp.f1(0.0))))
        worst_excess = max(worst_excess, excess)
        if excess > 1e-6:
            ok = False
    report(6, ok, time.perf_counter() - t0, 30.0,
           f"100 random problems nonnegative; worst mass-bound excess {worst_excess:.2e}")


def test_criterion_07_discrete_reduction_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 5):
        rng = np.random.default_rng(100 + n)
        pts = np.sort(rng.uniform(0.2, 2.0, n))[:, None]
        sp = atoms(pts)
        rows = rng.uniform(0, 1, (n, n))
        kernel = matrix_kernel(sp, rows / rows.sum(axis=1, keepdims=True))
        from evomeasure import ricker_pair

        fp = ricker_pair(sp, a=rng.uniform(0.5, 1.5, n), c=0.4,
                         b=rng.uniform(0.2, 0.8, n), floor=0.2)
        u = MeasureVec(sp, rng.uniform(0.1, 1.0, n))
        traj = rk4_integrate(u, kernel, fp, T=10.0, dt=0.01)
        sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
        _, xs = integrate_discrete(sys, u.weights, 10.0, 0.01)
        worst = max(worst, max_row_tv(traj.weights, xs))
    report(7, worst <= 1e-10, time.perf_counter() - t0, 5.0,
           f"measure RK4 vs class-system RK4, n in (2,3,5): sup-TV {worst:.2e} (tol 1e-10)")


def test_criterion_08_replicator_mutator_oracle():
    t0 = time.perf_counter()
    sp = atoms([[0.0], [1.0], [2.0]])
    rows = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.0, 0.3, 0.7]])
    kernel = matrix_kernel(sp, rows)
    f = np.array([2.0, 1.0, 0.5])
    u = MeasureVec(sp, np.array([0.5, 0.25, 0.25]))
    traj = quasispecies_run(u, kernel, f, T=10.0, dt=1e-3)
    _, xs = integrate_replicator_mutator(u.weights, f, rows.T, 10.0, 1e-3)
    gap = max_row_tv(traj.weights, xs)
    drift = float(np.max(np.abs(traj.masses - 1.0)))
    ok = gap <= 1e-6 and drift <= 1e-9
    report(8, ok, time.perf_counter() - t0, 5.0,
           f"normalized measure run vs simplex integration: sup-TV {gap:.2e} "
           f"(tol 1e-6), simplex drift {drift:.2e} (tol 1e-9)")


def test_criterion_09_dirac_concentration(tmp_path):
    t0 = time.perf_counter()
    from evomeasure.experiments import dirac_limit

    reports = {}
    for cells in (128, 64):
        cfg = RunConfig.from_dict(concentration_config_dict(cells=cells, T=200.0, dt=0.05))
        reports[cells] = dirac_limit(cfg, tmp_path / f"c{cells}")
    rep = reports[128]
    reach = rep["t_fraction_reaches_095"]
    # mass at the reach time, from the emitted series
    rows = (tmp_path / "c128" / "concentration.csv").read_text().strip().splitlines()[1:]
    mass_at_reach = next(float(r.split(",")[3]) for r in rows if float(r.split(",")[1]) >= 0.95)
    target = rep["target_mass"]
    shift = abs(rep["fittest_point"][0] - reports[64]["fittest_point"][0])
    h_coarse = 2.0 / 64
    ok = (
        not rep["tie"]
        and reach is not None and reach <= 200.0
        and abs(mass_at_reach - target) <= 0.02 * target
        and shift <= h_coarse
        and rep["final_bl_to_atom"] < 0.05
    )
    report(9, ok, time.perf_counter() - t0, 60.0,
           f"0.95 mass share at t={reach}, mass {mass_at_reach:.4f} vs target {target:.4f} "
           f"(2%), grid-halving peak shift {shift:.4f} <= {h_coarse:.4f}, "
           f"final flat distance {rep['final_bl_to_atom']:.2e}")


def test_criterion_10_mutation_selection_continuity(tmp_path):
    t0 = time.perf_counter()
    from evomeasure.experiments import mutation_limit

    cfg_dict = reference_config_dict(cells=64, T=1.0, dt=1e-3)
    cfg_dict["summary_stride"] = 250
    cfg = RunConfig.from_dict(cfg_dict)
    rep = mutation_limit(cfg, [0.4, 0.2, 0.1, 0.05], tmp_path / "m")
    dists = rep["final_distances"]
    ok = rep["strictly_decreasing"]
    report(10, ok, time.perf_counter() - t0, 60.0,
           "final flat distances to the pure-selection run: "
           + ", ".join(f"{d:.2e}" for d in dists) + " (strictly decreasing)")


def test_criterion_11_metric_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    ok = True
    # metric axioms on 500 random pairs (with a third measure per triangle)
    for _ in range(500):
        n = int(rng.integers(3, 9))
        sp = atoms(np.sort(rng.uniform(0.0, 2.0, n))[:, None])
        m1 = MeasureVec(sp, rng.uniform(0.0, 1.0, n))
        m2 = MeasureVec(sp, rng.uniform(0.0, 1.0, n))
        m3 = MeasureVec(sp, rng.uniform(0.0, 1.0, n))
        d12 = bl_distance(m1, m2)
        ok = ok and d12 >= 0.0
        ok = ok and abs(d12 - bl_distance(m2, m1)) <= 1e-9
        ok = ok and bl_distance(m1, m1) == 0.0
        ok = ok and d12 <= bl_distance(m1, m3) + bl_distance(m3, m2) + 1e-9
    # CDF-based 1-Wasserstein oracle on equal-mass 1-D cases with W1 <= 1
    worst = 0.0
    accepted = 0
    while accepted < 50:
        n = int(rng.integers(3, 12))
        pts = np.sort(rng.uniform(0.0, 2.0, n))
        sp = atoms(pts[:, None])
        w1 = rng.uniform(0.0, 0.5, n)
        w2 = rng.uniform(0.0, 0.5, n)
        w2 *= w1.sum() / w2.sum()
        oracle = wasserstein1_cdf(pts, w1, w2)
        if oracle > 1.0:
            continue
        accepted += 1
        gap = abs(bl_distance(MeasureVec(sp, w1), MeasureVec(sp, w2)) - oracle)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-8
    report(11, ok, time.perf_counter() - t0, 30.0,
           f"metric axioms on 500 pairs; max |flat - W1| over 50 equal-mass cases {worst:.2e} (tol 1e-8)")
