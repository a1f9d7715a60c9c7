"""Special-case reductions and their cross-checks against the measure model.

The measure model restricted to a finite support IS the class ODE, so direct
integration of the class system must match RK4 on the measure weights to
near machine level; the frequency dynamics and the replicator/quasi-species
forms are checked by finite differences and independent simplex integration.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_components
from evomeasure import (
    DiscreteSystem,
    MeasureVec,
    atoms,
    bl_distance,
    constant_pair,
    dirac_kernel,
    discrete_rhs,
    flow,
    gaussian_kernel,
    grid_1d,
    grid_2d,
    integrate_discrete,
    integrate_replicator_mutator,
    logistic_pair,
    matrix_kernel,
    mean_fitness_pair,
    mm_residual,
    normalized_trajectory,
    quasispecies_run,
    replicator_check,
    replicator_mutator_rhs,
    ricker_pair,
    rk4_integrate,
    zero_measure,
)
from evomeasure.dynamics import Trajectory
from evomeasure.reductions import mm_rhs

RNG = np.random.default_rng(17)


# ─── discrete class system ───────────────────────────────────────────


def test_discrete_rhs_identity_kernel_decouples():
    pts = np.array([[0.5], [1.0], [1.5]])
    fp = ricker_pair(atoms(pts), a=np.array([1.0, 2.0, 3.0]), c=0.5, b=1.0, floor=0.1)
    sys = DiscreteSystem(P=np.eye(3), fp=fp)
    x = np.array([0.2, 0.3, 0.5])
    X = x.sum()
    expected = (fp.f1(X) - fp.f2(X)) * x
    assert np.allclose(discrete_rhs(x, sys), expected, atol=1e-15)


def test_discrete_rhs_two_class_hand_case():
    # f1 = 1, f2 = 0, swap matrix, x = (1, 0): class 1 feeds class 2 only
    pts = np.array([[0.0], [1.0]])
    fp = constant_pair(atoms(pts), a=1.0, b=0.0)
    sys = DiscreteSystem(P=np.array([[0.0, 1.0], [1.0, 0.0]]), fp=fp)
    assert np.allclose(discrete_rhs(np.array([1.0, 0.0]), sys), [0.0, 1.0])


def test_discrete_rhs_change_of_variable_structure():
    # with f1 = a(q), f2 = b(q) X, the substitution y_i = a_i x_i turns the
    # system into y_i' = a_i sum_j P_ij y_j - b_i X y_i; check the algebra
    # numerically at random states
    n = 4
    pts = RNG.uniform(0.5, 2.0, (n, 1))
    a = RNG.uniform(0.5, 2.0, n)
    b = RNG.uniform(0.2, 1.0, n)
    sp = atoms(pts)
    fp = logistic_pair(sp, a=a, b=b, floor=0.0)
    P = RNG.uniform(0, 1, (n, n))
    P /= P.sum(axis=0, keepdims=True)
    sys = DiscreteSystem(P=P, fp=fp)
    for _ in range(20):
        x = RNG.uniform(0, 1, n)
        y = a * x
        X = x.sum()
        lhs = a * discrete_rhs(x, sys)
        rhs = a * (P @ y) - b * X * y
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_atomic_embedding_matches_direct_integration(n):
    # same finite ODE, independent RK4 loops: near machine agreement
    rng = np.random.default_rng(100 + n)
    pts = np.sort(rng.uniform(0.2, 2.0, n))[:, None]
    sp = atoms(pts)
    rows = rng.uniform(0, 1, (n, n))
    rows /= rows.sum(axis=1, keepdims=True)
    kernel = matrix_kernel(sp, rows)
    fp = ricker_pair(sp, a=rng.uniform(0.5, 1.5, n), c=0.4, b=rng.uniform(0.2, 0.8, n), floor=0.2)
    u = MeasureVec(sp, rng.uniform(0.1, 1.0, n))
    dt = 0.01
    traj = rk4_integrate(u, kernel, fp, T=10.0, dt=dt)
    sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
    _, xs = integrate_discrete(sys, u.weights, 10.0, dt)
    gap = float(np.max(np.abs(traj.weights - xs).sum(axis=1)))
    assert gap <= 1e-10


def test_discrete_oracle_shares_the_rk4_grid_off_the_step_grid():
    # T / dt = 333.33...: both integrators shorten the last step to end at T
    sp, kernel, fp, u = reference_components(cells=8)
    traj = rk4_integrate(u, kernel, fp, T=1.0, dt=0.003)
    sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
    times, xs = integrate_discrete(sys, u.weights, 1.0, 0.003)
    assert np.array_equal(times, traj.times)
    assert float(np.max(np.abs(traj.weights - xs).sum(axis=1))) <= 1e-10


# ─── replicator-mutator equation ─────────────────────────────────────


def test_replicator_mutator_neutral_is_stationary():
    n = 4
    x = np.full(n, 0.25)
    assert np.allclose(replicator_mutator_rhs(x, np.ones(n), np.eye(n)), 0.0, atol=1e-15)


def test_replicator_mutator_hand_case():
    # n=2, f=(2,1), Q=I, x=(0.5,0.5): phi=1.5, xdot=(0.25,-0.25)
    rhs = replicator_mutator_rhs(np.array([0.5, 0.5]), np.array([2.0, 1.0]), np.eye(2))
    assert np.allclose(rhs, [0.25, -0.25], atol=1e-15)


def test_replicator_mutator_simplex_invariance():
    # columns of Q sum to 1, so sum(xdot) = 0 identically
    n = 5
    for _ in range(1000):
        Q = RNG.uniform(0, 1, (n, n))
        Q /= Q.sum(axis=0, keepdims=True)
        x = RNG.uniform(0, 1, n)
        x /= x.sum()
        f = RNG.uniform(0, 2, n)
        assert abs(replicator_mutator_rhs(x, f, Q).sum()) <= 1e-12


def test_replicator_mutator_rejects_off_simplex_state():
    with pytest.raises(ValueError, match="simplex"):
        replicator_mutator_rhs(np.array([0.5, 0.6]), np.array([1.0, 1.0]), np.eye(2))


# ─── normalized trajectory and the frequency dynamics ────────────────


def test_normalized_trajectory_unit_mass_nodes():
    sp, kernel, fp, u = reference_components(cells=16)
    traj = rk4_integrate(u, kernel, fp, T=1.0, dt=0.01)
    ntraj = normalized_trajectory(traj)
    assert np.allclose(ntraj.masses, 1.0, atol=1e-12)
    # already-normalized input is unchanged
    again = normalized_trajectory(ntraj)
    assert np.allclose(again.weights, ntraj.weights, atol=1e-15)


def test_normalized_trajectory_rejects_vanishing_mass():
    sp = grid_1d(0.0, 1.0, 3)
    weights = np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 0.0]])
    traj = Trajectory(sp, np.array([0.0, 1.0]), weights)
    with pytest.raises(ValueError, match="mass"):
        normalized_trajectory(traj)


def test_normalized_dynamics_match_frequency_rhs_at_order_two():
    sp, kernel, fp, u = reference_components(cells=16)
    res = []
    for dt in (0.02, 0.01):
        traj = rk4_integrate(u, kernel, fp, T=1.0, dt=dt)
        fpt = fp.truncated(traj.meta["k_tilde"])
        res.append(mm_residual(traj, kernel, fpt).max_discrepancy)
    order = np.log2(res[0] / res[1])
    assert order >= 1.8, f"observed order {order} (residuals {res})"


def test_mm_residual_skips_the_node_before_a_short_last_step():
    sp, kernel, fp, u = reference_components(cells=8)
    fpt = fp.truncated(10.0)
    even = rk4_integrate(u, kernel, fpt, T=0.3, dt=0.01)
    short = rk4_integrate(u, kernel, fpt, T=0.295, dt=0.01)
    assert even.n_nodes == short.n_nodes == 31
    assert mm_residual(even, kernel, fpt).n_nodes_checked == 29
    report = mm_residual(short, kernel, fpt)
    assert report.n_nodes_checked == 28
    assert report.max_discrepancy <= 1e-5


def parent_central_difference_gap(traj, rhs, skip=()):
    t, w = traj.times, traj.weights
    h = np.diff(t)
    even = np.abs(h[1:] - h[:-1]) <= 1e-6 * np.maximum(h[1:], h[:-1])
    ks = np.setdiff1d(np.flatnonzero(even) + 1, skip)
    if len(ks) == 0:
        return 0.0, 0
    gaps = np.empty((len(ks), w.shape[1]))
    for row, k in zip(gaps, ks):
        np.subtract(w[k + 1], w[k - 1], out=row)
        row /= t[k + 1] - t[k - 1]
        row -= rhs(k)
    return float(np.abs(gaps, out=gaps).sum(axis=1).max()), len(ks)


def parent_normalized_trajectory(traj):
    if np.any(traj.masses <= 0.0):
        k = int(np.argmin(traj.masses))
        raise ValueError(f"cannot normalize: mass {traj.masses[k]} at t={traj.times[k]}")
    weights = traj.weights / traj.masses[:, None]
    meta = dict(traj.meta)
    meta["source_masses"] = traj.masses.copy()
    return Trajectory(traj.space, traj.times.copy(), weights, meta=meta)


def parent_mm_residual(traj, kernel, fp):
    masses = traj.meta.get("source_masses")
    if masses is None:
        raise ValueError("trajectory was not produced by normalized_trajectory")
    return parent_central_difference_gap(
        traj, lambda k: mm_rhs(traj.weights[k], float(masses[k]), kernel, fp))


def parent_replicator_check(traj, kernel, fp):
    if not kernel.is_dirac:
        raise ValueError("the replicator reduction is only defined for the Dirac kernel")
    ntraj = parent_normalized_trajectory(traj)
    masses = ntraj.meta["source_masses"]

    def rhs(k):
        X = float(masses[k])
        p = ntraj.weights[k]
        fvals = fp.f1(X) - fp.f2(X)
        return (fvals - float(np.dot(fvals, p))) * p

    return parent_central_difference_gap(ntraj, rhs)


def _outcome(f):
    """``(gap, nodes checked)``, or the message of the ValueError raised."""
    try:
        return f()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 6),
    dirac=st.booleans(),
    n_steps=st.integers(1, 40),
    last_step=st.sampled_from([1.0, 0.3, 0.999]),
    vanishing=st.sampled_from([False, False, False, True]),
    seed=st.integers(0, 2**32 - 1),
)
def test_frequency_checks_normalize_the_parents_copy_bitwise(
    space_kind, n, dirac, n_steps, last_step, vanishing, seed
):
    # the parent's normalized copy (masses in its metadata), its mm_residual
    # and its replicator_check are the oracle: the checks that read the
    # measure trajectory give bitwise-equal gaps, the same node counts and
    # the same refusal of a nonpositive mass
    rng = np.random.default_rng(seed)
    if space_kind == "grid1d":
        sp = grid_1d(0.0, float(rng.uniform(0.5, 2.0)), n)
    elif space_kind == "grid2d":
        sp = grid_2d([[0.0, 1.0], [0.0, float(rng.uniform(0.5, 2.0))]], (n, int(rng.integers(1, 4))))
    else:
        sp = atoms(rng.uniform(0.0, 1.0, (n, int(rng.integers(1, 3)))))
    kernel = dirac_kernel(sp) if dirac else gaussian_kernel(sp, float(rng.uniform(0.05, 0.5)))
    coef = lambda lo, hi: rng.uniform(lo, hi, sp.n)
    fp = ricker_pair(sp, a=coef(0.2, 2.0), c=coef(0.1, 1.0), b=coef(0.1, 1.0), floor=0.2)
    k_tilde = float(rng.uniform(2.0, 4.0))
    u = zero_measure(sp) if vanishing else MeasureVec(sp, rng.uniform(0.0, 1.0, sp.n) / sp.n)
    dt = float(rng.uniform(0.005, 0.05))
    T = (n_steps - 1 + last_step) * dt
    # K~ at least the mass bound u(Q) e^(M_f1 T): rk4_integrate refuses a
    # mass above K~, and the checks compared here need a trajectory
    fpt = fp.truncated(max(k_tilde, 1.01 * u.total_mass() * np.exp(float(np.max(fp.f1(0.0))) * T)))
    traj = rk4_integrate(u, kernel, fpt, T, dt)

    want = _outcome(lambda: parent_mm_residual(parent_normalized_trajectory(traj), kernel, fpt))
    assert _outcome(lambda: astuple(mm_residual(traj, kernel, fpt))) == want
    if dirac:
        want = _outcome(lambda: parent_replicator_check(traj, kernel, fpt))
        assert _outcome(lambda: astuple(replicator_check(traj, kernel, fpt))) == want


# ─── replicator reduction (pure selection) ───────────────────────────


def test_replicator_check_neutral_case():
    sp = grid_1d(0.0, 1.0, 6)
    fp = constant_pair(sp, a=0.8, b=0.8)
    u = MeasureVec(sp, RNG.uniform(0.2, 1.0, sp.n))
    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=1.0, dt=0.01)
    report = replicator_check(traj, dirac_kernel(sp), fp.truncated(traj.meta["k_tilde"]))
    assert report.max_discrepancy <= 1e-10


def test_replicator_check_two_atoms_vs_scalar_oracle():
    # constant per-atom net fitness: the share of the fitter atom follows
    # the scalar replicator p' = s p (1 - p) with s the fitness gap
    pts = np.array([[0.0], [1.0]])
    sp = atoms(pts)
    fp = constant_pair(sp, a=np.array([1.5, 1.0]), b=np.array([0.25, 0.25]))
    u = MeasureVec(sp, np.array([0.3, 0.7]))
    res = []
    for dt in (0.02, 0.01):
        traj = rk4_integrate(u, dirac_kernel(sp), fp, T=4.0, dt=dt)
        fpt = fp.truncated(traj.meta["k_tilde"])
        res.append(replicator_check(traj, dirac_kernel(sp), fpt).max_discrepancy)
    assert res[0] / res[1] >= 3.4  # O(dt^2)

    traj = rk4_integrate(u, dirac_kernel(sp), fp, T=10.0, dt=0.01)
    share = traj.weights[:, 0] / traj.masses
    s = (1.5 - 0.25) - (1.0 - 0.25)
    p = 0.3
    for _ in range(1000):  # test-local RK4 on the scalar replicator, dt=0.01
        h = 0.01
        k1 = s * p * (1 - p)
        k2 = s * (p + 0.5 * h * k1) * (1 - p - 0.5 * h * k1)
        k3 = s * (p + 0.5 * h * k2) * (1 - p - 0.5 * h * k2)
        k4 = s * (p + h * k3) * (1 - p - h * k3)
        p += h / 6 * (k1 + 2 * (k2 + k3) + k4)
    assert share[-1] == pytest.approx(p, abs=1e-9)
    assert share[-1] > 0.9  # converging onto the fitter atom


def test_replicator_check_logistic_setup_order():
    sp = grid_1d(0.5, 1.5, 8)
    fp = logistic_pair(sp, a={"trait": 0}, b=1.0, floor=1e-3)
    u = MeasureVec(sp, sp.cell_volumes.copy())
    res = []
    for dt in (0.02, 0.01):
        traj = rk4_integrate(u, dirac_kernel(sp), fp, T=2.0, dt=dt)
        fpt = fp.truncated(traj.meta["k_tilde"])
        res.append(replicator_check(traj, dirac_kernel(sp), fpt).max_discrepancy)
    assert res[0] / res[1] >= 3.4


def test_replicator_check_requires_dirac():
    sp, kernel, fp, u = reference_components(cells=8)
    traj = rk4_integrate(u, kernel, fp, T=0.1, dt=0.01)
    with pytest.raises(ValueError, match="Dirac"):
        replicator_check(traj, kernel, fp)


# ─── quasi-species (average-fitness mortality) ───────────────────────


def test_quasispecies_identity_kernel_equal_fitness_is_stationary():
    sp = atoms([[0.0], [1.0], [2.0]])
    u = MeasureVec(sp, np.array([0.2, 0.5, 0.3]))
    traj = quasispecies_run(u, dirac_kernel(sp), 1.0, T=5.0, dt=0.01)
    assert np.allclose(traj.weights[-1], u.weights, atol=1e-12)


def test_quasispecies_evaluates_the_birth_rate_once_per_stage():
    # the mean-fitness field reads f1(X) once for births and mortality:
    # one call for rk4_integrate's M_f1 probe, then one per RK4 stage
    sp = atoms([[0.0], [1.0], [2.0]])
    rows = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.0, 0.3, 0.7]])
    calls = []

    def birth(X, points):
        calls.append(X)
        return 2.0 - 0.5 * points[:, 0] - 0.1 * X

    u = MeasureVec(sp, np.array([0.5, 0.25, 0.25]))
    traj = quasispecies_run(u, matrix_kernel(sp, rows), birth, T=1.0, dt=0.01)
    assert len(calls) == 1 + 4 * (traj.n_nodes - 1)


def test_quasispecies_mass_conserved_and_picard_rejected():
    sp = atoms([[0.0], [1.0], [2.0]])
    rows = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.0, 0.3, 0.7]])
    kernel = matrix_kernel(sp, rows)
    u = MeasureVec(sp, np.array([0.5, 0.25, 0.25]))
    traj = quasispecies_run(u, kernel, np.array([2.0, 1.0, 0.5]), T=10.0, dt=1e-3)
    assert np.max(np.abs(traj.masses - 1.0)) <= 1e-9
    with pytest.raises(ValueError, match="RK4"):
        flow(u, kernel, mean_fitness_pair(sp, 1.0), 1.0, solver="picard", dt=0.01)


def test_quasispecies_matches_simplex_integration():
    # constant per-class fitness: the normalized measure dynamics equals
    # direct integration of the replicator-mutator equation (Q = rows^T)
    sp = atoms([[0.0], [1.0], [2.0]])
    rows = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.0, 0.3, 0.7]])
    kernel = matrix_kernel(sp, rows)
    f = np.array([2.0, 1.0, 0.5])
    u = MeasureVec(sp, np.array([0.5, 0.25, 0.25]))
    dt = 1e-3
    traj = quasispecies_run(u, kernel, f, T=10.0, dt=dt)
    _, xs = integrate_replicator_mutator(u.weights, f, rows.T, 10.0, dt)
    gap = float(np.max(np.abs(traj.weights - xs).sum(axis=1)))
    assert gap <= 1e-6


# ─── density embedding: grid refinement converges ────────────────────


def test_density_embedding_grid_self_convergence():
    # smooth density problem: refining the grid changes the final state by
    # O(h^p) with measured p >= 1 (flat distance across merged supports)
    def run(cells):
        sp = grid_1d(0.0, 2.0, cells)
        kernel = gaussian_kernel(sp, 0.3)
        fp = ricker_pair(sp, a=lambda q: 1.0 + 0.5 * q[0], c=0.6, b=0.5, floor=0.2)
        w = (1.0 + 0.2 * np.sin(np.pi * sp.points[:, 0])) * sp.cell_volumes
        u = MeasureVec(sp, w / np.sum(w))
        return rk4_integrate(u, kernel, fp, T=1.0, dt=0.005).final

    f16, f32, f64 = run(16), run(32), run(64)
    d_coarse = bl_distance(f16, f32)
    d_fine = bl_distance(f32, f64)
    p = np.log2(d_coarse / d_fine)
    assert p >= 1.0, f"measured order {p} (distances {d_coarse}, {d_fine})"
