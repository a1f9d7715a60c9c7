"""Special-case reductions and their cross-checks against the measure model.

The measure model restricted to a finite support IS the class ODE, so direct
integration of the class system must match RK4 on the measure weights to
near machine level; the frequency dynamics and the replicator/quasi-species
forms are checked by finite differences.  Agreement with the class system on
random atoms and with simplex integration are acceptance criteria 07 and 08.
Both reductions also hold state by state, with nothing integrated: the class
system's right-hand side is the measure field, and the frequency field is
F(w)/X - p (1^T F(w))/X, at every state w of mass X and p = w/X.
"""

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
    integrate_discrete,
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
    uniform_kernel,
    vector_field,
)
from evomeasure.dynamics import Trajectory
from evomeasure.reductions import mm_rhs
from oracles import class_rhs, max_row_tv, random_pair, random_problem, rk4

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


@settings(max_examples=200, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 6),
    kernel_kind=st.sampled_from(["dirac", "gaussian", "uniform", "matrix"]),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant"]),
    separable=st.booleans(),
    truncate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_reductions_are_identities_at_random_states(
    space_kind, n, kernel_kind, family, separable, truncate, seed
):
    # P (f1 w) - f2 w with P = rows^T is the measure field F(w); each kernel
    # row sums to 1, so 1^T push(v) = 1^T v and F(w)/X - p (1^T F(w))/X is
    # the frequency field mm_rhs(p, X), which under the Dirac kernel is the
    # replicator field (f - fbar) p, f = f1 - f2.  A truncation level below
    # the mass makes the K~ clamp bind on both sides.  Round-off is measured
    # against the state's TV, and in the frequency fields against the rates'
    # size (f1 + f2) . p, which may be large where births and deaths cancel
    rng = np.random.default_rng(seed)
    sp, kernel, _, _ = random_problem(rng, space_kind, n, "dirac" if kernel_kind == "uniform" else kernel_kind)
    if kernel_kind == "uniform":
        kernel = uniform_kernel(sp)
    fp = random_pair(rng, sp, family, scalar=separable)
    w = rng.uniform(0.0, 1.0, sp.n) * float(rng.uniform(1e-3, 5.0))
    X = float(w.sum())
    if truncate:
        fp = fp.truncated(float(rng.uniform(0.5, 2.0)) * X)
    F = vector_field(MeasureVec(sp, w), kernel, fp).weights

    gap = np.abs(F - class_rhs(w, DiscreteSystem.from_measure_problem(kernel, fp))).sum()
    assert gap <= 1e-13 * max(1.0, X)

    p = w / X
    frequency = F / X - p * (F.sum() / X)
    tol = 1e-13 * max(1.0, (fp.f1(X) + fp.f2(X)) @ p)
    assert np.abs(frequency - mm_rhs(p, X, kernel, fp)).sum() <= tol
    if kernel.is_dirac:
        f = fp.f1(X) - fp.f2(X)
        assert np.abs(frequency - (f - f @ p) * p).sum() <= tol


def test_discrete_oracle_shares_the_rk4_grid_off_the_step_grid():
    # T / dt = 333.33...: both integrators shorten the last step to end at T
    sp, kernel, fp, u = reference_components(cells=8)
    traj = rk4_integrate(u, kernel, fp, T=1.0, dt=0.003)
    sys = DiscreteSystem.from_measure_problem(kernel, fp.truncated(traj.meta["k_tilde"]))
    times, xs = integrate_discrete(sys, u.weights, 1.0, 0.003)
    assert np.array_equal(times, traj.times)
    assert max_row_tv(traj.weights, xs) <= 1e-10


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
    _, ps = rk4(lambda p: s * p * (1 - p), [0.3], 10.0, 0.01)
    assert share[-1] == pytest.approx(ps[-1, 0], abs=1e-9)
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
