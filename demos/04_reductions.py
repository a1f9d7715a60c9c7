"""
One measure model, four classical special cases
===============================================

Chosen initial measures and kernels turn the measure dynamics into the
familiar systems: a finite class ODE, the frequency (normalized) dynamics,
the density-dependent replicator equation, and the quasi-species equation.
Each reduction is integrated on its own and compared against the measure
model.
"""

import numpy as np

from evomeasure import (
    DiscreteSystem,
    MeasureVec,
    atoms,
    dirac_kernel,
    integrate_discrete,
    integrate_replicator_mutator,
    logistic_pair,
    matrix_kernel,
    mm_residual,
    quasispecies_run,
    replicator_check,
    ricker_pair,
    rk4_integrate,
)

# --- finite class system: the same ODE, two independent integrations -----
pts = np.array([[0.4], [1.0], [1.6]])
space = atoms(pts)
rows = np.array([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
kernel = matrix_kernel(space, rows)
fitness = ricker_pair(space, a=np.array([1.2, 1.0, 0.8]), c=0.4, b=0.3, floor=0.2)
u = MeasureVec(space, np.array([0.2, 0.5, 0.3]))

traj = rk4_integrate(u, kernel, fitness, T=10.0, dt=0.01)
sys = DiscreteSystem.from_measure_problem(kernel, fitness.truncated(traj.meta["k_tilde"]))
_, xs = integrate_discrete(sys, u.weights, 10.0, 0.01)
gap = np.max(np.abs(traj.weights - xs).sum(axis=1))
print("3-class system: measure RK4 vs direct class RK4")
print(f"  sup-TV gap over [0, 10]: {gap:.2e}  (same finite ODE, near machine level)")

# --- replicator reduction under pure selection ----------------------------
sel_fit = logistic_pair(space, a=np.array([1.5, 1.2, 1.0]), b=1.0, floor=1e-3)
sel = rk4_integrate(u, dirac_kernel(space), sel_fit, T=5.0, dt=0.01)
rep = replicator_check(sel, dirac_kernel(space), sel_fit.truncated(sel.meta["k_tilde"]))
print("\npure selection: frequencies follow the density-dependent replicator equation")
print(f"  max finite-difference discrepancy: {rep.max_discrepancy:.2e} (O(dt^2))")
shares = sel.weights[-1] / sel.masses[-1]
print(f"  final shares: {np.round(shares, 4)} (collapsing onto the fittest class)")

# --- frequency dynamics of the mutation run --------------------------------
res = mm_residual(traj, kernel, fitness.truncated(traj.meta["k_tilde"]))
print("\nnormalized (frequency) dynamics of the 3-class run")
print(f"  max finite-difference discrepancy vs the frequency RHS: {res.max_discrepancy:.2e}")

# --- quasi-species: mortality equals the average fitness -------------------
f = np.array([2.0, 1.0, 0.5])
qtraj = quasispecies_run(u.scaled(1.0 / u.total_mass()), kernel, f, T=10.0, dt=1e-3)
_, simplex = integrate_replicator_mutator(u.weights / u.total_mass(), f, rows.T, 10.0, 1e-3)
gap = np.max(np.abs(qtraj.weights - simplex).sum(axis=1))
print("\nquasi-species (average-fitness mortality) vs simplex integration")
print(f"  sup-TV gap over [0, 10]: {gap:.2e}")
print(f"  simplex drift of the measure run: {np.max(np.abs(qtraj.masses - 1.0)):.2e}")
