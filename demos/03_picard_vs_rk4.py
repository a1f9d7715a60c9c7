"""
Two independent solvers: direct RK4 and the Picard fixed point
==============================================================

The same selection-mutation problem is solved twice: once by RK4 on the
semi-discretized ODE, once by iterating the integral operator S on a
contraction window derived from the rate bounds, which come from the rates'
formulas.  The observed contraction ratios sit far below the a-priori
factor kappa, and the two routes agree to the quadrature error.
"""

import numpy as np

from evomeasure import MeasureVec, estimate_constants, flow, gaussian_kernel, grid_1d, picard_solve, ricker_pair

space = grid_1d(0.0, 2.0, 64)
kernel = gaussian_kernel(space, 0.15)
fitness = ricker_pair(space, a=1.0 + 0.5 * space.points[:, 0], c=0.6, b=0.5, floor=0.2)
u = MeasureVec(space, space.cell_volumes / space.volume())

constants = estimate_constants(fitness, u.total_mass(), a=1.0)
print("truncation constants and the contraction window:")
for key, val in constants.to_dict().items():
    print(f"  {key:8} = {val:.6g}")

traj = picard_solve(u, kernel, fitness, constants, dt=1e-3)
print(f"\nPicard on one window of length {traj.times[-1]:.4f}:")
print(f"  iterations: {traj.meta['iterations']}")
print("  residuals :", "  ".join(f"{r:.2e}" for r in traj.meta["residuals"]))
print("  ratios    :", "  ".join(f"{r:.3f}" for r in traj.meta["contraction_ratios"]))
print(f"  every ratio is far below kappa = {constants.kappa:.3f} "
      "(the fixed-point map has extra Volterra structure)")

print("\nglobal flow on [0, 1], windows stitched with per-window constants:")
fp_run = flow(u, kernel, fitness, T=1.0, solver="picard", dt=1e-3)
rk_run = flow(u, kernel, fitness, T=1.0, solver="rk4", dt=1e-3)
print(f"  windows: {len(fp_run.meta['windows'])}")
print(f"  final mass (picard) = {fp_run.masses[-1]:.8f}")
print(f"  final mass (rk4)    = {rk_run.masses[-1]:.8f}")
print(f"  sup-TV distance between the two trajectories: {fp_run.sup_tv_distance(rk_run):.2e}")

gap_half = flow(u, kernel, fitness, 1.0, solver="picard", dt=5e-4).sup_tv_distance(
    flow(u, kernel, fitness, 1.0, solver="rk4", dt=5e-4)
)
print(f"  halving dt shrinks the gap to {gap_half:.2e} (trapezoid quadrature is second order)")
