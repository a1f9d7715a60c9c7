"""Classical special cases of the measure dynamics, as independent oracles.

Each reduction is integrated directly (by this module's RK4 loop, which
shares only the node grid with the measure solvers) so the measure model
can be verified against it:

  * finite class systems x_i(t) = mu({q_i}) with a stochastic mixing matrix,
  * the replicator-mutator equation on the simplex,
  * the normalized (frequency) dynamics and the density-dependent replicator
    equation obtained under a pure-selection kernel,
  * the quasi-species variant where mortality is the average birth rate.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _central_difference_gap, time_grid
from .fitness import FitnessPair, mean_fitness_pair
from .kernels import MutationKernel
from .measures import MeasureVec


@dataclass(frozen=True)
class DiscreteSystem:
    """Finite class model: n atoms, mixing matrix, rates restricted to atoms.

    ``P[i][j]`` is the share of class j's offspring landing in class i, so
    each column is a probability vector (columns are sources; this is the
    transpose of the kernel's row layout).
    """

    P: np.ndarray
    fp: FitnessPair

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValueError("P must be square")
        if np.any(P < 0) or np.any(np.abs(P.sum(axis=0) - 1.0) > 1e-10):
            raise ValueError("columns of P must be probability vectors")
        object.__setattr__(self, "P", P)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @staticmethod
    def from_measure_problem(kernel: MutationKernel, fp: FitnessPair) -> "DiscreteSystem":
        """View a kernel/fitness pair on a finite support as a class system."""
        n = kernel.space.n
        rows = np.eye(n) if kernel.is_dirac else kernel.rows
        return DiscreteSystem(P=rows.T.copy(), fp=fp)


def discrete_rhs(x: np.ndarray, sys: DiscreteSystem) -> np.ndarray:
    """dx_i/dt = sum_j f1(X, q_j) P[i][j] x_j - f2(X, q_i) x_i, X = sum x.

    ``x`` is a float array of ``sys.n`` entries; ``integrate_discrete``
    checks its initial state once, not every stage.
    """
    X = float(x.sum())
    return sys.P @ (sys.fp.f1(X) * x) - sys.fp.f2(X) * x


def discrete_nodes(sys: DiscreteSystem, x0, T: float, dt: float) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Node times and the plain RK4 states of the class system, one per node
    when read; the oracle side of reduction checks.  ``x0`` is checked here."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise ValueError(f"state must have {sys.n} entries, got shape {x0.shape}")
    times = time_grid(T, dt)
    return times, _rk4_nodes(lambda x: discrete_rhs(x, sys), x0, times)


def integrate_discrete(sys: DiscreteSystem, x0, T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The states of ``discrete_nodes`` collected, one row per node."""
    times, nodes = discrete_nodes(sys, x0, T, dt)
    return times, np.fromiter(nodes, dtype=(float, sys.n), count=len(times))


def _rk4_nodes(rhs, x: np.ndarray, times: np.ndarray) -> Iterator[np.ndarray]:
    """Classical RK4 for dx/dt = rhs(x) on ``times`` (the node grid of
    ``rk4_integrate``), yielding the state at each node."""
    yield x
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        yield x


# ─── replicator-mutator on the simplex ───────────────────────────────


def replicator_mutator_rhs(x: np.ndarray, f, Q: np.ndarray) -> np.ndarray:
    """dx_i/dt = sum_j x_j f_j(x) Q_ij - phi(x) x_i with phi = sum_j f_j x_j.

    ``Q[i][j]`` is the share of class j mutating into class i (columns sum
    to 1), and ``f`` is an (n,) fitness vector or a callable x -> (n,).
    The state must sit on the simplex within 1e-9; the right-hand side then
    sums to zero identically.
    """
    x = np.asarray(x, dtype=float)
    if abs(float(np.sum(x)) - 1.0) > 1e-9:
        raise ValueError(f"state is off the simplex: sum = {np.sum(x)!r}")
    fv = np.asarray(f(x), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    phi = float(np.dot(fv, x))
    return np.asarray(Q, dtype=float) @ (fv * x) - phi * x


def integrate_replicator_mutator(x0, f, Q, T: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 for the simplex dynamics; renormalization-free (mass is conserved)."""
    x0 = np.asarray(x0, dtype=float)
    times = time_grid(T, dt)
    nodes = _rk4_nodes(lambda x: replicator_mutator_rhs(x, f, Q), x0, times)
    return times, np.fromiter(nodes, dtype=(float, len(x0)), count=len(times))


# ─── normalized (frequency) dynamics ─────────────────────────────────


def normalized_trajectory(traj: Trajectory) -> Trajectory:
    """Scale every node to unit mass: P(t) = mu(t) / mu(t)(Q)."""
    if np.any(traj.masses <= 0.0):
        k = int(np.argmin(traj.masses))
        raise ValueError(f"cannot normalize: mass {traj.masses[k]} at t={traj.times[k]}")
    weights = traj.weights / traj.masses[:, None]
    return Trajectory(traj.space, traj.times.copy(), weights, meta=dict(traj.meta))


def mm_rhs(p: np.ndarray, X: float, kernel: MutationKernel, fp: FitnessPair) -> np.ndarray:
    """Right-hand side of the frequency dynamics, exactly as stated.

    dP_i/dt = sum_j [f1(X,q_j) K[j][i] - (sum_q f1(X,q) p_q) P_i] p_j
              - [f2(X,q_i) - sum_q f2(X,q) p_q] p_i,

    with X the unnormalized total mass driving the density dependence.
    """
    p = np.asarray(p, dtype=float)
    f1 = fp.f1(X)
    f2 = fp.f2(X)
    fbar1 = float(np.dot(f1, p))
    fbar2 = float(np.dot(f2, p))
    total = float(np.sum(p))
    return kernel.push_births(f1 * p) - fbar1 * p * total - (f2 - fbar2) * p


@dataclass
class FdReport:
    """Finite-difference consistency of a trajectory with a stated RHS."""

    max_discrepancy: float
    n_nodes_checked: int


def _frequency_gaps(run, rhs) -> tuple[list[float], int]:
    """Central-difference gaps of P(t) = mu(t) / mu(t)(Q) against each
    ``rhs[i](p, X)``, with p = P(t_k) and X = mu(t_k)(Q), in one pass over
    the nodes of ``run`` (a ``Trajectory``, or a ``NodeStream`` read here).
    Each node is normalized where it is read, by the division of
    ``normalized_trajectory``; a nonpositive mass is refused."""

    def frequencies():
        for t, w in zip(run.times, run.weights):
            X = float(w.sum())
            if X <= 0.0:
                raise ValueError(f"cannot normalize: mass {X} at t={t}")
            yield w / X, X

    return _central_difference_gap(run.times, frequencies(), rhs)


def _mm_rhs(kernel: MutationKernel, fp: FitnessPair):
    return lambda p, X: mm_rhs(p, X, kernel, fp)


def _replicator_rhs(fp: FitnessPair):
    """dP/dt = [f(X, q) - fbar] P with f = f1 - f2 and fbar = int_Q f dP."""

    def rhs(p, X):
        fvals = fp.f1(X) - fp.f2(X)
        return (fvals - float(np.dot(fvals, p))) * p

    return rhs


def mm_residual(traj: Trajectory, kernel: MutationKernel, fp: FitnessPair) -> FdReport:
    """Central-difference check of the frequency dynamics against ``mm_rhs``.

    ``traj`` is the measure trajectory a solver returns, not its normalized
    copy: the frequency dynamics is driven by the unnormalized masses.
    """
    (gap,), checked = _frequency_gaps(traj, [_mm_rhs(kernel, fp)])
    return FdReport(gap, checked)


def replicator_check(traj: Trajectory, kernel: MutationKernel, fp: FitnessPair) -> FdReport:
    """Verify the pure-selection frequency dynamics is the replicator equation.

    With a Dirac kernel, dP/dt(E) = int_E [f(X,q) - fbar] dP where
    f = f1 - f2 and fbar = int_Q f dP; the report carries the max TV gap
    between central differences of the normalized states of the measure
    trajectory ``traj`` and that RHS.
    """
    if not kernel.is_dirac:
        raise ValueError("the replicator reduction is only defined for the Dirac kernel")
    (gap,), checked = _frequency_gaps(traj, [_replicator_rhs(fp)])
    return FdReport(gap, checked)


def frequency_gaps(run, kernel: MutationKernel, fp: FitnessPair) -> tuple[float | None, float]:
    """The gaps of ``replicator_check`` (Dirac kernels only, else None) and
    of ``mm_residual``, from one pass over the nodes of ``run``."""
    rhs = [_mm_rhs(kernel, fp), _replicator_rhs(fp)] if kernel.is_dirac else [_mm_rhs(kernel, fp)]
    gaps, _ = _frequency_gaps(run, rhs)
    return (gaps[1] if kernel.is_dirac else None), gaps[0]


# ─── quasi-species run ───────────────────────────────────────────────


def quasispecies_run(u: MeasureVec, kernel: MutationKernel, f1, T: float, dt: float) -> Trajectory:
    """Replicator-mutator dynamics with average-fitness mortality.

    ``f1`` is the birth-rate spec of ``mean_fitness_pair``.  The mortality
    equals the population mean of f1, which conserves total mass exactly
    (RK4 preserves linear invariants), so the returned normalized
    trajectory drifts off the simplex only by round-off.  The direct RK4
    solver is the only one used: the contraction theory behind the Picard
    solver does not cover state-dependent mortality.
    """
    from .dynamics import rk4_integrate

    traj = rk4_integrate(u, kernel, mean_fitness_pair(u.space, f1), T, dt)
    return normalized_trajectory(traj)
