"""Selection-mutation kernels: the family gamma(q_hat) in P(Q).

A kernel has one representation: ``rows``, an n x n row-stochastic table
whose row j, column i holds gamma(q_hat_j)({q_i}), or None for the Dirac
kernel (offspring inherit the parent strategy exactly: pure selection).
Every density kernel (Gaussian, uniform, or a user density p(q, q_hat)) is
tabulated over the support and normalized by one rule, ``_density_kernel``.
Kernels are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _real, _reals
from .measures import MeasureVec, bl_distance, unit_atom
from .space import StrategySpace, _frozen

TOL_ROW = 1e-10


@dataclass(frozen=True)
class MutationKernel:
    """gamma: Q -> P(Q) on a fixed discretized strategy space.

    ``rows`` is None for the Dirac kernel, which maps every source to the
    unit atom at itself.
    """

    space: StrategySpace
    rows: np.ndarray | None = None

    def __post_init__(self):
        if self.rows is None:
            return
        rows = np.array(self.rows, dtype=float)  # copied: the caller keeps a writeable array
        n = self.space.n
        if rows.shape != (n, n):
            raise ValueError(f"kernel matrix must be {n}x{n}, got {rows.shape}")
        bad = ~np.isfinite(rows) | (rows < 0)
        if np.any(bad):
            j, i = np.argwhere(bad)[0]
            raise ValueError(
                f"kernel rows must be finite and nonnegative; row {j} column {i} is {rows[j, i]!r}"
            )
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > TOL_ROW
        if np.any(bad):
            j = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"kernel row {j} sums to {sums[j]!r}, not 1 within {TOL_ROW}")
        object.__setattr__(self, "rows", _frozen(rows))

    @property
    def is_dirac(self) -> bool:
        return self.rows is None

    def apply(self, j: int) -> MeasureVec:
        """gamma(q_hat_j) as a probability measure on the space."""
        n = self.space.n
        if not 0 <= j < n:
            raise IndexError(f"source index {j} out of range for {n} points")
        if self.is_dirac:
            return unit_atom(self.space, j)
        return MeasureVec(self.space, self.rows[j])

    def push_births(self, v: np.ndarray) -> np.ndarray:
        """Redistribute per-source birth output v_j onto targets.

        Returns sum_j v[j] * row_j, the birth part of the vector field, row by row if v is (m, n).
        """
        if self.is_dirac:
            return v
        return v @ self.rows

    def continuity_modulus(self) -> float:
        """Discrete Lipschitz estimate of q_hat -> gamma(q_hat) in the flat metric.

        Max over nearest-neighbour source pairs of
        bl_distance(row_j, row_j') / d(q_hat_j, q_hat_j').
        """
        n = self.space.n
        if n < 2:
            return 0.0
        dist = self.space.distance_matrix()
        np.fill_diagonal(dist, np.inf)
        worst = 0.0
        for j in range(n):
            jn = int(np.argmin(dist[j]))
            num = bl_distance(self.apply(j), self.apply(jn))
            worst = max(worst, num / dist[j, jn])
        return worst


def dirac_kernel(space: StrategySpace) -> MutationKernel:
    """Pure selection: gamma(q_hat) = delta_{q_hat}."""
    return MutationKernel(space)


def matrix_kernel(space: StrategySpace, rows) -> MutationKernel:
    """Explicit row-stochastic kernel; rows are validated on construction."""
    return MutationKernel(space, rows=np.asarray(rows, dtype=float))


def _density_kernel(space: StrategySpace, table: np.ndarray) -> MutationKernel:
    """The kernel of a density tabulated as table[j, i] = p(q_i, q_hat_j).

    Row j is proportional to p(q_i, q_hat_j) * cell_volumes[i], renormalized
    to sum exactly to 1 so that gamma(q_hat_j) stays in P(Q) even when the
    density is truncated by the compact space.  A row whose quadrature
    vanishes falls back to the Dirac row at q_hat_j.
    """
    bad = ~np.isfinite(table) | (table < 0)
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise ValueError(
            f"density is negative or non-finite ({table[j, i]!r}) at "
            f"(q={space.points[i]}, q_hat={space.points[j]})"
        )
    rows = table * space.cell_volumes
    sums = rows.sum(axis=1)
    zero = np.flatnonzero(sums == 0.0)
    sums[zero] = 1.0
    rows /= sums[:, None]
    rows[zero, zero] = 1.0
    return MutationKernel(space, rows=rows)


def kernel_from_density(space: StrategySpace, p) -> MutationKernel:
    """Discretize a density p(q, q_hat) into a row-stochastic kernel.

    ``p`` is called once per (q, q_hat) pair of support points with two
    coordinate arrays and returns a nonnegative float; the table is
    normalized by ``_density_kernel``.
    """
    table = np.array([[p(q, qhat) for q in space.points] for qhat in space.points], dtype=float)
    return _density_kernel(space, table)


def gaussian_exponent(sigma: float) -> float:
    """1 / (2 sigma^2), the Gaussian kernel's exponent per squared distance;
    refused for a sigma that is not positive and finite, and for one so
    small that 2 sigma^2 underflows and the exponent is not finite."""
    two_var = 2.0 * sigma * sigma
    if not (0 < sigma < np.inf and two_var > 0 and 1.0 / two_var < np.inf):
        raise ValueError(f"sigma must be positive and finite with 1 / (2 sigma^2) finite, got {sigma!r}")
    return 1.0 / two_var


def gaussian_kernel(space: StrategySpace, sigma: float) -> MutationKernel:
    """Gaussian mutation density centered at the parent, truncated to Q."""
    inv = gaussian_exponent(sigma)
    d2 = 0.0
    for x in space.points.T:
        d2 = d2 + (x[None, :] - x[:, None]) ** 2
    return _density_kernel(space, np.exp(-inv * d2))


def uniform_kernel(space: StrategySpace) -> MutationKernel:
    """Offspring strategy uniform over Q regardless of the parent."""
    return _density_kernel(space, np.ones((space.n, space.n)))


def kernel_from_config(cfg: dict, space: StrategySpace) -> MutationKernel:
    """Build a kernel from its JSON config form.

    Accepted forms: {"variant":"dirac"} | {"variant":"matrix","rows":[...]}
    | {"variant":"gaussian","sigma":s} | {"variant":"uniform"}.
    """
    variant = cfg.get("variant")
    if variant == "dirac":
        return dirac_kernel(space)
    if variant == "matrix":
        return matrix_kernel(space, _reals(cfg["rows"], "kernel.rows"))
    if variant == "gaussian":
        return gaussian_kernel(space, _real(cfg["sigma"], "kernel.sigma"))
    if variant == "uniform":
        return uniform_kernel(space)
    raise ValueError(f"unknown kernel variant {variant!r}")
