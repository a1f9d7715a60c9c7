"""Discretized compact strategy spaces.

A strategy space is a finite set of support points inside a compact box in
R^1 or R^2, each point carrying a positive cell volume.  Two flavours cover
everything the dynamics needs:

  * regular grids (cell centers of a uniform partition, volume = cell size),
    used to represent discretized densities, and
  * explicit atom sets (volume 1 per point), used for discrete class models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _integer


@dataclass(frozen=True)
class StrategySpace:
    """Finite support inside a compact box, with per-point cell volumes.

    Attributes:
        points: (n, dim) array of support points, pairwise distinct.
        cell_volumes: (n,) positive volumes (1.0 for pure atom sets).
        bounds: (dim, 2) array of [lo, hi] per coordinate containing all points.
    """

    points: np.ndarray
    cell_volumes: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        # copied: the caller keeps writeable arrays
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise ValueError("strategy space needs at least one point")
        vols = np.array(self.cell_volumes, dtype=float)
        bounds = np.array(self.bounds, dtype=float).reshape(pts.shape[1], 2)
        if pts.shape[1] not in (1, 2):
            raise ValueError(f"only 1-D and 2-D strategy spaces supported, got dim={pts.shape[1]}")
        if vols.shape != (pts.shape[0],):
            raise ValueError("cell_volumes must have one entry per point")
        for name, arr in (("point", pts), ("bound", bounds), ("cell volume", vols)):
            bad = np.flatnonzero(~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1))
            if bad.size:
                raise ValueError(f"strategy space {name} {bad[0]} is not finite: {arr[bad[0]].tolist()}")
        if np.any(vols <= 0):
            raise ValueError("cell volumes must be positive")
        lo, hi = bounds[:, 0], bounds[:, 1]
        if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
            raise ValueError("all points must lie within bounds")
        # pairwise distinct points: no two neighbours are equal once the rounded rows are sorted
        rows = pts.round(decimals=12)
        rows = rows[np.lexsort(rows.T)]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise ValueError("support points must be pairwise distinct")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "cell_volumes", _frozen(vols))
        object.__setattr__(self, "bounds", _frozen(bounds))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def distance_matrix(self) -> np.ndarray:
        """Pairwise Euclidean distances between support points."""
        diff = self.points[:, None, :] - self.points[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))

    def volume(self) -> float:
        return float(self.cell_volumes.sum())

    def same_support(self, other: "StrategySpace") -> bool:
        return (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.cell_volumes, other.cell_volumes)
        )


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def grid_1d(lo: float, hi: float, cells: int) -> StrategySpace:
    """Uniform 1-D grid over [lo, hi]; points are cell centers."""
    if not hi > lo:
        raise ValueError("need hi > lo")
    cells = _integer(cells, "space.cells")
    if cells < 1:
        raise ValueError("need at least one cell")
    h = (hi - lo) / cells
    centers = lo + h * (np.arange(cells) + 0.5)
    return StrategySpace(
        points=centers[:, None],
        cell_volumes=np.full(cells, h),
        bounds=np.array([[lo, hi]]),
    )


def grid_2d(bounds, cells) -> StrategySpace:
    """Uniform 2-D grid; ``bounds`` is [[x_lo, x_hi], [y_lo, y_hi]], ``cells`` is (nx, ny).

    Points are cell centers with the x index outermost: point ``i * ny + j``
    is the center of cell (i, j), so y varies fastest.
    """
    bounds = np.asarray(bounds, dtype=float).reshape(2, 2)
    nx, ny = _integer(cells[0], "space.cells"), _integer(cells[1], "space.cells")
    if nx < 1 or ny < 1:
        raise ValueError("need at least one cell per axis")
    hx = (bounds[0, 1] - bounds[0, 0]) / nx
    hy = (bounds[1, 1] - bounds[1, 0]) / ny
    if hx <= 0 or hy <= 0:
        raise ValueError("bounds must have positive extent")
    xs = bounds[0, 0] + hx * (np.arange(nx) + 0.5)
    ys = bounds[1, 0] + hy * (np.arange(ny) + 0.5)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return StrategySpace(
        points=pts,
        cell_volumes=np.full(nx * ny, hx * hy),
        bounds=bounds,
    )


def atoms(points) -> StrategySpace:
    """Explicit finite atom set; every cell volume is 1.

    A flat list of scalars is read as 1-D atoms; otherwise rows are points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    # widen degenerate bounds so single atoms still sit in a box
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    bounds = np.column_stack([lo - 1e-9 * span, hi + 1e-9 * span])
    return StrategySpace(
        points=pts,
        cell_volumes=np.ones(pts.shape[0]),
        bounds=bounds,
    )
