"""Finite signed measures on a discretized strategy space.

A measure is a weight per support point: ``weights[i] = mu(cell_i)``.  For a
gridded density x(q), the density value times the cell volume is pre-folded
into the weight, so atoms and densities share one code path.

The weak* topology is proxied by the bounded-Lipschitz (flat) metric,
sup { <mu - nu, f> : |f| <= 1, Lip(f) <= 1 } over the test-function values
f(q_i) on the finite joint support.  On a line the constraints form a chain
(only sorted neighbours need one: they imply the rest by the triangle
inequality), and a dynamic program solves it exactly, to round-off.  In 2-D
every pair is constrained and HiGHS solves the linear program to its default
tolerances (primal and dual feasibility 1e-7), so that value is not exact:
errors of a few 1e-9 against closed-form values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .space import StrategySpace, _frozen, atoms


@dataclass(frozen=True)
class MeasureVec:
    """A finite signed measure with finite support.

    Attributes:
        space: the StrategySpace carrying the support points.
        weights: (n,) array, weights[i] = mu({cell_i}).
    """

    space: StrategySpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)  # copied: the caller keeps a writeable array
        if w.shape != (self.space.n,):
            raise ValueError(
                f"weights shape {w.shape} does not match space with {self.space.n} points"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", _frozen(w))

    # -- scalar summaries ---------------------------------------------------

    def total_mass(self) -> float:
        """mu(Q): the signed sum of all weights."""
        return float(np.sum(self.weights))

    def tv_norm(self) -> float:
        """Total variation norm: sum of absolute weights."""
        return float(np.sum(np.abs(self.weights)))

    def tol_neg(self) -> float:
        """Absolute slack below zero tolerated by nonnegativity checks."""
        return 1e-12 * max(1.0, self.tv_norm())

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.weights >= -self.tol_neg()))

    # -- algebra --------------------------------------------------------------

    def pair(self, f) -> float:
        """<mu, f> = sum_i f(q_i) * weights[i].

        ``f`` is either a callable on points or an (n,) array of values.
        """
        if callable(f):
            vals = np.array([f(q) for q in self.space.points], dtype=float)
        else:
            vals = np.asarray(f, dtype=float)
            if vals.shape != self.weights.shape:
                raise ValueError("test-function values must match the support size")
        return float(np.dot(vals, self.weights))

    def add_scaled(self, c: float, other: "MeasureVec") -> "MeasureVec":
        """Return the measure with weights ``self.weights + c * other.weights``."""
        if not self.space.same_support(other.space):
            raise ValueError("measures live on different spaces; merge supports first")
        return MeasureVec(self.space, self.weights + c * other.weights)

    def scaled(self, c: float) -> "MeasureVec":
        return MeasureVec(self.space, c * self.weights)

    def normalized(self) -> "MeasureVec":
        m = self.total_mass()
        if m <= 0:
            raise ValueError("cannot normalize a measure with nonpositive mass")
        return MeasureVec(self.space, self.weights / m)


def zero_measure(space: StrategySpace) -> MeasureVec:
    return MeasureVec(space, np.zeros(space.n))


def unit_atom(space: StrategySpace, i: int) -> MeasureVec:
    w = np.zeros(space.n)
    w[i] = 1.0
    return MeasureVec(space, w)


def from_density(space: StrategySpace, density) -> MeasureVec:
    """Fold a density x(q) into weights x(q_i) * cell_volumes[i].

    ``density`` is a callable on points or an (n,) array of density values.
    """
    if callable(density):
        vals = np.array([density(q) for q in space.points], dtype=float)
    else:
        vals = np.asarray(density, dtype=float)
    return MeasureVec(space, vals * space.cell_volumes)


def merge_supports(m1: MeasureVec, m2: MeasureVec) -> tuple[MeasureVec, MeasureVec]:
    """Re-express two measures on the union of their supports (zero-filled)."""
    if m1.space.same_support(m2.space):
        return m1, m2
    if m1.space.dim != m2.space.dim:
        raise ValueError("cannot merge supports of different dimension")
    pts = np.vstack([m1.space.points, m2.space.points])
    rounded = pts.round(decimals=12)
    _, idx, inv = np.unique(rounded, axis=0, return_index=True, return_inverse=True)
    union_pts = pts[idx]
    n1 = m1.space.n
    w1 = np.zeros(len(idx))
    w2 = np.zeros(len(idx))
    np.add.at(w1, inv[:n1], m1.weights)
    np.add.at(w2, inv[n1:], m2.weights)
    space = atoms(union_pts)
    return MeasureVec(space, w1), MeasureVec(space, w2)


def bl_distance(m1: MeasureVec, m2: MeasureVec) -> float:
    """Bounded-Lipschitz (flat) distance between two measures.

    Solves, on the joint finite support,

        sup { <m1 - m2, f> : ||f||_inf <= 1, Lip(f) <= 1 }

    over the values f(q_i).  Metrizes weak* convergence on TV-bounded sets
    of measures over a compact space.

    In 1-D the Lipschitz constraints join sorted neighbours only; by the
    triangle inequality along the line they imply every pairwise one, and
    ``_chain_sup`` solves the chain exactly (to round-off).  In 2-D all
    n(n-1)/2 pairs are constrained in a linear program that HiGHS solves to
    its default tolerances (errors of a few 1e-9 against closed-form values).
    """
    if not m1.space.same_support(m2.space):
        m1, m2 = merge_supports(m1, m2)
    d = m1.weights - m2.weights
    if not np.any(d):
        return 0.0
    n = m1.space.n
    if m1.space.dim == 1 or n == 1:  # a single point is a chain of length one
        x = m1.space.points[:, 0]
        order = np.argsort(x)
        return _chain_sup(d[order].tolist(), np.diff(x[order]).tolist())
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    iu, ju = np.triu_indices(n, k=1)
    gaps = m1.space.distance_matrix()[iu, ju]
    n_pairs = len(iu)
    # rows: f_i - f_j <= d_ij and f_j - f_i <= d_ij
    rows = np.repeat(np.arange(2 * n_pairs), 2)
    cols = np.empty(4 * n_pairs, dtype=int)
    vals = np.empty(4 * n_pairs)
    cols[0::4], cols[1::4] = iu, ju
    vals[0::4], vals[1::4] = 1.0, -1.0
    cols[2::4], cols[3::4] = iu, ju
    vals[2::4], vals[3::4] = -1.0, 1.0
    a_ub = csr_matrix((vals, (rows, cols)), shape=(2 * n_pairs, n))
    b_ub = np.repeat(gaps, 2)
    res = linprog(-d, A_ub=a_ub, b_ub=b_ub, bounds=[(-1.0, 1.0)] * n, method="highs")
    if not res.success:
        raise RuntimeError(f"flat-metric LP failed: {res.message}")
    return float(-res.fun)


def _chain_sup(d: list[float], gaps: list[float]) -> float:
    """max sum_k d[k] f_k over |f_k| <= 1 and |f_{k+1} - f_k| <= gaps[k].

    Dynamic programming over the chain: W_k(f), the best partial sum with
    f_k = f, is concave and piecewise linear on [-1, 1], and

        W_{k+1}(f) = d[k+1] f + max { W_k(f') : |f' - f| <= gaps[k] }.

    W is kept as its maximum ``best`` and its breakpoints, each a position
    and the slope change across it.  ``sides[0]`` holds those left of the
    argmax and ``sides[1]`` those right of it, the one nearest the argmax
    last; positions are outward coordinates (-f on the left, f on the right)
    minus ``off``, the sum of the gaps so far.  The slope at f is the sum of
    the slope changes between f and the argmax (negated on the right).  The
    max over |f' - f| <= gap widens the plateau at the argmax by the gap on
    each side (``off`` grows) and drops breakpoints at or beyond the
    boundary.  Adding d f adds d to every slope, so the argmax walks |d|
    worth of slope change towards sign(d), and the breakpoints it passes
    change sides.  Each step costs O(1) plus the breakpoints passed.
    """
    sides, off, best = (deque(), deque()), 0.0, 0.0
    for k, dk in enumerate(d):
        if k:
            off += gaps[k - 1]
            for side in sides:
                while side and side[0][0] + off >= 1.0:
                    side.popleft()
        if dk == 0.0:
            continue
        behind, ahead = sides if dk > 0 else sides[::-1]
        slope = abs(dk)  # of the new W just ahead of the argmax, outward
        u = ahead[-1][0] + off if ahead else 1.0
        best += slope * u  # W(argmax) + d * argmax
        while ahead:
            p, w = ahead[-1]
            u = p + off
            if slope <= w:  # the slope turns nonpositive at u: the new argmax
                if slope < w:
                    ahead[-1] = (p, w - slope)
                else:
                    ahead.pop()
                behind.append((-u - off, slope))
                break
            ahead.pop()
            behind.append((-u - off, w))
            slope -= w
            nxt = ahead[-1][0] + off if ahead else 1.0
            best += slope * (nxt - u)
        else:  # W rises up to the boundary, which becomes the argmax
            behind.append((-1.0 - off, slope))
    return best
