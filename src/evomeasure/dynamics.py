"""The measure-valued vector field and its two solvers.

The dynamics on a measure mu over the strategy space is

    d/dt mu(E) = int_Q f1(mu(Q), q_hat) gamma(q_hat)(E) dmu(q_hat)
                 - int_E f2(mu(Q), q) dmu(q),

semi-discretized over the support points into a coupled ODE on the weight
vector.  Two independent solvers are provided:

  * ``rk4_integrate``: classical fixed-step RK4 on the weights, the nodes
    of ``rk4_stream`` collected (checks that read each node once read the
    stream itself).  One node loop takes one of two steps of the same RK4
    map: the four field stages, or, for a pair with ``factors`` (f1 =
    phi(X) a, f2 = psi(X)), one polynomial of degree 4 in the mutation
    operator M = rows^T diag(a) applied to the node;
  * ``picard_solve``: the fixed-point iteration of the integral operator

        [S alpha](t) = e^(-int_0^t f2~) du
                       + int_0^t int_Q f1~(alpha(s)(Q), q_hat)
                         gbar_{s,t,alpha}(q_hat) d alpha(s)(q_hat) ds,

    where gbar is the mutation kernel discounted by accumulated mortality
    between s and t.  On a window b chosen from the truncation constants, S
    is a strict contraction and the iteration converges to the solution.

``flow_stream`` runs either solver on [0, T] as a ``NodeStream`` on the one
node grid ``time_grid(T, dt)``, and ``flow`` collects it into a trajectory.
The Picard route solves windows that are runs of whole steps of that grid,
re-deriving each window's length from the mass at its start so the
contraction estimate stays valid as the population grows.

Time quadrature throughout is composite trapezoid on the node grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .fitness import FitnessPair, TruncationConstants, estimate_constants
from .kernels import MutationKernel
from .measures import MeasureVec
from .space import StrategySpace, _frozen

# hard failure threshold for negative weights, relative to max(1, TV)
NEG_ABORT = 1e-8


@dataclass
class Trajectory:
    """Time grid plus one measure per node; what solvers produce.

    ``masses`` caches mu(t_k)(Q) with the same summation used by
    ``MeasureVec.total_mass``: one row sum over C-contiguous rows is
    bitwise the per-row ``np.sum``.  States are nonnegative within the
    round-off tolerance; construction rejects anything worse.
    """

    space: StrategySpace
    times: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)
    masses: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape != (len(t), self.space.n):
            raise ValueError(f"weights must be ({len(t)}, {self.space.n}), got {w.shape}")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        # NaN and -inf show in the row minima, +inf in the maximum; only rows
        # with a negative minimum need their TV for the round-off tolerance
        worst = w.min(axis=1)
        if not (np.all(np.isfinite(worst)) and w.max(initial=0.0) < math.inf):
            raise NumericError("trajectory contains non-finite weights")
        neg = np.flatnonzero(worst < 0.0)
        tv = np.abs(w[neg]).sum(axis=1)
        tol = 1e-12 * np.maximum(1.0, tv)
        if np.any(worst[neg] < -tol):
            k = int(neg[np.argmin(worst[neg] + tol)])
            raise NumericError(
                f"trajectory state at t={t[k]} has weight {worst[k]}, below -tol_neg"
            )
        # a row whose |w| sum overflows has no tolerance to judge its
        # negatives by; a row without negatives overflows in its mass
        masses = w.sum(axis=1)
        overflow = ~np.isfinite(masses)
        overflow[neg[tv == math.inf]] = True
        if np.any(overflow):
            k = int(np.argmax(overflow))
            raise NumericError(f"trajectory state at t={t[k]} has finite weights whose sum overflows")
        self.times = _frozen(t)
        self.weights = _frozen(w)
        self.masses = _frozen(masses)

    @property
    def n_nodes(self) -> int:
        return len(self.times)

    def state(self, k: int) -> MeasureVec:
        return MeasureVec(self.space, self.weights[k])

    @property
    def final(self) -> MeasureVec:
        return self.state(self.n_nodes - 1)

    def sup_tv_distance(self, other: "Trajectory | NodeStream") -> float:
        """Max over shared nodes of TV(self(t_k) - other(t_k)); a node
        stream is read here, one node at a time."""
        if len(self.times) != len(other.times) or not np.allclose(self.times, other.times, rtol=0.0, atol=1e-12):
            raise ValueError("trajectories live on different time grids")
        return sup_tv(self.weights, other.weights)

    def mass_bound_excess(self, m_f1: float) -> float:
        """``mass_bound_excess`` of this trajectory's masses."""
        return mass_bound_excess(self.times, self.masses, m_f1)

    def write_csv(self, path) -> None:
        """Long-form ``t,index,weight`` rows, 17 significant digits."""
        # one template per time row, "t,0,%.17g\nt,1,%.17g\n...", filled by one %
        template = "".join(f"\0,{i},%.17g\n" for i in range(self.space.n))
        with open(path, "w", newline="") as fh:
            fh.write("t,index,weight\n")
            for t, row in zip(self.times.tolist(), self.weights.tolist()):
                fh.write(template.replace("\0", format(t, ".17g")) % tuple(row))

    def write_summary_csv(self, path, nodes) -> None:
        """``t,total_mass,bl_to_final`` rows (flat distance to the end state) at the indices ``nodes``."""
        from .measures import bl_distance

        final = self.final
        write_csv_rows(path, "t,total_mass,bl_to_final",
                       ((self.times[k], self.masses[k], bl_distance(self.state(k), final)) for k in nodes))


def mass_bound_excess(times: np.ndarray, masses: np.ndarray, m_f1: float) -> float:
    """Largest relative violation of mu(t)(Q) <= mu(0)(Q) e^(M_f1 t) over
    the node ``times`` and their ``masses``.

    Nonpositive means the exponential a-priori mass bound holds along the
    whole run.
    """
    bound = masses[0] * np.exp(m_f1 * times)
    scale = np.maximum(bound, 1e-300)
    return float(np.max(masses / scale - 1.0))


def write_csv_rows(path, header: str, rows) -> None:
    """``header``, then one line per row with every value as ``.17g``."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def sup_tv(rows, others) -> float:
    """Max over paired nodes of TV(row - other), one pair at a time; both
    sides hold the same number of nodes.  ``np.maximum`` carries a NaN through."""
    worst = 0.0
    for a, b in zip(rows, others, strict=True):
        diff = a - b
        worst = np.maximum(worst, np.abs(diff, out=diff).sum())
    return float(worst)


# ─── the vector field ────────────────────────────────────────────────


def vector_field(m: MeasureVec, kernel: MutationKernel, fp: FitnessPair) -> MeasureVec:
    """F(mu, gamma): births pushed through the kernel minus deaths.

    weights_out[i] = sum_j f1(X, q_j) row_j[i] w_j - f2(X, q_i) w_i with
    X = mu(Q).  A signed measure in general.
    """
    _check_shared_space(m.space, kernel, fp)
    return MeasureVec(m.space, _field(kernel, fp)(m.weights, float(m.weights.sum())))


def _field(kernel: MutationKernel, fp: FitnessPair):
    """The field of (kernel, fp) as a function of the weight vector w and
    its mass X = float(w.sum()), which a solver has at hand.

    The kernel's push, the rates and the K~ clamp of ``FitnessPair._clamp``
    are bound once, so a solver pays per evaluation only for the arithmetic.
    Under mean-fitness mortality the deaths are the mean birth rate times w.
    """
    push, birth, death, k_tilde = kernel.push_births, fp.birth, fp.death, fp.k_tilde

    def field(w: np.ndarray, X: float) -> np.ndarray:
        x = X if k_tilde is None else min(max(X, 0.0), k_tilde)
        f1 = birth(x)
        births = push(f1 * w)
        if death is None:  # a birth rate that does not vary over the points is its own mean
            mean = float(f1) if np.ndim(f1) == 0 else float(np.dot(f1, w)) / X if X != 0.0 else 0.0
            return births - mean * w
        return births - death(x) * w

    return field


def field_lipschitz_ratio(
    kernel: MutationKernel, fp: FitnessPair, radius: float, rng: np.random.Generator
) -> float:
    """Largest TV ratio |F(mu) - F(nu)| / |mu - nu| over 200 random pairs.

    Each measure of a pair has uniform random weights scaled to a mass drawn
    uniformly from [0, radius], so both lie in the TV ball of that radius.
    With ``fp`` truncated at K~ and radius C1, the ratio is bounded by the
    field's Lipschitz constant K_F = B1 + B2 + (L1 + L2) C1.
    """
    _check_shared_space(kernel.space, kernel, fp)
    field = _field(kernel, fp)
    n = kernel.space.n
    worst = 0.0
    for _ in range(200):
        w1 = rng.uniform(0.0, 1.0, n)
        w2 = rng.uniform(0.0, 1.0, n)
        w1 *= rng.uniform(0.0, radius) / max(w1.sum(), 1e-300)
        w2 *= rng.uniform(0.0, radius) / max(w2.sum(), 1e-300)
        dm = float(np.sum(np.abs(w1 - w2)))
        if dm > 0:
            dv = field(w1, float(w1.sum())) - field(w2, float(w2.sum()))
            worst = max(worst, float(np.sum(np.abs(dv))) / dm)
    return worst


def _check_shared_space(space: StrategySpace, kernel: MutationKernel, fp: FitnessPair) -> None:
    if not (space.same_support(kernel.space) and space.same_support(fp.space)):
        raise ValueError("measure, kernel and fitness must share one strategy space")


def _check_start(u: MeasureVec, kernel: MutationKernel, fp: FitnessPair) -> None:
    _check_shared_space(u.space, kernel, fp)
    if not u.is_nonnegative():
        raise ValueError("initial measure must be nonnegative")


# ─── RK4 ─────────────────────────────────────────────────────────────


def time_grid(T: float, dt: float) -> np.ndarray:
    """Nodes 0, dt, 2 dt, ... up to T, the last step shortened to end at T; a
    negative or non-finite T, or a nonpositive or non-finite dt, is a
    ``ValueError``, and a grid that numpy cannot allocate, or whose node
    count T / dt overflows, a ``ConfigError``."""
    if not 0.0 <= T < math.inf:
        raise ValueError(f"T must be nonnegative and finite, got {T!r}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    steps = T / dt - 1e-9
    n_steps = 0 if T == 0.0 else max(1, math.ceil(steps)) if steps < math.inf else steps
    try:
        times = np.minimum(dt * np.arange(n_steps + 1), T)
    except (MemoryError, ValueError) as exc:  # a size past numpy's index range is a ValueError
        raise ConfigError(f"the node grid of T = {T!r} at dt = {dt!r} has {n_steps + 1:.6g} nodes, "
                          f"which cannot be allocated") from exc
    times[-1] = T
    return times


@dataclass
class NodeStream:
    """One run read node by node, for checks that read each node once.

    ``times`` is the run's node grid, known before any node is read;
    ``weights`` yields each node's weight vector once, in time order, after
    the node's checks; ``meta`` is the run record, current with the nodes
    read so far (RK4's clip keys, Picard's windows).
    """

    space: StrategySpace
    times: np.ndarray
    weights: Iterator[np.ndarray]
    meta: dict

    def run_to_end(self) -> MeasureVec:
        """Read every node left; the state at the last one."""
        w = None
        for w in self.weights:
            pass
        if w is None:
            raise ValueError("the node stream has no node left to read")
        return MeasureVec(self.space, w)

    def collect(self) -> Trajectory:
        """Read every node into a trajectory with the run's ``meta``."""
        weights = np.fromiter(self.weights, dtype=(float, self.space.n), count=len(self.times))
        return Trajectory(self.space, self.times, weights, meta=self.meta)


def _block_rows(n: int) -> int:
    """The nodes per block of the blocked checks at n points: a block's
    product with an (n, n) table makes at most 2^18 multiply-adds, the size
    up to which OpenBLAS runs a matrix product on one thread, and a block
    holds at most 256 nodes."""
    return max(1, min(256, 2**18 // (n * n)))


def node_blocks(weights, size: int) -> Iterator[np.ndarray]:
    """The rows of ``weights``, an (N, n) array (sliced, not copied) or an
    iterator of (n,) rows (a ``NodeStream``'s), as (m, n) blocks of
    ``size`` consecutive rows, the last one shorter."""
    if isinstance(weights, np.ndarray):
        for k in range(0, len(weights), size):
            yield weights[k:k + size]
        return
    block = []
    for w in weights:
        block.append(w)
        if len(block) == size:
            yield np.array(block)
            block = []
    if block:
        yield np.array(block)


def rk4_stream(u: MeasureVec, kernel: MutationKernel, fp: FitnessPair, T: float, dt: float) -> NodeStream:
    """Classical fixed-step RK4 on the weight vector over [0, T], one node at a time.

    The pair carries the truncation level K~ (recorded in ``meta``): a pair
    the caller truncated keeps its level, any other is truncated above the
    a-priori mass bound u(Q) e^(M_f1 T).  Weights that dip below zero by
    round-off are clipped, and ``meta`` records how many entries were
    clipped and the largest clipped magnitude; anything below
    -1e-8 max(1, TV) aborts with the offending step (step size too large),
    and so does a non-finite weight.  A node whose mass exceeds K~ aborts
    too, before it is yielded: there the clamp is active.  The arguments are
    checked here, before any node is read.  A pair with ``factors`` takes
    ``_polynomial_step``, any other ``_field_step``: the same RK4 map, the
    nodes equal to round-off.
    """
    times = time_grid(T, dt)
    _check_start(u, kernel, fp)

    m_f1 = float(np.max(fp.f1(0.0)))
    if fp.k_tilde is None:
        fp = fp.truncated(max(1.0, u.total_mass()) * math.exp(min(m_f1 * T, 60.0)) * 1.1 + 1.0)
    meta = {"dt": dt, "M_f1": m_f1, "k_tilde": fp.k_tilde, "clip_count": 0, "clip_max": 0.0}
    step = _field_step(kernel, fp) if fp.factors is None else _polynomial_step(kernel, fp)
    return NodeStream(u.space, times, _rk4_nodes(u.weights, step, times, meta), meta)


def _field_step(kernel: MutationKernel, fp: FitnessPair):
    """The RK4 step w -> w' over h of the field of (kernel, fp), from w of mass X."""
    field = _field(kernel, fp)
    add = np.add.reduce

    def step(w: np.ndarray, X: float, h: float) -> np.ndarray:
        k1 = field(w, X)
        s = w + 0.5 * h * k1
        k2 = field(s, float(add(s)))
        s = w + 0.5 * h * k2
        k3 = field(s, float(add(s)))
        s = w + h * k3
        k4 = field(s, float(add(s)))
        return w + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

    return step


def _polynomial_step(kernel: MutationKernel, fp: FitnessPair):
    """The RK4 step of a separable pair, F(w) = phi(x) M w - psi(x) w with
    M w = push(a w), as one polynomial p of degree 4 in M applied to w.

    The stage operators phi_i M - psi_i I commute, so stage i's vector is
    sum_j s_j M^j w and its derivative k_i = (phi_i M - psi_i) s_i shifts
    the coefficients one degree up.  The Krylov vectors V_j = M^j w and
    their masses mu_j are computed once per step; the stages update the
    coefficients alpha of p in Python floats, a stage's mass being
    sum_j s_j mu_j, and the node is alpha @ V.  Under the Dirac kernel
    M = diag(a): V_j = a V_{j-1} is multiplied in place, with no push, and
    the node is p(a) w.
    """
    av, phi, psi = fp.factors
    push, k_tilde, dirac = kernel.push_births, fp.k_tilde, kernel.is_dirac
    V = np.empty((5, fp.space.n))
    v0, v1, v2, v3, v4 = V
    head, ones, mul = V[:4], np.ones(fp.space.n), np.multiply

    def rates(X: float) -> tuple[float, float]:
        x = X if 0.0 <= X <= k_tilde else min(max(X, 0.0), k_tilde)  # the comparison costs less than min, max
        return phi(x), psi(x)

    def step(w: np.ndarray, X: float, h: float) -> np.ndarray:
        v0[:] = w
        if dirac:
            mul(av, v0, out=v1)
            mul(av, v1, out=v2)
            mul(av, v2, out=v3)
            mul(av, v3, out=v4)
        else:
            v1[:] = push(av * v0)
            v2[:] = push(av * v1)
            v3[:] = push(av * v2)
            v4[:] = push(av * v3)
        m0, m1, m2, m3 = np.dot(head, ones).tolist()
        # a_j, b_j, c_j, d_j are the coefficients of k1, k2, k3, k4 on V_j
        r = 0.5 * h
        f, g = rates(X)
        a0, a1 = -g, f  # k1, from s = 1
        s0, s1 = 1.0 + r * a0, r * a1
        f, g = rates(s0 * m0 + s1 * m1)
        b0, b1, b2 = -g * s0, f * s0 - g * s1, f * s1  # k2
        s0, s1, s2 = 1.0 + r * b0, r * b1, r * b2
        f, g = rates(s0 * m0 + s1 * m1 + s2 * m2)
        c0, c1, c2, c3 = -g * s0, f * s0 - g * s1, f * s1 - g * s2, f * s2  # k3
        s0, s1, s2, s3 = 1.0 + h * c0, h * c1, h * c2, h * c3
        f, g = rates(s0 * m0 + s1 * m1 + s2 * m2 + s3 * m3)
        d0, d1, d2, d3, d4 = -g * s0, f * s0 - g * s1, f * s1 - g * s2, f * s2 - g * s3, f * s3  # k4
        e = h / 6.0
        alpha = [1.0 + e * (a0 + 2.0 * (b0 + c0) + d0), e * (a1 + 2.0 * (b1 + c1) + d1),
                 e * (2.0 * (b2 + c2) + d2), e * (2.0 * c3 + d3), e * d4]
        return np.dot(alpha, V)

    return step


def _rk4_nodes(w: np.ndarray, step, times: np.ndarray, meta: dict) -> Iterator[np.ndarray]:
    # a node's mass serves its checks and the first stage of the next step;
    # the reductions are called directly, not through the ndarray methods
    k_tilde = meta["k_tilde"]
    add, minimum = np.add.reduce, np.minimum.reduce
    mass = float(add(w))
    for k in range(len(times)):
        t = times.item(k)
        if k:
            w = step(w, mass, t - times.item(k - 1))
            # the minimum is the witness: a node whose minimum is nonnegative
            # and whose mass is finite is finite and needs no clip
            lowest = float(minimum(w))
            mass = float(add(w))
            if not (lowest >= 0.0 and mass < math.inf):
                w, clipped = _enforce_nonneg(w, lowest, k, t)
                meta["clip_count"] += clipped
                meta["clip_max"] = max(meta["clip_max"], -lowest)
                mass = float(add(w))
        if mass > k_tilde:
            raise _above_k_tilde(mass, f"step {k}", t, k_tilde)
        yield w


def rk4_integrate(
    u: MeasureVec, kernel: MutationKernel, fp: FitnessPair, T: float, dt: float
) -> Trajectory:
    """The nodes of ``rk4_stream`` collected into a trajectory with its ``meta``."""
    return rk4_stream(u, kernel, fp, T, dt).collect()


def _above_k_tilde(mass: float, node: str, t: float, k_tilde: float) -> NumericError:
    return NumericError(
        f"mass {mass} at {node} (t={t}) exceeds the truncation level K~={k_tilde}; "
        f"the clamped vector field is not the model's"
    )


def _enforce_nonneg(w: np.ndarray, lowest: float, step: int, t: float) -> tuple[np.ndarray, int]:
    """A node that is not finite, or whose minimum ``lowest`` is negative:
    raise naming the step, or return it clipped at zero with the number of
    entries clipped."""
    if not np.all(np.isfinite(w)):
        raise NumericError(f"RK4 produced non-finite weights at step {step} (t={t})")
    tv = float(np.abs(w).sum())
    if lowest < -NEG_ABORT * max(1.0, tv):
        raise NumericError(
            f"weight {lowest} at step {step} (t={t}) is below the negativity "
            f"tolerance; the step size is too large"
        )
    return np.maximum(w, 0.0), np.count_nonzero(w < 0.0)


# ─── Picard fixed point ──────────────────────────────────────────────


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integrals of y's rows from x[0] to each x[k] (row 0 is zero).

    The arithmetic of ``scipy.integrate.cumulative_trapezoid(y, x, axis=0,
    initial=0)``, so results are bitwise equal to it.
    """
    out = np.zeros_like(y)
    np.cumsum(np.diff(x)[:, None] * (y[1:] + y[:-1]) / 2.0, axis=0, out=out[1:])
    return out


def picard_operator(
    alpha: Trajectory, u: MeasureVec, kernel: MutationKernel, fp: FitnessPair
) -> Trajectory:
    """One application of the integral operator S to a candidate trajectory.

    ``fp`` must already be truncated.  Output node k carries

        e^(-I_k) * (u + trapz_{s <= t_k} e^(+I_s) births(alpha(s)) ds),

    where I_k[i] = int_0^{t_k} f2~(alpha(tau)(Q), q_i) dtau and
    births(alpha(s)) = sum_j f1~(alpha(s)(Q), q_hat_j) gamma(q_hat_j) alpha_j(s).
    The discounted kernel gbar_{s,t_k}(q_hat_j) = gamma(q_hat_j) e^(I_s - I_k)
    is never formed: its factor e^(-(I_k - I_s)) splits into e^(-I_k) outside
    and e^(+I_s) inside one cumulative trapezoid, which is the trapezoid
    discretization of S.  [S alpha](0) = u exactly.
    """
    if fp.k_tilde is None:
        raise ValueError("picard_operator requires a truncated fitness pair")
    _check_shared_space(alpha.space, kernel, fp)
    if not np.allclose(alpha.weights[0], u.weights, rtol=0.0, atol=1e-12):
        raise ValueError("candidate trajectory must start at the initial measure")
    times = alpha.times
    f1_tab, f2_tab = fp.tables(alpha.masses)
    cumint = _cumulative_trapezoid(f2_tab, times)
    births = kernel.push_births(f1_tab * alpha.weights)
    integrand = np.exp(cumint) * births
    accum = _cumulative_trapezoid(integrand, times)
    out = np.exp(-cumint) * (u.weights[None, :] + accum)
    out[0] = u.weights
    return Trajectory(alpha.space, times.copy(), out)


def picard_solve(
    u: MeasureVec,
    kernel: MutationKernel,
    fp: FitnessPair,
    constants: TruncationConstants,
    dt: float,
    tol: float = 1e-10,
    max_iter: int = 30,
    window: float | None = None,
) -> Trajectory:
    """Iterate alpha <- S alpha on ``time_grid(b, dt)`` until sup-TV change < tol.

    ``constants`` supplies the contraction window b and the truncation level;
    ``window`` may shorten (never lengthen) the solved interval.  The
    returned trajectory records the residuals and observed contraction
    ratios per iteration.  A converged node whose mass exceeds K~ raises
    ``NumericError`` naming it: there the clamp is active.
    """
    b = constants.b if window is None else float(window)
    if b > constants.b * (1 + 1e-12):
        raise ValueError(f"window {b} exceeds the contraction window b={constants.b}")
    if b <= 0:
        raise ValueError("window must be positive")
    _check_start(u, kernel, fp)
    _check_picard_settings(fp, tol, max_iter)
    alpha = _picard_fixed_point(u, kernel, fp, constants, time_grid(b, dt), tol, max_iter)
    alpha.meta.update(window=b, dt=dt, tol=tol)
    return alpha


def _picard_fixed_point(
    u: MeasureVec, kernel: MutationKernel, fp: FitnessPair, constants: TruncationConstants,
    times: np.ndarray, tol: float, max_iter: int,
) -> Trajectory:
    """The fixed point of S for ``fp`` truncated at ``constants.k_tilde`` on
    the window's node ``times``, iterated from the constant guess u; its
    ``meta`` records the iterations, residuals, ratios and constants."""
    fpt = fp.truncated(constants.k_tilde)
    alpha = Trajectory(u.space, times, np.tile(u.weights, (len(times), 1)))
    residuals: list[float] = []
    ratios: list[float] = []
    for it in range(max_iter):
        new = picard_operator(alpha, u, kernel, fpt)
        residual = float(np.max(np.abs(new.weights - alpha.weights).sum(axis=1)))  # sup-TV
        if residuals:
            ratios.append(residual / residuals[-1] if residuals[-1] > 0 else 0.0)
        residuals.append(residual)
        alpha = new
        if residual < tol:
            over = np.flatnonzero(alpha.masses > constants.k_tilde)
            if len(over):
                k = over[0]
                raise _above_k_tilde(alpha.masses[k], f"node {k}", alpha.times[k], constants.k_tilde)
            alpha.meta = {
                "iterations": it + 1,
                "residuals": residuals,
                "contraction_ratios": ratios,
                "constants": constants.to_dict(),
            }
            return alpha
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise NumericError(
                f"Picard iteration is not contracting (last ratios {ratios[-3:]}); "
                f"the truncation constants are likely wrong for this problem"
            )
    raise NumericError(
        f"Picard iteration did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {residuals[-1]})"
    )


def _check_picard_settings(fp: FitnessPair, tol: float, max_iter: int) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    fp.f2(0.0)  # a mean-fitness pair refuses here, naming RK4


def _picard_nodes(
    u: MeasureVec, kernel: MutationKernel, fp: FitnessPair, times: np.ndarray, tol: float,
    max_iter: int, ball_radius: float | None, meta: dict,
) -> Iterator[np.ndarray]:
    # a window is m steps of the run's grid, from node k0 to k1, with m fixed
    # by the constants estimated from the mass at k0
    dt, last = meta["dt"], len(times) - 1
    yield u.weights
    k0, start = 0, u
    while k0 < last:
        constants = estimate_constants(fp, start.total_mass(), ball_radius)
        m = int(math.floor(constants.b / dt + 1e-12))
        if m < 1:
            raise NumericError(f"dt={dt} exceeds the contraction window b={constants.b}; reduce dt")
        k1 = min(k0 + m, last)
        piece = _picard_fixed_point(start, kernel, fp, constants, times[k0:k1 + 1], tol, max_iter)
        del piece.meta["residuals"]
        meta["windows"].append({"t_start": times.item(k0), "window": times.item(k1) - times.item(k0),
                                **piece.meta})
        yield from piece.weights[1:]
        k0, start = k1, piece.final


def flow_stream(
    u: MeasureVec, kernel: MutationKernel, fp: FitnessPair, T: float, solver: str = "rk4",
    dt: float | None = None, tol: float = 1e-10, max_iter: int = 30, ball_radius: float | None = None,
) -> NodeStream:
    """The global semiflow phi(t; u, gamma) on [0, T] as a node stream on
    ``time_grid(T, dt)``.

    ``rk4`` is ``rk4_stream``.  ``picard`` solves consecutive contraction
    windows of whole grid steps, re-estimating the truncation constants from
    the mass at each window start, and yields a window's nodes once they
    converge; ``meta`` gains the window's record as it is read.  Where the
    windows are cut moves the nodes only within the tolerance: a window from
    k0 carries e^(-(I_k - I_k0)) w_k0 plus its own trapezoid sum, which adds
    up to e^(-I_k) (u + A_k), the sums over [0, t_k].
    ``dt`` may be omitted only at T = 0, where the flow is the identity.  The
    arguments are checked here, at T = 0 too, before any node is read.
    """
    if solver == "picard":
        _check_picard_settings(fp, tol, max_iter)
    elif solver != "rk4":
        raise ValueError(f"unknown solver {solver!r}")
    if dt is None and T != 0.0:
        raise ValueError(f"dt may be omitted only at T = 0, got T = {T!r}")
    if solver == "rk4" and T != 0.0:
        return rk4_stream(u, kernel, fp, T, dt)
    times = time_grid(T, 1.0 if dt is None else dt)  # at T = 0 any dt gives the one node
    _check_start(u, kernel, fp)
    if T == 0.0:  # the identity, on the node 0.0 also at T = -0.0
        return NodeStream(u.space, np.array([0.0]), iter([u.weights]), {})
    meta = {"dt": dt, "tol": tol, "windows": []}
    return NodeStream(u.space, times, _picard_nodes(u, kernel, fp, times, tol, max_iter, ball_radius, meta),
                      meta)


def flow(
    u: MeasureVec,
    kernel: MutationKernel,
    fp: FitnessPair,
    T: float,
    solver: str = "rk4",
    dt: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 30,
    ball_radius: float | None = None,
) -> Trajectory:
    """The nodes of ``flow_stream`` collected into a trajectory with its ``meta``."""
    return flow_stream(u, kernel, fp, T, solver, dt, tol, max_iter, ball_radius).collect()


# ─── consistency diagnostics ─────────────────────────────────────────


def finite_difference_residual(traj: Trajectory, kernel: MutationKernel, fp: FitnessPair) -> float:
    """Max TV gap between central differences of the states and the field.

    Checks that the trajectory solves the differential form: at interior
    nodes, TV((w[k+1]-w[k-1])/(t[k+1]-t[k-1]) - F(w[k])), with the field
    evaluated node by node.
    """
    field = _field(kernel, fp)
    rows = lambda W, X: np.array([field(w, x) for w, x in zip(W, X.tolist())])
    blocks = ((W, W.sum(axis=1)) for W in node_blocks(traj.weights, _block_rows(traj.space.n)))
    return _central_difference_gap(traj.times, blocks, [rows])[0][0]


class _CentralDifferences:
    """Max TV gaps between central differences of the states on ``times``
    and each right-hand side in ``rhs``, read from consecutive blocks of
    nodes by ``add``.

    ``add(states, data)`` takes the next (m, n) states in time order and
    (m,) data for them (masses, say); ``rhs[i](states, data)`` is the i-th
    right-hand side at each row.  The last two nodes of each block are
    carried into the next, so every interior node is checked once, whatever
    the blocks.  The difference quotient is the per-node one, entry for
    entry.  Nodes between steps of unequal length (where the difference is
    only first order) are left out.  ``np.maximum`` carries a NaN gap
    through.
    """

    def __init__(self, times: np.ndarray, rhs):
        h = np.diff(times)
        self.times, self.rhs = times, rhs
        self.checked = np.zeros(len(times), dtype=bool)
        self.checked[1:-1] = np.abs(h[1:] - h[:-1]) <= 1e-6 * np.maximum(h[1:], h[:-1])
        self.worst = [0.0] * len(rhs)
        self.start = 0  # the node of the first carried row
        self.carried = None

    def add(self, states: np.ndarray, data: np.ndarray) -> None:
        if self.carried is not None:
            states = np.concatenate((self.carried[0], states))
            data = np.concatenate((self.carried[1], data))
        k0, m = self.start, len(states)
        self.carried = states[-2:].copy(), data[-2:].copy()
        self.start = k0 + m - len(self.carried[1])
        # the rows c of the block whose node k0 + c is checked
        c = np.flatnonzero(self.checked[k0 + 1:k0 + m - 1]) + 1
        if not len(c):
            return
        t = self.times[k0:k0 + m]
        deriv = states[c + 1] - states[c - 1]
        deriv /= (t[c + 1] - t[c - 1])[:, None]
        here, at = states[c], data[c]
        for i, f in enumerate(self.rhs):
            rows = deriv - f(here, at)
            self.worst[i] = np.maximum(self.worst[i], np.abs(rows, out=rows).sum(axis=1).max())

    def gaps(self) -> tuple[list[float], int]:
        """The gaps, and the number of nodes checked on the whole grid."""
        return [float(g) for g in self.worst], int(np.count_nonzero(self.checked))


def _central_difference_gap(times: np.ndarray, blocks, rhs) -> tuple[list[float], int]:
    """``_CentralDifferences`` of ``rhs`` on ``times`` read from every
    ``(states, data)`` block of ``blocks``: the gaps and the number of
    nodes checked."""
    gaps = _CentralDifferences(times, rhs)
    for states, data in blocks:
        gaps.add(states, data)
    return gaps.gaps()
