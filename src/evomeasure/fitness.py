"""Density-dependent birth/mortality rate pairs.

The model's rates are a pair (f1, f2): f1(X, q) is the per-capita birth rate
of strategy q at total population X, f2(X, q) the per-capita mortality.  The
standing assumptions are that f1 is nonincreasing and f2 nondecreasing in X,
both nonnegative and Lipschitz in X, and that mortality has a strictly
positive density-independent floor: min_q f2(0, q) = varpi > 0.

Families whose natural mortality vanishes at X = 0 (pure density-dependent
death) are offered with an additive floor so the implemented pair satisfies
the assumptions; passing floor=0 reproduces the raw model outside the proven
well-posedness regime, and assumption verification will flag it.

``estimate_constants`` takes the bounds and Lipschitz constants of the
truncated pair from the families' formulas and chooses the contraction
window b for the Picard solver:

    (1 - e^(-B2 b)) u(Q) + 2 B1 C1 b < a,
    b < min{1, 1 / (2 L2 C1 + 2 B1 + 2 C2 C1)},

with C1 = u(Q) + 2a and C2 = L1 + 2 b L2 B1.  Substituting C2 turns the second
inequality into the quadratic A b + K b^2 < 1, A = 2 (L2 C1 + B1 + L1 C1),
K = 4 L2 B1 C1, so b is min(0.9 min(1, b1*), 1.8 / (A + sqrt(A^2 + 3.6 K))):
0.9x the growth bound b1* or the positive root of A b + K b^2 = 0.9.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError, _integer
from .space import StrategySpace

K_TILDE_FACTOR = 1.1  # the truncation level K~ of estimate_constants, in units of u(Q) + 2a
N_X = 101  # X-values of verify_assumptions' lattice on [0, k_tilde]


def _coef(space: StrategySpace, spec, name: str) -> float | np.ndarray:
    """Tabulate a coefficient over the support points.

    Accepts a scalar, kept as a float that broadcasts against the points, an
    (n,) array, {"trait": i} (use coordinate i of each point), or a callable
    on points.  A non-finite entry is refused, naming the coefficient.
    """
    n = space.n
    if isinstance(spec, dict):
        i = _integer(spec["trait"], f"coefficient {name}: trait index")
        if not 0 <= i < space.dim:
            raise ValueError(f"coefficient {name}: trait index {i} out of range")
        return space.points[:, i].copy()
    if callable(spec):
        arr = np.array([float(spec(q)) for q in space.points])
    else:
        arr = np.array(spec, dtype=float)
        if arr.ndim and arr.shape != (n,):
            raise ValueError(f"coefficient {name} has {arr.shape[0]} entries, space has {n} points")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        raise ConfigError(f"coefficient {name} is not finite: {float(arr[bad][0])!r}")
    return float(arr) if arr.ndim == 0 else arr


def _birth_coef(space: StrategySpace, spec) -> np.ndarray:
    """The coefficient a of a birth rate, always (n,): the birth rates are a vector."""
    a = _coef(space, spec, "a")
    return np.full(space.n, a) if isinstance(a, float) else a


@dataclass(frozen=True)
class FitnessPair:
    """Vectorized rate pair bound to a strategy space.

    ``birth`` and ``death`` map a float X to the rates at the support
    points, and an (m, 1) column of X to rates broadcasting to (m, n); a
    rate that does not vary over the points may be a float (at a float X)
    or an (m, 1) column, which broadcasts against the weights.  ``f1`` and
    ``f2`` return the (n,) vector at a float X all the same.  When
    ``k_tilde`` is set, X is clamped to [0, k_tilde] before evaluation (the
    truncated extension), which makes the rates globally bounded and Lipschitz.

    ``death`` is None for the quasi-species variant, in which the mortality
    is the population's average birth rate (``mean_fitness_mortality``);
    such pairs have no pointwise f2 and are only legal with the direct RK4
    solver.

    ``factors`` is the pair's separable form (a, phi, psi) where it has one:
    f1(X) = phi(x) a and f2(X) = psi(x) at the clamped mass x, with a the
    (n,) birth coefficients and phi, psi maps of a float to a float.  The
    built-in families have it when b and c are scalars and c >= 0; vector
    b or c, custom and mean-fitness pairs have None.  RK4 steps a separable pair as
    one polynomial in the mutation operator.
    """

    space: StrategySpace
    family: str
    birth: Callable[[float], np.ndarray]
    death: Callable[[float], float | np.ndarray] | None
    params: dict = field(default_factory=dict)
    k_tilde: float | None = None
    factors: tuple | None = None

    @property
    def mean_fitness_mortality(self) -> bool:
        return self.death is None

    def _clamp(self, X):
        if self.k_tilde is None:
            return X
        if isinstance(X, np.ndarray):
            return X.clip(0.0, self.k_tilde)
        return min(max(X, 0.0), self.k_tilde)

    def _at_points(self, rate):
        """A rate at a float X as the (n,) vector, also where it does not vary over the points."""
        return np.full(self.space.n, rate) if np.ndim(rate) == 0 else rate

    def f1(self, X):
        """Birth rates at a float X, (n,), or at an (m, 1) column, broadcasting to (m, n)."""
        return self._at_points(self.birth(self._clamp(X)))

    def f2(self, X):
        """Mortality rates at X, shaped as ``f1``'s."""
        if self.mean_fitness_mortality:
            raise ValueError(
                "mean-fitness mortality has no pointwise f2 and is outside the "
                "contraction theory; use RK4"
            )
        return self._at_points(self.death(self._clamp(X)))

    def tables(self, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (m, n) tables of f1 and f2 at the m ``masses``, one call per rate."""
        shape, X = (len(masses), self.space.n), masses[:, None]
        return np.broadcast_to(self.f1(X), shape), np.broadcast_to(self.f2(X), shape)

    def truncated(self, k_tilde: float) -> "FitnessPair":
        """Clamp X to [0, k_tilde] before evaluation; idempotent."""
        if not k_tilde > 0:
            raise ValueError("k_tilde must be positive")
        return replace(self, k_tilde=float(k_tilde))


# ─── families ────────────────────────────────────────────────────────


def _separable(av: np.ndarray, phi, death, b, c=0.0) -> tuple | None:
    """(a, phi, psi) with psi the pair's own ``death`` when b and c are scalars.

    A negative c keeps no factors: its phi in Python floats would raise on
    an overflow or a zero denominator, where numpy's (n,) rates reach inf.
    """
    return (av, phi, death) if isinstance(b, float) and isinstance(c, float) and c >= 0 else None


def _one(X: float) -> float:
    return 1.0


def constant_pair(space: StrategySpace, a, b) -> FitnessPair:
    """f1 = a(q), f2 = b(q), both independent of X."""
    av = _birth_coef(space, a)
    bv = _coef(space, b, "b")
    death = lambda X: bv
    return FitnessPair(space, "constant", lambda X: av, death, params={"a": av, "b": bv},
                       factors=_separable(av, _one, death, bv))


def logistic_pair(space: StrategySpace, a, b, floor: float = 1e-3) -> FitnessPair:
    """f1 = a(q), f2 = floor + b(q) X (generalized logistic with mortality floor)."""
    av = _birth_coef(space, a)
    bv = _coef(space, b, "b")
    death = lambda X: floor + bv * X
    return FitnessPair(
        space,
        "logistic",
        lambda X: av,
        death,
        params={"a": av, "b": bv, "floor": floor},
        factors=_separable(av, _one, death, bv),
    )


def beverton_holt_pair(space: StrategySpace, a, c, b, floor: float = 1e-3) -> FitnessPair:
    """f1 = a(q) / (1 + c(q) X), f2 = floor + b(q) X."""
    av = _birth_coef(space, a)
    cv = _coef(space, c, "c")
    bv = _coef(space, b, "b")
    death = lambda X: floor + bv * X
    return FitnessPair(
        space,
        "beverton_holt",
        lambda X: av / (1.0 + cv * X),
        death,
        params={"a": av, "b": bv, "c": cv, "floor": floor},
        factors=_separable(av, lambda X: 1.0 / (1.0 + cv * X), death, bv, cv),
    )


def ricker_pair(space: StrategySpace, a, c, b, floor: float = 1e-3) -> FitnessPair:
    """f1 = a(q) exp(-c(q) X), f2 = floor + b(q) X."""
    av = _birth_coef(space, a)
    cv = _coef(space, c, "c")
    bv = _coef(space, b, "b")
    neg_cv = -cv
    death = lambda X: floor + bv * X
    return FitnessPair(
        space,
        "ricker",
        lambda X: av * np.exp(neg_cv * X),
        death,
        params={"a": av, "b": bv, "c": cv, "floor": floor},
        factors=_separable(av, lambda X: math.exp(neg_cv * X), death, bv, cv),
    )


def custom_pair(space: StrategySpace, f1, f2) -> FitnessPair:
    """Arbitrary callables (X, points) -> rates, X and rates as in ``FitnessPair.f1``."""
    return FitnessPair(
        space,
        "custom",
        lambda X: np.asarray(f1(X, space.points), dtype=float),
        lambda X: np.asarray(f2(X, space.points), dtype=float),
    )


def mean_fitness_pair(space: StrategySpace, f1) -> FitnessPair:
    """Quasi-species variant: mortality is the average birth rate.

    ``f1`` is a coefficient spec (constant in X) or a callable (X, points)
    -> rates, on ``custom_pair``'s terms.  The pair is quarantined: assumption
    verification reports "not applicable", and ``f2`` raises, so the
    truncation constants and the Picard solver refuse it.
    """
    if callable(f1):
        birth = lambda X: np.asarray(f1(X, space.points), dtype=float)
    else:
        av = _birth_coef(space, f1)
        birth = lambda X: av
    return FitnessPair(space, "mean_fitness", birth, None)


def fitness_from_config(cfg: dict, space: StrategySpace) -> FitnessPair:
    """Build a pair from its JSON config form.

    {"family":"ricker","a":...,"c":...,"b":...,"floor":...} and analogous
    forms for the other families; coefficients are scalars, arrays matching
    the point count, or {"trait": i}.
    """
    family = cfg.get("family")
    floor = float(cfg.get("floor", 1e-3))
    if not np.isfinite(floor):
        raise ConfigError(f"fitness floor is not finite: {floor!r}")
    if family == "constant":
        return constant_pair(space, cfg["a"], cfg["b"])
    if family == "logistic":
        return logistic_pair(space, cfg["a"], cfg["b"], floor=floor)
    if family == "beverton_holt":
        return beverton_holt_pair(space, cfg["a"], cfg.get("c", 1.0), cfg["b"], floor=floor)
    if family == "ricker":
        return ricker_pair(space, cfg["a"], cfg.get("c", 1.0), cfg["b"], floor=floor)
    if family == "mean_fitness":
        return mean_fitness_pair(space, cfg["a"])
    raise ValueError(f"unknown fitness family {family!r}")


# ─── assumption verification ─────────────────────────────────────────


@dataclass
class AssumptionReport:
    """Outcome of sampling-based verification of the rate assumptions."""

    applicable: bool
    passed: bool
    varpi: float
    n_x: int
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(asdict(self), violations=self.violations[:20])


def verify_assumptions(fp: FitnessPair, k_tilde: float = 10.0) -> AssumptionReport:
    """Check nonnegativity, monotonicity in X, and the mortality floor.

    Sampled on a lattice of ``N_X`` X-values on [0, k_tilde] times the
    support points of ``fp.space``; witnesses name the offending point.
    Mean-fitness pairs are reported as not applicable.
    """
    if fp.mean_fitness_mortality:
        return AssumptionReport(applicable=False, passed=True, varpi=float("nan"), n_x=0)
    xs = np.linspace(0.0, k_tilde, N_X)
    f1_tab, f2_tab = fp.tables(xs)
    violations = []

    def witness(kind, k, i, value, x2=None):
        violations.append(
            {
                "kind": kind,
                "X": float(xs[k]),
                **({"X2": float(x2)} if x2 is not None else {}),
                "q_index": int(i),
                "q": fp.space.points[i].tolist(),
                "value": float(value),
            }
        )

    # nan-aware witnesses: an overflowed table's inf - inf differences are NaN
    for tab, name in ((f1_tab, "f1_negative"), (f2_tab, "f2_negative")):
        if np.any(tab < 0):
            k, i = np.unravel_index(int(np.nanargmin(tab)), tab.shape)
            witness(name, k, i, tab[k, i])
    d1 = np.diff(f1_tab, axis=0)
    if np.any(d1 > 1e-12):
        k, i = np.unravel_index(int(np.nanargmax(d1)), d1.shape)
        witness("f1_not_nonincreasing", k, i, d1[k, i], x2=xs[k + 1])
    d2 = np.diff(f2_tab, axis=0)
    if np.any(d2 < -1e-12):
        k, i = np.unravel_index(int(np.nanargmin(d2)), d2.shape)
        witness("f2_not_nondecreasing", k, i, d2[k, i], x2=xs[k + 1])
    varpi = float(np.min(f2_tab[0]))
    if varpi <= 0:
        witness("mortality_floor_nonpositive", 0, int(np.argmin(f2_tab[0])), varpi)
    return AssumptionReport(
        applicable=True, passed=not violations, varpi=varpi, n_x=N_X, violations=violations
    )


# ─── truncation constants and the contraction window ─────────────────


@dataclass(frozen=True)
class TruncationConstants:
    """Bounds of the truncated pair and the Picard window they license.

    B1, B2 bound f1~, f2~ on [0, K~] x Q; L1, L2 are their Lipschitz
    constants in X; C1 = u(Q) + 2a, C2 = L1 + 2 b L2 B1; kappa is the
    contraction factor 2b (L2 C1 + B1 + C1 C2) < 1 of the fixed-point map.
    """

    k_tilde: float
    B1: float
    B2: float
    L1: float
    L2: float
    varpi: float
    u_mass: float
    a: float
    b: float
    C1: float
    C2: float
    kappa: float

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_constants(fp: FitnessPair, u_mass: float, a: float | None = None) -> TruncationConstants:
    """B1, B2, L1, L2 of the truncated pair in closed form, and the window b.

    ``u_mass`` is u(Q), ``a`` the ball radius (default max(1, u(Q))), and K~
    is 1.1 (u(Q) + 2a).  With coefficients a, b, c >= 0, every built-in f1
    (a, a / (1 + cX), a e^(-cX)) is nonincreasing and convex in X and every
    f2 (b, floor + bX) nondecreasing and affine, also clamped to [0, K~]: so
    B1 = max f1(0) = max a, B2 = max f2(K~), L1 = max(a c) (the slope at
    X = 0; 0 without c) and L2 = max b (0 for constant rates) are bounds, not
    samples.  A custom pair has no such formulas and is refused.  b has the
    closed form of the module docstring, and both window inequalities are
    re-asserted at it.  A refusal for want of a positive window names a
    negative coefficient, if any, and the first assumption the truncated
    pair breaks on ``verify_assumptions``' lattice.
    """
    if fp.family == "custom":
        raise ValueError("a custom pair has no closed-form truncation constants; use RK4")
    a = max(1.0, u_mass) if a is None else a
    if a <= 0:
        raise ValueError("ball radius a must be positive")
    if u_mass < 0:
        raise ValueError("u_mass must be nonnegative")
    C1 = u_mass + 2.0 * a
    k_tilde = K_TILDE_FACTOR * C1
    fpt, p = fp.truncated(k_tilde), fp.params
    B1 = float(np.max(fpt.f1(0.0)))
    B2 = float(np.max(fpt.f2(k_tilde)))  # a mean-fitness pair refuses here, naming RK4
    L1 = float(np.max(p["a"] * p["c"])) if "c" in p else 0.0
    L2 = 0.0 if fp.family == "constant" else float(np.max(p["b"]))

    def refuse(reason: str):
        broken = "".join(f"; {v['kind']} at X={v['X']}, q={v['q']}"
                         for v in verify_assumptions(fpt, k_tilde).violations[:1])
        raise NumericError(f"no positive window satisfies the contraction conditions ({reason}){broken}")

    for name in ("a", "b", "c"):
        if name in p and np.min(p[name]) < 0:
            refuse(f"coefficient {name} is negative: {float(np.min(p[name]))!r}")

    # window condition 1: (1 - e^(-B2 b)) u(Q) + 2 B1 C1 b < a, increasing in b
    def g(b):
        return (1.0 - np.exp(-B2 * b)) * u_mass + 2.0 * B1 * C1 * b

    if g(1.0) < a:
        b1_star = np.inf
    else:
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < a:
                lo = mid
            else:
                hi = mid
        b1_star = lo

    # window condition 2 is A b + K b^2 < 1; this form of the root of = 0.9 cancels nothing
    A = 2.0 * (L2 * C1 + B1 + L1 * C1)
    K = 4.0 * L2 * B1 * C1
    root = np.inf if A == 0 else 1.8 / (A + np.sqrt(A * A + 3.6 * K))
    b = float(np.minimum(0.9 * np.minimum(1.0, b1_star), root))
    if not (b > 0 and np.isfinite(b)):
        refuse(f"bound from growth: {b1_star}, bound from Lipschitz terms: {root}")
    C2 = L1 + 2.0 * b * L2 * B1
    kappa = 2.0 * b * (L2 * C1 + B1 + C1 * C2)
    # both window inequalities at the result; kappa = b (A + K b) < 1 is condition 2
    if not (g(b) < a and b < 1.0 and kappa < 1.0):
        raise NumericError(f"window selection failed at b={b}")
    return TruncationConstants(
        k_tilde=float(k_tilde),
        B1=B1,
        B2=B2,
        L1=L1,
        L2=L2,
        varpi=float(np.min(fpt.f2(0.0))),
        u_mass=float(u_mass),
        a=float(a),
        b=float(b),
        C1=float(C1),
        C2=float(C2),
        kappa=float(kappa),
    )
