"""Fitness pairs: families, truncation, assumptions, window constants.

The contraction-window oracle below re-derives b by hand from both window
inequalities (a tiny bisection plus plain fixed-point iterations on the
Lipschitz bound), so the package's closed-form root is checked against an
independent route.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evomeasure import (
    ConfigError,
    NumericError,
    atoms,
    beverton_holt_pair,
    constant_pair,
    custom_pair,
    estimate_constants,
    grid_1d,
    grid_2d,
    logistic_pair,
    mean_fitness_pair,
    ricker_pair,
    verify_assumptions,
)
from evomeasure.fitness import fitness_from_config
from oracles import random_pair, random_problem


def growth_bound(B1, B2, u_mass, a):
    """Supremum b1* of the windows that satisfy the mass-growth inequality."""
    C1 = u_mass + 2 * a

    def g(b):
        return (1 - np.exp(-B2 * b)) * u_mass + 2 * B1 * C1 * b

    if g(1.0) < a:
        return np.inf
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) < a else (lo, mid)
    return lo


def window_oracle(B1, B2, L1, L2, u_mass, a, n_iter=60):
    """Hand evaluation of the two window inequalities with the 0.9 factor."""
    C1 = u_mass + 2 * a
    b1 = growth_bound(B1, B2, u_mass, a)
    b = 0.9 * min(1.0, b1)
    for _ in range(n_iter):
        C2 = L1 + 2 * b * L2 * B1
        denom = 2 * L2 * C1 + 2 * B1 + 2 * C2 * C1
        bound2 = np.inf if denom == 0 else 1.0 / denom
        b = 0.9 * min(1.0, b1, bound2)
    return b


# ─── evaluation ──────────────────────────────────────────────────────


def test_logistic_eval_at_zero_density():
    # two-trait classes: birth = q1, mortality = floor + q2 X
    sp = atoms([[1.0, 1.0], [1.5, 2.0]])
    fp = logistic_pair(sp, a={"trait": 0}, b={"trait": 1}, floor=0.1)
    assert fp.f1(0.0)[0] == 1.0
    assert fp.f1(0.0)[1] == 1.5
    assert fp.f2(0.0)[0] == pytest.approx(0.1)
    assert fp.f2(2.0)[1] == pytest.approx(0.1 + 2.0 * 2.0)


def test_beverton_holt_degenerate_c():
    sp = grid_1d(0.0, 1.0, 4)
    fp = beverton_holt_pair(sp, a=2.0, c=0.0, b=1.0)
    for X in (0.0, 1.0, 7.5):
        assert np.allclose(fp.f1(X), 2.0)


def test_ricker_hand_value():
    sp = atoms([[0.5]])
    fp = ricker_pair(sp, a=2.0, c=1.0, b=1.0)
    assert fp.f1(np.log(2.0))[0] == pytest.approx(1.0, rel=1e-14)


def test_coefficient_array_length_checked():
    # named by its shape: a (4, 1) column has 4 entries, but not the shape (4,)
    sp = grid_1d(0.0, 1.0, 4)
    with pytest.raises(ValueError, match=r"coefficient a has shape \(2,\), space has 4 points"):
        constant_pair(sp, a=[1.0, 2.0], b=1.0)
    with pytest.raises(ValueError, match=r"coefficient b has shape \(4, 1\), space has 4 points"):
        logistic_pair(sp, a=1.0, b=[[0.5]] * 4)


# ─── truncation ──────────────────────────────────────────────────────


def test_truncation_clamps_both_ends():
    sp = grid_1d(0.0, 1.0, 5)
    fp = ricker_pair(sp, a=2.0, c=1.0, b=0.5, floor=0.2).truncated(3.0)
    assert np.array_equal(fp.f1(-5.0), fp.f1(0.0))
    assert np.array_equal(fp.f2(-5.0), fp.f2(0.0))
    assert np.array_equal(fp.f1(13.0), fp.f1(3.0))
    assert np.array_equal(fp.f2(13.0), fp.f2(3.0))


def test_truncation_identity_inside_range():
    sp = grid_1d(0.0, 1.0, 5)
    raw = ricker_pair(sp, a=2.0, c=1.0, b=0.5)
    fp = raw.truncated(3.0)
    for X in np.linspace(0.0, 3.0, 13):
        assert np.array_equal(fp.f1(X), raw.f1(X))
        assert np.array_equal(fp.f2(X), raw.f2(X))


def test_truncation_refuses_a_nan_level():
    # a NaN level would turn every clamped table to NaN
    fp = ricker_pair(grid_1d(0.0, 1.0, 5), a=2.0, c=1.0, b=0.5)
    for bad in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="k_tilde must be positive"):
            fp.truncated(bad)


def test_truncation_idempotent():
    sp = grid_1d(0.0, 1.0, 5)
    fp1 = ricker_pair(sp, a=2.0, c=1.0, b=0.5).truncated(3.0)
    fp2 = fp1.truncated(3.0)
    for X in (-2.0, 0.0, 1.7, 3.0, 9.0):
        assert np.array_equal(fp1.f1(X), fp2.f1(X))
        assert np.array_equal(fp1.f2(X), fp2.f2(X))


# ─── rate tables over a column of masses ─────────────────────────────


@settings(max_examples=80, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 6),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant", "mean_fitness"]),
    truncate=st.booleans(),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_tables_are_the_stacked_per_mass_rates_bitwise(space_kind, n, family, truncate, m, seed):
    # masses below 0, inside [0, K~], at both ends and above K~
    rng = np.random.default_rng(seed)
    sp = random_problem(rng, space_kind, n, "dirac")[0]
    fp = random_pair(rng, sp, family)
    k_tilde = float(rng.uniform(0.5, 4.0))
    if truncate:
        fp = fp.truncated(k_tilde)
    masses = np.concatenate([[0.0, k_tilde], rng.uniform(-1.0, 2.0 * k_tilde, m)])
    f1_want = np.stack([fp.f1(x) for x in masses])
    assert np.broadcast_to(fp.f1(masses[:, None]), f1_want.shape).tobytes() == f1_want.tobytes()
    if family == "mean_fitness":
        with pytest.raises(ValueError, match="use RK4"):
            fp.tables(masses)
        return
    f1_tab, f2_tab = fp.tables(masses)
    f2_want = np.stack([fp.f2(x) for x in masses])
    assert f1_tab.shape == f2_tab.shape == (len(masses), sp.n)
    assert f1_tab.tobytes() == f1_want.tobytes()
    assert f2_tab.tobytes() == f2_want.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 6),
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant"]),
    truncate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_scalar_b_and_c_factor_the_rates(space_kind, n, family, truncate, seed):
    # f1(X) = phi(x) a and f2(X) = psi(x) at the clamped mass x, within 4 ulp,
    # on a lattice of X through K~ and past it
    rng = np.random.default_rng(seed)
    sp = random_problem(rng, space_kind, n, "dirac")[0]
    fp = random_pair(rng, sp, family, scalar=True)
    k_tilde = float(rng.uniform(0.5, 4.0))
    if truncate:
        fp = fp.truncated(k_tilde)
        assert fp.factors is not None
    a, phi, psi = fp.factors
    assert a.tobytes() == fp.f1(0.0).tobytes()
    for X in np.linspace(0.0, 1.2 * k_tilde, 61).tolist():
        x = X if fp.k_tilde is None else min(X, fp.k_tilde)
        for got, want in ((phi(x) * a, fp.f1(X)), (np.full(sp.n, psi(x)), fp.f2(X))):
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), (X, got, want)


def test_vector_coefficients_custom_and_mean_fitness_pairs_do_not_factor():
    sp = grid_1d(0.0, 1.0, 4)
    rng = np.random.default_rng(0)
    for family in ("logistic", "beverton_holt", "ricker", "constant", "mean_fitness"):
        assert random_pair(rng, sp, family).factors is None
        assert random_pair(rng, sp, family).truncated(2.0).factors is None
        assert fitness_from_config({"family": family, "a": 1.0, "b": {"trait": 0}}, sp).factors is None
    # a negative c, whose phi in Python floats could overflow
    assert ricker_pair(sp, a=1.0, c=-1.0, b=0.5).factors is None
    assert beverton_holt_pair(sp, a=1.0, c=-1.0, b=0.5).factors is None
    assert custom_pair(sp, lambda X, q: np.ones(len(q)), lambda X, q: np.ones(len(q))).factors is None
    assert mean_fitness_pair(sp, 1.0).factors is None


def test_custom_pair_callables_broadcast_over_a_column():
    sp = grid_2d([[0.0, 1.0], [0.0, 2.0]], (3, 2))
    q = sp.points
    fp = custom_pair(sp, lambda X, pts: 2.0 * np.exp(-X * pts[:, 0]),
                     lambda X, pts: 0.1 + X * pts[:, 1] ** 2).truncated(3.0)
    masses = np.array([-0.5, 0.0, 0.7, 3.0, 4.2])
    f1_tab, f2_tab = fp.tables(masses)
    clamped = np.clip(masses, 0.0, 3.0)
    for k, X in enumerate(clamped):
        assert np.array_equal(f1_tab[k], 2.0 * np.exp(-X * q[:, 0]))
        assert np.array_equal(f2_tab[k], 0.1 + X * q[:, 1] ** 2)
    assert verify_assumptions(fp, k_tilde=3.0).passed


# ─── assumption verification ─────────────────────────────────────────


def test_assumptions_pass_for_ricker():
    sp = grid_1d(0.0, 2.0, 8)
    fp = ricker_pair(sp, a=2.0, c=0.5, b=1.0, floor=0.25)
    report = verify_assumptions(fp, k_tilde=5.0)
    assert report.applicable and report.passed
    assert report.varpi == pytest.approx(0.25)


def test_assumptions_fail_without_mortality_floor():
    # f2 = b(q) X has f2(0, q) = 0: no inherent mortality
    sp = grid_1d(0.0, 2.0, 8)
    fp = logistic_pair(sp, a=1.0, b=1.0, floor=0.0)
    report = verify_assumptions(fp, k_tilde=5.0)
    assert not report.passed
    assert report.varpi == 0.0
    assert any(v["kind"] == "mortality_floor_nonpositive" for v in report.violations)


def test_assumptions_catch_increasing_birth_rate():
    sp = grid_1d(0.0, 1.0, 4)
    fp = custom_pair(sp, lambda X, pts: (1.0 + X) * np.ones(len(pts)),
                     lambda X, pts: np.ones(len(pts)))
    report = verify_assumptions(fp, k_tilde=4.0)
    assert not report.passed
    bad = [v for v in report.violations if v["kind"] == "f1_not_nonincreasing"]
    assert bad and "X" in bad[0] and "q" in bad[0]


def test_assumptions_not_applicable_for_mean_fitness():
    sp = grid_1d(0.0, 1.0, 4)
    fp = mean_fitness_pair(sp, 1.0)
    report = verify_assumptions(fp)
    assert not report.applicable


def test_mean_fitness_f2_refuses_with_the_rk4_hint():
    # every Picard or constants path evaluates f2, so this is the one refusal
    fp = mean_fitness_pair(grid_1d(0.0, 1.0, 4), 1.0)
    assert np.array_equal(fp.f1(0.5), np.ones(4))
    for pair in (fp, fp.truncated(3.0)):
        with pytest.raises(ValueError, match="outside the contraction theory; use RK4"):
            pair.f2(0.5)


# ─── truncation constants and the window ─────────────────────────────


def test_constants_constant_pair_match_hand_oracle():
    sp = grid_1d(0.0, 1.0, 4)
    fp = constant_pair(sp, a=1.0, b=1.0)
    u_mass, ball = 1.0, 1.0
    tc = estimate_constants(fp, u_mass, ball)
    assert tc.B1 == 1.0 and tc.B2 == 1.0
    assert tc.L1 == 0.0 and tc.L2 == 0.0
    assert tc.C2 == 0.0
    expected_b = window_oracle(1.0, 1.0, 0.0, 0.0, u_mass, ball)
    assert tc.b == pytest.approx(expected_b, rel=1e-9)
    # the mass-growth inequality binds here, well before 1/(2 B1)
    assert tc.b < 0.5


def test_constants_dead_birth_case():
    sp = grid_1d(0.0, 1.0, 4)
    fp = constant_pair(sp, a=0.0, b=1.0)
    tc = estimate_constants(fp, 1.0, 1.0)
    assert tc.B1 == 0.0


def test_constants_window_inequalities_hold_with_margin():
    sp = grid_1d(0.0, 2.0, 16)
    fp = ricker_pair(sp, a=2.0, c=0.6, b=0.5, floor=0.2)
    for u_mass, ball in [(1.0, 1.0), (0.3, 1.0), (2.0, 2.5)]:
        tc = estimate_constants(fp, u_mass, ball)
        lhs1 = (1 - np.exp(-tc.B2 * tc.b)) * u_mass + 2 * tc.B1 * tc.C1 * tc.b
        assert lhs1 < ball
        bound2 = 1.0 / (2 * tc.L2 * tc.C1 + 2 * tc.B1 + 2 * tc.C2 * tc.C1)
        assert tc.b < min(1.0, bound2)
        # the 0.9 construction factor leaves at least 10% headroom
        assert tc.b <= 0.9 * bound2 + 1e-12 or lhs1 <= 0.99 * ball
        assert tc.kappa < 1.0
        assert tc.kappa == pytest.approx(2 * tc.b * (tc.L2 * tc.C1 + tc.B1 + tc.C1 * tc.C2))


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["constant", "logistic", "beverton_holt", "ricker"]),
    space_kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 5),
    u_mass=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_constants_are_bounds_of_the_truncated_rates(family, space_kind, n, u_mass, seed):
    # every coefficient a scalar or one entry per point, c up to 30, where a
    # lattice's divided differences fall furthest below the slope at X = 0
    rng = np.random.default_rng(seed)
    sp = random_problem(rng, space_kind, n, "dirac")[0]
    draw = lambda hi: rng.uniform(0.0, hi, sp.n) if rng.random() < 0.5 else float(rng.uniform(0.0, hi))
    a, b, c, floor = draw(3.0), draw(3.0), draw(30.0), float(rng.uniform(0.0, 0.5))
    if family == "constant":
        fp, c = constant_pair(sp, a, b), 0.0
    elif family == "logistic":
        fp, c = logistic_pair(sp, a, b, floor=floor), 0.0
    elif family == "beverton_holt":
        fp = beverton_holt_pair(sp, a, c, b, floor=floor)
    else:
        fp = ricker_pair(sp, a, c, b, floor=floor)
    tc = estimate_constants(fp, u_mass)
    assert all(type(v) is float for v in asdict(tc).values())
    assert tc.kappa < 1.0
    fpt = fp.truncated(tc.k_tilde)
    assert tc.B1 == np.max(fpt.f1(0.0)) and tc.B2 == np.max(fpt.f2(tc.k_tilde))
    # B and L bound the tables and their divided differences on a fine
    # lattice, up to 1e-12 relative and the rounding of the tabulated rates
    # (an affine f2's differences exceed b by about 3e-12 relative from it)
    eps = np.finfo(float).eps
    xs = np.linspace(0.0, tc.k_tilde, 10001)
    for tab, B, L in zip(fpt.tables(xs), (tc.B1, tc.B2), (tc.L1, tc.L2)):
        assert tab.max() <= B
        slack = 4.0 * eps * np.abs(tab).max(axis=0)
        assert np.all(np.abs(np.diff(tab, axis=0)) <= L * (1.0 + 1e-12) * np.diff(xs)[:, None] + slack)
    # L1, L2 are the slopes at X = 0: forward quotients there are off by at
    # most h max(a c^2) (the convex f1's curvature) plus their round-off
    h = 1e-6
    slope1 = -(fpt.f1(h) - fpt.f1(0.0)) / h
    slope2 = (fpt.f2(h) - fpt.f2(0.0)) / h
    tol1 = h * np.max(np.multiply(a, np.square(c))) + 4.0 * eps * tc.B1 / h + eps * tc.L1
    assert abs(np.max(slope1) - tc.L1) <= tol1
    assert abs(np.max(slope2) - tc.L2) <= 4.0 * eps * np.max(fpt.f2(h)) / h + eps * tc.L2


def test_constants_bound_the_steep_beverton_holt_pair():
    # the reference problem's a with c = 20: the slope at X = 0 is max(a c),
    # a third above the largest divided difference on a 201-mass lattice
    # (29.96), and kappa is a bound at the shorter window it licenses
    sp = grid_1d(0.0, 2.0, 64)
    fp = beverton_holt_pair(sp, a=1.0 + sp.points[:, 0] / 2.0, c=20.0, b=0.5, floor=0.2)
    tc = estimate_constants(fp, 1.0)
    assert tc.L1 == 39.84375
    assert tc.b < 0.0048
    assert tc.kappa == pytest.approx(0.9)


def test_constants_refuse_a_custom_pair():
    fp = custom_pair(grid_1d(0.0, 1.0, 4), lambda X, pts: np.exp(-X) * np.ones(len(pts)),
                     lambda X, pts: 0.5 + X * np.ones(len(pts)))
    with pytest.raises(ValueError, match="custom pair has no closed-form truncation constants; use RK4"):
        estimate_constants(fp, 1.0, 1.0)


def test_constants_lipschitz_self_consistent():
    sp = grid_1d(0.0, 2.0, 8)
    fp = ricker_pair(sp, a=2.0, c=0.7, b=0.4, floor=0.3)
    tc = estimate_constants(fp, 1.0, 1.0)
    fpt = fp.truncated(tc.k_tilde)
    xs = np.linspace(0.0, tc.k_tilde, 101)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x1, x2 = rng.choice(xs, 2)
        assert np.all(np.abs(fpt.f1(x1) - fpt.f1(x2)) <= tc.L1 * abs(x1 - x2) + 1e-9)
        assert np.all(np.abs(fpt.f2(x1) - fpt.f2(x2)) <= tc.L2 * abs(x1 - x2) + 1e-9)


def test_constants_without_a_window_raise_a_numeric_error():
    # a negative c makes the birth rate grow in X (exp(400 X) overflows its
    # table): the refusal names the coefficient and where f1 increases
    fp = ricker_pair(grid_1d(0.0, 2.0, 8), a=1.0, c=-400.0, b=0.5, floor=0.2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"no positive window .* \(coefficient c is negative: "
                           r"-400\.0\); f1_not_nonincreasing at X=1\.749, q=\[0\.125\]$"):
            estimate_constants(fp, 1.0, 1.0)


@pytest.mark.parametrize("name, witness", [("a", "f1_negative"), ("b", "f2_negative")])
def test_constants_name_a_negative_coefficient(name, witness):
    # max(a c) and max b are no Lipschitz bounds once a coefficient is negative
    sp = grid_1d(0.0, 2.0, 8)
    coefs = {"a": 1.0, "c": 0.5, "b": 0.5} | {name: np.where(np.arange(8) == 3, -0.5, 1.0)}
    fp = ricker_pair(sp, floor=0.2, **coefs)
    with pytest.raises(NumericError, match=rf"\(coefficient {name} is negative: -0\.5\); {witness} at X="):
        estimate_constants(fp, 1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["logistic", "beverton_holt", "ricker", "constant"]),
    n=st.integers(1, 6),
    u_mass=st.floats(0.0, 5.0),
    a=st.one_of(st.none(), st.floats(0.05, 5.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_is_the_closed_form_root(family, n, u_mass, a, seed):
    # b is the oracle's limit to round-off; where the Lipschitz bound binds it
    # solves A b + K b^2 = 0.9, condition 2 with its 0.9 margin
    fp = random_pair(np.random.default_rng(seed), grid_1d(0.0, 1.0, n), family)
    tc = estimate_constants(fp, u_mass, a)
    ball = max(1.0, u_mass) if a is None else a
    assert tc.a == ball
    expected = window_oracle(tc.B1, tc.B2, tc.L1, tc.L2, u_mass, ball)
    assert abs(tc.b - expected) <= 1e-14 * expected
    A = 2 * (tc.L2 * tc.C1 + tc.B1 + tc.L1 * tc.C1)
    K = 4 * tc.L2 * tc.B1 * tc.C1
    if tc.b < 0.9 * min(1.0, growth_bound(tc.B1, tc.B2, u_mass, ball)):
        assert abs(A * tc.b + K * tc.b**2 - 0.9) <= 1e-14
    if a is None:
        assert tc == estimate_constants(fp, u_mass, max(1.0, u_mass))


@pytest.mark.parametrize("rate", ["f1", "f2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constants_refuse_nonfinite_rate_tables(rate, bad):
    # a non-finite coefficient is refused when the pair is built, and finite
    # ones whose constants overflow (L1 = a c of f1, or B2 = floor + b K~ and
    # L2 = b of f2) leave no positive window
    sp = grid_1d(0.0, 1.0, 4)
    if rate == "f1":
        pair = lambda big: ricker_pair(sp, a=big, c=1e10, b=0.5, floor=0.2)
    else:
        pair = lambda big: logistic_pair(sp, a=1.0, b=big, floor=0.2)
    with pytest.raises(ConfigError, match="is not finite"):
        pair(bad)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="no positive window"):
            estimate_constants(pair(1e308), 1.0, 1.0)


def test_assumption_witnesses_skip_nan_differences():
    # exp(400 X) overflows to inf, so inf - inf differences are NaN; the
    # witness is the largest non-NaN increase, an inf one
    fp = ricker_pair(grid_1d(0.0, 2.0, 8), a=1.0, c=-400.0, b=0.5, floor=0.2)
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_assumptions(fp, k_tilde=3.3)
    (witness,) = [v for v in report.violations if v["kind"] == "f1_not_nonincreasing"]
    assert witness["value"] == np.inf
    assert witness["X"] == pytest.approx(1.749)
    assert not any(np.isnan(v["value"]) for v in report.violations)


def test_constants_reject_mean_fitness_and_bad_inputs():
    sp = grid_1d(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="contraction"):
        estimate_constants(mean_fitness_pair(sp, 1.0), 1.0, 1.0)
    fp = constant_pair(sp, 1.0, 1.0)
    with pytest.raises(ValueError):
        estimate_constants(fp, 1.0, 0.0)
    # K~ is 1.1 (u(Q) + 2a), above u(Q) + 2a
    assert estimate_constants(fp, 1.0, 1.0).k_tilde == pytest.approx(1.1 * 3.0)


# ─── config loading ──────────────────────────────────────────────────


def test_fitness_from_config_families():
    sp = grid_1d(0.0, 1.0, 4)
    for family, extra in [
        ("constant", {"a": 1.0, "b": 0.5}),
        ("logistic", {"a": 1.0, "b": 0.5}),
        ("beverton_holt", {"a": 1.0, "c": 0.3, "b": 0.5}),
        ("ricker", {"a": 1.0, "c": 0.3, "b": 0.5}),
    ]:
        fp = fitness_from_config({"family": family, **extra}, sp)
        assert fp.family == family
        assert np.all(fp.f1(0.5) >= 0)
    fp = fitness_from_config({"family": "mean_fitness", "a": 2.0}, sp)
    assert fp.mean_fitness_mortality
    with pytest.raises(ValueError):
        fitness_from_config({"family": "nope", "a": 1.0}, sp)
