"""Measure core: norms, pairings and the flat metric.

Oracles used here:
  * brute-force sup over sign patterns for the TV norm,
  * closed-form integrals for pairings on grids,
  * closed-form flat distances between atoms, and from a probability
    measure to an atom,
  * the all-pairs flat-metric LP at tight HiGHS tolerances for the exact
    1-D chain program and for the closed forms,
  * an exact rational chain program on random 1-D supports, where weights
    of mixed scale are beyond the LP's accuracy.
"""

import os
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from evomeasure import (
    MeasureVec,
    StrategySpace,
    atoms,
    bl_distance,
    from_density,
    grid_1d,
    grid_2d,
    merge_supports,
    unit_atom,
    zero_measure,
)

RNG = np.random.default_rng(42)


# ─── oracles ─────────────────────────────────────────────────────────


def tv_bruteforce(weights):
    """sup over f in {-1,1}^n of <mu, f>; equals the TV norm on finite supports."""
    n = len(weights)
    best = -np.inf
    for mask in range(2**n):
        f = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(n)])
        best = max(best, float(np.dot(f, weights)))
    return best


def random_measure(space, rng, nonneg=True, scale=1.0):
    w = rng.uniform(0.0, 1.0, space.n) if nonneg else rng.uniform(-1.0, 1.0, space.n)
    return MeasureVec(space, scale * w)


def flat_lp(points, d):
    """sup <d, f> over |f| <= 1 and |f_i - f_j| <= |q_i - q_j| for every pair.

    The dense LP, solved by HiGHS at primal and dual feasibility 1e-10 (its
    default is 1e-7), so its value is good to about 1e-10 relative.
    """
    pts = np.asarray(points, dtype=float).reshape(len(d), -1)
    n = len(d)
    if n == 1:
        return abs(float(d[0]))
    iu, ju = np.triu_indices(n, k=1)
    a = np.zeros((2 * len(iu), n))
    rows = np.arange(len(iu))
    a[rows, iu], a[rows, ju] = 1.0, -1.0
    a[len(iu):] = -a[: len(iu)]
    gaps = np.sqrt(((pts[iu] - pts[ju]) ** 2).sum(axis=1))
    res = linprog(-np.asarray(d), A_ub=a, b_ub=np.concatenate([gaps, gaps]),
                  bounds=[(-1.0, 1.0)] * n, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(-res.fun)


def chain_flat_exact(points, d):
    """sup <d, f> over |f| <= 1 and |f(p) - f(q)| <= |p - q| for points on a
    line, in exact rationals (of the floats' own values).

    On sorted points only neighbours constrain f.  W(x), the best partial sum
    with the last value x, is concave and piecewise linear on [-1, 1], kept
    as its values at its breakpoints.  Across a gap g the best predecessor of
    y is W's argmax m clamped to [y - g, y + g], so the next W has its
    breakpoints among {p - g : p <= m}, {p + g : p >= m} and {-1, 1}.
    """
    order = np.argsort(points, kind="stable")
    q = [Fraction(float(points[i])) for i in order]
    d = [Fraction(d[i]) for i in order]
    xs, ws = [Fraction(-1), Fraction(1)], [-d[0], d[0]]
    for k in range(1, len(q)):
        g = q[k] - q[k - 1]
        m = xs[ws.index(max(ws))]

        def w_at(x):
            i = min(bisect_right(xs, x), len(xs) - 1)
            x0, x1, w0, w1 = xs[i - 1], xs[i], ws[i - 1], ws[i]
            return w0 + (w1 - w0) * (x - x0) / (x1 - x0)

        cands = sorted({c for c in [*(p - g for p in xs if p <= m), *(p + g for p in xs if p >= m), -1, 1]
                        if -1 <= c <= 1})
        xs, ws = cands, [w_at(min(max(m, c - g), c + g)) + d[k] * c for c in cands]
    return max(ws)


def flat_to_atom(space, p, k):
    """The flat distance from p >= 0 of unit mass to the unit atom at point k,
    sum_i p_i min(2, |q_i - q_k|): no admissible f has f(q_i) - f(q_k) above
    min(2, |q_i - q_k|), and f = min(1, |q - q_k| - 1) attains it."""
    return float(p @ np.minimum(2.0, np.linalg.norm(space.points - space.points[k], axis=1)))


def assert_flat_matches_lp(m1, m2):
    """bl_distance equals the tight all-pairs LP within 1e-12 * max(1, TV)."""
    u1, u2 = merge_supports(m1, m2)
    d = u1.weights - u2.weights
    oracle = flat_lp(u1.space.points, d)
    assert bl_distance(m1, m2) == pytest.approx(oracle, abs=1e-12 * max(1.0, np.abs(d).sum()))


# ─── spaces ──────────────────────────────────────────────────────────


def test_grid_2d_point_order_has_y_fastest():
    # cell (i, j) is point i * ny + j: the x index is the outer loop
    sp = grid_2d([[0.0, 3.0], [0.0, 2.0]], (3, 2))
    expected = [[0.5, 0.5], [0.5, 1.5], [1.5, 0.5], [1.5, 1.5], [2.5, 0.5], [2.5, 1.5]]
    assert sp.points.tolist() == expected
    assert np.all(sp.cell_volumes == 1.0)


def test_grids_refuse_a_fractional_cell_count():
    # refused with the config's message, not truncated or left to numpy
    with pytest.raises(ValueError, match="space.cells must be a whole number, got 2.5"):
        grid_1d(0.0, 1.0, 2.5)
    with pytest.raises(ValueError, match="space.cells must be a whole number, got 2.5"):
        grid_2d([[0.0, 1.0], [0.0, 1.0]], (2.5, 3))
    assert (grid_1d(0.0, 1.0, 4.0).n, grid_2d([[0.0, 1.0], [0.0, 1.0]], (2.0, 3)).n) == (4, 6)


def test_a_space_refuses_repeated_and_non_finite_entries():
    # rows equal after rounding to 12 decimals repeat a point; 0.0 and -0.0 are one coordinate
    for pts in ([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]], [[0.5], [0.2], [0.5 + 1e-14]]):
        with pytest.raises(ValueError, match="pairwise distinct"):
            atoms(pts)
    assert atoms([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]).n == 3
    # the first non-finite point, bound row or cell volume is named
    with pytest.raises(ValueError, match=r"point 1 is not finite: \[0.5, nan\]"):
        StrategySpace([[0.5, 0.5], [0.5, np.nan], [np.inf, 0.0]], [1.0] * 3, [[0.0, 1.0]] * 2)
    with pytest.raises(ValueError, match=r"bound 1 is not finite: \[0.0, inf\]"):
        StrategySpace([[0.5, 0.5]], [1.0], [[0.0, 1.0], [0.0, np.inf]])
    with pytest.raises(ValueError, match=r"cell volume 2 is not finite: inf"):
        StrategySpace([[0.1], [0.2], [0.3]], [1.0, 1.0, np.inf], [[0.0, 1.0]])


# ─── total mass and TV norm ──────────────────────────────────────────


def test_total_mass_zero_measure():
    sp = grid_1d(0.0, 1.0, 4)
    assert zero_measure(sp).total_mass() == 0.0


def test_total_mass_single_atom():
    sp = atoms([[0.3]])
    m = MeasureVec(sp, np.array([2.5]))
    assert m.total_mass() == 2.5


def test_total_mass_uniform_density():
    # density 1.0 on [1,2] with 10 cells: each weight 0.1, total 1.0
    sp = grid_1d(1.0, 2.0, 10)
    m = from_density(sp, lambda q: 1.0)
    assert np.allclose(m.weights, 0.1)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_tv_norm_two_atoms():
    sp = atoms([[0.0], [1.0]])
    assert MeasureVec(sp, np.array([1.0, -1.0])).tv_norm() == 2.0
    assert zero_measure(sp).tv_norm() == 0.0


def test_tv_norm_matches_sign_pattern_sup():
    sp = atoms([[0.0], [1.0]])
    m = MeasureVec(sp, np.array([0.3, 0.7]))
    assert m.tv_norm() == pytest.approx(tv_bruteforce(m.weights), abs=1e-15)
    assert m.tv_norm() == pytest.approx(1.0)
    # and on random signed weights
    sp6 = atoms(np.linspace(0, 1, 6)[:, None])
    for _ in range(20):
        w = RNG.uniform(-1, 1, 6)
        assert MeasureVec(sp6, w).tv_norm() == pytest.approx(tv_bruteforce(w), abs=1e-12)


def test_tv_triangle_inequality():
    sp = grid_1d(0.0, 1.0, 8)
    for _ in range(200):
        m1 = random_measure(sp, RNG, nonneg=False)
        m2 = random_measure(sp, RNG, nonneg=False)
        s = m1.add_scaled(1.0, m2)
        assert s.tv_norm() <= m1.tv_norm() + m2.tv_norm() + 1e-12


# ─── pairing ─────────────────────────────────────────────────────────


def test_pair_constant_one_is_total_mass():
    sp = grid_1d(0.0, 2.0, 16)
    m = random_measure(sp, RNG, nonneg=False)
    assert m.pair(lambda q: 1.0) == pytest.approx(m.total_mass(), abs=1e-14)


def test_pair_hand_sum_on_atoms():
    sp = atoms([[1.0], [3.0]])
    m = MeasureVec(sp, np.array([2.0, 1.0]))
    assert m.pair(lambda q: q[0]) == pytest.approx(5.0)


def test_pair_quadratic_matches_integral():
    # f(q)=q^2 against uniform weights on [0,1]: midpoint quadrature of
    # integral q^2 dq = 1/3, accurate to O(h^2)
    cells = 50
    sp = grid_1d(0.0, 1.0, cells)
    m = from_density(sp, lambda q: 1.0)
    h = 1.0 / cells
    assert m.pair(lambda q: q[0] ** 2) == pytest.approx(1.0 / 3.0, abs=h**2)


def test_pair_bounded_by_tv():
    sp = grid_1d(0.0, 1.0, 12)
    for _ in range(100):
        m = random_measure(sp, RNG, nonneg=False)
        f = RNG.uniform(-3, 3, sp.n)
        assert abs(m.pair(f)) <= np.max(np.abs(f)) * m.tv_norm() + 1e-12


# ─── add_scaled ──────────────────────────────────────────────────────


def test_add_scaled_cases():
    sp = atoms([[0.0], [1.0]])
    m1 = MeasureVec(sp, np.array([1.0, 2.0]))
    m2 = MeasureVec(sp, np.array([1.0, 3.0]))
    assert np.array_equal(m1.add_scaled(0.0, m2).weights, m1.weights)
    assert np.array_equal(m1.add_scaled(-1.0, m1).weights, np.zeros(2))
    assert np.array_equal(m1.add_scaled(2.0, m2).weights, np.array([3.0, 8.0]))


def test_add_scaled_space_mismatch_raises():
    m1 = MeasureVec(atoms([[0.0]]), np.array([1.0]))
    m2 = MeasureVec(atoms([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        m1.add_scaled(1.0, m2)


# ─── flat metric ─────────────────────────────────────────────────────


def test_bl_identical_measures():
    sp = grid_1d(0.0, 1.0, 8)
    m = random_measure(sp, RNG)
    assert bl_distance(m, m) == 0.0


@pytest.mark.parametrize("eps", [0.25, 0.5, 1.5])
def test_bl_two_unit_atoms(eps):
    # optimal f is f(q) = q - eps/2 clipped to [-1,1]: value eps for eps < 2
    sp = atoms([[0.0], [eps]])
    d = bl_distance(unit_atom(sp, 0), unit_atom(sp, 1))
    assert d == pytest.approx(eps, abs=1e-9)


def test_bl_atom_vs_zero():
    sp = atoms([[0.7]])
    d = bl_distance(unit_atom(sp, 0), zero_measure(sp))
    assert d == pytest.approx(1.0, abs=1e-9)


def test_bl_far_atoms_saturate_at_two():
    # when the support distance exceeds 2, the sup-norm box binds: d = 2
    sp = atoms([[0.0], [10.0]])
    assert bl_distance(unit_atom(sp, 0), unit_atom(sp, 1)) == pytest.approx(2.0, abs=1e-9)


def test_bl_merges_distinct_supports():
    m1 = MeasureVec(atoms([[0.0]]), np.array([1.0]))
    m2 = MeasureVec(atoms([[0.5]]), np.array([1.0]))
    assert bl_distance(m1, m2) == pytest.approx(0.5, abs=1e-9)


def test_bl_below_tv():
    sp = grid_1d(0.0, 1.0, 9)
    for _ in range(50):
        m1 = random_measure(sp, RNG)
        m2 = random_measure(sp, RNG)
        diff_tv = m1.add_scaled(-1.0, m2).tv_norm()
        assert bl_distance(m1, m2) <= diff_tv + 1e-9


# The 1-D flat metric is the exact chain program over sorted neighbours;
# the dense LP at tight tolerances is its oracle.


def test_bl_neighbour_lp_matches_all_pairs_on_random_grids():
    for _ in range(20):
        lo = RNG.uniform(-3.0, 1.0)
        sp = grid_1d(lo, lo + RNG.uniform(0.5, 6.0), int(RNG.integers(2, 40)))
        assert_flat_matches_lp(random_measure(sp, RNG, nonneg=False), random_measure(sp, RNG))


def test_bl_neighbour_lp_matches_all_pairs_on_unsorted_atoms():
    # support spread over [0, 6.5], so some gaps exceed 2 and the box binds
    # too; the first atom is the rightmost, so the order is never sorted
    for _ in range(20):
        x = RNG.uniform(0.0, 6.0, int(RNG.integers(2, 25)))
        x[0] = 6.5
        sp = atoms(x)
        assert_flat_matches_lp(random_measure(sp, RNG, nonneg=False),
                               random_measure(sp, RNG, scale=2.0))


def test_bl_neighbour_lp_matches_all_pairs_on_merged_supports():
    for _ in range(10):
        grid = grid_1d(0.0, 2.0, int(RNG.integers(3, 30)))
        sp = atoms(RNG.uniform(-1.0, 3.0, int(RNG.integers(1, 10))))
        m1 = random_measure(grid, RNG)
        m2 = random_measure(sp, RNG, scale=0.5)
        assert merge_supports(m1, m2)[0].space.n > grid.n
        assert_flat_matches_lp(m1, m2)


@pytest.mark.parametrize("points", [[0.3], [1.2, -0.4], [0.0, 2.5]], ids=["n1", "n2", "n2_far"])
def test_bl_neighbour_lp_matches_all_pairs_on_tiny_supports(points):
    sp = atoms(points)
    for _ in range(5):
        assert_flat_matches_lp(random_measure(sp, RNG, nonneg=False), random_measure(sp, RNG))


def test_bl_chain_matches_all_pairs_lp_near_a_dirac():
    # a concentrating state against a unit atom, the distance dirac-limit
    # reports (in the closed form of test_flat_distance_to_an_atom_...)
    sp = grid_1d(0.0, 2.0, 64)
    for _ in range(10):
        k = int(RNG.integers(sp.n))
        w = RNG.uniform(0.0, 1.0, sp.n) * 10.0 ** RNG.uniform(-8, -2)
        w[k] = 1.0 - w.sum() + w[k]
        assert_flat_matches_lp(MeasureVec(sp, w), unit_atom(sp, k))


@settings(max_examples=60, deadline=None)
@given(
    ticks=st.lists(st.integers(-4000, 4000), min_size=1, max_size=30, unique=True),
    step=st.floats(1e-3, 0.5),
    data=st.data(),
)
def test_bl_chain_matches_all_pairs_lp_on_random_supports(ticks, step, data):
    # atoms on a random lattice: uneven gaps, some beyond 2, any order
    sp = atoms(np.array(ticks, dtype=float) * step)
    weights = st.lists(st.floats(-2.0, 2.0), min_size=sp.n, max_size=sp.n)
    w1, w2 = np.array(data.draw(weights)), np.array(data.draw(weights))
    exact = chain_flat_exact(sp.points[:, 0], [Fraction(a) - Fraction(b) for a, b in zip(w1, w2)])
    d = bl_distance(MeasureVec(sp, w1), MeasureVec(sp, w2))
    assert d == pytest.approx(float(exact), abs=1e-12 * max(1.0, np.abs(w1 - w2).sum()))


@pytest.mark.parametrize("d, exact", [([1.0, -1e-12], 1.000000000000002), ([0.0, -1e-12], 1e-12)])
def test_bl_chain_is_exact_on_weights_of_mixed_scale(d, exact):
    # the tight LP misses both by about 1e-12; the first is 1 + 1e-12 * 0.00195, rounded
    sp = atoms([0.0, 1.00195])
    assert float(chain_flat_exact(sp.points[:, 0], d)) == exact
    assert bl_distance(MeasureVec(sp, np.array(d)), zero_measure(sp)) == pytest.approx(exact, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["grid1d", "atoms1d", "grid2d", "atoms2d"]), seed=st.integers(0, 2**32 - 1))
def test_flat_distance_to_an_atom_is_the_closed_form(kind, seed):
    # what dirac-limit reports: a state of unit mass, often near the atom,
    # on supports wide enough that some distances saturate at 2
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    if kind == "grid1d":
        sp = grid_1d(0.0, rng.uniform(0.5, 6.0), n)
    elif kind == "atoms1d":
        sp = atoms(rng.uniform(-3.0, 3.0, n))
    elif kind == "grid2d":
        sp = grid_2d([[0.0, rng.uniform(0.5, 3.0)], [0.0, rng.uniform(0.5, 3.0)]], rng.integers(1, 6, 2))
    else:
        sp = atoms(rng.uniform(-1.5, 1.5, (n, 2)))
    k = int(rng.integers(sp.n))
    w = rng.uniform(0.0, 1.0, sp.n) * 10.0 ** rng.uniform(-8.0, 0.0)
    w[k] = rng.uniform(0.0, 1.0)
    p = w / w.sum()
    closed = flat_to_atom(sp, p, k)
    if sp.dim == 1:
        assert closed == pytest.approx(bl_distance(MeasureVec(sp, p), unit_atom(sp, k)), abs=1e-13)
    else:
        assert closed == pytest.approx(flat_lp(sp.points, p - unit_atom(sp, k).weights), abs=1e-12)


def test_one_dimensional_runs_import_no_scipy():
    # scipy serves only the 2-D LP; the CLI and every 1-D distance run on numpy
    code = (
        "import sys\n"
        "import evomeasure.cli\n"
        "from evomeasure import bl_distance, grid_1d, grid_2d, unit_atom\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded(), loaded()\n"
        "sp = grid_1d(0.0, 1.0, 8)\n"
        "bl_distance(unit_atom(sp, 1), unit_atom(sp, 6))\n"
        "assert not loaded(), loaded()\n"
        "plane = grid_2d([[0.0, 1.0], [0.0, 1.0]], (2, 2))\n"
        "print(repr(bl_distance(unit_atom(plane, 0), unit_atom(plane, 3))))\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the 2-D distance is still the LP's: atoms (0.25, 0.25) and (0.75, 0.75)
    plane = grid_2d([[0.0, 1.0], [0.0, 1.0]], (2, 2))
    d = unit_atom(plane, 0).weights - unit_atom(plane, 3).weights
    assert float(proc.stdout) == pytest.approx(flat_lp(plane.points, d), abs=1e-8)


# ─── nonnegativity flag ──────────────────────────────────────────────


def test_nonneg_flag_tolerates_roundoff():
    sp = atoms([[0.0], [1.0]])
    m = MeasureVec(sp, np.array([1.0, -1e-13]))
    assert m.is_nonnegative()
    m2 = MeasureVec(sp, np.array([1.0, -1e-6]))
    assert not m2.is_nonnegative()


def test_merge_supports_zero_fills():
    m1 = MeasureVec(atoms([[0.0], [1.0]]), np.array([1.0, 2.0]))
    m2 = MeasureVec(atoms([[1.0], [2.0]]), np.array([3.0, 4.0]))
    u1, u2 = merge_supports(m1, m2)
    assert u1.space.n == 3
    assert u1.total_mass() == pytest.approx(3.0)
    assert u2.total_mass() == pytest.approx(7.0)
    # the shared point q = 1 is merged index 1 and keeps both weights
    assert u1.space.points[1, 0] == 1.0
    assert u1.weights[1] == 2.0
    assert u2.weights[1] == 3.0
