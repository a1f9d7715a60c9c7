"""Mutation kernels: row extraction, density discretization, continuity.

The density-discretization oracle integrates p over each cell with a 4x
finer midpoint quadrature and renormalizes, independently of the kernel
code path.  The broadcast Gaussian and uniform tables are checked bitwise
against the scalar density path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evomeasure import (
    MeasureVec,
    MutationKernel,
    StrategySpace,
    atoms,
    dirac_kernel,
    gaussian_kernel,
    grid_1d,
    grid_2d,
    kernel_from_density,
    matrix_kernel,
    uniform_kernel,
)
from evomeasure.kernels import kernel_from_config


def fine_quadrature_rows(space, p, refine=4):
    """Oracle: per-source row of cell probabilities via subcell midpoints."""
    n = space.n
    h = space.cell_volumes[0]
    rows = np.zeros((n, n))
    for j in range(n):
        qhat = space.points[j]
        for i in range(n):
            lo = space.points[i, 0] - 0.5 * h
            sub = lo + h * (np.arange(refine) + 0.5) / refine
            rows[j, i] = np.mean([p(np.array([x]), qhat) for x in sub]) * h
        rows[j] /= rows[j].sum()
    return rows


# ─── construction and apply ──────────────────────────────────────────


def test_dirac_apply_is_exact_unit_atom():
    sp = grid_1d(0.0, 1.0, 8)
    k = dirac_kernel(sp)
    for j in (0, 3, 7):
        m = k.apply(j)
        expected = np.zeros(8)
        expected[j] = 1.0
        assert np.array_equal(m.weights, expected)
        assert m.total_mass() == 1.0


def test_matrix_row_extraction():
    sp = grid_1d(0.0, 1.0, 2)
    k = matrix_kernel(sp, [[0.2, 0.8], [0.5, 0.5]])
    assert np.array_equal(k.apply(0).weights, [0.2, 0.8])
    assert np.array_equal(k.apply(1).weights, [0.5, 0.5])


def test_apply_index_out_of_range():
    k = dirac_kernel(grid_1d(0.0, 1.0, 4))
    with pytest.raises(IndexError):
        k.apply(4)


def test_matrix_rows_validated():
    sp = grid_1d(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        matrix_kernel(sp, [[0.2, 0.9], [0.5, 0.5]])
    with pytest.raises(ValueError):
        matrix_kernel(sp, [[-0.1, 1.1], [0.5, 0.5]])


def test_matrix_rows_must_be_finite():
    # a NaN entry makes both `rows < 0` and the row-sum test False
    sp = grid_1d(0.0, 1.0, 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="row 0 column 1"):
            matrix_kernel(sp, [[0.5, bad], [0.5, 0.5]])


def test_constructors_leave_the_callers_arrays_writeable():
    # each constructor freezes its own copy, never the array it was given
    sp = grid_1d(0.0, 1.0, 3)
    arrays = [np.eye(3), np.eye(3), np.ones(3), sp.points.copy(), np.ones(3)]
    built = [matrix_kernel(sp, arrays[0]), MutationKernel(sp, rows=arrays[1]), MeasureVec(sp, arrays[2]),
             StrategySpace(points=arrays[3], cell_volumes=arrays[4])]
    assert all(a.flags.writeable for a in arrays)
    arrays[0][0, 0] = arrays[2][0] = arrays[3][0, 0] = arrays[4][0] = 0.5
    assert built[0].rows[0, 0] == 1.0 and built[2].weights[0] == 1.0
    assert built[3].points[0, 0] == sp.points[0, 0] and built[3].cell_volumes[0] == 1.0


def test_gaussian_sigma_must_be_positive_and_finite():
    sp = grid_1d(0.0, 1.0, 4)
    for sigma in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            gaussian_kernel(sp, sigma)
    # 2 sigma^2 underflows to 0 (a ZeroDivisionError) or to a subnormal (an infinite exponent)
    for sigma in (1e-300, 1e-160):
        with pytest.raises(ValueError, match=f"1 / \\(2 sigma\\^2\\) finite, got {sigma!r}"):
            gaussian_kernel(sp, sigma)
    # a small width that passes keeps a finite, unit diagonal
    assert np.array_equal(gaussian_kernel(sp, 1e-150).rows, np.eye(4))


def test_rows_are_probability_measures():
    sp = grid_1d(0.0, 2.0, 16)
    for k in (dirac_kernel(sp), uniform_kernel(sp), gaussian_kernel(sp, 0.3)):
        for j in range(sp.n):
            m = k.apply(j)
            assert m.is_nonnegative()
            assert abs(m.total_mass() - 1.0) <= 1e-10


# ─── from_density ────────────────────────────────────────────────────


def test_uniform_density_rows():
    sp = grid_1d(0.0, 2.0, 5)
    k = kernel_from_density(sp, lambda q, qhat: 1.0)
    expected = sp.cell_volumes / sp.volume()
    for j in range(5):
        assert np.allclose(k.rows[j], expected, atol=1e-14)


def test_gaussian_rows_renormalized_and_localize():
    sp = grid_1d(0.0, 2.0, 64)
    off_diag = []
    for sigma in (0.5, 0.1, 0.02):
        k = gaussian_kernel(sp, sigma)
        sums = k.rows.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)
        off_diag.append(float(np.max(1.0 - np.diag(k.rows))))
    # shrinking sigma concentrates each row onto its own cell
    assert off_diag[0] > off_diag[1] > off_diag[2]
    k = gaussian_kernel(sp, 0.005)  # well below the cell size: identity rows
    assert float(np.max(1.0 - np.diag(k.rows))) < 1e-6


def test_cell_local_density_gives_identity():
    sp = grid_1d(0.0, 1.0, 6)
    h = sp.cell_volumes[0]

    def p(q, qhat):
        return 1.0 if abs(q[0] - qhat[0]) < 0.4 * h else 0.0

    k = kernel_from_density(sp, p)
    assert np.allclose(k.rows, np.eye(6))


def test_negative_density_rejected():
    sp = grid_1d(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="negative"):
        kernel_from_density(sp, lambda q, qhat: q[0] - 0.5)


def test_infinite_density_names_the_offending_pair():
    sp = grid_1d(0.0, 1.0, 4)  # centers 0.125, 0.375, 0.625, 0.875

    def p(q, qhat):
        return np.inf if q[0] > 0.5 and qhat[0] > 0.8 else 1.0

    with pytest.raises(ValueError, match=r"inf.*q=\[0\.625\], q_hat=\[0\.875\]"):
        kernel_from_density(sp, p)


def test_zero_row_falls_back_to_dirac():
    sp = grid_1d(0.0, 1.0, 4)

    def p(q, qhat):
        # no offspring density anywhere for the last source
        return 0.0 if qhat[0] > 0.8 else 1.0

    k = kernel_from_density(sp, p)
    assert np.array_equal(k.rows[3], [0.0, 0.0, 0.0, 1.0])
    assert abs(k.rows[0].sum() - 1.0) < 1e-12


def test_from_density_matches_fine_quadrature():
    sp = grid_1d(0.0, 2.0, 64)
    sigma = 0.3

    def p(q, qhat):
        return float(np.exp(-np.sum((q - qhat) ** 2) / (2 * sigma**2)))

    k = kernel_from_density(sp, p)
    oracle = fine_quadrature_rows(sp, p, refine=4)
    assert np.max(np.abs(k.rows - oracle)) < 1e-3


def random_space(kind, n, seed):
    rng = np.random.default_rng(seed)
    lo = float(rng.uniform(-2.0, 2.0))
    if kind == "grid1d":
        return grid_1d(lo, lo + float(rng.uniform(0.1, 5.0)), n)
    if kind == "grid2d":
        ny = int(rng.integers(1, 9))
        return grid_2d([[lo, lo + float(rng.uniform(0.1, 5.0))], [0.0, float(rng.uniform(0.1, 5.0))]],
                       (n, ny))
    return atoms(rng.uniform(lo, lo + 4.0, (n, int(rng.integers(1, 3)))))


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 24),
    sigma=st.floats(1e-3, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_broadcast_tables_equal_the_scalar_density_path(kind, n, sigma, seed):
    sp = random_space(kind, n, seed)
    inv = 1.0 / (2.0 * sigma * sigma)

    def p(q, qhat):
        return float(np.exp(-inv * np.sum((q - qhat) ** 2)))

    assert np.array_equal(gaussian_kernel(sp, sigma).rows, kernel_from_density(sp, p).rows)
    expected = np.tile(sp.cell_volumes / sp.volume(), (sp.n, 1))
    assert np.array_equal(uniform_kernel(sp).rows, expected)


# ─── pushing births ──────────────────────────────────────────────────


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["grid1d", "grid2d", "atoms"]),
    n=st.integers(1, 24),
    m=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_push_births_of_a_block_is_the_row_by_row_push(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    sp = random_space(kind, n, seed)
    rows = rng.uniform(0.0, 1.0, (sp.n, sp.n))
    block = rng.uniform(0.0, 1.0, (m, sp.n)) * 10.0 ** rng.uniform(-5.0, 5.0, (m, 1))
    for kernel in (matrix_kernel(sp, rows / rows.sum(axis=1, keepdims=True)),
                   gaussian_kernel(sp, float(rng.uniform(0.05, 2.0)))):
        # a vector is pushed bitwise as rows^T v
        for v in block:
            assert kernel.push_births(v).tobytes() == (kernel.rows.T @ v).tobytes()
        row_by_row = np.stack([kernel.push_births(v) for v in block])
        pushed = kernel.push_births(block)
        assert pushed.shape == block.shape
        assert np.all(np.abs(pushed - row_by_row) <= 1e-14 * np.abs(row_by_row))
    assert dirac_kernel(sp).push_births(block) is block


# ─── continuity modulus ──────────────────────────────────────────────


def test_continuity_modulus_uniform_is_zero():
    sp = grid_1d(0.0, 1.0, 8)
    assert uniform_kernel(sp).continuity_modulus() == pytest.approx(0.0, abs=1e-10)


def test_continuity_modulus_dirac_is_one():
    # adjacent unit atoms at spacing h are at flat distance h, so the
    # modulus is h / h = 1
    sp = grid_1d(0.0, 1.0, 10)
    assert dirac_kernel(sp).continuity_modulus() == pytest.approx(1.0, abs=1e-7)


def test_continuity_modulus_gaussian_decreases_with_sigma():
    sp = grid_1d(0.0, 1.0, 20)  # h = 0.05
    mods = [gaussian_kernel(sp, s).continuity_modulus() for s in (0.1, 0.2, 0.4)]
    assert all(m > 0 for m in mods)
    assert mods[0] > mods[1] > mods[2]


# ─── config loading ──────────────────────────────────────────────────


def test_kernel_from_config_variants():
    sp = grid_1d(0.0, 1.0, 3)
    assert kernel_from_config({"variant": "dirac"}, sp).is_dirac
    k = kernel_from_config({"variant": "matrix", "rows": np.eye(3).tolist()}, sp)
    assert np.array_equal(k.rows, np.eye(3))
    assert kernel_from_config({"variant": "uniform"}, sp).rows is not None
    assert np.array_equal(kernel_from_config({"variant": "gaussian", "sigma": 0.2}, sp).rows,
                          gaussian_kernel(sp, 0.2).rows)
    with pytest.raises(ValueError):
        kernel_from_config({"variant": "nope"}, sp)


def test_kernel_dimensions_must_match_space():
    sp = grid_1d(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        MutationKernel(sp, rows=np.eye(4))
