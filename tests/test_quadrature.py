import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangebound as rb
from rangebound import CoefficientSpec

const = CoefficientSpec.constant


@pytest.fixture(scope="module")
def noisy_path():
    grid = rb.build_grid(5.0, 2000)
    return rb.simulate_seeded(const(2), const(1), const(1), grid, seed=4)


def test_unit_integrand_telescopes(noisy_path):
    series = rb.ito_cumsum(np.ones(noisy_path.grid.n_steps), noisy_path)
    expected = noisy_path.x - noisy_path.x[0]
    assert np.max(np.abs(series - expected)) < 1e-12 * (1 + np.max(np.abs(expected)))


def test_zero_integrand_is_exactly_zero(noisy_path):
    series = rb.ito_cumsum(np.zeros(noisy_path.grid.n_steps), noisy_path)
    assert np.all(series == 0.0)


def test_ito_against_smooth_path_closed_form():
    grid = rb.build_grid(1.0, 10_000)
    path = rb.simulate_seeded(const(2), const(0), const(1), grid, seed=1)
    value = rb.ito_cumsum(path.x[:-1], path)[-1]
    assert abs(value - 2.0) < 3 * grid.dt


def test_riemann_constant_integrand():
    grid = rb.build_grid(5.0, 1000)
    series = rb.riemann_cumsum(np.ones(1000), grid)
    assert abs(series[-1] - 5.0) < 1e-12


def test_riemann_linear_integrand():
    grid = rb.build_grid(1.0, 10_000)
    series = rb.riemann_cumsum(grid.nodes[:-1], grid)
    assert abs(series[-1] - 0.5) < grid.dt


def test_riemann_unit_variance_total():
    grid = rb.build_grid(5.0, 2000)
    sigma = np.ones(2000)
    assert abs(rb.riemann_cumsum(sigma**2, grid)[-1] - 5.0) < 1e-12


def test_first_value_is_zero(noisy_path):
    f = np.linspace(-1, 1, noisy_path.grid.n_steps)
    assert rb.ito_cumsum(f, noisy_path)[0] == 0.0
    assert rb.riemann_cumsum(f, noisy_path.grid)[0] == 0.0


def test_non_anticipation(noisy_path):
    n = noisy_path.grid.n_steps
    f = np.ones(n)
    g = f.copy()
    g[n // 2] = 100.0
    base = rb.ito_cumsum(f, noisy_path)
    bumped = rb.ito_cumsum(g, noisy_path)
    assert np.array_equal(base[: n // 2 + 1], bumped[: n // 2 + 1])
    assert base[n // 2 + 1] != bumped[n // 2 + 1]


def test_nonnegative_riemann_is_nondecreasing():
    grid = rb.build_grid(2.0, 500)
    f = np.abs(np.sin(7.0 * grid.nodes[:-1]))
    values = rb.riemann_cumsum(f, grid)
    assert np.all(np.diff(values) >= 0)


@settings(deadline=None, max_examples=30)
@given(
    alpha=st.floats(min_value=-5, max_value=5, allow_nan=False),
    beta=st.floats(min_value=-5, max_value=5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_ito_linearity(alpha, beta, seed):
    grid = rb.build_grid(1.0, 256)
    path = rb.simulate_seeded(const(1), const(1), const(1), grid, seed=seed)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(256)
    g = rng.standard_normal(256)
    combined = rb.ito_cumsum(alpha * f + beta * g, path)
    split = alpha * rb.ito_cumsum(f, path) + beta * rb.ito_cumsum(g, path)
    scale = 1.0 + np.max(np.abs(split))
    assert np.max(np.abs(combined - split)) < 1e-10 * scale


@pytest.mark.parametrize("length", [0, 5, 2001])
def test_length_mismatch_rejected(noisy_path, length):
    with pytest.raises(ValueError):
        rb.ito_cumsum(np.ones(length), noisy_path)
    with pytest.raises(ValueError):
        rb.riemann_cumsum(np.ones(length), noisy_path.grid)
