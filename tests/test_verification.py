import numpy as np
import pytest

import rangebound as rb
from rangebound import CoefficientSpec
from rangebound.errors import OracleCostError
from rangebound.transforms import TransformSeries

const = CoefficientSpec.constant


def bounded_residual(path):
    return rb.residual_norm(*rb.bounded_identity_sides(path, rb.bounded_transform_recursive(path)))


def ladder(dw, t_max, a_spec, sigma_spec, u_spec, refinement_levels):
    """convergence_ladder on paths of constant coefficients."""

    def rung(grid, increments, factor):
        return rb.simulate_path(a_spec, sigma_spec, u_spec, grid, increments)

    return rb.convergence_ladder(dw, t_max, rung, refinement_levels)


def make_series(X, Y, weighted=False):
    return TransformSeries(X=np.asarray(X, float), Y=np.asarray(Y, float), weighted=weighted)


class TestCheckEnvelope:
    def test_zero_series_passes(self):
        grid = rb.build_grid(1.0, 10)
        ts = make_series(np.zeros(11), np.zeros(11))
        envelope = rb.riemann_cumsum(np.ones(10), grid)
        report = rb.check_envelope(ts, envelope, 1e-9)
        assert report.passed
        assert report.max_violation <= 0.0

    def test_corrupted_node_is_located(self):
        grid = rb.build_grid(5.0, 200)
        path = rb.simulate_seeded(const(2), const(1), const(1), grid, seed=1)
        ts = rb.bounded_transform_recursive(path)
        X = ts.X.copy()
        X[5] += 1.0
        corrupted = make_series(X, ts.Y)
        envelope = rb.riemann_cumsum(np.abs(path.u), grid)
        report = rb.check_envelope(corrupted, envelope, 1e-9)
        assert not report.passed
        assert report.violation_index == 5
        assert report.max_violation > 0.5

    def test_grid_mismatch_rejected(self):
        ts = make_series(np.zeros(11), np.zeros(11))
        envelope = rb.riemann_cumsum(np.ones(20), rb.build_grid(1.0, 20))
        with pytest.raises(ValueError):
            rb.check_envelope(ts, envelope, 1e-9)

    def test_passed_flag_tracks_tolerance(self):
        grid = rb.build_grid(1.0, 4)
        ts = make_series([0, 1, 0, 0, 0], np.zeros(5))
        envelope = np.zeros(5)
        assert not rb.check_envelope(ts, envelope, 0.5).passed
        assert rb.check_envelope(ts, envelope, 1.5).passed


class TestResidualNorm:
    def test_identical_series(self):
        v = np.linspace(0, 1, 50)
        assert rb.residual_norm(v, v) == 0.0

    def test_constant_offset(self):
        v = np.linspace(0, 1, 50)
        assert rb.residual_norm(v, v + 1e-3) == pytest.approx(1e-3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rb.residual_norm(np.zeros(5), np.zeros(6))

    def test_refinement_reduces_identity_residual(self):
        fine_grid = rb.build_grid(5.0, 20_000)
        dw = rb.sample_wiener(fine_grid, 1)
        fine = rb.simulate_path(const(2), const(1), const(1), fine_grid, dw)
        coarse = rb.simulate_path(
            const(2), const(1), const(1), rb.build_grid(5.0, 10_000), rb.coarsen_increments(dw, 2)
        )
        r_coarse = bounded_residual(coarse)
        r_fine = bounded_residual(fine)
        assert 0.0 < r_fine < r_coarse


class TestOrders:
    def test_geometric_residuals(self):
        assert rb.orders_from_residuals([0.04, 0.02, 0.01]) == pytest.approx([1.0, 1.0])

    def test_stagnation(self):
        assert rb.orders_from_residuals([0.3, 0.3, 0.3]) == pytest.approx([0.0, 0.0])

    def test_convergence_ladder_end_to_end(self):
        grid = rb.build_grid(5.0, 2**12)
        report = ladder(rb.sample_wiener(grid, 1), 5.0, const(2), const(1), const(1), 4)["bounded"]
        assert report.grid_sizes == (512, 1024, 2048, 4096)
        assert all(r > 0 for r in report.residual_norms)
        assert len(report.estimated_orders) == 3
        assert np.isfinite(report.median_order)
        assert report.residual_norms[0] > report.residual_norms[-1]

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ladder(np.zeros(1002), 1.0, const(0), const(1), const(1), 4)

    def test_minimum_levels(self):
        with pytest.raises(ValueError):
            ladder(np.zeros(1024), 1.0, const(0), const(1), const(1), 2)


def deviation(path, which, **kwargs):
    return rb.compare_oracle_pair(path, **kwargs)[which][0]


class TestCompareOracle:
    def test_zero_integrand(self):
        grid = rb.build_grid(5.0, 500)
        path = rb.simulate_seeded(const(2), const(1), const(0), grid, seed=1)
        assert deviation(path, "bounded") == 0.0
        assert deviation(path, "weighted") == 0.0

    def test_random_instance_within_tolerance(self):
        grid = rb.build_grid(5.0, 2000)
        path = rb.simulate_seeded(const(-7), const(1.2), const(1), grid, seed=5)
        scale = 1 + np.sum(np.abs(path.u)) * grid.dt
        assert deviation(path, "bounded") <= 1e-10 * scale

    def test_ceiling_refusal(self):
        grid = rb.build_grid(5.0, 4001)
        path = rb.simulate_seeded(const(1), const(1), const(1), grid, seed=1)
        with pytest.raises(OracleCostError):
            deviation(path, "bounded")
        assert deviation(path, "bounded", ceiling=5000) >= 0.0

    def test_stress_weighted_finite(self):
        grid = rb.build_grid(50.0, 500)
        path = rb.simulate_seeded(const(0.5), const(3), const(1), grid, seed=7)
        found = deviation(path, "weighted")
        total_variance = np.sum(path.sigma**2) * grid.dt
        scale = 1 + np.exp(0.5 * total_variance) * np.sum(np.abs(path.u)) * grid.dt
        assert np.isfinite(found)
        assert found <= 1e-10 * scale
