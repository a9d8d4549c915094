import numpy as np
import pytest

import rangebound as rb
from rangebound import CoefficientSpec
from rangebound.errors import OracleCostError
from rangebound.transforms import TransformSeries

from checks import bounded_recursive, identity_sides, seeded_path

const = CoefficientSpec.constant


def bounded_residual(path):
    return identity_sides(path, bounded_recursive(path))[2]


def ladder(dw, t_max, a_spec, sigma_spec, u_spec, refinement_levels):
    """convergence_ladder on paths of constant coefficients."""

    def rung(grid, increments, factor):
        return rb.simulate_path(a_spec, sigma_spec, u_spec, grid, increments)

    return rb.convergence_ladder(dw, t_max, rung, refinement_levels)


def make_series(X, Y, weighted=False):
    return TransformSeries(X=np.asarray(X, float), Y=np.asarray(Y, float), weighted=weighted)


def envelope_report(ts, integrand, grid, blocks=None):
    """EnvelopeCheck fed ``ts`` in the node ranges ``blocks`` (one block by default)."""
    check = rb.EnvelopeCheck(lambda k0, k1: integrand[k0:k1], grid)
    z = ts.X + 1j * ts.Y
    for k0, k1 in blocks or [(0, len(z))]:
        check.feed(k0, k1, z[k0:k1])
    return check.report()


class TestEnvelopeCheck:
    def test_zero_series_passes(self):
        grid = rb.build_grid(1.0, 10)
        ts = make_series(np.zeros(11), np.zeros(11))
        report = envelope_report(ts, np.ones(10), grid)
        assert report.passed
        assert report.max_violation <= 0.0

    def test_corrupted_node_is_located(self):
        grid = rb.build_grid(5.0, 200)
        path = seeded_path(const(2), const(1), const(1), grid, seed=1)
        ts = bounded_recursive(path)
        X = ts.X.copy()
        X[5] += 1.0
        report = envelope_report(make_series(X, ts.Y), path.u, grid)
        assert not report.passed
        assert report.violation_index == 5
        assert report.max_violation > 0.5

    def test_grid_mismatch_rejected(self):
        """An 11-node series does not reach node N of a 20-step grid: no report."""
        ts = make_series(np.zeros(11), np.zeros(11))
        with pytest.raises(ValueError):
            envelope_report(ts, np.ones(20), rb.build_grid(1.0, 20))

    @pytest.mark.parametrize(
        "blocks",
        [
            [(0, 5, 11)],  # a block longer than its node range
            [(0, 5, 4)],  # and one shorter
            [(0, 5, 5), (6, 11, 5)],  # a gap
            [(0, 5, 5), (4, 9, 5)],  # an overlap
            [(0, 5, 5), (5, 22, 17)],  # past node N
        ],
    )
    def test_block_mismatch_rejected(self, blocks):
        """Blocks must continue each other from node 0 and stay on the grid."""
        grid = rb.build_grid(1.0, 20)
        path = seeded_path(const(0), const(1), const(1), grid, seed=1)
        envelope = rb.EnvelopeCheck(lambda k0, k1: path.u[k0:k1], grid)
        for check in (envelope, rb.IdentityCheck(path, False)):
            *fits, (k0, k1, size) = blocks
            for j0, j1, n in fits:
                check.feed(j0, j1, np.zeros(n, dtype=complex))
            with pytest.raises(ValueError):
                check.feed(k0, k1, np.zeros(size, dtype=complex))

    def test_verdict_needs_every_node(self):
        """A check read before its blocks reach node N raises instead of judging part of the path."""
        grid = rb.build_grid(1.0, 20)
        path = seeded_path(const(0), const(1), const(1), grid, seed=1)
        envelope = rb.EnvelopeCheck(lambda k0, k1: path.u[k0:k1], grid)
        identity = rb.IdentityCheck(path, False)
        for check in (envelope, identity):
            check.feed(0, 11, np.zeros(11, dtype=complex))
        with pytest.raises(ValueError):
            envelope.report()
        with pytest.raises(ValueError):
            identity.residual()
        for check in (envelope, identity):
            check.feed(11, 21, np.zeros(10, dtype=complex))
        assert envelope.report().passed and identity.residual() >= 0.0

    def test_passed_flag_tracks_tolerance(self):
        grid = rb.build_grid(1.0, 4)
        ts = make_series([0, 1, 0, 0, 0], np.zeros(5))
        # a zero integrand: the tolerance is the unit 1e-9, and the margin 1
        assert not envelope_report(ts, np.zeros(4), grid).passed
        ts = make_series([0, 1e-10, 0, 0, 0], np.zeros(5))
        assert envelope_report(ts, np.zeros(4), grid).passed

    @pytest.mark.parametrize("blocks", [[(0, 11)], [(0, 5), (5, 10), (10, 11)], [(0, 4), (4, 11)]])
    def test_first_of_tied_margins_wins_across_blocks(self, blocks):
        """Equal worst margins at nodes 3 and 7 straddle the block boundaries; node 3 is
        reported, as np.argmax picks, and a nan would win once it comes first."""
        grid = rb.build_grid(1.0, 10)
        X = np.zeros(11)
        X[[3, 7]] = 0.5
        assert envelope_report(make_series(X, np.zeros(11)), np.zeros(10), grid, blocks=blocks).violation_index == 3
        X[9] = np.nan
        report = envelope_report(make_series(X, np.zeros(11)), np.zeros(10), grid, blocks=blocks)
        assert report.violation_index == 9 and np.isnan(report.max_violation)


class TestResidualNorm:
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


def deviation(path, which):
    return rb.compare_oracle_pair(path)[which][0]


class TestCompareOracle:
    def test_zero_integrand(self):
        grid = rb.build_grid(5.0, 500)
        path = seeded_path(const(2), const(1), const(0), grid, seed=1)
        assert deviation(path, "bounded") == 0.0
        assert deviation(path, "weighted") == 0.0

    def test_random_instance_within_tolerance(self):
        grid = rb.build_grid(5.0, 2000)
        path = seeded_path(const(-7), const(1.2), const(1), grid, seed=5)
        scale = 1 + np.sum(np.abs(path.u)) * grid.dt
        assert deviation(path, "bounded") <= 1e-10 * scale

    def test_ceiling_refusal(self):
        grid = rb.build_grid(5.0, 4001)
        path = seeded_path(const(1), const(1), const(1), grid, seed=1)
        with pytest.raises(OracleCostError):
            deviation(path, "bounded")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rb.verification, "ORACLE_CEILING", 5000)
            assert deviation(path, "bounded") >= 0.0

    def test_stress_weighted_finite(self):
        grid = rb.build_grid(50.0, 500)
        path = seeded_path(const(0.5), const(3), const(1), grid, seed=7)
        found = deviation(path, "weighted")
        total_variance = np.sum(path.sigma**2) * grid.dt
        scale = 1 + np.exp(0.5 * total_variance) * np.sum(np.abs(path.u)) * grid.dt
        assert np.isfinite(found)
        assert found <= 1e-10 * scale
