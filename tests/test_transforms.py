import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangebound as rb
from rangebound import CoefficientSpec, experiment, transforms, verification
from rangebound.config import parse_config
from rangebound.transforms import RESCALE_THRESHOLD

from checks import (
    block_series,
    bounded_recursive,
    identity_sides,
    modulus,
    oracle_rows,
    recurrence_pair,
    residual_norm,
    riemann_cumsum,
    rotation_sides,
    seeded_path,
    whole_discount,
    whole_identity_sides,
)

const = CoefficientSpec.constant


def bounded_direct(path):
    return rb.transform_pair_direct(path, weighted=False)[0]


def weighted_recursive(path, rescale_threshold=RESCALE_THRESHOLD):
    """The weighted series alone, its scale rebased at ``rescale_threshold``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "RESCALE_THRESHOLD", rescale_threshold)
        return recurrence_pair(path, bounded=False)[1]


def rotation_rows(sigma, n_steps, seed):
    """The rotation rows run and verify evaluate for the driftless path
    seeded_path(const(0), const(sigma), const(1), build_grid(5.0, n_steps), seed),
    by check: each (|rhs|, bound, |lhs - rhs|, tolerance), the bound being the unit
    rotation's or the scaled rotation's scale.
    """
    cfg = parse_config(
        f"t_max=5\nn_steps={n_steps}\na=const:0\nsigma=const:{sigma}\nu=const:1\nseeds={seed}\n"
    )
    rows = experiment._evaluate_seed(cfg, seed, {"rotation_unit", "rotation_scaled"}, 4)
    assert [(check, label) for check, label, _ in rows] == [
        ("rotation_unit", None),
        ("rotation_scaled", None),
    ]
    return {check: outcome for check, _, outcome in rows}


def random_specs(rng):
    """One bounded coefficient preset per role, drawn from all kinds."""
    def pick(scale):
        kind = rng.integers(0, 3)
        if kind == 0:
            return const(rng.uniform(-scale, scale))
        if kind == 1:
            return CoefficientSpec.sinusoid(
                rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(0.2, 6.0)
            )
        return CoefficientSpec.state_bounded(rng.uniform(-scale, scale))

    return pick(10.0), pick(1.5), pick(2.0)


def u_scale(path):
    return float(np.sum(np.abs(path.u)) * path.grid.dt)


def weighted_scale(path):
    total_variance = float(np.sum(path.sigma**2) * path.grid.dt)
    return math.exp(0.5 * total_variance) * u_scale(path)


def oracle_deviation(path, which):
    return oracle_rows(path)[which][0]


class TestBoundedTransform:
    def test_zero_integrand_gives_zero_series(self):
        grid = rb.build_grid(5.0, 400)
        path = seeded_path(const(2), const(1), const(0), grid, seed=1)
        for z in (bounded_direct(path), bounded_recursive(path)):
            assert np.all(z.real == 0.0)
            assert np.all(z.imag == 0.0)

    def test_deterministic_drift_closed_form(self):
        grid = rb.build_grid(5.0, 2000)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1)
        z = bounded_direct(path)
        t = grid.nodes
        assert np.max(np.abs(z.real - np.sin(2 * t) / 2)) < 5 * grid.dt
        assert np.max(np.abs(z.imag - (1 - np.cos(2 * t)) / 2)) < 5 * grid.dt

    def test_quarter_period_endpoint(self):
        grid = rb.build_grid(math.pi / 2, 2048)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1)
        z = bounded_recursive(path)
        assert abs(z.real[-1]) < 5 * grid.dt
        assert abs(z.imag[-1] - 1.0) < 5 * grid.dt

    def test_modulus_stays_under_integrand_envelope(self):
        grid = rb.build_grid(5.0, 10_000)
        path = seeded_path(const(2), const(1), const(1), grid, seed=6)
        z = bounded_recursive(path)
        envelope = riemann_cumsum(np.abs(path.u), grid)
        assert np.max(modulus(z) - envelope) <= 1e-12 * (1 + envelope[-1])
        assert np.max(modulus(z)) <= 5.0 + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_recursive_matches_direct(self, seed):
        rng = np.random.default_rng(seed)
        a, sigma, u = random_specs(rng)
        grid = rb.build_grid(rng.uniform(1.0, 8.0), int(rng.integers(200, 2000)))
        path = seeded_path(a, sigma, u, grid, seed=seed)
        deviation = oracle_deviation(path, "bounded")
        assert deviation <= 1e-10 * (1 + u_scale(path))

    def test_first_node_is_origin(self):
        grid = rb.build_grid(1.0, 64)
        path = seeded_path(const(1), const(1), const(1), grid, seed=9)
        z = bounded_recursive(path)
        assert z.real[0] == 0.0 and z.imag[0] == 0.0

    @settings(deadline=None, max_examples=25)
    @given(shift=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_modulus_invariant_under_phase_shift(self, shift):
        grid = rb.build_grid(2.0, 512)
        path = seeded_path(const(1), const(1), const(1), grid, seed=13)
        shifted = dataclasses.replace(path, x=path.x + shift)
        base = modulus(bounded_recursive(path))
        moved = modulus(bounded_recursive(shifted))
        assert np.max(np.abs(base - moved)) < 1e-9 * (1 + u_scale(path))


class TestWeightedTransform:
    def test_zero_integrand_gives_zero_series(self):
        grid = rb.build_grid(5.0, 300)
        path = seeded_path(const(2), const(1), const(0), grid, seed=1)
        z = weighted_recursive(path)
        assert np.all(z.real == 0.0) and np.all(z.imag == 0.0)

    def test_degenerates_to_rotated_bounded_transform(self):
        grid = rb.build_grid(5.0, 2000)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1)
        bounded = bounded_recursive(path)
        weighted = weighted_recursive(path)
        scale = 1e-12 * (1 + u_scale(path))
        assert np.max(np.abs(weighted.real + bounded.imag)) < scale
        assert np.max(np.abs(weighted.imag - bounded.real)) < scale

    @pytest.mark.parametrize("seed", range(6))
    def test_recursive_matches_direct(self, seed):
        rng = np.random.default_rng(100 + seed)
        a, sigma, u = random_specs(rng)
        grid = rb.build_grid(rng.uniform(1.0, 6.0), int(rng.integers(200, 1500)))
        path = seeded_path(a, sigma, u, grid, seed=seed)
        deviation = oracle_deviation(path, "weighted")
        assert deviation <= 1e-10 * (1 + weighted_scale(path))

    def test_large_variance_stress_matches_direct(self):
        grid = rb.build_grid(50.0, 500)
        path = seeded_path(const(0.5), const(3), const(1), grid, seed=7)
        deviation = oracle_deviation(path, "weighted")
        assert np.isfinite(deviation)
        assert deviation <= 1e-10 * (1 + weighted_scale(path))

    def test_rescaling_does_not_change_values(self):
        grid = rb.build_grid(50.0, 500)
        path = seeded_path(const(0.5), const(3), const(1), grid, seed=7)
        reference = weighted_recursive(path)
        scale = 1e-12 * (1 + weighted_scale(path))
        for threshold in (5.0, 20.0, 1e9):
            other = weighted_recursive(path, rescale_threshold=threshold)
            assert np.max(np.abs(other.real - reference.real)) < scale
            assert np.max(np.abs(other.imag - reference.imag)) < scale

    def test_survives_past_plain_double_range(self):
        # half-variance reaches 718, beyond exp overflow, so the split
        # factorization only works because of the rebasing
        grid = rb.build_grid(1436.0, 2000)
        path = seeded_path(const(0), const(1), const(1e-6), grid, seed=3)
        z = weighted_recursive(path)
        assert np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))
        other = weighted_recursive(path, rescale_threshold=100.0)
        top = np.max(modulus(z))
        assert np.max(np.abs(z.real - other.real)) < 1e-12 * top

    def test_modulus_under_weighted_envelope(self):
        grid = rb.build_grid(5.0, 4000)
        path = seeded_path(const(2), const(1), const(1), grid, seed=2)
        z = weighted_recursive(path)
        # triangle inequality predicts at most e^{total_variance/2} * integral of |u|
        assert np.max(modulus(z)) <= math.exp(2.5) * 5.0 * (1 + 1e-12)


class TestIdentities:
    def test_bounded_identity_zero_integrand(self):
        grid = rb.build_grid(5.0, 300)
        path = seeded_path(const(2), const(1), const(0), grid, seed=1)
        lhs, rhs, _ = identity_sides(path, bounded_recursive(path), weighted=False)
        assert np.all(lhs == 0.0) and np.all(rhs == 0.0)

    def test_weighted_identity_zero_integrand(self):
        grid = rb.build_grid(5.0, 300)
        path = seeded_path(const(2), const(1), const(0), grid, seed=1)
        lhs, rhs, _ = identity_sides(path, weighted_recursive(path), weighted=True)
        assert np.all(lhs == 0.0) and np.all(rhs == 0.0)

    def test_bounded_identity_deterministic_drift(self):
        grid = rb.build_grid(5.0, 10_000)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1)
        assert identity_sides(path, bounded_recursive(path), weighted=False)[2] < 10 * grid.dt

    def test_weighted_identity_deterministic_drift(self):
        grid = rb.build_grid(5.0, 10_000)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1)
        assert identity_sides(path, weighted_recursive(path), weighted=True)[2] < 10 * grid.dt

    @pytest.mark.parametrize("weighted", [False, True])
    def test_identity_sides_match_whole_array_sums(self, weighted):
        """Fed in uneven blocks, IdentityCheck gives the whole-array sides bit for bit."""
        grid = rb.build_grid(1.0, 100)
        path = seeded_path(const(1), const(1), rb.CoefficientSpec.sinusoid(0, 1, 5), grid, seed=1)
        z = recurrence_pair(path)[weighted]
        check = rb.IdentityCheck(path, weighted)

        def feed():
            for k0, k1 in ((0, 1), (1, 2), (2, 37), (37, 38), (38, 101)):
                check.feed(k0, k1, z[k0:k1])

        _, sides = block_series(check, feed)
        lhs, rhs = whole_identity_sides(path, z, weighted)
        assert sides[0].tobytes() == lhs.tobytes()
        assert sides[1].tobytes() == rhs.tobytes()
        assert check.residual() == float(np.max(np.abs(lhs - rhs)))

    def test_residual_shrinks_under_refinement(self):
        fine_grid = rb.build_grid(5.0, 20_000)
        dw = rb.sample_wiener(fine_grid, 1)
        coarse_grid = rb.build_grid(5.0, 10_000)
        fine = rb.simulate_path(const(2), const(1), const(1), fine_grid, dw)
        coarse = rb.simulate_path(
            const(2), const(1), const(1), coarse_grid, rb.coarsen_increments(dw, 2)
        )
        r_coarse, r_fine = (
            identity_sides(p, bounded_recursive(p), weighted=False)[2]
            for p in (coarse, fine)
        )
        assert 0.0 < r_fine < r_coarse


class TestVarianceDiscountedU:
    def test_no_noise_leaves_psi_unchanged(self):
        grid = rb.build_grid(5.0, 100)
        psi = np.linspace(1.0, 2.0, 100)
        u = rb.variance_discounted_u(psi, np.zeros(100), grid)
        assert np.array_equal(u, psi)

    def test_unit_noise_endpoints(self):
        grid = rb.build_grid(5.0, 10_000)
        u = rb.variance_discounted_u(np.ones(10_000), np.ones(10_000), grid)
        assert abs(u[0] - math.exp(-2.5)) < 1e-10
        assert abs(u[-1] - 1.0) < grid.dt

    def test_length_mismatch(self):
        grid = rb.build_grid(1.0, 10)
        with pytest.raises(ValueError):
            rb.variance_discounted_u(np.ones(9), np.ones(10), grid)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_steps=st.integers(1, 40),
        segment=st.sampled_from([1, 3, 7, 64]),
        scale=st.sampled_from([0.0, 1.0, 30.0, 1e160]),
        seed=st.integers(0, 1000),
    )
    def test_leaves_psi_and_gives_the_whole_formulas_bits(self, n_steps, segment, scale, seed):
        """Summed in blocks of any size, the discount is the whole-array formula's bit for bit,
        in an array of its own, psi not written; at scale 1e160 I_N leaves double range."""
        rng = np.random.default_rng(seed)
        psi, sigma = rng.standard_normal(n_steps), scale * rng.standard_normal(n_steps)
        grid = rb.build_grid(1.0, n_steps)
        kept = psi.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transforms, "_SEGMENT_NODES", segment)
            u = rb.variance_discounted_u(psi, sigma, grid)
        want = whole_discount(psi, sigma, grid)
        assert psi.tobytes() == kept.tobytes()
        assert (u is None) is (want is None)
        if u is not None:
            assert u.tobytes() == want.tobytes() and not np.shares_memory(u, psi)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_envelope_bound(self, seed):
        grid = rb.build_grid(5.0, 4000)
        path = seeded_path(const(2), const(1), const(0), grid, seed=seed)
        psi = 1.0 / (1.0 + grid.nodes[:-1])
        path = path.with_u(rb.variance_discounted_u(psi, path.sigma, grid))
        z = weighted_recursive(path)
        assert np.max(modulus(z) - np.log1p(grid.nodes)) <= 1e-9

    def test_power_envelope_bound(self):
        grid = rb.build_grid(5.0, 4000)
        path = seeded_path(const(-3), const(1), const(0), grid, seed=11)
        alpha = 1.5
        psi = grid.nodes[:-1] ** (alpha - 1.0) / alpha
        path = path.with_u(rb.variance_discounted_u(psi, path.sigma, grid))
        z = weighted_recursive(path)
        envelope = riemann_cumsum(np.abs(psi), grid)
        assert np.max(modulus(z) - envelope) <= 1e-12 * (1 + envelope[-1])

    def test_drift_sweep_keeps_envelope(self):
        grid = rb.build_grid(5.0, 1500)
        psi = 1.0 / (1.0 + grid.nodes[:-1])
        for drift in (const(-10), const(10), CoefficientSpec.state_bounded(5.0)):
            path = seeded_path(drift, const(1), const(0), grid, seed=21)
            path = path.with_u(rb.variance_discounted_u(psi, path.sigma, grid))
            z = weighted_recursive(path)
            envelope = riemann_cumsum(np.abs(psi), grid)
            assert np.max(modulus(z) - envelope) <= 1e-12 * (1 + envelope[-1])


class TestRotationIdentities:
    def test_no_noise_degenerate(self):
        grid = rb.build_grid(5.0, 200)
        path = seeded_path(const(0), const(0), const(1), grid, seed=1)
        U, lhs, rhs = rotation_sides(path, scaled=False)
        assert np.all(U == 1.0)
        assert lhs[-1] == 0.0 and rhs[-1] == 0.0
        assert rotation_rows(0, 200, 1)["rotation_unit"][1] == 2.0
        scaled, lhs, rhs = rotation_sides(path, scaled=True)
        assert np.all(scaled == 1.0j)
        assert lhs[-1] == 0.0 and rhs[-1] == 0.0

    def test_unit_modulus_and_bound_value(self):
        grid = rb.build_grid(5.0, 4096)
        path = seeded_path(const(0), const(1), const(1), grid, seed=3)
        U, _, rhs = rotation_sides(path, scaled=False)
        rhs_abs, bound, _, _ = rotation_rows(1, 4096, 3)["rotation_unit"]
        assert rhs_abs == abs(complex(rhs[-1]))
        assert np.max(np.abs(np.abs(U) - 1.0)) < 1e-14
        assert abs(bound - 4.5) < 1e-12
        assert rhs_abs <= bound + 1e-9

    def test_scaled_modulus_matches_exponential(self):
        grid = rb.build_grid(5.0, 4096)
        path = seeded_path(const(0), const(1), const(1), grid, seed=3)
        U, _, _ = rotation_sides(path, scaled=True)
        assert abs(abs(U[-1]) - math.exp(2.5)) < 1e-10 * math.exp(2.5)
        half_i = 0.5 * riemann_cumsum(path.sigma**2, grid)
        assert np.max(np.abs(np.abs(U) - np.exp(half_i))) < 1e-12 * math.exp(2.5)

    def test_rejects_nonzero_drift(self):
        grid = rb.build_grid(1.0, 50)
        path = seeded_path(const(1), const(1), const(1), grid, seed=1)
        with pytest.raises(ValueError):
            verification.RotationCheck(path, scaled=False)
        with pytest.raises(ValueError):
            verification.RotationCheck(path, scaled=True)

    def test_running_sides_end_matches_scalar_forms(self):
        grid = rb.build_grid(5.0, 1024)
        path = seeded_path(const(0), const(1), const(1), grid, seed=5)
        _, lhs, rhs = rotation_sides(path, scaled=False)
        rows = rotation_rows(1, 1024, 5)
        rhs_abs, _, residual, _ = rows["rotation_unit"]
        assert rhs_abs == abs(complex(rhs[-1]))
        assert residual == abs(complex(lhs[-1]) - complex(rhs[-1]))
        _, lhs2, rhs2 = rotation_sides(path, scaled=True)
        assert rows["rotation_scaled"][2] == abs(complex(lhs2[-1]) - complex(rhs2[-1]))

    def test_residual_medians_shrink_under_refinement(self):
        fine, coarse = [], []
        for seed in range(1, 11):
            fine_grid = rb.build_grid(5.0, 4096)
            dw = rb.sample_wiener(fine_grid, seed)
            coarse_grid = rb.build_grid(5.0, 2048)
            p_fine = rb.simulate_path(const(0), const(1), const(1), fine_grid, dw)
            p_coarse = rb.simulate_path(
                const(0), const(1), const(1), coarse_grid, rb.coarsen_increments(dw, 2)
            )
            fine.append(residual_norm(*rotation_sides(p_fine, scaled=False)[1:]))
            coarse.append(residual_norm(*rotation_sides(p_coarse, scaled=False)[1:]))
        assert np.median(fine) < np.median(coarse)


RETIRED = (
    "CumulativeSeries",
    "RotationIdentity",
    "bounded_transform_direct",
    "weighted_transform_direct",
    "weighted_transform_recursive",
    "unit_rotation_running_sides",
    "scaled_rotation_running_sides",
    "bounded_transform_recursive",
    "ito_cumsum",
    "riemann_cumsum",
    "_left_sum",
    "simulate_seeded",
    "DEFAULT_ORACLE_CEILING",
    "residual_norm",
    "SeedRecord",
    "unit_rotation_identity",
    "scaled_rotation_identity",
    "transform_pair_recursive",
    "TransformSeries",
    "_series",
)


def test_public_names_resolve_and_retired_ones_are_gone():
    for name in rb.__all__:
        assert getattr(rb, name) is not None, name
    for name in RETIRED:
        assert name not in rb.__all__
        for module in (rb, rb.engine, rb.transforms, rb.verification, rb.experiment):
            assert not hasattr(module, name), (module.__name__, name)
    with pytest.raises(ImportError):
        importlib.import_module("rangebound.quadrature")
    assert "rescale_threshold" not in inspect.signature(rb.reduce_pass).parameters
    for function in (rb.run_experiment, rb.verify_suite, rb.compare_oracle_pair):
        assert not {"oracle_ceiling", "ceiling", "fast"} & set(inspect.signature(function).parameters)
    assert "source_text" not in {f.name for f in dataclasses.fields(rb.ExperimentConfig)}
    assert not hasattr(rb.TimeGrid, "same_mesh")
    assert not hasattr(rb.ExperimentManifest, "from_text")


def test_public_series_are_read_only():
    """The direct references are the oracle's side of a comparison, so none may be written,
    nor their X and Y components."""
    grid = rb.build_grid(5.0, 64)
    path = seeded_path(const(0), const(1), const(1), grid, seed=3)
    arrays = {}
    for weighted, z in enumerate(rb.transform_pair_direct(path)):
        arrays[f"direct weighted={bool(weighted)}"] = z
        arrays[f"direct weighted={bool(weighted)} X"] = z.real
        arrays[f"direct weighted={bool(weighted)} Y"] = z.imag
    assert len(arrays) == 6
    for name, arr in arrays.items():
        assert isinstance(arr, np.ndarray) and arr.flags.writeable is False, name
    assert all(arrays[f"direct weighted={w}"].dtype == np.complex128 for w in (False, True))
