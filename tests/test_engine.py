import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rangebound as rb
from rangebound import CoefficientSpec, experiment, verification
from rangebound.config import ExperimentConfig, parse_config
from rangebound.errors import ConfigurationError

from checks import seeded_path

const = CoefficientSpec.constant
CHUNK = rb.engine.STATE_CHUNK_STEPS


def reference_state_path(a_spec, sigma_spec, grid, dw, x0):
    """x, a, sigma from one Euler step per iteration on numpy scalars.

    The engine's state-dependent branch must reproduce these bits.
    """

    def coefficient(spec, k, t, x):
        if spec.kind == "const":
            return spec.params[0]
        if spec.kind == "sin":
            c0, c1, omega = spec.params
            return c0 + c1 * np.sin(omega * t)
        if spec.kind == "state":
            return spec.params[0] / (1.0 + x * x)
        return spec.samples[k]

    n = grid.n_steps
    x = np.empty(n + 1)
    x[0] = x0
    a = np.empty(n)
    sigma = np.empty(n)
    for k in range(n):
        ak = coefficient(a_spec, k, grid.nodes[k], x[k])
        sk = coefficient(sigma_spec, k, grid.nodes[k], x[k])
        a[k] = ak
        sigma[k] = sk
        x[k + 1] = x[k] + (ak * grid.dt + sk * dw[k])
    return x, a, sigma


signed = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@st.composite
def coefficient_specs(draw, kind, n_steps):
    if kind == "const":
        return const(draw(signed))
    if kind == "sin":
        return CoefficientSpec.sinusoid(draw(signed), draw(signed), draw(signed))
    if kind == "state":
        return CoefficientSpec.state_bounded(draw(signed))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return CoefficientSpec.from_samples(np.random.default_rng(seed).uniform(-8.0, 8.0, n_steps))


class TestBuildGrid:
    def test_unit_steps(self):
        grid = rb.build_grid(5.0, 5)
        assert grid.dt == 1.0
        assert np.array_equal(grid.nodes, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_fine_grid(self):
        grid = rb.build_grid(5.0, 100_000)
        assert grid.dt == 5e-5
        assert grid.n_steps == 100_000
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == 5.0

    def test_minimal_grid(self):
        grid = rb.build_grid(1.0, 1)
        assert np.array_equal(grid.nodes, [0.0, 1.0])

    @pytest.mark.parametrize("t_max,n_steps", [(0.0, 10), (-1.0, 10), (5.0, 0), (5.0, -3)])
    def test_rejects_non_positive(self, t_max, n_steps):
        with pytest.raises(ValueError):
            rb.build_grid(t_max, n_steps)

    def test_rejects_fractional_steps(self):
        with pytest.raises(ValueError):
            rb.build_grid(1.0, 2.5)

    @pytest.mark.parametrize("t_max,n_steps", [(5.0, 7), (0.3, 11), (2.7, 1000)])
    def test_dt_times_n_matches_horizon(self, t_max, n_steps):
        grid = rb.build_grid(t_max, n_steps)
        assert abs(grid.dt * n_steps - t_max) <= math.ulp(t_max)


class TestSampleWiener:
    def test_deterministic_for_seed(self):
        grid = rb.build_grid(5.0, 1000)
        assert np.array_equal(rb.sample_wiener(grid, 42), rb.sample_wiener(grid, 42))

    def test_seed_sensitivity(self):
        grid = rb.build_grid(5.0, 1000)
        assert np.any(rb.sample_wiener(grid, 7) != rb.sample_wiener(grid, 8))

    def test_increment_variance(self):
        grid = rb.build_grid(5.0, 100_000)
        dw = rb.sample_wiener(grid, 12345)
        assert abs(np.var(dw) / grid.dt - 1.0) < 0.05

    def test_scales_in_place(self):
        """The increments are scaled in the array the generator fills, one series of 8 bytes a
        step where a scaled copy took 16, and keep the scaled copy's bits. Where numpy reuses
        the copy's temporary in place itself, as numpy 2 does on Linux, a copy passes too."""
        n = 2**18
        grid = rb.build_grid(5.0, n)
        rb.sample_wiener(grid, 3)  # what a first draw sets up once is not the draw's
        tracemalloc.start()
        try:
            dw = rb.sample_wiener(grid, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 4096
        rng = np.random.Generator(np.random.Philox(key=3))
        assert dw.tobytes() == (rng.standard_normal(n) * np.sqrt(grid.dt)).tobytes()


class TestSimulatePath:
    def test_constant_path(self):
        grid = rb.build_grid(5.0, 100)
        path = seeded_path(const(0), const(0), const(1), grid, seed=1, x0=1.0)
        assert np.all(path.x == 1.0)

    def test_pure_drift(self):
        grid = rb.build_grid(5.0, 10_000)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1)
        assert abs(path.x[-1] - 10.0) < 1e-9

    def test_drift_only_exactness_along_path(self):
        grid = rb.build_grid(5.0, 10_000)
        path = seeded_path(const(2), const(0), const(1), grid, seed=1, x0=0.5)
        assert np.max(np.abs(path.x - (0.5 + 2.0 * grid.nodes))) < 1e-9

    def test_record_is_self_consistent_bitwise(self):
        grid = rb.build_grid(5.0, 5000)
        path = seeded_path(const(2), const(1), const(1), grid, seed=3)
        dt = grid.dt
        a = const(2).sample_series(grid)
        expected = path.x[:-1] + (a * dt + path.sigma * path.dw)
        assert np.array_equal(path.x[1:], expected)

    def test_state_dependent_record_consistency(self):
        grid = rb.build_grid(2.0, 500)
        a_spec = CoefficientSpec.state_bounded(2.0)
        path = seeded_path(a_spec, const(1), const(1), grid, seed=5)
        a = a_spec.sample_series(grid, x_left=path.x[:-1])
        assert np.array_equal(a, 2.0 / (1.0 + path.x[:-1] ** 2))
        expected = path.x[:-1] + (a * grid.dt + path.sigma * path.dw)
        assert np.array_equal(path.x[1:], expected)

    @settings(deadline=None, max_examples=40)
    @given(
        data=st.data(),
        kinds=st.sampled_from(
            [("state", other) for other in ("const", "sin", "state", "samples")]
            + [(other, "state") for other in ("const", "sin", "samples")]
        ),
        n_steps=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
        x0=st.one_of(
            st.sampled_from([0.0, 1e200, -1e200]),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_state_dependent_loop_matches_reference_bitwise(self, data, kinds, n_steps, x0, seed):
        a_spec = data.draw(coefficient_specs(kinds[0], n_steps))
        sigma_spec = data.draw(coefficient_specs(kinds[1], n_steps))
        grid = rb.build_grid(2.0, n_steps)
        dw = rb.sample_wiener(grid, seed)
        with np.errstate(over="ignore"):
            path = rb.simulate_path(a_spec, sigma_spec, const(1), grid, dw, x0)
            expected = reference_state_path(a_spec, sigma_spec, grid, dw, x0)
            a = a_spec.sample_series(grid, x_left=path.x[:-1])
        for got, want in zip((path.x, a, path.sigma), expected):
            assert got.tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=60, derandomize=True)
    @example(drift="const:-0", c=1.0, sigma="const", n_steps=3, x0=0.0)
    @example(drift="const:c", c=-1.5, sigma="state", n_steps=2, x0=1e200)
    @example(drift="state:1e-300", c=1.0, sigma="state", n_steps=70, x0=1e200)
    @example(drift="state:1e-300", c=1.0, sigma="const", n_steps=5, x0=0.0)
    @example(drift="file:zeros,last", c=-2.0, sigma="state", n_steps=1, x0=0.0)
    @example(drift="sin:0,0,c", c=3.0, sigma="state", n_steps=70, x0=1e200)
    @given(
        drift=st.sampled_from(
            ["const:0", "const:-0", "const:c", "sin:0,0,c", "sin:9,c,c", "state:0"]
            + ["state:1e-300", "file:zeros", "file:zeros,last"]
        ),
        c=signed.filter(lambda c: c != 0.0),
        sigma=st.sampled_from(["const", "state"]),
        n_steps=st.integers(min_value=1, max_value=70),
        x0=st.sampled_from([0.0, 1e200]),
    )
    def test_driftless_is_decided_on_the_drift_values(self, drift, c, sigma, n_steps, x0):
        """driftless is True exactly when every drift value at a left node is zero, and run's
        remarks warning and RotationCheck's refusal follow it. At x0 = 1e200, state:1e-300
        underflows to 0 at every node; -0.0 is zero; with "last", the last step alone drifts."""
        kind, _, params = drift.partition(":")
        if kind == "file":
            samples = np.zeros(n_steps)
            samples[-1] = c if params.endswith("last") else 0.0
            a_spec = CoefficientSpec.from_samples(samples)
        else:  # sin:9,c,c is at least 1 at every node
            values = (c if p == "c" else float(p) for p in params.split(","))
            a_spec = CoefficientSpec(kind, tuple(values))
        sigma_spec = CoefficientSpec(sigma, (c,))
        grid = rb.build_grid(2.0, n_steps)
        dw = rb.sample_wiener(grid, 1)
        with np.errstate(over="ignore"):
            path = rb.simulate_path(a_spec, sigma_spec, const(1), grid, dw, x0)
            a_ref = reference_state_path(a_spec, sigma_spec, grid, dw, x0)[1]
        assert path.driftless is (not np.any(a_ref != 0.0))

        for scaled in (False, True):
            if path.driftless:
                verification.RotationCheck(path, scaled)
            else:
                with pytest.raises(ValueError, match="identically zero drift"):
                    verification.RotationCheck(path, scaled)
        with tempfile.TemporaryDirectory() as out:
            config = ExperimentConfig(
                2.0, n_steps, a_spec, sigma_spec, const(1), x0=x0, outputs=frozenset({"remarks"})
            )
            warnings = experiment.run_experiment(config, out).warnings
        drifting = "seed 1: remarks skipped: drift is not identically zero" in warnings
        assert drifting is not path.driftless

    def test_driftless_is_decided_before_the_drift_is_scaled(self):
        """a = 5e-324 is not zero, but a * dt rounds to 0 at dt <= 0.5: the path drifts, its
        steps are sigma dw alone, and the rotations are skipped with the drift remark."""
        text = "t_max = 1\nn_steps = 8\na = const:5e-324\nsigma = const:1\nu = const:1\nseeds = 1\n"
        config = parse_config(text)
        path = experiment.prepare_path(config, 1)
        assert 5e-324 * path.grid.dt == 0.0 and path.driftless is False
        assert np.array_equal(path.x, np.cumsum(np.r_[0.0, path.sigma * path.dw]))
        rows = experiment._evaluate_seed(config, 1, {"rotation_unit", "rotation_scaled"}, 4)
        assert rows == [("remarks", None, "drift")]

    def test_samples_read_are_left_as_they_are(self):
        """A drift or psi that views samples is not scaled or discounted in the samples' own
        array, even where they are writable."""
        a, psi = np.linspace(-1.0, 2.0, 16), np.linspace(3.0, 1.0, 16)
        kept = a.copy(), psi.copy()
        a_spec, psi_spec = (CoefficientSpec("samples", samples=values) for values in (a, psi))
        path = experiment.prepare_path(ExperimentConfig(1.0, 16, a_spec, const(2), psi_spec=psi_spec), 1)
        assert a.tobytes() == kept[0].tobytes() and psi.tobytes() == kept[1].tobytes()
        assert path.u.tobytes() == rb.variance_discounted_u(psi, path.sigma, path.grid).tobytes()

    def test_state_dependent_loop_memory_is_flat(self):
        n = 200_000
        grid = rb.build_grid(5.0, n)
        dw = rb.sample_wiener(grid, 1)
        tracemalloc.start()
        try:
            rb.simulate_path(const(0), CoefficientSpec.state_bounded(1.5), const(1), grid, dw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * n * 8

    def test_series_lengths(self):
        grid = rb.build_grid(1.0, 17)
        path = seeded_path(const(1), const(1), const(1), grid, seed=2)
        assert len(path.x) == 18
        a = const(1).sample_series(grid, x_left=path.x[:-1])
        assert len(path.dw) == len(a) == len(path.sigma) == len(path.u) == 17

    def test_sinusoid_sampled_at_left_nodes(self):
        grid = rb.build_grid(3.0, 300)
        spec = CoefficientSpec.sinusoid(1.0, 0.5, 2.0)
        path = seeded_path(spec, const(1), spec, grid, seed=2)
        a = spec.sample_series(grid, x_left=path.x[:-1])
        assert np.allclose(a, 1.0 + 0.5 * np.sin(2.0 * grid.nodes[:-1]), atol=0, rtol=0)

    def test_increment_length_mismatch(self):
        grid = rb.build_grid(1.0, 10)
        with pytest.raises(ValueError):
            rb.simulate_path(const(1), const(1), const(1), grid, np.zeros(9))

    def test_samples_length_mismatch(self):
        grid = rb.build_grid(1.0, 10)
        bad = CoefficientSpec.from_samples(np.ones(7))
        with pytest.raises(ConfigurationError):
            rb.simulate_path(bad, const(1), const(1), grid, np.zeros(10))

    def test_samples_series_stored(self):
        grid = rb.build_grid(1.0, 8)
        values = np.linspace(-1.0, 1.0, 8)
        path = rb.simulate_path(
            const(0), const(0), CoefficientSpec.from_samples(values), grid, np.zeros(8)
        )
        assert np.array_equal(path.u, values)

    def test_determinism_of_full_record(self):
        grid = rb.build_grid(5.0, 2000)
        a = CoefficientSpec.sinusoid(0.5, 1.5, 3.0)
        one = seeded_path(a, const(1), const(1), grid, seed=11)
        two = seeded_path(a, const(1), const(1), grid, seed=11)
        for left, right in ((one.x, two.x), (one.dw, two.dw), (one.u, two.u)):
            assert np.array_equal(left, right)

    def test_batch_mean_is_unbiased(self):
        grid = rb.build_grid(1.0, 64)
        finals = [
            seeded_path(const(0), const(1), const(1), grid, seed=1000 + i).x[-1]
            for i in range(1000)
        ]
        assert abs(np.mean(finals)) < 4.0 * math.sqrt(1.0) / math.sqrt(1000)


class TestCoarsenIncrements:
    def test_identity_factor(self):
        dw = np.array([0.1, 0.2, -0.3, 0.4])
        assert np.array_equal(rb.coarsen_increments(dw, 1), dw)

    def test_pairwise_sums(self):
        dw = np.array([0.1, 0.2, -0.3, 0.4])
        coarse = rb.coarsen_increments(dw, 2)
        assert np.array_equal(coarse, [0.1 + 0.2, -0.3 + 0.4])

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            rb.coarsen_increments(np.zeros(10), 3)

    def test_cumulative_sums_agree_at_shared_nodes(self):
        grid = rb.build_grid(5.0, 10_000)
        dw = rb.sample_wiener(grid, 9)
        coarse = rb.coarsen_increments(dw, 2)
        assert np.max(np.abs(np.cumsum(dw)[1::2] - np.cumsum(coarse))) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        factor=st.sampled_from([1, 2, 4, 8, 16]),
    )
    def test_coarsening_consistency_property(self, seed, factor):
        grid = rb.build_grid(2.0, 512)
        dw = rb.sample_wiener(grid, seed)
        coarse = rb.coarsen_increments(dw, factor)
        shared = np.cumsum(dw)[factor - 1 :: factor]
        assert np.max(np.abs(shared - np.cumsum(coarse))) < 1e-12
