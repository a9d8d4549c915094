"""Acceptance gate: every release-blocking property, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print.

Pathwise Euler residuals are random per path, so single-seed refinement
comparisons are noisy: one grid doubling shrinks the rotation-identity
residual for only ~83% of individual seeds (the per-seed counts are printed
for reference). Criteria 7 and 8 therefore gate on the batch-damped
statistic, the median residual over the full 100-seed batch, which must
shrink under one doubling; criteria 5 and 6 gate on net decay across the
whole refinement ladder per seed.
"""

import functools
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rangebound as rb
from rangebound import CoefficientSpec
from rangebound.errors import OracleCostError

from checks import (
    bounded_recursive,
    modulus,
    oracle_rows,
    recurrence_pair,
    residual_norm,
    riemann_cumsum,
    rotation_sides,
    seeded_path,
)

const = CoefficientSpec.constant

REPO_ROOT = Path(__file__).resolve().parents[1]


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")


def random_instance(rng, n_lo=400, n_hi=4000):
    """One bounded-coefficient configuration with the drift preset swept hard."""
    kind = rng.integers(0, 3)
    if kind == 0:
        a = const(rng.uniform(-10.0, 10.0))
    elif kind == 1:
        a = CoefficientSpec.sinusoid(
            rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0), rng.uniform(0.2, 6.0)
        )
    else:
        a = CoefficientSpec.state_bounded(rng.uniform(-8.0, 8.0))
    if rng.integers(0, 2):
        sigma = const(rng.uniform(0.1, 2.0))
    else:
        sigma = CoefficientSpec.sinusoid(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5), 2.0)
    pick_u = rng.integers(0, 3)
    if pick_u == 0:
        u = const(rng.uniform(-2.0, 2.0))
    elif pick_u == 1:
        u = CoefficientSpec.sinusoid(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 3.0)
    else:
        u = CoefficientSpec.state_bounded(rng.uniform(-2.0, 2.0))
    grid = rb.build_grid(rng.uniform(1.0, 8.0), int(rng.integers(n_lo, n_hi)))
    x0 = rng.uniform(-2.0, 2.0)
    path = seeded_path(a, sigma, u, grid, seed=int(rng.integers(0, 2**31)), x0=x0)
    return path


def test_criterion_01_bounded_envelope():
    started = time.perf_counter()
    grid = rb.build_grid(5.0, 100_000)
    worst_reference = -math.inf
    for seed in range(1, 101):
        path = seeded_path(const(2), const(1), const(1), grid, seed=seed)
        z = bounded_recursive(path)
        worst_reference = max(worst_reference, float(np.max(modulus(z))) - 5.0)

    rng = np.random.default_rng(20260811)
    worst_swept = -math.inf
    for _ in range(100):
        path = random_instance(rng)
        z = bounded_recursive(path)
        envelope = riemann_cumsum(np.abs(path.u), path.grid)
        tolerance = 1e-9 * (1.0 + envelope[-1])
        worst_swept = max(worst_swept, float(np.max(modulus(z) - envelope)) - tolerance)
    elapsed = time.perf_counter() - started

    ok = worst_reference <= 1e-9 and worst_swept <= 0.0 and elapsed < 60.0
    report(
        1,
        ok,
        f"reference margin {worst_reference:.3e} (<=1e-9), swept margin-over-tolerance "
        f"{worst_swept:.3e} (<=0), elapsed {elapsed:.1f}s (<60s)",
    )
    assert worst_reference <= 1e-9
    assert worst_swept <= 0.0
    assert elapsed < 60.0


def test_criterion_02_discounted_envelope():
    grid = rb.build_grid(5.0, 10_000)
    psi = 1.0 / (1.0 + grid.nodes[:-1])
    target = np.log1p(grid.nodes)
    worst = -math.inf
    for seed in range(1, 51):
        path = seeded_path(const(2), const(1), const(0), grid, seed=seed)
        u = rb.variance_discounted_u(psi, path.sigma, grid)
        path = replace(path, u_spec=CoefficientSpec.from_samples(u))
        z = recurrence_pair(path, bounded=False)[1]
        worst = max(worst, float(np.max(modulus(z) - target)))
    ok = worst <= 1e-9
    report(2, ok, f"max margin over log(1+t) envelope {worst:.3e} (<=1e-9), 50 seeds")
    assert worst <= 1e-9


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_ratio = 0.0
    for i in range(200):
        path = random_instance(rng, n_lo=100, n_hi=2000)
        which = "bounded" if i % 2 == 0 else "weighted"
        deviation = oracle_rows(path)[which][0]
        scale = 1.0 + float(np.sum(np.abs(path.u)) * path.grid.dt)
        if which == "weighted":
            scale = 1.0 + float(
                np.exp(0.5 * np.sum(path.sigma**2) * path.grid.dt)
                * np.sum(np.abs(path.u))
                * path.grid.dt
            )
        worst_ratio = max(worst_ratio, deviation / (1e-10 * scale))
    elapsed = time.perf_counter() - started
    ok = worst_ratio <= 1.0 and elapsed < 120.0
    report(
        3,
        ok,
        f"worst deviation at {worst_ratio:.3f} of the scaled tolerance (<=1), "
        f"200 instances, elapsed {elapsed:.1f}s (<120s)",
    )
    assert worst_ratio <= 1.0
    assert elapsed < 120.0


def test_criterion_04_closed_form_degenerate():
    grid = rb.build_grid(5.0, 10_000)
    path = seeded_path(const(2), const(0), const(1), grid, seed=1)
    z = bounded_recursive(path)
    t = grid.nodes
    err_x = float(np.max(np.abs(z.real - np.sin(2 * t) / 2)))
    err_y = float(np.max(np.abs(z.imag - (1 - np.cos(2 * t)) / 2)))
    ok = err_x <= 5 * grid.dt and err_y <= 5 * grid.dt
    report(4, ok, f"errX {err_x:.3e}, errY {err_y:.3e} (<= 5*dt = {5 * grid.dt:.3e})")
    assert err_x <= 5 * grid.dt
    assert err_y <= 5 * grid.dt


@functools.lru_cache(maxsize=1)
def _refinement_ladders():
    """Both identities' 4-level ladders for seeds 1..20, shared by criteria 5 and 6."""

    def rung(grid, increments, factor):
        return rb.simulate_path(const(2), const(1), const(1), grid, increments)

    grid = rb.build_grid(5.0, 2**16)
    return [
        rb.convergence_ladder(rb.sample_wiener(grid, seed), 5.0, rung, 4) for seed in range(1, 21)
    ]


def _refinement_study(identity: str):
    decayed = 0
    orders = []
    for reports in _refinement_ladders():
        rep = reports[identity]
        decayed += rep.residual_norms[0] > rep.residual_norms[-1]
        orders.extend(rep.estimated_orders)
    return decayed, float(np.median(orders))


def test_criterion_05_identity_convergence_bounded():
    decayed, median_order = _refinement_study("bounded")
    ok = decayed >= 18 and 0.4 <= median_order <= 1.6
    report(
        5,
        ok,
        f"residual decayed across the ladder for {decayed}/20 seeds (>=18), "
        f"median order {median_order:.3f} in [0.4, 1.6]",
    )
    assert decayed >= 18
    assert 0.4 <= median_order <= 1.6


def test_criterion_06_identity_convergence_weighted():
    decayed, median_order = _refinement_study("weighted")
    ok = decayed >= 18 and 0.4 <= median_order <= 1.6
    report(
        6,
        ok,
        f"residual decayed across the ladder for {decayed}/20 seeds (>=18), "
        f"median order {median_order:.3f} in [0.4, 1.6]",
    )
    assert decayed >= 18
    assert 0.4 <= median_order <= 1.6


def _rotation_doubling_study(identity):
    fine_grid = rb.build_grid(5.0, 8192)
    coarse_grid = rb.build_grid(5.0, 4096)
    fine_residuals = []
    coarse_residuals = []
    fine_records = []
    for seed in range(1, 101):
        dw = rb.sample_wiener(fine_grid, seed)
        fine = rb.simulate_path(const(0), const(1), const(1), fine_grid, dw)
        coarse = rb.simulate_path(
            const(0), const(1), const(1), coarse_grid, rb.coarsen_increments(dw, 2)
        )
        fine_residuals.append(residual_norm(*identity(fine)[1:]))
        coarse_residuals.append(residual_norm(*identity(coarse)[1:]))
        fine_records.append(fine)
    per_seed = int(np.sum(np.array(fine_residuals) < np.array(coarse_residuals)))
    return float(np.median(fine_residuals)), float(np.median(coarse_residuals)), per_seed, fine_records


def test_criterion_07_unit_rotation():
    med_fine, med_coarse, per_seed, records = _rotation_doubling_study(
        functools.partial(rotation_sides, scaled=False)
    )
    worst_margin = -math.inf
    for path in records:
        _, _, rhs = rotation_sides(path, scaled=False)
        bound = 2.0 + 0.5 * np.sum(path.sigma * path.sigma) * path.grid.dt
        worst_margin = max(worst_margin, abs(complex(rhs[-1])) - bound)
    bound_ok = worst_margin <= 1e-9
    ok = bound_ok and med_fine < med_coarse
    report(
        7,
        ok,
        f"|rhs| within 4.5 bound for 100/100 (worst margin {worst_margin:.3e}); "
        f"100-seed median residual {med_coarse:.3e} -> {med_fine:.3e} under one "
        f"doubling (per-seed decreases: {per_seed}/100)",
    )
    assert bound_ok
    assert med_fine < med_coarse


def test_criterion_08_scaled_rotation():
    med_fine, med_coarse, per_seed, records = _rotation_doubling_study(
        functools.partial(rotation_sides, scaled=True)
    )
    worst_rel = 0.0
    for path in records:
        U, _, _ = rotation_sides(path, scaled=True)
        worst_rel = max(worst_rel, abs(abs(U[-1]) - math.exp(2.5)) / math.exp(2.5))
    modulus_ok = worst_rel <= 1e-6
    ok = modulus_ok and med_fine < med_coarse
    report(
        8,
        ok,
        f"|U_N| within 1e-6 of exp(2.5) for 100/100 (worst rel {worst_rel:.3e}); "
        f"100-seed median residual {med_coarse:.3e} -> {med_fine:.3e} under one "
        f"doubling (per-seed decreases: {per_seed}/100)",
    )
    assert modulus_ok
    assert med_fine < med_coarse


def _keep_large_buffers_reusable():
    # without this, glibc hands the multi-MB scratch back to the kernel on
    # every free and the next run pays the zero-page faults again, which
    # would bill allocator behavior, not algorithm cost, to the larger size
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


def test_criterion_09_linear_scaling():
    import gc

    gc.collect()
    _keep_large_buffers_reusable()
    flusher = np.empty(8 * 1024 * 1024)
    big = seeded_path(const(2), const(1), const(1), rb.build_grid(5.0, 10**6), seed=1)
    small = seeded_path(const(2), const(1), const(1), rb.build_grid(5.0, 10**5), seed=1)

    # warm both once (first-touch faults), then interleave timed runs with an
    # LLC flush ahead of each so the two sizes see the same memory hierarchy
    bounded_recursive(big)
    bounded_recursive(small)
    time_big = math.inf
    time_small = math.inf
    for _ in range(7):
        flusher[:] = 1.0
        t0 = time.perf_counter()
        bounded_recursive(big)
        time_big = min(time_big, time.perf_counter() - t0)
        flusher[:] = 1.0
        t0 = time.perf_counter()
        bounded_recursive(small)
        time_small = min(time_small, time.perf_counter() - t0)
    ratio = time_big / time_small

    guard = seeded_path(const(2), const(1), const(1), rb.build_grid(5.0, 4001), seed=1)
    refused = False
    try:
        oracle_rows(guard)
    except OracleCostError:
        refused = True

    ok = time_big < 1.0 and 6.0 <= ratio <= 14.0 and refused
    report(
        9,
        ok,
        f"1e6-step transform in {time_big * 1e3:.1f}ms (<1s), 1e6/1e5 runtime ratio "
        f"{ratio:.1f} in [6, 14], quadratic reference refused above ceiling: {refused}",
    )
    assert time_big < 1.0
    assert 6.0 <= ratio <= 14.0
    assert refused


def test_criterion_10_byte_reproducibility(tmp_path):
    from rangebound.config import parse_config
    from rangebound.experiment import run_experiment

    config_path = REPO_ROOT / "paper_fig.cfg"
    config = parse_config(config_path.read_text(), base_dir=config_path.parent)
    run_experiment(config, out_dir=tmp_path / "one")
    run_experiment(config, out_dir=tmp_path / "two")

    csvs = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*.csv"))
    identical = bool(csvs)
    for name in csvs:
        identical &= (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def manifest_body(base):
        lines = (base / "manifest.txt").read_text().splitlines()
        return [l for l in lines if not l.startswith("created_utc")]

    manifests_match = manifest_body(tmp_path / "one") == manifest_body(tmp_path / "two")
    ok = identical and manifests_match
    report(
        10,
        ok,
        f"{len(csvs)} CSV files byte-identical: {identical}; manifests identical "
        f"modulo created_utc: {manifests_match}",
    )
    assert identical
    assert manifests_match
