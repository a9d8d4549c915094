"""One phasor evaluation per path serves both transforms.

The fused recurrence and the fused direct pass are compared bit for bit with
reference copies of the one-transform-per-pass implementations they replaced,
and the commands are checked to evaluate each path's phasor once.
"""

import sys
import tracemalloc
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rangebound as rb
from rangebound import experiment, transforms, verification
from rangebound.config import parse_config
from rangebound.experiment import emit_figures, prepare_path, run_experiment, verify_suite
from rangebound.transforms import (
    RESCALE_THRESHOLD,
    TWO_PI,
    _reduce_phase,
    transform_pair_direct,
)

from checks import (
    bounded_recursive,
    oracle_rows,
    recurrence_pair,
    rotation_sides,
    seeded_path,
    whole_half_variance,
)

const = rb.CoefficientSpec.constant
B = transforms._RESTART_NODES


# ---------------------------------------------------------------------------
# Reference copies: one transform per pass, np.mod phase reduction.


@dataclass(frozen=True)
class _Carry:
    C: float = 0.0
    S: float = 0.0
    I: float = 0.0
    scale_exponent: float = 0.0


def reference_recurrence(path, half_i, rescale_threshold):
    n_nodes = path.grid.n_steps + 1
    x = path.x
    u = path.u
    dt = path.grid.dt
    weighted = half_i is not None
    block = transforms._RESTART_NODES

    out_x = np.empty(n_nodes)
    out_y = np.empty(n_nodes)
    size = min(block, n_nodes)
    phase = np.empty(size)
    rot = np.empty(size, dtype=np.complex128)
    terms = np.empty(size, dtype=np.complex128)
    run = np.empty(size + 1, dtype=np.complex128)
    z = np.empty(size, dtype=np.complex128)
    decay = np.empty(size) if weighted else None

    carry = _Carry()
    k0 = 0
    while k0 < n_nodes:
        if weighted:
            scale = half_i[k0]
            k1 = int(np.searchsorted(half_i, scale + rescale_threshold, side="right"))
            k1 = max(min(k1, k0 + block), k0 + 1)
        else:
            scale = 0.0
            k1 = min(k0 + block, n_nodes)
        m = k1 - k0
        j_hi = min(k1, n_nodes - 1)
        mj = j_hi - k0

        ph = np.mod(x[k0:k1], TWO_PI, out=phase[:m])
        rot_blk = rot[:m]
        np.cos(ph, out=rot_blk.real)
        np.sin(ph, out=rot_blk.imag)

        np.conjugate(rot_blk[:mj], out=terms[:mj])
        terms[:mj] *= u[k0:j_hi]
        terms[:mj] *= dt
        if weighted:
            w = np.subtract(half_i[k0:j_hi], scale, out=decay[:mj])
            np.negative(w, out=w)
            np.exp(w, out=w)
            terms[:mj] *= w

        rebased = complex(carry.C, -carry.S) * (
            np.exp(scale - carry.scale_exponent) if weighted else 1.0
        )
        run[0] = rebased
        np.cumsum(terms[:mj], out=run[1 : mj + 1])
        run[1 : mj + 1] += rebased

        z_blk = np.multiply(rot_blk, run[:m], out=z[:m])
        if weighted:
            lift = np.subtract(half_i[k0:k1], scale, out=phase[:m])
            np.exp(lift, out=lift)
            z_blk *= lift
            z_blk *= 1j
        out_x[k0:k1] = z_blk.real
        out_y[k0:k1] = z_blk.imag

        carry = _Carry(
            C=run[mj].real,
            S=-run[mj].imag,
            I=2.0 * half_i[j_hi] if weighted else 0.0,
            scale_exponent=scale,
        )
        k0 = k1
    return out_x, out_y


def reference_direct(path, weighted):
    n = path.grid.n_steps
    x = path.x
    udt = path.u * path.grid.dt
    half_i = whole_half_variance(path) if weighted else None
    cos_part = np.zeros(n + 1)
    sin_part = np.zeros(n + 1)
    cols = np.arange(n)
    for r0 in range(1, n + 1, 256):
        r1 = min(r0 + 256, n + 1)
        j_hi = r1 - 1
        diff = x[r0:r1, None] - x[None, :j_hi]
        terms = udt[None, :j_hi] * (cols[None, :j_hi] < np.arange(r0, r1)[:, None])
        if weighted:
            terms = terms * np.exp(half_i[r0:r1, None] - half_i[None, :j_hi])
        cos_part[r0:r1] = (np.cos(diff) * terms).sum(axis=1)
        sin_part[r0:r1] = (np.sin(diff) * terms).sum(axis=1)
    if weighted:
        return -sin_part, cos_part
    return cos_part, sin_part


def same_bits(z, reference):
    X, Y = reference
    return z.real.tobytes() == X.tobytes() and z.imag.tobytes() == Y.tobytes()


def assert_recurrences_match(path, threshold=RESCALE_THRESHOLD):
    half_i = whole_half_variance(path)
    ref_bounded = reference_recurrence(path, None, threshold)
    ref_weighted = reference_recurrence(path, half_i, threshold)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "RESCALE_THRESHOLD", threshold)
        bounded, weighted = recurrence_pair(path)
        assert same_bits(bounded_recursive(path), ref_bounded)
    assert same_bits(bounded, ref_bounded)
    if np.isfinite(ref_weighted).all():
        assert same_bits(weighted, ref_weighted)
        assert same_bits(weighted_alone(path, threshold), ref_weighted)
    else:
        # values past double range: the fused pass gives no weighted series
        assert weighted is None
        assert weighted_alone(path, threshold) is None


def weighted_alone(path, threshold=RESCALE_THRESHOLD):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "RESCALE_THRESHOLD", threshold)
        return recurrence_pair(path, bounded=False)[1]


def with_zero_stretches(path, rng):
    """u with runs of exact +0.0 and -0.0, which expose signed-zero slips."""
    u = np.array(path.u)
    n = len(u)
    for _ in range(4):
        start = int(rng.integers(0, n))
        u[start : start + int(rng.integers(1, max(2, n // 3)))] = rng.choice([0.0, -0.0])
    return replace(path, u_spec=rb.CoefficientSpec.from_samples(u))


# ---------------------------------------------------------------------------
# Phase reduction.

SPECIAL_PHASES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e300, -1e300, TWO_PI, -TWO_PI, 3 * TWO_PI, -7 * TWO_PI, np.pi, -np.pi, 1e-17, -1e-17,
    np.nextafter(TWO_PI, 0.0), np.nextafter(-TWO_PI, 0.0), 2.0**53, -(2.0**60),
]


@settings(deadline=None, max_examples=300)
@given(
    values=st.lists(
        st.one_of(st.sampled_from(SPECIAL_PHASES), st.floats(allow_nan=True, allow_infinity=True)),
        min_size=1,
        max_size=64,
    ),
    multiples=st.lists(st.integers(-(10**6), 10**6), max_size=8),
)
def test_phase_reduction_matches_np_mod(values, multiples):
    x = np.array(values + [k * TWO_PI for k in multiples], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        expected = np.mod(x, TWO_PI)
        got = _reduce_phase(x, np.empty_like(x))
    assert got.tobytes() == expected.tobytes()


def test_phase_reduction_matches_np_mod_on_a_long_path():
    x = np.cumsum(np.random.default_rng(5).normal(size=100_000)) * 3.0
    assert _reduce_phase(x, np.empty_like(x)).tobytes() == np.mod(x, TWO_PI).tobytes()


# ---------------------------------------------------------------------------
# Fused recurrence against the one-transform reference.


@pytest.mark.parametrize("threshold", [5.0, 20.0, 100.0, 1e9])
@pytest.mark.parametrize(
    "t_max, n_steps, a, sigma, u, seed",
    [(1436.0, 2000, 0.0, 1.0, 1e-6, 3), (50.0, 500, 0.5, 3.0, 1.0, 7)],
)
def test_pair_recurrence_matches_reference_on_rebasing_paths(
    t_max, n_steps, a, sigma, u, seed, threshold
):
    path = seeded_path(const(a), const(sigma), const(u), rb.build_grid(t_max, n_steps), seed)
    # without rebasing (threshold 1e9) the 1436 path overflows: the reference
    # copy warns and turns inf, the fused pass returns None
    with np.errstate(over="ignore", invalid="ignore"):
        assert_recurrences_match(path, threshold)


@pytest.mark.parametrize("n_steps", [1, 2, B - 2, B - 1, B, B + 1, 2 * B + 3])
def test_pair_recurrence_matches_reference_at_block_edges(n_steps):
    # sigma 4 over t_max 40 rebases inside the bounded blocks
    grid = rb.build_grid(40.0, n_steps)
    path = seeded_path(
        rb.CoefficientSpec.sinusoid(1, 2, 3), const(4), rb.CoefficientSpec.sinusoid(1, 1, 2),
        grid, seed=n_steps,
    )
    assert_recurrences_match(path)
    assert_recurrences_match(with_zero_stretches(path, np.random.default_rng(n_steps)), 20.0)


def test_pair_recurrence_matches_reference_with_zero_integrand():
    path = seeded_path(const(0), const(1), const(0), rb.build_grid(5.0, 2 * B + 3), 1)
    assert_recurrences_match(path)
    assert_recurrences_match(replace(path, u_spec=rb.CoefficientSpec.from_samples(-path.u)), 5.0)


@settings(deadline=None, max_examples=60)
@given(
    block=st.integers(1, 40),
    segment=st.integers(1, 50),
    n_steps=st.integers(1, 200),
    sigma=st.floats(0.0, 6.0),
    threshold=st.sampled_from([0.5, 5.0, 20.0, 1e9]),
    seed=st.integers(0, 2**32),
    zeros=st.booleans(),
)
def test_pair_recurrence_matches_reference_on_dense_block_splits(
    block, segment, n_steps, sigma, threshold, seed, zeros
):
    # small blocks make the bounded and weighted block starts interleave densely,
    # and segments shorter than a block split it without changing a value
    path = seeded_path(
        const(1.5), const(sigma), rb.CoefficientSpec.sinusoid(0, 1, 7), rb.build_grid(20.0, n_steps),
        seed,
    )
    if zeros:
        path = with_zero_stretches(path, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_RESTART_NODES", block)
        mp.setattr(transforms, "_SEGMENT_NODES", segment)
        assert_recurrences_match(path, threshold)


def test_pair_recurrence_returns_only_what_is_asked():
    """A transform with no consumers is not computed, and the other is the same bits alone."""
    path = seeded_path(const(1), const(1), const(1), rb.build_grid(1.0, 50), 1)
    both = recurrence_pair(path)
    bounded, weighted = recurrence_pair(path, weighted=False)
    assert weighted is None and bounded.tobytes() == both[0].tobytes()
    bounded, weighted = recurrence_pair(path, bounded=False)
    assert bounded is None and weighted.tobytes() == both[1].tobytes()
    assert both[0].tobytes() != both[1].tobytes()
    assert rb.reduce_pass(path, ([], [])) == [False, False]


# ---------------------------------------------------------------------------
# Fused direct pass against the one-transform reference.


def split_direct(mp, workers, rows):
    """Run the direct pass on ``workers`` threads, caller included, ``rows`` rows at a time."""
    mp.setattr(transforms, "_direct_workers", lambda: workers)
    mp.setattr(transforms, "_DIRECT_SUB_ROWS", rows)


SPLITS = [(workers, rows) for workers in (1, 2, 3, 4) for rows in (1, 5, 16, 64)]


@pytest.fixture
def fast_switching():
    """Threads take turns every microsecond, so a row lost or written twice would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_steps", [1, 2, 63, 64, 65, 255, 256, 257, 600])
def test_pair_direct_matches_reference(n_steps, fast_switching):
    """Bit for bit, at one to four workers and every sub-block size."""
    grid = rb.build_grid(50.0, n_steps)
    path = seeded_path(const(0.5), const(3), rb.CoefficientSpec.sinusoid(1, 1, 2), grid, 7)
    path = with_zero_stretches(path, np.random.default_rng(n_steps))
    ref_bounded, ref_weighted = (reference_direct(path, weighted) for weighted in (False, True))
    for workers, rows in SPLITS:
        with pytest.MonkeyPatch.context() as mp:
            split_direct(mp, workers, rows)
            bounded, weighted = transform_pair_direct(path)
            alone_bounded = transform_pair_direct(path, weighted=False)[0]
            alone_weighted = transform_pair_direct(path, bounded=False)[1]
        assert same_bits(bounded, ref_bounded), (workers, rows)
        assert same_bits(weighted, ref_weighted), (workers, rows)
        assert same_bits(alone_bounded, ref_bounded), (workers, rows)
        assert same_bits(alone_weighted, ref_weighted), (workers, rows)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_direct_at_the_ceiling_is_exact_and_no_larger_than_one_reference(monkeypatch):
    """tracemalloc traces every thread, so the workers' scratch counts at 4 workers too."""
    grid = rb.build_grid(5.0, verification.ORACLE_CEILING)
    path = seeded_path(const(2), const(1), const(1), grid, 1)
    reference, reference_peak = _peak_bytes(lambda: reference_direct(path, weighted=True))
    bounded_reference = reference_direct(path, weighted=False)
    for workers in (transforms._direct_workers(), 4):
        monkeypatch.setattr(transforms, "_direct_workers", lambda: workers)
        (bounded, weighted), peak = _peak_bytes(lambda: transform_pair_direct(path))
        assert same_bits(weighted, reference)
        assert same_bits(bounded, bounded_reference)
        assert peak <= reference_peak, workers


def overflowing_path():
    """The half-variance total reaches 718, beyond log(DBL_MAX) = 709.78, so the
    weighted weights of the last rows, 1978 on, overflow."""
    return seeded_path(const(0), const(1), const(1e-6), rb.build_grid(1436.0, 2000), 3)


# At 256 rows a sub-block is a whole row block, and only the last of the eight, a
# thread's at 2, 3 or 4 workers, overflows; at 16 rows both the caller and a thread meet it.
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_pair_direct_runs_every_worker_in_the_callers_error_state(workers):
    path = overflowing_path()
    for rows in (16, 256):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            split_direct(mp, workers, rows)
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                bounded, weighted = transform_pair_direct(path)
                reference = reference_direct(path, weighted=True)
        assert not np.isfinite(weighted[-1])
        assert same_bits(weighted, reference), rows
        assert same_bits(bounded, reference_direct(path, weighted=False)), rows


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_pair_direct_raises_a_workers_overflow_in_the_caller(workers):
    """As the serial pass does, whichever worker meets it."""
    path = overflowing_path()
    for rows in (16, 256):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            split_direct(mp, workers, rows)
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                transform_pair_direct(path)


def test_oracle_pair_skips_weighted_direct_when_its_weights_overflow(phasor_counts):
    path = overflowing_path()
    _, directs, _ = phasor_counts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = oracle_rows(path)
        bounded, weighted = transforms.transform_pair_direct(path, weighted=False)
    assert directs == [(2000, True, False), (2000, True, False)]
    assert weighted is None
    assert same_bits(bounded, reference_direct(path, weighted=False))
    assert rows["weighted"] is None
    fast = bounded_recursive(path)
    deviation = max(np.max(np.abs(bounded.real - fast.real)), np.max(np.abs(bounded.imag - fast.imag)))
    integral = np.sum(np.abs(path.u)) * path.grid.dt
    assert rows["bounded"] == (deviation, 1e-10 * (1 + integral))


# ---------------------------------------------------------------------------
# The commands evaluate each path's phasor once.

LADDER = "t_max=5\nn_steps=4096\na=sin:1,2,3\nsigma=sin:2,1,1\nu=const:1\nseeds=1\n"


@pytest.fixture
def phasor_counts(monkeypatch):
    """Nodes reduced per path array, the direct passes made through the names
    compare_oracle_pair and ``transforms`` look them up by, and the steps of each
    reduce_pass the commands make."""
    reduced, directs, passes = [], [], []
    reduce_phase, direct = transforms._reduce_phase, transforms.transform_pair_direct
    reduce_pass = transforms.reduce_pass

    def counting_reduce(x, out):
        reduced.append((x.base if x.base is not None else x, len(x)))
        return reduce_phase(x, out)

    def counting_direct(path, bounded=True, weighted=True):
        directs.append((path.grid.n_steps, bounded, weighted))
        return direct(path, bounded, weighted)

    def counting_pass(path, consumers):
        passes.append(path.grid.n_steps)
        return reduce_pass(path, consumers)

    monkeypatch.setattr(transforms, "_reduce_phase", counting_reduce)
    for module in (transforms, verification):
        monkeypatch.setattr(module, "transform_pair_direct", counting_direct)
    for module in (experiment, verification):
        monkeypatch.setattr(module, "reduce_pass", counting_pass)

    def per_path():
        # the list keeps every array alive, so no id is reused
        totals = {}
        for base, m in reduced:
            totals[id(base)] = totals.get(id(base), 0) + m
        return sorted(totals.values())

    return per_path, directs, passes


@pytest.mark.parametrize("ceiling, oracle_n", [(4096, 4096), (4000, 4000)])
def test_verify_reduces_each_path_once_per_pass(phasor_counts, ceiling, oracle_n):
    """One pass on the seed's path, whose first nodes the oracle reads, and one per coarser rung:
    the oracle makes no pass of its own, whether its head is the whole path or not."""
    per_path, directs, passes = phasor_counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "ORACLE_CEILING", ceiling)
        summary = verify_suite(parse_config(LADDER), convergence_levels=4)
    assert not summary.failed
    assert passes == [4096, 512, 1024, 2048]
    assert per_path() == [513, 1025, 2049, 4097]
    assert directs == [(oracle_n, True, True)]


def test_run_reduces_each_path_once_per_pass(phasor_counts, tmp_path):
    """One pass on the seed's path, which feeds the checks, the writers and the oracle's head,
    and one per coarser rung."""
    per_path, directs, passes = phasor_counts
    cfg = parse_config(LADDER.replace("4096", "4000"))
    run_experiment(cfg, out_dir=tmp_path, convergence_levels=4)
    assert passes == [4000, 500, 1000, 2000]
    assert per_path() == [501, 1001, 2001, 4001]
    assert directs == [(4000, True, True)]


def test_figures_evaluates_the_phasor_once(phasor_counts, tmp_path):
    per_path, directs, passes = phasor_counts
    emit_figures(parse_config(LADDER), out_dir=tmp_path)
    assert passes == [4096]
    assert per_path() == [4097]
    assert directs == []


def feeds_in_passes(monkeypatch, *kinds):
    """Each feed of a consumer of ``kinds`` as (kind, k0, k1, n_steps of each reduce_pass open
    then), through experiment.reduce_pass as the commands call it."""
    feeds, walking = [], []
    walk = experiment.reduce_pass

    def open_pass(path, consumers):
        walking.append(path.grid.n_steps)
        try:
            return walk(path, consumers)
        finally:
            walking.pop()

    monkeypatch.setattr(experiment, "reduce_pass", open_pass)
    for kind in kinds:

        def counted(self, k0, k1, z, kind=kind, feed=kind.feed):
            feeds.append((kind.__name__, k0, k1, list(walking)))
            return feed(self, k0, k1, z)

        monkeypatch.setattr(kind, "feed", counted)
    return feeds


DRIFTLESS_LADDER = LADDER.replace("a=sin:1,2,3", "a=const:0")


def test_run_of_the_path_lane_alone_evaluates_no_phasor(phasor_counts, monkeypatch, tmp_path):
    """x.csv and the rotations with no transform asked for: one pass per seed walks the path's
    lane to node N, and no phasor is formed."""
    per_path, directs, passes = phasor_counts
    feeds = feeds_in_passes(monkeypatch, verification.RotationCheck, experiment.CsvWriter)
    cfg = parse_config(DRIFTLESS_LADDER.replace("seeds=1", "seeds=1,2") + "outputs=path,remarks\n")
    manifest = run_experiment(cfg, out_dir=tmp_path)
    assert passes == [4096, 4096]
    assert per_path() == [] and directs == []
    names = ["x.csv", "rotation_scaled.csv", "rotation_unit.csv"]
    assert sorted(manifest.files) == sorted(f"seed{s}/{name}" for s in (1, 2) for name in names)
    assert {kind for kind, *_ in feeds} == {"RotationCheck", "CsvWriter"}
    assert all(walking == [4096] for *_, walking in feeds)
    assert sum(k1 - k0 for kind, k0, k1, _ in feeds if kind == "CsvWriter") == 2 * 4097


def test_driftless_verify_walks_the_seed_path_once(phasor_counts, monkeypatch):
    """The unit rotation reads the lane of the seed path's one pass and makes no walk of its own."""
    per_path, directs, passes = phasor_counts
    feeds = feeds_in_passes(monkeypatch, verification.RotationCheck)
    summary = verify_suite(parse_config(DRIFTLESS_LADDER), convergence_levels=4)
    assert not summary.failed
    assert any(check.name == "bound[rotation] seed=1" for check in summary.checks)
    assert passes == [4096, 512, 1024, 2048]
    assert per_path() == [513, 1025, 2049, 4097]
    assert feeds and all(walking == [4096] for *_, walking in feeds)
    assert sum(k1 - k0 for _, k0, k1, _ in feeds) == 4097


# ---------------------------------------------------------------------------
# The weighted oracle is skipped, not failed, once its scale leaves double range.

OVERFLOW = "t_max=1436\nn_steps=2000\na=const:0\nsigma=const:1\nu=const:1e-6\nseeds=3\n"


def test_verify_skips_weighted_oracle_beyond_double_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = verify_suite(parse_config(OVERFLOW))
    assert not summary.failed
    assert "oracle[weighted] seed=3: scale leaves double range, skipped" in summary.notes
    assert [c.name for c in summary.checks if c.name.startswith("oracle")] == [
        "oracle[bounded] seed=3 n=2000"
    ]


# e^{I/2} = e^709 is finite, but times the integral of |u| it is not, and
# neither are the weighted transform's own values
WEIGHTED_OVERFLOW = "t_max=1418\nn_steps=500\na=const:0\nsigma=const:1\nu=const:1e3\nseeds=1\n"


def test_pair_recurrence_gives_no_weighted_series_beyond_double_range():
    path = prepare_path(parse_config(WEIGHTED_OVERFLOW), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounded, weighted = recurrence_pair(path)
        alone = weighted_alone(path)
    assert weighted is None and alone is None
    assert same_bits(bounded, reference_recurrence(path, None, RESCALE_THRESHOLD))


def test_verify_skips_weighted_oracle_with_an_infinite_tolerance():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = verify_suite(parse_config(WEIGHTED_OVERFLOW))
    assert not summary.failed
    assert "oracle[weighted] seed=1: scale leaves double range, skipped" in summary.notes
    assert not any(c.name.startswith("oracle[weighted]") for c in summary.checks)
    assert "identity[weighted] seed=1: values leave double range, skipped" in summary.notes
    assert not any("nan" in line for line in summary.lines())


def test_run_records_a_warning_instead_of_a_nan_deviation(tmp_path):
    cfg = parse_config(OVERFLOW + "outputs=identities\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.get("seed.3.oracle.weighted.deviation") is None
    assert manifest.get("seed.3.oracle.bounded.deviation") is not None
    assert (
        "seed 3: weighted direct oracle skipped: its scale leaves double range"
        in manifest.warnings
    )


def test_run_records_a_warning_when_the_weighted_oracle_tolerance_overflows(tmp_path):
    cfg = parse_config(WEIGHTED_OVERFLOW + "outputs=identities\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.get("seed.1.oracle.weighted.deviation") is None
    assert manifest.get("seed.1.oracle.bounded.deviation") is not None
    assert manifest.warnings == [
        "seed 1: weighted transform skipped: its values leave double range",
        "seed 1: weighted direct oracle skipped: its scale leaves double range",
    ]


def test_run_skips_the_weighted_series_beyond_double_range(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_experiment(parse_config(WEIGHTED_OVERFLOW), out_dir=tmp_path)
    assert sorted(manifest.files) == [
        f"seed1/{name}.csv"
        for name in ("bound_t1", "identity_t1", "rotation_unit", "t1", "x")
    ]
    assert not (tmp_path / "seed1" / "t2.csv").exists()
    assert manifest.get("seed.1.identity_t2.residual") is None
    assert manifest.get("seed.1.identity_t1.residual") is not None
    assert "seed 1: weighted transform skipped: its values leave double range" in manifest.warnings
    assert "nan" not in manifest.to_text()


def test_weighted_convergence_is_skipped_beyond_double_range(tmp_path):
    cfg = parse_config(WEIGHTED_OVERFLOW.replace("n_steps=500", "n_steps=512"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        summary = verify_suite(cfg)
    assert manifest.get("seed.1.convergence.bounded.grids") == "64,128,256,512"
    assert not [key for key, _ in manifest.entries if key.startswith("seed.1.convergence.weighted")]
    assert any(note.startswith("convergence[bounded] seed=1") for note in summary.notes)
    assert not any(note.startswith("convergence[weighted]") for note in summary.notes)
    assert "identity[weighted] seed=1: values leave double range, skipped" in summary.notes


def test_verify_skips_the_discounted_envelope_check_beyond_double_range():
    # psi dt sums past DBL_MAX on a path that barely turns; the bounded sums
    # overflow as well (tests/test_double_range.py covers them)
    cfg = parse_config(
        "t_max=5\nn_steps=512\na=const:0\nsigma=const:0.01\npsi=const:1e308\nseeds=1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = verify_suite(cfg)
    assert not any(c.name.startswith("bound[t2]") for c in summary.checks)
    assert "identity[weighted] seed=1: values leave double range, skipped" in summary.notes


def test_run_skips_the_scaled_rotation_beyond_double_range(tmp_path):
    cfg = parse_config(OVERFLOW + "outputs=remarks\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        manifest = run_experiment(cfg, out_dir=tmp_path)
    assert manifest.files == ["seed3/rotation_unit.csv"]
    assert not (tmp_path / "seed3" / "rotation_scaled.csv").exists()
    assert manifest.get("seed.3.rotation_scaled.residual") is None
    assert manifest.warnings == ["seed 3: scaled rotation skipped: its scale leaves double range"]
    _, lhs, rhs = rotation_sides(prepare_path(cfg, 3), scaled=False)
    lhs, rhs = complex(lhs[-1]), complex(rhs[-1])
    assert manifest.get("seed.3.rotation_unit.rhs_abs") == format(abs(rhs), ".17g")
    assert manifest.get("seed.3.rotation_unit.residual") == format(abs(lhs - rhs), ".17g")


# ---------------------------------------------------------------------------
# The rotation series is the one its running sides were built from.


def test_rotation_series_are_bit_exact():
    path = seeded_path(const(0), const(1.3), const(1), rb.build_grid(5.0, 1000), 4)
    phase = 1j * (path.x - path.x[0])
    unit, _, _ = rotation_sides(path, scaled=False)
    assert unit.tobytes() == np.exp(phase).tobytes()
    scaled, _, _ = rotation_sides(path, scaled=True)
    assert scaled.tobytes() == (1j * np.exp(phase + whole_half_variance(path))).tobytes()
