"""verify reduces its checks block by block while the recurrence walks the path.

Every scalar it records must be, bit for bit, what whole-array reductions give
on the same transforms, wherever the blocks fall; and its memory must grow
with the path's own arrays, not with whole copies of the series it checks.
"""

import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rangebound as rb
from rangebound import experiment, transforms, verification
from rangebound.config import parse_config
from rangebound.errors import ConfigurationError

from checks import whole_bound, whole_residual

BLOCKS = (1, 2, 5, 64)


def whole_rung_residuals(path):
    """verification._rung_residuals with whole series and whole-array sums."""
    pair = rb.transform_pair_recursive(path)
    return {
        identity: None if ts is None else whole_residual(path, ts)
        for identity, ts in zip(("bounded", "weighted"), pair)
    }


def whole_array_record(config, seed):
    """The bounds, residuals and ladder verify records, from whole series."""
    path = experiment.prepare_path(config, seed)
    ts1, ts2 = rb.transform_pair_recursive(path)
    record = experiment.SeedRecord()
    record.skipped = [which for which, ts in (("bounded", ts1), ("weighted", ts2)) if ts is None]
    if ts1 is not None:
        record.bounds["t1"] = whole_bound(ts1, path.u, path.grid)
    if ts2 is not None and config.uses_discounted_u:
        psi = config.psi_spec.sample_series(path.grid, x_left=path.x[:-1])
        record.bounds["t2"] = whole_bound(ts2, psi, path.grid)
    record.residuals = {
        "bounded": None if ts1 is None else whole_residual(path, ts1),
        "weighted": None if ts2 is None else whole_residual(path, ts2),
    }
    record.convergence = {}
    if record.has_residual:
        rung = lambda grid, dw, factor: experiment.build_path(config, grid, dw, factor, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verification, "_rung_residuals", whole_rung_residuals)
            record.convergence = rb.convergence_ladder(
                path.dw, config.t_max, rung, 4, finest=record.residuals
            )
    return record


def bits(value):
    """A value with every float spelled exactly, so -0.0, nan and inf compare by their bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (rb.BoundReport, rb.ConvergenceReport)):
        return type(value).__name__, bits(list(vars(value).values()))
    return value


def coefficient(scale):
    """A const, sin or state token with parameters in [-scale, scale]."""
    value = st.floats(-scale, scale)
    return st.one_of(
        value.map(lambda c: f"const:{c!r}"),
        st.tuples(value, value, st.floats(0.1, 8.0)).map(lambda p: "sin:" + ",".join(map(repr, p))),
        value.map(lambda c: f"state:{c!r}"),
    )


@st.composite
def configs(draw):
    integrand = draw(st.sampled_from(["u", "psi"]))
    return (
        f"t_max = {draw(st.sampled_from([0.5, 1.0, 5.0]))!r}\n"
        f"n_steps = {8 * draw(st.integers(1, 24))}\n"
        f"x0 = {draw(st.floats(-3.0, 3.0))!r}\n"
        f"a = {draw(coefficient(5.0))}\n"
        f"sigma = {draw(coefficient(40.0))}\n"
        f"{integrand} = {draw(coefficient(3.0))}\n"
        "seeds = 1\n"
    )


TIE = "t_max = 1\nn_steps = 64\nx0 = 0\na = const:0\nsigma = const:0\nu = const:1\nseeds = 1\n"
REBASES = "t_max = 1\nn_steps = 64\na = const:1\nsigma = const:30\npsi = sin:1,1,3\nseeds = 1\n"
LEAVES_RANGE = "t_max = 1\nn_steps = 64\na = const:1\nsigma = const:40\nu = const:1\nseeds = 1\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@example(text=TIE, block=5, seed=1)
@example(text=REBASES, block=2, seed=3)
@example(text=REBASES.replace("psi", "u"), block=64, seed=3)
@example(text=LEAVES_RANGE, block=5, seed=2)
@given(text=configs(), block=st.sampled_from(BLOCKS), seed=st.integers(1, 1000))
def test_seed_record_matches_whole_array_reductions(text, block, seed):
    config = parse_config(text)
    with pytest.MonkeyPatch.context() as mp:
        # segments of 3 nodes also split the blocks of 5 and 64
        mp.setattr(transforms, "_RECURRENCE_BLOCK", block)
        mp.setattr(transforms, "_SEGMENT_NODES", 3)
        try:
            want = whole_array_record(config, seed)
        except ConfigurationError:
            return  # a path out of double range is refused either way
        got = experiment._evaluate_seed(config, seed, experiment.VERIFY_WANTED, 4)
    assert got.skipped == want.skipped
    assert bits(got.bounds) == bits(want.bounds)
    assert bits(got.residuals) == bits(want.residuals)
    assert bits(got.convergence) == bits(want.convergence)


def test_examples_reach_their_edges():
    """The named examples hold what they are named for."""
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transforms, "_RECURRENCE_BLOCK", block)
            tie = experiment._evaluate_seed(parse_config(TIE), 1, {"bound_t1"}, 4)
            wanted = experiment.VERIFY_WANTED - {"coarse_oracle"}
            leaves = experiment._evaluate_seed(parse_config(LEAVES_RANGE), 2, wanted, 4)
        # every node's margin is exactly 0, so the tie spans every block boundary
        assert tie.bounds["t1"].max_violation == 0.0 and tie.bounds["t1"].violation_index == 0
        assert leaves.skipped == ["weighted"] and leaves.residuals["weighted"] is None
    path = experiment.prepare_path(parse_config(REBASES), 3)
    assert transforms.half_variance_sum(path)[-1] > 1.2 * transforms.RESCALE_THRESHOLD
    segments = []
    transforms.reduce_pass(path, ([], [SimpleNamespace(feed=lambda k0, k1, z: segments.append(k0))]))
    assert len(segments) > 1  # 65 nodes in one block but for the rebase


PSI = "t_max = 5\nn_steps = {}\na = sin:1,2,3\nsigma = sin:2,1,1\npsi = sin:1,0.5,2\nseeds = 1\n"


def verify_peak(n_steps):
    """Peak traced bytes of verify_suite and the bytes of the path it simulates."""
    config = parse_config(PSI.format(n_steps))
    path = experiment.prepare_path(config, 1)
    path_bytes = sum(a.nbytes for a in (path.grid.nodes, path.x, path.dw, path.a, path.sigma, path.u))
    del path
    tracemalloc.start()
    try:
        # a small oracle ceiling keeps the O(N^2) reference cheap and out of the peak
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verification, "ORACLE_CEILING", 500)
            assert not rb.verify_suite(config).failed
        return tracemalloc.get_traced_memory()[1], path_bytes
    finally:
        tracemalloc.stop()


def test_verify_memory_grows_with_the_path_only():
    """Doubling the path grows verify's peak by the path's arrays and one more series.

    The peak is the path (six series) plus one series: a temporary of the
    simulation, or the half variance sum beside the recurrence. The scratch of
    a block is the same at both sizes, so the difference leaves it out. A
    whole transform, side or envelope held again would add at least one more
    series to the difference: 8/6 of the path's growth against the 7/6 here.
    """
    small, small_path = verify_peak(200_000)
    large, large_path = verify_peak(400_000)
    assert large - small <= 1.25 * (large_path - small_path)
