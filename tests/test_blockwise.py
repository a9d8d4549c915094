"""verify reduces its checks block by block while the recurrence walks the path.

Every scalar it records must be, bit for bit, what whole-array reductions give
on the same transforms, wherever the blocks fall; and its memory must grow
with the path's own arrays, not with whole copies of the series it checks.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
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


def whole_array_rows(config, seed):
    """The transform, bound, identity and convergence rows verify evaluates, from whole series."""
    path = experiment.prepare_path(config, seed)
    psi = None  # the weighted transform's envelope needs psi
    if config.uses_discounted_u:
        psi = config.psi_spec.sample_series(path.grid, x_left=path.x[:-1])
    pair = rb.transform_pair_recursive(path)
    rows, residuals = [], {}
    for which, ts, integrand in zip(("bounded", "weighted"), pair, (path.u, psi)):
        residuals[which] = residual = None if ts is None else whole_residual(path, ts)
        if ts is None:
            rows.append(("transform", which, "range"))
        elif integrand is not None:
            rows.append(("bound", which, whole_bound(ts, integrand, path.grid) or "range"))
        skip = "transform" if ts is None else "range"
        rows.append(("identity", which, skip if residual is None else (residual,)))
    if all(residual is None for residual in residuals.values()):
        return rows + [("convergence", None, "residual")]
    rung = lambda grid, dw, factor: experiment.build_path(config, grid, dw, factor, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_rung_residuals", whole_rung_residuals)
        reports = rb.convergence_ladder(path.dw, config.t_max, rung, 4, finest=residuals)
    rows += [("convergence", which, report) for which, report in reports.items()]
    return rows + [
        ("convergence", which, "order")
        for which, residual in residuals.items()
        if residual is not None and which not in reports
    ]


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
            want = whole_array_rows(config, seed)
        except ConfigurationError:
            return  # a path out of double range is refused either way
        rows = experiment._evaluate_seed(config, seed, experiment.VERIFY_WANTED, 4)
    got = [row for row in rows if row[0] in ("transform", "bound", "identity", "convergence")]
    assert bits(got) == bits(want)


def test_examples_reach_their_edges():
    """The named examples hold what they are named for."""
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transforms, "_RECURRENCE_BLOCK", block)
            [(check, _, tie)] = experiment._evaluate_seed(parse_config(TIE), 1, {"bound_t1"}, 4)
            wanted = experiment.VERIFY_WANTED - {"oracle_head"}
            leaves = experiment._evaluate_seed(parse_config(LEAVES_RANGE), 2, wanted, 4)
        # every node's margin is exactly 0, so the tie spans every block boundary
        assert check == "bound" and tie.max_violation == 0.0 and tie.violation_index == 0
        skipped = [row for row in leaves if row[0] == "transform"]
        assert skipped == [("transform", "weighted", "range")]
        assert ("identity", "weighted", "transform") in leaves
    path = experiment.prepare_path(parse_config(REBASES), 3)
    assert transforms.half_variance_sum(path)[-1] > 1.2 * transforms.RESCALE_THRESHOLD
    segments = []
    transforms.reduce_pass(path, ([], [SimpleNamespace(feed=lambda k0, k1, z: segments.append(k0))]))
    assert len(segments) > 1  # 65 nodes in one block but for the rebase


PSI = "t_max = 5\nn_steps = {}\na = sin:1,2,3\nsigma = sin:2,1,1\npsi = sin:1,0.5,2\nseeds = 1\n"


# on 63 steps of 5/63, nodes[7] / 7 and nodes[53] / 53 are not dt: a head whose
# grid re-divided its t_max would differ there
@pytest.mark.parametrize("steps", [1, 7, 33, 53])
@pytest.mark.parametrize(
    "text", [REBASES, REBASES.replace("psi", "u"), PSI.format(63)], ids=["rebases", "rebases_u", "psi"]
)
def test_recurrences_on_the_head_are_the_paths_first_nodes(text, steps):
    """The oracle's head, path.head(c), gives the path's own first c + 1 nodes, bit for bit."""
    path = experiment.prepare_path(parse_config(text), 3)
    head = path.head(steps)
    assert path.head(64) is path and head.grid.dt == path.grid.dt
    for name in ("x", "dw", "a", "sigma", "u"):
        assert not np.shares_memory(getattr(head, name), getattr(path, name))
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 5 and segments of 3 nodes put boundaries inside every head
        mp.setattr(transforms, "_RECURRENCE_BLOCK", 5)
        mp.setattr(transforms, "_SEGMENT_NODES", 3)
        whole = rb.transform_pair_recursive(path)
        first = rb.transform_pair_recursive(head)
    for full, part in zip(whole, first):
        for name in ("X", "Y"):
            assert getattr(part, name).tobytes() == getattr(full, name)[: steps + 1].tobytes()


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
