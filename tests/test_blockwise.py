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
from rangebound import CoefficientSpec, engine, experiment, transforms, verification
from rangebound.config import ExperimentConfig, parse_config
from rangebound.errors import ConfigurationError

from checks import (
    Gather,
    block_series,
    recurrence_pair,
    riemann_cumsum,
    whole_bound,
    whole_coefficient,
    whole_discount,
    whole_half_variance,
    whole_nodes,
    whole_residual,
    whole_rotation,
    whole_rotation_report,
    whole_weighted,
)

BLOCKS = (1, 2, 5, 64)


def whole_rung_residuals(path):
    """verification._rung_residuals with whole series and whole-array sums."""
    pair = recurrence_pair(path)
    return {
        identity: None if z is None else whole_residual(path, z, weighted)
        for weighted, (identity, z) in enumerate(zip(("bounded", "weighted"), pair))
    }


def whole_array_rows(config, seed):
    """The transform, bound, identity and convergence rows verify evaluates, from whole series."""
    path = experiment.prepare_path(config, seed)
    psi = None  # the weighted transform's envelope needs psi
    if config.uses_discounted_u:
        psi = config.psi_spec.sample_series(path.grid, x_left=path.x[:-1])
    pair = recurrence_pair(path)
    rows, residuals = [], {}
    for weighted, (which, z, integrand) in enumerate(zip(("bounded", "weighted"), pair, (path.u, psi))):
        residuals[which] = residual = None if z is None else whole_residual(path, z, weighted)
        if z is None:
            rows.append(("transform", which, "range"))
        elif integrand is not None:
            rows.append(("bound", which, whole_bound(z, integrand, path.grid) or "range"))
        skip = "transform" if z is None else "range"
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
@example(text=TIE, block=5, chunk=8192, seed=1)
@example(text=REBASES, block=2, chunk=8192, seed=3)
@example(text=REBASES.replace("psi", "u"), block=64, chunk=8192, seed=3)
@example(text=LEAVES_RANGE, block=5, chunk=8192, seed=2)
@example(text=REBASES, block=64, chunk=3, seed=3)
@given(
    text=configs(),
    block=st.sampled_from(BLOCKS),
    chunk=st.sampled_from([3, 8192]),
    seed=st.integers(1, 1000),
)
def test_seed_record_matches_whole_array_reductions(text, block, chunk, seed):
    config = parse_config(text)
    with pytest.MonkeyPatch.context() as mp:
        # segments of 3 nodes also split the blocks of 5 and 64, and marks of I 3 nodes apart
        # end segments of their own
        mp.setattr(transforms, "_RESTART_NODES", block)
        mp.setattr(transforms, "_SEGMENT_NODES", 3)
        mp.setattr(engine, "STATE_CHUNK_STEPS", chunk)
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
            mp.setattr(transforms, "_RESTART_NODES", block)
            [(check, _, tie)] = experiment._evaluate_seed(parse_config(TIE), 1, {"bound_t1"}, 4)
            wanted = experiment.VERIFY_WANTED - {"oracle_head"}
            leaves = experiment._evaluate_seed(parse_config(LEAVES_RANGE), 2, wanted, 4)
        # every node's margin is exactly 0, so the tie spans every block boundary
        assert check == "bound" and tie.max_violation == 0.0 and tie.violation_index == 0
        skipped = [row for row in leaves if row[0] == "transform"]
        assert skipped == [("transform", "weighted", "range")]
        assert ("identity", "weighted", "transform") in leaves
    path = experiment.prepare_path(parse_config(REBASES), 3)
    assert whole_half_variance(path)[-1] > 1.2 * transforms.RESCALE_THRESHOLD
    segments = []
    transforms.reduce_pass(path, ([], [SimpleNamespace(feed=lambda k0, k1, z: segments.append(k0))]))
    assert len(segments) > 1  # 65 nodes in one block but for the rebase


@st.composite
def rebasing_configs(draw):
    """configs() with sigma up to 400, where I/2 rises by up to ~2000 a step."""
    scale = draw(st.sampled_from([5.0, 40.0, 400.0]))
    return (
        f"t_max = {draw(st.sampled_from([0.5, 1.0, 5.0]))!r}\n"
        f"n_steps = {draw(st.integers(1, 160))}\n"
        f"a = {draw(coefficient(5.0))}\n"
        f"sigma = {draw(coefficient(scale))}\n"
        f"{draw(st.sampled_from(['u', 'psi']))} = {draw(coefficient(3.0))}\n"
        "seeds = 1\n"
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@example(text=REBASES, restart=5, segment=3, threshold=3.0, chunk=8192, seed=3)
@example(text=REBASES, restart=64, segment=1, threshold=0.5, chunk=8192, seed=3)
@example(text=REBASES.replace("30", "400"), restart=13, segment=5, threshold=40.0, chunk=7, seed=1)
@example(text=LEAVES_RANGE, restart=2, segment=3, threshold=3.0, chunk=8192, seed=2)
@example(text=REBASES, restart=64, segment=64, threshold=3.0, chunk=2, seed=3)
@given(
    text=rebasing_configs(),
    restart=st.sampled_from([1, 2, 5, 13, 64]),
    segment=st.sampled_from([1, 3, 5, 64]),
    threshold=st.sampled_from([0.5, 3.0, 40.0, 345.0]),
    chunk=st.sampled_from([1, 2, 7, 8192]),
    seed=st.integers(1, 1000),
)
def test_the_carried_half_variance_gives_the_whole_arrays_blocks(
    text, restart, segment, threshold, chunk, seed
):
    """The weighted pass, whose block ends are searched chunk by chunk in the I/2 the path forms
    from its marks of I, ``chunk`` nodes apart, is bit for bit the recurrence whose blocks end
    where searchsorted puts them in the whole-array I/2, and is fed just the nodes before its
    first out of double range; and the path's I/2, read whole, is that I/2 bit for bit."""
    config = parse_config(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_RESTART_NODES", restart)
        mp.setattr(transforms, "_SEGMENT_NODES", segment)
        mp.setattr(transforms, "RESCALE_THRESHOLD", threshold)
        mp.setattr(engine, "STATE_CHUNK_STEPS", chunk)
        try:
            path = experiment.prepare_path(config, seed)
        except ConfigurationError:
            return  # a path out of double range is refused before any pass
        gathers = [Gather(), Gather()]
        alive = transforms.reduce_pass(path, [[gather] for gather in gathers])
        want = whole_weighted(path)
        half = path.half_variance_at(0, path.grid.n_steps + 1)
        assert half.tobytes() == whole_half_variance(path).tobytes()
    finite = np.isfinite(want)
    end = len(want) if finite.all() else int(np.argmin(finite))
    assert alive[1] is bool(finite.all())
    assert b"".join(block.tobytes() for block in gathers[1].blocks) == want[:end].tobytes()


PSI = "t_max = 5\nn_steps = {}\na = sin:1,2,3\nsigma = sin:2,1,1\npsi = sin:1,0.5,2\nseeds = 1\n"


def kept_heads(config, seed, ceiling):
    """The path's head and the (bounded, weighted) X + iY that _evaluate_seed's one pass kept
    at its nodes, as compare_oracle_pair is handed them with ORACLE_CEILING at ``ceiling``;
    each is None where the pass did not keep every node of the head."""
    seen, compare = [], experiment.compare_oracle_pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "ORACLE_CEILING", ceiling)
        mp.setattr(experiment, "compare_oracle_pair", lambda *args: seen.append(args) or compare(*args))
        experiment._evaluate_seed(config, seed, {"oracle_head", "identities"}, 4)
    [(head, heads)] = seen
    return head, heads


def spelled(pair):
    """Each series of ``pair`` by its bytes, None as None."""
    return [None if z is None else z.tobytes() for z in pair]


# on 63 steps of 5/63, nodes[7] / 7 and nodes[53] / 53 are not dt: a head whose
# grid re-divided its t_max would differ there
@pytest.mark.parametrize("steps", [1, 7, 33, 53])
@pytest.mark.parametrize(
    "text", [REBASES, REBASES.replace("psi", "u"), PSI.format(63)], ids=["rebases", "rebases_u", "psi"]
)
def test_recurrences_on_the_head_are_the_paths_first_nodes(text, steps):
    """The oracle's head, path.head(c), gives the path's own first c + 1 nodes, bit for bit, and
    they are the nodes the path's one pass keeps for the oracle."""
    config = parse_config(text)
    path = experiment.prepare_path(config, 3)
    with pytest.MonkeyPatch.context() as mp:
        # restarts every 5 and segments of 3 nodes put boundaries inside every head
        mp.setattr(transforms, "_RESTART_NODES", 5)
        mp.setattr(transforms, "_SEGMENT_NODES", 3)
        own = path.head(steps)
        head, kept = kept_heads(config, 3, steps)
        whole = recurrence_pair(path)
        first = recurrence_pair(own)
    assert path.head(64) is path and own.grid.dt == head.grid.dt == path.grid.dt
    assert own.grid.n_steps == steps and own.driftless == path.driftless
    for name in ("x", "dw", "sigma", "u"):
        # _evaluate_seed drops the path and keeps its head: the head copies
        assert not np.shares_memory(getattr(own, name), getattr(path, name))
        assert getattr(head, name).tobytes() == getattr(own, name).tobytes()
    assert spelled(first) == spelled(z[: steps + 1] for z in whole) == spelled(kept)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(text=LEAVES_RANGE, ceiling=1, edge=0, restart=64, segment=64, threshold=None, seed=2)
@example(text=LEAVES_RANGE, ceiling=1, edge=-1, restart=5, segment=64, threshold=None, seed=2)
@example(text=LEAVES_RANGE, ceiling=1, edge=1, restart=64, segment=64, threshold=40.0, seed=2)
@example(text=REBASES, ceiling=40, edge=None, restart=2, segment=3, threshold=3.0, seed=3)
@given(
    text=configs(),
    ceiling=st.integers(1, 200),
    edge=st.sampled_from([None, -1, 0, 1]),
    restart=st.sampled_from([1, 2, 5, 13, 64]),
    segment=st.sampled_from([1, 3, 5, 64]),
    threshold=st.sampled_from([None, 3.0, 40.0]),
    seed=st.integers(1, 1000),
)
def test_the_kept_head_is_the_heads_own_pass(text, ceiling, edge, restart, segment, threshold, seed):
    """The nodes the path's pass keeps for the oracle are the head's own recurrence bit for bit,
    and None just where it is, wherever the restarts, rebases and segments fall.

    Given ``edge``, a path whose transform leaves double range at node k gets the ceiling
    k - 1 + edge: edge 0 puts that node just past the head, where a pass that dropped the whole
    segment holding it would keep too little, and edge 1 puts it inside the head.
    """
    config = parse_config(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_RESTART_NODES", restart)
        mp.setattr(transforms, "_SEGMENT_NODES", segment)
        if threshold is not None:
            mp.setattr(transforms, "RESCALE_THRESHOLD", threshold)
        try:
            path = experiment.prepare_path(config, seed)
        except ConfigurationError:
            return  # a path out of double range is refused before any pass
        gathers = [Gather(), Gather()]
        with pytest.MonkeyPatch.context() as one:
            # segments of one node feed just the nodes before a transform's first out of range
            one.setattr(transforms, "_SEGMENT_NODES", 1)
            alive = transforms.reduce_pass(path, [[gather] for gather in gathers])
        leaves = [sum(map(len, g.blocks)) for g, ok in zip(gathers, alive) if not ok]
        if edge is not None and leaves:
            ceiling = max(1, min(leaves) - 1 + edge)
        head, kept = kept_heads(config, seed, ceiling)
        own = recurrence_pair(head)
    assert spelled(kept) == spelled(own)


@st.composite
def coefficient_specs(draw, n_steps, scale):
    """A const, sin, state or samples coefficient with values in [-scale, scale]."""
    kind, value = draw(st.sampled_from(engine.COEFFICIENT_KINDS)), st.floats(-scale, scale)
    if kind == "sin":
        return CoefficientSpec.sinusoid(draw(value), draw(value), draw(st.floats(0.1, 8.0)))
    if kind == "samples":
        return CoefficientSpec.from_samples(draw(st.lists(value, min_size=n_steps, max_size=n_steps)))
    return CoefficientSpec(kind, (draw(value),))


def read_segments(path, cuts):
    """sigma_at, u_at, variance_at, half_variance_at and the grid's nodes_at read over the nodes
    split at ``cuts``, each joined into one array, as a pass reads them segment by segment."""
    n = path.grid.n_steps
    bounds = sorted({0, n + 1, *(cut for cut in cuts if cut <= n)})
    got = {"sigma": [], "u": [], "variance": [], "half": [], "nodes": []}
    for k0, k1 in zip(bounds, bounds[1:]):
        got["nodes"].append(path.grid.nodes_at(k0, k1))
        got["variance"].append(path.variance_at(k0, k1))
        got["half"].append(path.half_variance_at(k0, k1))
        got["sigma"].append(path.sigma_at(k0, min(k1, n)))
        got["u"].append(path.u_at(k0, min(k1, n)))
    return {name: np.concatenate(parts).tobytes() for name, parts in got.items()}


@st.composite
def coefficient_setups(draw):
    """t_max, n_steps and the a, sigma and u (or psi) coefficients of a config."""
    n_steps = draw(st.integers(1, 90))
    specs = (draw(coefficient_specs(n_steps, scale)) for scale in (3.0, 30.0, 3.0))
    return draw(st.sampled_from([1.0, 5.0, 0.3])), n_steps, *specs


SIN = CoefficientSpec.sinusoid(1.0, 0.5, 2.0)


@settings(max_examples=80, deadline=None, derandomize=True)
# dt * N is not t_max on 49 steps of 1/49 nor on 77 of 5/77: node N must be set to it
@example(
    setup=(1.0, 49, SIN, CoefficientSpec.state_bounded(2.0), SIN),
    psi=True, chunk=4, cuts=[[3, 17, 18, 48], [9, 49]], steps=20, seed=1,
)
@example(
    setup=(5.0, 77, SIN, CoefficientSpec.from_samples(np.linspace(-3.0, 3.0, 77)), SIN),
    psi=True, chunk=7, cuts=[[40, 77], [1, 2, 3]], steps=30, seed=2,
)
@given(
    setup=coefficient_setups(),
    psi=st.booleans(),
    chunk=st.sampled_from([1, 4, 7, engine.STATE_CHUNK_STEPS]),
    cuts=st.lists(st.lists(st.integers(1, 90), max_size=12), min_size=2, max_size=2),
    steps=st.integers(1, 90),
    seed=st.integers(1, 1000),
)
def test_segments_are_the_whole_arrays_bits(setup, psi, chunk, cuts, steps, seed):
    """sigma, u, I and the nodes a path forms segment by segment, over any split of its nodes and
    again over a second split that its kept segments partly serve, are bit for bit the whole
    arrays: the coefficients sampled on the whole grid, I summed in one cumsum, u discounted by
    I_N, and node N = t_max. So are its whole series, and a head's are the path's first steps,
    its u discounted by the path's I_N and its samples, as of a file: coefficient, the path's."""
    t_max, n_steps, a_spec, sigma_spec, integrand = setup
    integrands = {"psi_spec" if psi else "u_spec": integrand}
    config = ExperimentConfig(t_max, n_steps, a_spec, sigma_spec, **integrands)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "STATE_CHUNK_STEPS", chunk)  # the marks of I, chunk nodes apart
        try:
            path = experiment.prepare_path(config, seed)
        except ConfigurationError:
            return  # a path out of double range is refused before any segment is read
        grid = path.grid
        sigma = whole_coefficient(sigma_spec, grid, path.x[:-1])
        variance = riemann_cumsum(sigma * sigma, grid)
        u = whole_coefficient(integrand, grid, path.x[:-1])
        u = whole_discount(u, sigma, grid) if psi else u
        half = np.multiply(variance, 0.5)
        want = {"sigma": sigma, "u": u, "variance": variance, "half": half, "nodes": whole_nodes(grid)}
        want = {name: series.tobytes() for name, series in want.items()}
        assert [read_segments(path, split) for split in cuts] == [want, want]
        whole = {"sigma": path.sigma, "u": path.u, "nodes": grid.nodes}
        whole["variance"] = path.variance_at(0, n_steps + 1)
        whole["half"] = path.half_variance_at(0, n_steps + 1)
        assert {name: series.tobytes() for name, series in whole.items()} == want
        assert grid.nodes[-1] == grid.t_max
        head, at_nodes = path.head(steps), ("variance", "half", "nodes")
        cut = {name: series[: steps + (name in at_nodes)] for name, series in whole.items()}
        assert read_segments(head, cuts[0]) == {name: series.tobytes() for name, series in cut.items()}


FREQUENT_REBASES = REBASES.replace("30", "400").replace("64", "{}")  # a rebase every ~280 nodes


@pytest.mark.parametrize("text", [PSI, FREQUENT_REBASES], ids=["psi", "rebases"])
def test_each_step_is_formed_once_per_pass(text):
    """A pass with both identity checks and the weighted envelope forms sigma, I and psi once
    per step: its readers, u's discount, the envelope's integrand and the weighted transform's
    search for its block ends among them, share each segment the path formed, and a segment
    after a rebase ends at the next mark of I."""
    n_steps = 2**16
    config = parse_config(text.format(n_steps))
    path = experiment.prepare_path(config, 1)
    steps = {"sigma": 0, "variance": 0, "psi": 0}
    sample, variance = CoefficientSpec.sample_series, engine.left_variance

    def counted_sample(spec, grid, x_left=None, start=0, stop=None):
        values = sample(spec, grid, x_left, start, stop)
        for name, counted in (("sigma", config.sigma_spec), ("psi", config.psi_spec)):
            steps[name] += len(values) if spec is counted else 0
        return values

    def counted_variance(sigma, dt, carry=0.0):
        steps["variance"] += len(sigma)
        return variance(sigma, dt, carry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CoefficientSpec, "sample_series", counted_sample)
        mp.setattr(engine, "left_variance", counted_variance)
        wanted = {"bound_t2", "convergence"}  # the envelope of t2 and both identity checks
        rows, residuals = experiment._reduce_path(config, path, wanted, None, [], {})
    assert [row[:2] for row in rows] == [("bound", "weighted")]
    assert None not in residuals.values()
    assert steps == {"sigma": n_steps, "variance": n_steps, "psi": n_steps}


def traced_peak(n_steps, command):
    """Peak traced bytes of ``command(config)`` on PSI at ``n_steps``, and the bytes of the path
    it simulates, x and dw. The ladder runs inline, in this process: a forked child's
    allocations are not traced here."""
    config = parse_config(PSI.format(n_steps))
    path = experiment.prepare_path(config, 1)
    path_bytes = path.x.nbytes + path.dw.nbytes
    del path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "LADDER_FORK_STEPS", 2**62)
        tracemalloc.start()
        try:
            command(config)
            return tracemalloc.get_traced_memory()[1], path_bytes
        finally:
            tracemalloc.stop()


def verify_peak(n_steps):
    """Peak traced bytes of verify_suite and the bytes of the path it simulates."""

    def verify(config):
        assert not rb.verify_suite(config).failed

    # a small oracle ceiling keeps the O(N^2) reference cheap and out of the peak
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "ORACLE_CEILING", 500)
        return traced_peak(n_steps, verify)


def test_verify_memory_grows_with_the_path_only():
    """Doubling the path grows verify's peak by the path's arrays alone.

    The peak is the path, two series: x and dw. sigma, u (psi discounted by the I
    the path records every STATE_CHUNK_STEPS nodes) and the nodes are formed segment by
    segment, the simulation forms x chunk by chunk, the Wiener increments are scaled in
    their own array, and each convergence rung goes before the next is built. 400_000
    steps are above LADDER_FORK_STEPS: traced_peak pins the ladder inline, so its rungs,
    which draw the noise again chunk by chunk, are measured too. The
    scratch of a segment is the same at both sizes, so the difference leaves it out. A
    whole series held beside the path, be it sigma, u, the nodes, a temporary, I/2, a
    transform, a side, an envelope or the drift, would add one more series to the
    difference: 3/2 of the path's growth against the 2/2 here.
    """
    small, small_path = verify_peak(200_000)
    large, large_path = verify_peak(400_000)
    assert large - small <= 1.05 * (large_path - small_path)
    # the growth in whole node-series of the 200_000 steps doubled
    assert (large - small) / (8 * 200_000) <= 2.5


def test_run_memory_grows_with_the_path_only(tmp_path):
    """Doubling the path grows run's peak as it grows verify's, by the path's arrays alone: run
    writes every CSV as the pass and the rotations feed it, its t column formed per segment,
    and holds no whole series to write.

    run builds the checks verify builds, and a CsvWriter after them formats one chunk at a
    time. A series gathered whole to be written, or a check, writer or closure that kept the
    path alive through the convergence ladder, would add a series or more to the difference.
    As for verify, the ladder is pinned inline, in the traced process.
    """
    small, small_path = traced_peak(200_000, lambda config: rb.run_experiment(config, tmp_path / "s"))
    large, large_path = traced_peak(400_000, lambda config: rb.run_experiment(config, tmp_path / "l"))
    assert large - small <= 1.05 * (large_path - small_path)
    assert (large - small) / (8 * 200_000) <= 2.5


def ladder_peak(n_steps):
    """Peak traced bytes of the convergence ladder on PSI at ``n_steps``, its fine dw drawn while
    traced; the fine rung's residuals are given, as _evaluate_seed gives them."""
    config = parse_config(PSI.format(n_steps))
    rung = lambda grid, dw, factor: experiment.build_path(config, grid, dw, factor, seed=1)
    with pytest.MonkeyPatch.context() as mp:
        # segments of 1024 nodes keep the pass's scratch (~0.5 MB) below the x and dw of the
        # 2^16-step rung (1 MB), so that rung held while the next is built would set the peak
        mp.setattr(transforms, "_SEGMENT_NODES", 1024)
        mp.setattr(engine, "STATE_CHUNK_STEPS", 1024)
        tracemalloc.start()
        try:
            dw = rb.sample_wiener(rb.build_grid(config.t_max, n_steps), 1)
            finest = {"bounded": 1.0, "weighted": 1.0}
            rb.convergence_ladder(dw, config.t_max, rung, 4, finest=finest)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_the_ladder_drops_each_rung_before_it_builds_the_next():
    """On 2^18 steps the ladder peaks at the fine dw and one fine series' worth of coarse ones:
    the dw of every coarse rung not yet run and the x of the rung running, 7/8 + 1/8, 3/4 + 1/4
    and 2 * 1/2 of a series; each rung goes with its dw once its pass is done. Doubling the
    steps grows the peak by 8 + 8 bytes per fine step; the 2^16-step rung held while the
    2^17-step one is built would add 2 * 2 more, and a rung keeping sigma or u whole 4 more each."""
    ladder_peak(2**12)  # what the first ladder of a process allocates once is not the ladder's
    small, large = ladder_peak(2**17), ladder_peak(2**18)
    assert large - small <= 1.05 * 16 * (2**18 - 2**17)


ROTATION = "t_max = 5\nn_steps = {}\na = const:0\nsigma = {}\nu = const:1\nseeds = 1\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@example(sigma="const:0.0", n_steps=1, segment=3, scaled=False, seed=1)
@example(sigma="const:0.0", n_steps=5, segment=5, scaled=True, seed=1)
@example(sigma="state:-1.5", n_steps=70, segment=3, scaled=True, seed=2)
@example(sigma="sin:-2.0,1.0,3.0", n_steps=64, segment=5, scaled=False, seed=3)
@example(sigma="const:40.0", n_steps=70, segment=5, scaled=True, seed=4)
@given(
    sigma=coefficient(40.0),
    n_steps=st.integers(1, 70),
    segment=st.sampled_from([3, 5]),
    scaled=st.booleans(),
    seed=st.integers(1, 1000),
)
def test_rotation_check_matches_whole_array_rotations(sigma, n_steps, segment, scaled, seed):
    """U, both sides and the report of RotationCheck are the whole arrays' bit for bit, wherever
    the segments end; a report out of double range is None for both."""
    path = experiment.prepare_path(parse_config(ROTATION.format(n_steps, sigma)), seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_SEGMENT_NODES", segment)
        check = verification.RotationCheck(path, scaled)
        _, series = block_series(check, lambda: transforms.reduce_pass(path, ([], [], [check])))
    want = whole_rotation(path, scaled)
    assert [part.tobytes() for part in series] == [part.tobytes() for part in want]
    assert check.report() == whole_rotation_report(path, scaled)


@pytest.mark.parametrize("scaled", [False, True], ids=["unit", "scaled"])
def test_rotation_check_holds_no_whole_series(scaled):
    """The pass and the report peak at the bound's one whole-array sum, 8 bytes per node.

    The whole-array rotations took 80 (unit) and 64 (scaled) bytes per node.
    """
    n_nodes = 2**18
    path = experiment.prepare_path(parse_config(ROTATION.format(n_nodes - 1, "const:1.5")), 1)
    tracemalloc.start()
    try:
        check = verification.RotationCheck(path, scaled)
        transforms.reduce_pass(path, ([], [], [check]))
        assert check.report() is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n_nodes
