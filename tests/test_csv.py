"""CSV text contract: the streaming writer, ``experiment.CsvWriter``, spells
every cell exactly as ``_fmt``, formats each distinct column once per chunk,
holds text for one chunk at a time, and writes the same bytes wherever its
blocks end. The digit formatter behind it, ``experiment._cells``, is checked
byte for byte against ``_fmt`` on random and constructed values, and leaves
only the values its error bound cannot settle to ``_fallback``."""

import os
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangebound import experiment, transforms
from rangebound.config import parse_config
from rangebound.errors import ConfigurationError
from rangebound.experiment import (
    _EXACT_RANGE,
    CSV_CHUNK_CELLS,
    CsvWriter,
    _fmt,
    emit_figures,
    run_experiment,
)

SPECIALS = [
    np.nan,
    -np.nan,
    np.inf,
    -np.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    1e308,
    -1e308,
    1.7976931348623157e308,
]
# the batch tests set the writer's budget to CHUNK_ROWS rows of its distinct
# columns, so these lengths sit on and beside its chunk edges
CHUNK_ROWS = 512
LENGTHS = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3]
# 2048 is a whole number of chunks for every power-of-two chunk size up to
# 2048, so these lengths stay on and beside chunk edges if the size changes
SHARED_LENGTHS = sorted(set(LENGTHS) | {2047, 2048, 2049, 4099})


def reference_write_csv(directory: Path, name: str, header: str, columns) -> Path:
    """Per-cell writer: one ``_fmt`` per cell and one join per row."""
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    with open(target, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for i in range(len(columns[0])):
            handle.write(",".join(_fmt(col[i]) for col in columns) + "\n")
    return target


def reference_write_batch(directory: Path, files) -> list[Path]:
    return [reference_write_csv(directory, *file) for file in files]


def write_csv_batch(directory: Path, files) -> list[Path]:
    """Each ``(name, header, arrays)`` of ``files`` as one feed of a CsvWriter, every column
    giving its whole array (an array carried twice is one column), then named as given."""
    length, columns, written = len(files[0][2][0]), {}, []
    files = [
        (name, header, [columns.setdefault(id(a), lambda k0, k1, z, a=a: a) for a in arrays])
        for name, header, arrays in files
    ]
    with CsvWriter(directory, files, written) as writer:
        writer.feed(0, length, None)
    return [target.replace(target.with_suffix("")) for target in written]


def per_cell_feed(writer, k0, k1, z):
    """CsvWriter.feed as the per-cell writer: one ``_fmt`` per cell and one join per row."""
    for handle, columns in zip(writer.handles, writer.columns):
        values = [column(k0, k1, z) for column in columns]
        handle.write("".join("\n" + ",".join(map(_fmt, row)) for row in zip(*values)).encode())


# the first array twice in one file, at the first and a later position, in
# several files, and beside array 3, which is a copy of it: equal values,
# distinct identity
SHARED_LAYOUT = [[0, 1], [1, 0, 0], [3, 2], [0]]


def _arrays(values, length, seed):
    """Three arrays drawn from ``values`` and a copy of the first."""
    rng = np.random.default_rng(seed)
    arrays = [values[rng.integers(len(values), size=length)] for _ in range(3)]
    return arrays + [arrays[0].copy()]


def assert_batch_equals_per_file_text(directory: Path, arrays, layout):
    files = [
        (f"f{i}.csv", ",".join(f"c{k}" for k in cols), [arrays[k] for k in cols])
        for i, cols in enumerate(layout)
    ]
    distinct = {(k, j == 0) for cols in layout for j, k in enumerate(cols)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "CSV_CHUNK_CELLS", CHUNK_ROWS * len(distinct))
        targets = write_csv_batch(directory / "batch", files)
    assert targets == [directory / "batch" / name for name, _, _ in files]
    references = reference_write_batch(directory / "ref", files)
    for target, reference in zip(targets, references):
        assert target.read_bytes() == reference.read_bytes(), target.name


@settings(deadline=None, max_examples=30)
@given(
    pool=st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True), max_size=16),
    layout=st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    length=st.sampled_from(LENGTHS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batch_text_equals_per_file_text(pool, layout, length, seed):
    arrays = _arrays(np.array(SPECIALS + pool, dtype=np.float64), length, seed)
    with tempfile.TemporaryDirectory() as tmp:
        assert_batch_equals_per_file_text(Path(tmp), arrays, layout)


@pytest.mark.parametrize("length", SHARED_LENGTHS)
def test_shared_columns_equal_per_file_text(tmp_path, length):
    arrays = _arrays(np.array(SPECIALS, dtype=np.float64), length, seed=length)
    assert_batch_equals_per_file_text(tmp_path, arrays, SHARED_LAYOUT)


def test_columns_of_one_batch_share_one_length(tmp_path):
    files = [("a.csv", "t,x", [np.zeros(3), np.zeros(3)]), ("b.csv", "t,y", [np.zeros(4)])]
    with pytest.raises(ValueError, match="differ in length"):
        write_csv_batch(tmp_path, files)


def test_each_distinct_column_is_formatted_once_per_chunk(tmp_path, monkeypatch):
    """Shaped like figures: t leads every file, X and Y appear twice."""
    calls = []
    cells = experiment._cells

    def counted(values, leads):
        calls.append((values.copy(), leads.tolist()))
        return cells(values, leads)

    monkeypatch.setattr(experiment, "_cells", counted)
    rows = CSV_CHUNK_CELLS // 5  # the rows of a chunk of five distinct columns
    length = 2 * rows + 3
    t, x, X, Y, m = columns = [np.linspace(0.0, k + 1.0, length) for k in range(5)]
    write_csv_batch(
        tmp_path,
        [
            ("x.csv", "t,value", [t, x]),
            ("X.csv", "t,value", [t, X]),
            ("Y.csv", "t,value", [t, Y]),
            ("XY.csv", "t,X,Y", [t, X, Y]),
            ("m.csv", "t,value", [t, m]),
        ],
    )
    # one call per chunk, one row per distinct (column, leads the row)
    starts = [0, rows, 2 * rows]
    assert [values.shape for values, _ in calls] == [(5, rows)] * 2 + [(5, 3)]
    for (values, leads), start in zip(calls, starts):
        assert leads == [True, False, False, False, False]
        assert np.array_equal(values, np.array(columns)[:, start : start + rows])


def _write_peak(directory: Path, length: int) -> int:
    t = np.linspace(0.0, 1.0, length)
    x, y = np.sin(t), np.cos(t)
    files = [("a.csv", "t,x", [t, x]), ("b.csv", "t,x,y", [t, x, y]), ("c.csv", "t,y", [t, y])]
    tracemalloc.start()
    try:
        write_csv_batch(directory, files)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_text_held_does_not_grow_with_rows(tmp_path):
    rows = CSV_CHUNK_CELLS // 3  # the rows of a chunk of _write_peak's three distinct columns
    short = _write_peak(tmp_path / "short", 4 * rows)
    long = _write_peak(tmp_path / "long", 16 * rows)
    assert long <= 1.25 * short


def test_special_values_spelled_like_fmt(tmp_path):
    columns = [np.array(SPECIALS), np.array(SPECIALS[::-1])]
    (target,) = write_csv_batch(tmp_path, [("s.csv", "a,b", columns)])
    text = target.read_bytes().decode()
    assert text == (
        "a,b\n"
        "nan,1.7976931348623157e+308\n"
        "nan,-1e+308\n"
        "inf,1e+308\n"
        "-inf,2.2250738585072009e-308\n"
        "0,-4.9406564584124654e-324\n"
        "-0,4.9406564584124654e-324\n"
        "4.9406564584124654e-324,-0\n"
        "-4.9406564584124654e-324,0\n"
        "2.2250738585072009e-308,-inf\n"
        "1e+308,inf\n"
        "-1e+308,nan\n"
        "1.7976931348623157e+308,nan\n"
    )


DRIFTLESS = "t_max=5\nn_steps={n}\na=const:0\nsigma=const:1\nu=const:1\nseeds=3\n"
PSI = "t_max=5\nn_steps={n}\na=const:2\nsigma=const:1\npsi=const:1\nseeds=1\n"


def _emit_all(config, root: Path) -> dict[str, bytes]:
    """Every file run and figures write under ``root``, manifest.txt without its created_utc
    line, and the message of each refusal."""
    out = {}
    for name, command in (("run", run_experiment), ("figures", emit_figures)):
        try:
            command(config, out_dir=root / name)
        except ConfigurationError as error:
            out[f"{name} refused"] = str(error).encode()
    for file in sorted(root.rglob("*")):
        if file.is_file():
            data = file.read_bytes()
            if file.name == "manifest.txt":
                data = b"".join(
                    line
                    for line in data.splitlines(keepends=True)
                    if not line.startswith(b"created_utc")
                )
            out[str(file.relative_to(root))] = data
    return out


def test_end_to_end_outputs_match_per_cell_writer(tmp_path, monkeypatch):
    n_steps = 1032  # two chunks of a writer of six or more distinct columns
    configs = {"driftless": DRIFTLESS, "psi": PSI}
    chunked = {}
    for label, text in configs.items():
        chunked[label] = _emit_all(parse_config(text.format(n=n_steps)), tmp_path / "new" / label)
    assert "run/seed3/rotation_unit.csv" in chunked["driftless"]
    assert "run/seed1/bound_t2.csv" in chunked["psi"]

    written = set()

    def per_cell_writer(writer, k0, k1, z):
        # run writes each file under its name plus .partial, then renames it
        written.update(target.with_suffix("") for target in writer.targets)
        per_cell_feed(writer, k0, k1, z)

    monkeypatch.setattr(CsvWriter, "feed", per_cell_writer)
    for label, text in configs.items():
        reference = _emit_all(parse_config(text.format(n=n_steps)), tmp_path / "ref" / label)
        assert sorted(reference) == sorted(chunked[label])
        # every CSV came from the per-cell writer, none from _cells
        root = tmp_path / "ref" / label
        csvs = sorted(root / name for name in reference if name.endswith(".csv"))
        assert csvs == sorted(file for file in written if root in file.parents)
        for name, data in reference.items():
            assert chunked[label][name] == data, f"{label}: {name} differs"


# each leaves double range mid-pass when fed in segments of 3 nodes: the weighted transform
# (after 20 of its 22 blocks), the bound's envelope and both identities (after 8 and 5 of 22),
# and the scaled rotation (after 397 of 401); figures refuses the second, mid-pass too
TRANSFORM_LEAVES = "t_max=1\nn_steps=64\na=const:1\nsigma=const:40\nu=const:1\nseeds=2\n"
ENVELOPE_LEAVES = "t_max=5\nn_steps=64\na=const:40\nsigma=const:0\nu=const:1e308\nseeds=1\n"
ROTATION_LEAVES = (
    "t_max=1.2e-97\nn_steps=1200\na=const:0\nsigma=const:1e50\nu=const:1\nseeds=1\n"
    "outputs=remarks\n"
)
# both transforms leave double range near node 9000, past the first default segment, and the
# path's lane walks on to node N: x.csv and both rotations keep all their rows
LANE_OUTLIVES = "t_max=4\nn_steps=20000\na=const:0\nsigma=const:1\nu=const:1e308\nseeds=3\n"
# psi whose weighted transform rebases twice
REBASES = "t_max=1\nn_steps=64\na=const:1\nsigma=const:30\npsi=sin:1,1,3\nseeds=1\n"


def coefficient(scale):
    """A const, sin or state token with parameters in [-scale, scale]."""
    value = st.floats(-scale, scale)
    return st.one_of(
        value.map("const:{!r}".format),
        st.tuples(value, value, st.floats(0.1, 8.0)).map(lambda p: "sin:" + ",".join(map(repr, p))),
        value.map("state:{!r}".format),
    )


@st.composite
def configs(draw):
    """A config of 8 to 96 steps, half of them driftless, so that their rotations are written."""
    integrand = draw(st.sampled_from(["u", "psi"]))
    return (
        f"t_max={draw(st.sampled_from([0.5, 1.0, 5.0]))!r}\nn_steps={draw(st.integers(8, 96))}\n"
        f"a={draw(st.one_of(st.just('const:0'), coefficient(5.0)))}\n"
        f"sigma={draw(coefficient(40.0))}\n{integrand}={draw(coefficient(3.0))}\n"
        f"seeds={draw(st.integers(1, 1000))}\n"
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@example(text=TRANSFORM_LEAVES, segment=3, cells=1, block=None, threshold=None)
@example(text=ENVELOPE_LEAVES, segment=3, cells=5, block=None, threshold=None)
@example(text=ROTATION_LEAVES, segment=3, cells=2, block=None, threshold=None)
@example(text=REBASES, segment=2, cells=7, block=None, threshold=None)
@example(text=REBASES, segment=1, cells=40, block=5, threshold=40.0)
@example(text=DRIFTLESS.format(n=70), segment=5, cells=1, block=None, threshold=None)
@example(text=LANE_OUTLIVES, segment=4096, cells=600, block=None, threshold=None)
@given(
    text=configs(),
    segment=st.sampled_from([1, 2, 3, 5]),
    cells=st.sampled_from([1, 2, 7, 40]),
    block=st.sampled_from([None, 4, 13]),
    threshold=st.sampled_from([None, 3.0, 40.0]),
)
def test_file_bytes_do_not_depend_on_where_blocks_end(text, segment, cells, block, threshold):
    """run's and figures' files and manifest, and their refusals, are the same bytes whatever
    segments the pass and the rotations are fed in and however many cells a _cells call takes;
    every file kept holds its header and the nodes 0 .. N, one a row.

    The recurrence's restarts and rebases round its values, so _RESTART_NODES and
    RESCALE_THRESHOLD are drawn for both sides alike, the defaults at None; the default
    _SEGMENT_NODES and CSV_CHUNK_CELLS give each file of up to 1201 rows in one block and
    a few chunks, the small ones in many.
    """
    config = parse_config(text)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name, value in (("_RESTART_NODES", block), ("RESCALE_THRESHOLD", threshold)):
            if value is not None:
                mp.setattr(transforms, name, value)
        want = _emit_all(config, Path(tmp) / "defaults")
        mp.setattr(transforms, "_SEGMENT_NODES", segment)
        mp.setattr(experiment, "CSV_CHUNK_CELLS", cells)
        got = _emit_all(config, Path(tmp) / "small")
    assert got == want
    rows = {name: data.count(b"\n") - 1 for name, data in got.items() if name.endswith(".csv")}
    assert set(rows.values()) <= {config.n_steps + 1}, rows


def spelled(values) -> str:
    """``values`` through _cells, each cell after a comma, NULs removed."""
    values = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return experiment._cells(values, np.array([False])).tobytes().translate(None, b"\0").decode()


def assert_spelled_like_fmt(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = spelled(values).split(",")[1:]
    want = [_fmt(value) for value in values.tolist()]
    wrong = [(value.hex(), g, w) for value, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


@pytest.fixture
def fallback_takes(monkeypatch):
    """The values each _fallback call receives."""
    taken = []
    fallback = experiment._fallback

    def counted(values):
        taken.append(values.copy())
        return fallback(values)

    monkeypatch.setattr(experiment, "_fallback", counted)
    return taken


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns_spelled_like_fmt(patterns):
    assert_spelled_like_fmt(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_floats_spelled_like_fmt(values):
    assert_spelled_like_fmt(values)


def test_a_million_raw_bit_patterns_spelled_like_fmt():
    rng = np.random.default_rng(20240611)
    for _ in range(16):
        patterns = rng.integers(0, 2**64, size=2**16, dtype=np.uint64)
        assert_spelled_like_fmt(patterns.view(np.float64))


def _ulps(values, count):
    """``values`` and their neighbours up to ``count`` ulps away on either side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (-np.inf, np.inf):
        near = out[0]
        for _ in range(count):
            near = np.nextafter(near, direction)
            out.append(near)
    return np.concatenate(out)


POWERS = np.array([float(f"1e{k}") for k in range(-308, 309)])
TIES = np.arange(10**15, 10**15 + 2000, dtype=np.float64)[:, None] + [0.25, 0.75]
FAMILIES = {
    # 16 integer digits and .25 or .75: an exact 18th digit 5, so %.17g rounds to even
    "ties": np.concatenate([TIES, -TIES]),
    # doubles below a power of ten whose 17 digits round up to it
    "carries": [9.9999999999999999e16]
    + [v for k, v in zip(range(-308, 309), POWERS) if Fraction(v) < Fraction(10) ** k],
    "neighbours": _ulps([1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e17], 64),
    "powers": _ulps(np.concatenate([POWERS, -POWERS]), 1),
    "range ends": _ulps([*_EXACT_RANGE, -_EXACT_RANGE[0], -_EXACT_RANGE[1]], 16),
    "specials": np.concatenate([SPECIALS, 2.0**-1074 * np.arange(1, 64), [-(2.0**-1022) * 0.75]]),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_named_families_spelled_like_fmt(family):
    assert_spelled_like_fmt(FAMILIES[family])


def test_ties_are_left_to_the_fallback(fallback_takes):
    ties = FAMILIES["ties"].ravel()
    # exactly 18 significant digits, the last a 5
    assert {Decimal(v).as_tuple().digits[17:] for v in ties.tolist()} == {(5,)}
    assert_spelled_like_fmt(ties)
    assert sum(len(values) for values in fallback_takes) == len(ties)


@pytest.mark.parametrize("series", ["random walk", "k dt"])
def test_smooth_series_rarely_take_the_fallback(series, fallback_takes):
    """Shaped like paper_fig: a cumulative sum of Gaussian steps, and a time grid."""
    n = 100_001
    dt = 5 / (n - 1)
    rng = np.random.default_rng(11)
    if series == "k dt":
        values = np.arange(n) * dt
    else:
        values = np.cumsum(rng.standard_normal(n) * dt**0.5)
    assert_spelled_like_fmt(values)
    assert 0 < sum(len(v) for v in fallback_takes) < 0.01 * n


def test_exponents_next_to_powers_of_ten_are_corrected_not_left_to_the_fallback(fallback_takes):
    """log10 misjudges the exponent of about half of these; one correction step settles them."""
    values = _ulps(POWERS[(POWERS >= 1e-279) & (POWERS < 1e290)], 2)
    assert_spelled_like_fmt(values)
    assert sum(len(v) for v in fallback_takes) < 0.01 * len(values)


def test_writer_peak_on_run_shaped_batch(tmp_path):
    """11 distinct columns over 100001 rows, as run writes paper_fig, tables included:
    the writer stays small beside verify's ~50 MB, which sets paper_fig's peak RSS."""
    n = 100_001
    rng = np.random.default_rng(5)
    t = np.arange(n) * 5e-5
    c = [np.cumsum(rng.standard_normal(n)) * 0.01 for _ in range(10)]
    files = [
        ("x.csv", "t,x", [t, c[0]]),
        ("t1.csv", "t,X,Y", [t, c[1], c[2]]),
        ("t2.csv", "t,X,Y", [t, c[3], c[4]]),
        ("bound.csv", "t,modulus,envelope", [t, c[5], c[6]]),
        ("identity_t1.csv", "t,lhs,rhs", [t, c[7], c[8]]),
        ("identity_t2.csv", "t,lhs,rhs", [t, c[9], c[1]]),
    ]
    experiment._tables.cache_clear()
    tracemalloc.start()
    try:
        write_csv_batch(tmp_path, files)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.7e6


def test_run_and_figures_at_an_unpinned_seed_match_per_cell_writer(tmp_path, monkeypatch):
    """paper_fig.cfg at seed 7: golden.json pins seed 1 only."""
    text = (Path(__file__).resolve().parents[1] / "paper_fig.cfg").read_text()
    config = parse_config(text).with_overrides(seeds=[7])
    written = _emit_all(config, tmp_path / "new")
    monkeypatch.setattr(CsvWriter, "feed", per_cell_feed)
    reference = _emit_all(config, tmp_path / "ref")
    assert sorted(written) == sorted(reference) and "figures/fig4_XY.csv" in written
    for name, data in reference.items():
        assert written[name] == data, name


def test_importing_and_verify_build_no_table():
    code = (
        "from rangebound import experiment\n"
        "from rangebound.config import parse_config\n"
        f"experiment.verify_suite(parse_config({DRIFTLESS.format(n=2048)!r}))\n"
        "print(experiment._tables.cache_info().misses)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(experiment.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0"]
