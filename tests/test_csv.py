"""CSV text contract: the lockstep batch writer spells every cell exactly as
``_fmt``, formats each distinct column once per chunk, and holds text for one
chunk at a time."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangebound import experiment
from rangebound.config import parse_config
from rangebound.experiment import (
    CSV_CHUNK_ROWS,
    _fmt,
    emit_figures,
    run_experiment,
    write_csv_batch,
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
LENGTHS = [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3]


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


@pytest.mark.parametrize("length", LENGTHS)
def test_shared_columns_equal_per_file_text(tmp_path, length):
    arrays = _arrays(np.array(SPECIALS, dtype=np.float64), length, seed=length)
    assert_batch_equals_per_file_text(tmp_path, arrays, SHARED_LAYOUT)


def test_columns_of_one_batch_share_one_length(tmp_path):
    files = [("a.csv", "t,x", [np.zeros(3), np.zeros(3)]), ("b.csv", "t,y", [np.zeros(4)])]
    with pytest.raises(ValueError, match="differ in length"):
        write_csv_batch(tmp_path, files)


def test_each_distinct_column_is_formatted_once_per_chunk(tmp_path):
    """Shaped like figures: t leads every file, X and Y appear twice."""
    calls = []

    class Counted(np.ndarray):
        def tolist(self):
            calls.append(len(self))
            return super().tolist()

    length = 2 * CSV_CHUNK_ROWS + 3
    t, x, X, Y, m = (np.linspace(0.0, k + 1.0, length).view(Counted) for k in range(5))
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
    assert calls == [CSV_CHUNK_ROWS] * 10 + [3] * 5


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
    short = _write_peak(tmp_path / "short", 4 * CSV_CHUNK_ROWS)
    long = _write_peak(tmp_path / "long", 16 * CSV_CHUNK_ROWS)
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
    run_experiment(config, out_dir=root / "run")
    emit_figures(config, out_dir=root / "figures")
    out = {}
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
    n_steps = 2 * CSV_CHUNK_ROWS + 8
    configs = {"driftless": DRIFTLESS, "psi": PSI}
    chunked = {}
    for label, text in configs.items():
        chunked[label] = _emit_all(parse_config(text.format(n=n_steps)), tmp_path / "new" / label)
    assert "run/seed3/rotation_unit.csv" in chunked["driftless"]
    assert "run/seed1/bound_t2.csv" in chunked["psi"]

    written = []

    def per_file_writer(directory, files):
        # run writes each file under its name plus .partial, then renames it
        written.extend(directory / name.removesuffix(".partial") for name, _, _ in files)
        return reference_write_batch(directory, files)

    monkeypatch.setattr(experiment, "write_csv_batch", per_file_writer)
    for label, text in configs.items():
        reference = _emit_all(parse_config(text.format(n=n_steps)), tmp_path / "ref" / label)
        assert sorted(reference) == sorted(chunked[label])
        # every CSV came from the per-file writer, none from the batch writer
        root = tmp_path / "ref" / label
        csvs = sorted(root / name for name in reference if name.endswith(".csv"))
        assert csvs == sorted(file for file in written if root in file.parents)
        for name, data in reference.items():
            assert chunked[label][name] == data, f"{label}: {name} differs"
