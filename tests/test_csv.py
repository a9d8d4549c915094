"""CSV text contract: the chunked writer spells every cell exactly as ``_fmt``."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rangebound import experiment
from rangebound.config import parse_config
from rangebound.experiment import CSV_CHUNK_ROWS, _fmt, _write_csv, emit_figures, run_experiment

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


@settings(deadline=None, max_examples=30)
@given(
    pool=st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True), max_size=16),
    n_columns=st.integers(min_value=1, max_value=4),
    length=st.sampled_from(LENGTHS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chunked_text_equals_per_cell_text(pool, n_columns, length, seed):
    values = np.array(SPECIALS + pool, dtype=np.float64)
    rng = np.random.default_rng(seed)
    columns = [values[rng.integers(len(values), size=length)] for _ in range(n_columns)]
    header = ",".join(f"c{j}" for j in range(n_columns))
    with tempfile.TemporaryDirectory() as tmp:
        target = _write_csv(Path(tmp), "out.csv", header, columns)
        assert target == Path(tmp) / "out.csv"
        reference = reference_write_csv(Path(tmp), "ref.csv", header, columns)
        assert target.read_bytes() == reference.read_bytes()


def test_special_values_spelled_like_fmt(tmp_path):
    columns = [np.array(SPECIALS), np.array(SPECIALS[::-1])]
    text = _write_csv(tmp_path, "s.csv", "a,b", columns).read_bytes().decode()
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

    monkeypatch.setattr(experiment, "_write_csv", reference_write_csv)
    for label, text in configs.items():
        reference = _emit_all(parse_config(text.format(n=n_steps)), tmp_path / "ref" / label)
        assert sorted(reference) == sorted(chunked[label])
        for name, data in reference.items():
            assert chunked[label][name] == data, f"{label}: {name} differs"
