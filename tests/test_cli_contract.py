"""The CLI contract at the edges of double range, as a property of the config grammar.

For every config the parser accepts and each of run, figures and verify:
the exit code is 0, 1 or 2; exit 1 prints exactly one stderr line and
leaves no output directory; no warning is raised; no nan or inf reaches
stdout, manifest.txt or a CSV; and every PASS line has a finite tolerance.
Configs draw const, sin and state coefficients with magnitudes from 0 and
1e-300 up to 1e308 of either sign, grids of 1-64 steps and horizons up to
1e300. The named tests below pin one config at each edge, with what the
commands print there.
"""

import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangebound import cli, verification

# psi whose variance integral leaves double range, from sigma^2 or from its sum
PSI_VARIANCE = "t_max=1\nn_steps=8\na=const:0\nsigma=const:1e200\npsi=const:1\nseeds=1\n"
PSI_VARIANCE_SUM = "t_max=1\nn_steps=8\na=const:0\nsigma=const:-1e308\npsi=const:1\nseeds=1\n"
# the integral of X against dx, fig6, leaves double range
FIG6 = "t_max=1e300\nn_steps=16\na=const:1000\nsigma=const:0\nu=state:-1\nseeds=1\n"
# identity residuals that are exactly zero on every rung
ZERO_RESIDUALS = (
    "t_max=1e-6\nn_steps=16\nx0=1e300\na=const:700\n"
    "sigma=sin:1e-5,1e150,1e-8\npsi=state:1e150\nseeds=1\n"
)
# the first rung sees only u_0 = 1e-300, so a residual ratio underflows to 0
RATIO_UNDERFLOW = "t_max=1\nn_steps=8\na=const:0\nsigma=const:1\nu=sin:1e-300,1e+24,1\nseeds=1\n"
# x stays finite but the direct oracle's x_k - x_j does not
PHASE_GAP = (
    "t_max=5\nn_steps=16\nx0=0.001\na=sin:-0.5,0.5,3\nsigma=const:-1e308\nu=const:0.5\nseeds=1\n"
)
# the |u| dt terms sum to 1.5e308, though the |u| terms alone sum past DBL_MAX
ENVELOPE_DT_FIRST = "t_max=1.5\nn_steps=8\na=const:0\nsigma=const:1e300\nu=const:1e308\nseeds=1\n"
# sigma U overflows in the scaled rotation although e^{I_N/2} times the noise total does not
SCALED_ROTATION = (
    "t_max=1.2e-97\nn_steps=1200\na=const:0\nsigma=const:1e50\nu=const:1\nseeds=1\n"
    "outputs=remarks\n"
)
# on seed 4 the scaled rotation stays in range, though e^{I_N/2} times max |sigma| does not
SCALED_ROTATION_IN_RANGE = (
    "t_max=1\nn_steps=1\na=const:0\nsigma=const:37.6\nu=const:1\nseeds=4\noutputs=remarks\n"
)
# the step t_max / n_steps underflows to 0, so t would not increase
STEP_UNDERFLOW = "t_max=5e-324\nn_steps=4\na=const:1\nsigma=const:1\nu=const:1\nseeds=1\n"
# seed 2 writes its CSVs, then seed 3's path leaves double range
LATER_SEED = "t_max=1\nn_steps=1\nx0=1.7e308\na=const:0\nsigma=const:1e307\nu=const:1\nseeds=2,3\n"
# the seed writes its CSVs, then a convergence rung's variance integral leaves double range
RUNG_VARIANCE = "t_max=8\nn_steps=8\na=const:0\nsigma=state:1e154\npsi=const:1\nseeds=1\n"

NON_FINITE = re.compile(r"(?<![A-Za-z])(nan|inf)(?![A-Za-z])")


def run_command(name, text, root):
    """(exit code, stdout, stderr, warnings, output directory) of one in-process command."""
    cfg = root / f"{name}.cfg"
    cfg.write_text(text)
    out_dir = root / name
    stdout, stderr = StringIO(), StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main([name, str(cfg), "--out", str(out_dir)])
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], out_dir


def assert_contract(name, text, root):
    code, out, err, caught, out_dir = run_command(name, text, root)
    assert code in (0, 1, 2), (name, code, err)
    assert caught == [], (name, caught)
    if code == 1:
        assert out == "" and err.count("\n") == 1 and err.startswith("configuration error: ")
        assert not out_dir.exists(), (name, err)
    else:
        assert err == ""
    # a file taken back is written first, nan and inf included: none may be left, staged or not
    written = [p for p in out_dir.rglob("*") if p.is_file()]
    assert not [p for p in written if p.suffix == ".partial"], (name, written)
    for where, body in [("stdout", out)] + [(p.name, p.read_text()) for p in written]:
        # the temporary directory's random name may spell nan or inf itself
        assert not NON_FINITE.search(body.replace(str(root), "")), (name, where)
    if name == "run" and code != 1:
        listed = re.findall(r"^seed\.\d+\.file = (.*)$", (out_dir / "manifest.txt").read_text(), re.M)
        csvs = [p.relative_to(out_dir).as_posix() for p in written if p.suffix == ".csv"]
        assert sorted(listed) == sorted(csvs), (name, listed, csvs)
    for line in out.splitlines():
        if line.startswith("PASS"):
            assert math.isfinite(float(re.search(r"tolerance=(\S+)", line).group(1))), line
    return code, out, err, out_dir


def magnitudes(low=-300, high=308):
    """0, 1e-300 .. 1e308 and the edges themselves, spread over the exponents."""
    spread = st.builds(
        lambda m, e: min(m * 10.0**e, 1e308), st.floats(1.0, 9.99), st.integers(low, high)
    )
    return st.one_of(st.sampled_from([0.0, 10.0**low, 10.0**high, 1.0]), spread)


def signed():
    return st.builds(lambda v, negative: -v if negative else v, magnitudes(), st.booleans())


def coefficients():
    return st.one_of(
        st.builds("const:{!r}".format, signed()),
        st.builds("sin:{!r},{!r},{!r}".format, signed(), signed(), signed()),
        st.builds("state:{!r}".format, signed()),
    )


@st.composite
def configs(draw):
    integrand = draw(st.sampled_from(["u", "psi"]))
    seeds = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    return (
        f"t_max={draw(magnitudes(-300, 300).filter(lambda t: t > 0))!r}\n"
        f"n_steps={draw(st.one_of(st.integers(1, 64), st.sampled_from([8, 16, 32, 64])))}\n"
        f"x0={draw(st.one_of(st.just(0.0), signed()))!r}\n"
        f"a={draw(coefficients())}\nsigma={draw(coefficients())}\n"
        f"{integrand}={draw(coefficients())}\n"
        f"seeds={','.join(map(str, seeds))}\n"
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(text=configs())
@example(text=PSI_VARIANCE)
@example(text=PSI_VARIANCE_SUM)
@example(text=FIG6)
@example(text=ZERO_RESIDUALS)
@example(text=RATIO_UNDERFLOW)
@example(text=PHASE_GAP)
@example(text=ENVELOPE_DT_FIRST)
@example(text=SCALED_ROTATION)
@example(text=SCALED_ROTATION_IN_RANGE)
@example(text=STEP_UNDERFLOW)
@example(text=LATER_SEED)
@example(text=RUNG_VARIANCE)
def test_every_accepted_config_keeps_the_cli_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("run", "figures", "verify"):
            assert_contract(name, text, Path(tmp))


def test_psi_whose_variance_integral_leaves_double_range_is_a_configuration_error(tmp_path):
    for text in (PSI_VARIANCE, PSI_VARIANCE_SUM):
        for name in ("run", "figures", "verify"):
            code, _, err, out_dir = assert_contract(name, text, tmp_path)
            assert code == 1
            assert err == "configuration error: seed 1: the variance integral leaves double range\n"
            assert not list(out_dir.rglob("*.csv"))


def test_a_step_that_underflows_is_a_configuration_error(tmp_path):
    for name in ("run", "figures", "verify"):
        code, _, err, _ = assert_contract(name, STEP_UNDERFLOW, tmp_path)
        assert code == 1
        assert err == "configuration error: line 2: step 0.0 too small for t to increase strictly\n"


# file: coefficients that are not one value on each of one or more lines:
# name -> (file text, n_steps, what the refusal says the file has)
BAD_FILES = {
    "two_columns": ("".join(f"{k} {k}\n" for k in range(8)), 8, "2 values on a line"),
    "one_line_of_two": ("1 2\n", 2, "2 values on a line"),
    "empty": ("", 8, "no values"),
    "comment_only": ("# no values\n", 8, "no values"),
}


@pytest.mark.parametrize("coefficient", ["a", "sigma", "u", "psi"])
@pytest.mark.parametrize("name", sorted(BAD_FILES))
def test_file_coefficient_needs_one_value_per_line(tmp_path, name, coefficient):
    body, n_steps, reason = BAD_FILES[name]
    (tmp_path / "values.txt").write_text(body)
    integrand = "psi" if coefficient == "psi" else "u"
    text = f"t_max=1\nn_steps={n_steps}\n{coefficient}=file:values.txt\n" + "".join(
        f"{key}=const:1\n" for key in ("a", "sigma", integrand) if key != coefficient
    )
    for command in ("run", "figures", "verify"):
        code, _, err, _ = assert_contract(command, text + "seeds=1\n", tmp_path)
        assert code == 1
        assert err == (
            f"configuration error: line 3: coefficient file {tmp_path / 'values.txt'} "
            f"has {reason}, expected one per line\n"
        )


@pytest.mark.parametrize(
    "body, reason",
    [
        ("1\nnan\n", "samples coefficient contains non-finite values"),
        ("1\n2\n3\n", "samples coefficient has 3 entries, grid needs 2"),
        ("1\n", "samples coefficient has 1 entries, grid needs 2"),
    ],
    ids=["non_finite", "too_many", "too_few"],
)
def test_file_coefficient_refusals_name_their_line(tmp_path, body, reason):
    """A file: coefficient of 2 steps refused on its own config line, 4."""
    (tmp_path / "values.txt").write_text(body)
    text = "t_max=1\nn_steps=2\na=const:1\nsigma=file:values.txt\nu=const:1\nseeds=1\n"
    for command in ("run", "figures", "verify"):
        code, _, err, _ = assert_contract(command, text, tmp_path)
        assert code == 1
        assert err == f"configuration error: line 4: {reason}\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        (LATER_SEED, "seed 3: the path leaves double range"),
        (RUNG_VARIANCE, "seed 1: the variance integral leaves double range"),
    ],
    ids=["later_seed", "rung"],
)
def test_a_refused_run_takes_back_what_it_wrote(tmp_path, text, reason):
    """Files it wrote go, and so do the directories it made; what was there before stays."""
    (tmp_path / "run.cfg").write_text(text)
    kept = tmp_path / "kept"
    (kept / "seed2").mkdir(parents=True)
    (kept / "notes.txt").write_text("not run's\n")
    for out_dir in (tmp_path / "made" / "om", kept):
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()) as err:
            code = cli.main(["run", str(tmp_path / "run.cfg"), "--out", str(out_dir)])
        assert code == 1 and err.getvalue() == f"configuration error: {reason}\n"
    assert not (tmp_path / "made").exists()
    assert sorted(p.relative_to(kept).as_posix() for p in kept.rglob("*")) == ["notes.txt", "seed2"]


def test_a_refused_run_leaves_an_earlier_runs_outputs_as_they_were(tmp_path):
    """Seed 2 of the earlier run is written again before seed 3 is refused: every file the
    earlier manifest lists keeps its bytes, and no other file is left."""
    out_dir = tmp_path / "d"

    def run(text):
        """The exit code, and every file under out_dir with its bytes."""
        (tmp_path / "run.cfg").write_text(text)
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            code = cli.main(["run", str(tmp_path / "run.cfg"), "--out", str(out_dir)])
        return code, {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in out_dir.rglob("*.*")}

    code, earlier = run(LATER_SEED.replace("seeds=2,3", "seeds=2"))
    listed = re.findall(r"^seed\.2\.file = (.*)$", earlier["manifest.txt"].decode(), re.MULTILINE)
    assert code == 0 and listed == ["seed2/bound_t1.csv", "seed2/t1.csv", "seed2/x.csv"]
    code, files = run(LATER_SEED)
    assert code == 1 and files == earlier


def test_figures_refuses_an_integral_of_x_against_dx_out_of_double_range(tmp_path):
    code, _, err, out_dir = assert_contract("figures", FIG6, tmp_path)
    assert code == 1
    assert err == (
        "configuration error: seed 1: the integral of X against dx leaves double range\n"
    )
    assert not list(out_dir.rglob("*.csv"))


@pytest.mark.parametrize(
    "text, identities",
    [(ZERO_RESIDUALS, ("bounded",)), (RATIO_UNDERFLOW, ("bounded", "weighted"))],
)
def test_residuals_without_a_finite_order_get_no_convergence_report(tmp_path, text, identities):
    skipped = "its residuals give no finite order"
    code, out, _, _ = assert_contract("verify", text, tmp_path)
    assert code == 0 and "median_order" not in out
    for identity in identities:
        assert f"NOTE convergence[{identity}] seed=1: skipped, {skipped}" in out.splitlines()
    code, _, _, out_dir = assert_contract("run", text, tmp_path)
    manifest = (out_dir / "manifest.txt").read_text()
    assert code == 0 and "seed.1.convergence." not in manifest
    for identity in identities:
        assert f"warning = seed 1: convergence.{identity} skipped: {skipped}" in manifest


def test_identity_with_a_coarse_rung_out_of_range_is_noted(tmp_path, monkeypatch):
    rung_residuals = verification._rung_residuals

    def weighted_out_of_range(path):
        return {**rung_residuals(path), "weighted": None}

    monkeypatch.setattr(verification, "_rung_residuals", weighted_out_of_range)
    text = "t_max=5\nn_steps=64\na=const:2\nsigma=const:1\nu=const:1\nseeds=1\n"
    code, out, _, _ = assert_contract("verify", text, tmp_path)
    lines = out.splitlines()
    assert code == 0
    assert any(line.startswith("NOTE convergence[bounded] seed=1: median_order=") for line in lines)
    assert (
        "NOTE convergence[weighted] seed=1: skipped, its residuals give no finite order" in lines
    )


def test_oracle_is_skipped_once_its_phase_differences_leave_double_range(tmp_path):
    code, out, _, _ = assert_contract("verify", PHASE_GAP, tmp_path)
    lines = out.splitlines()
    assert code == 0
    assert "NOTE oracle[bounded] seed=1: scale leaves double range, skipped" in lines
    assert "NOTE oracle[weighted] seed=1: scale leaves double range, skipped" in lines
    assert not any(line.startswith(("PASS oracle", "FAIL oracle")) for line in lines)
    code, _, _, out_dir = assert_contract("run", PHASE_GAP, tmp_path)
    manifest = (out_dir / "manifest.txt").read_text()
    assert "bounded direct oracle skipped: its scale leaves double range" in manifest


def test_envelope_whose_dt_terms_stay_in_range_is_checked(tmp_path):
    code, out, _, _ = assert_contract("verify", ENVELOPE_DT_FIRST, tmp_path)
    assert code == 0
    assert "PASS bound[t1] seed=1: max_violation=0.000e+00 tolerance=1.500e+299" in out.splitlines()


def test_scaled_rotation_runs_while_its_values_stay_in_double_range(tmp_path):
    code, _, _, out_dir = assert_contract("run", SCALED_ROTATION_IN_RANGE, tmp_path)
    manifest = (out_dir / "manifest.txt").read_text()
    assert code == 0 and "warning" not in manifest
    assert "seed.4.rotation_scaled.residual = 9.8646883138125825e+306" in manifest.splitlines()


def test_scaled_rotation_is_skipped_once_sigma_u_leaves_double_range(tmp_path):
    code, out, _, out_dir = assert_contract("run", SCALED_ROTATION, tmp_path)
    manifest = (out_dir / "manifest.txt").read_text()
    assert code == 0
    assert "warning: seed 1: scaled rotation skipped: its scale leaves double range" in out
    assert "rotation_scaled" not in manifest
    assert "seed.1.rotation_unit.residual" in manifest
