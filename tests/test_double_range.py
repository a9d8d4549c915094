"""Checks whose values or scales leave double range are skipped, never passed
on an infinite tolerance or written as inf and nan rows.

Config A keeps both transforms finite but sums psi dt past DBL_MAX, so every
envelope and oracle scale overflows. Config B's u dt sums overflow in the
bounded transform itself. Config C's path itself leaves double range, and
config D's sigma^2 does while sigma, the path and the bounded transform do not.
Config E's weighted transform leaves it just past the oracle's head, inside the
segment of the pass that holds the head's last node.
"""

import warnings

import numpy as np
import pytest

from rangebound import cli, transforms, verification
from rangebound.config import parse_config
from rangebound.experiment import prepare_path

from checks import Gather, bounded_recursive, oracle_rows, recurrence_pair

CONFIG_A = "t_max=5\nn_steps=512\na=const:2\nsigma=const:1\npsi=const:1e308\nseeds=1\n"
CONFIG_B = "t_max=5\nn_steps=512\na=const:0\nsigma=const:1\nu=const:1e308\nseeds=1\n"
CONFIG_C = "t_max=1\nn_steps=8\nx0=1e308\na=const:1e308\nsigma=const:1\nu=const:1\nseeds=1\n"
CONFIG_D = "t_max=1\nn_steps=8\na=const:0\nsigma=const:1e200\nu=const:1\nseeds=1\n"
CONFIG_E = "t_max=1\nn_steps=8192\na=const:1\nsigma=const:53.5\nu=const:1\nseeds=1\n"


@pytest.fixture
def command(tmp_path, capsys):
    """Run one CLI command on a config with every warning an error; return
    (exit code, stdout lines, stderr, output directory)."""

    def invoke(name, text):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([name, str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err, out

    return invoke


def assert_finite_rows(out):
    written = list(out.rglob("*.csv"))
    for csv in written:
        text = csv.read_text()
        assert "inf" not in text and "nan" not in text, csv.name
    return sorted(str(csv.relative_to(out)) for csv in written)


def seed_entries(out):
    """The manifest's per-seed entries and warnings, without the config echo."""
    lines = (out / "manifest.txt").read_text().splitlines()
    return "\n".join(line for line in lines if not line.startswith(("config.", "created_utc")))


def assert_nothing_unbounded(lines):
    assert not any("tolerance=inf" in line or "nan" in line for line in lines)


def test_config_a_run_skips_the_envelope_and_oracles_and_figures_stay_finite(command):
    code, lines, err, out = command("run", CONFIG_A)
    assert code == 0 and err == ""
    assert lines[:-1] == [
        "warning: seed 1: bounded direct oracle skipped: its scale leaves double range",
        "warning: seed 1: weighted direct oracle skipped: its scale leaves double range",
        "warning: seed 1: remarks skipped: drift is not identically zero",
        "warning: seed 1: bound_t2 skipped: its envelope leaves double range",
    ]
    manifest = seed_entries(out)
    assert "seed.1.bound_" not in manifest and "nan" not in manifest and "inf" not in manifest
    assert assert_finite_rows(out) == [
        f"seed1/{name}.csv" for name in ("identity_t1", "identity_t2", "t1", "t2", "x")
    ]

    code, lines, err, out = command("figures", CONFIG_A)
    assert code == 0 and err == ""
    assert len(assert_finite_rows(out)) == 6


def test_config_a_verify_notes_the_unbounded_checks_instead_of_passing_them(command):
    code, lines, err, _ = command("verify", CONFIG_A)
    # every check was skipped, and a verify that checked nothing does not pass
    assert code == 2 and err == ""
    for note in (
        "NOTE bound[t1] seed=1: envelope leaves double range, skipped",
        "NOTE bound[t2] seed=1: envelope leaves double range, skipped",
        "NOTE oracle[bounded] seed=1: scale leaves double range, skipped",
        "NOTE oracle[weighted] seed=1: scale leaves double range, skipped",
    ):
        assert note in lines
    verdicts = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    assert verdicts == ["FAIL checks: none ran, every check was skipped"]
    assert_nothing_unbounded(lines)


def test_config_b_run_skips_the_bounded_outputs(command):
    code, lines, err, out = command("run", CONFIG_B)
    assert code == 0 and err == ""
    assert lines[:-1] == [
        "warning: seed 1: bounded transform skipped: its values leave double range",
        "warning: seed 1: weighted transform skipped: its values leave double range",
        "warning: seed 1: bounded direct oracle skipped: its scale leaves double range",
        "warning: seed 1: weighted direct oracle skipped: its scale leaves double range",
        "warning: seed 1: convergence skipped: no identity residual in double range",
    ]
    manifest = seed_entries(out)
    assert "seed.1.bound_" not in manifest and "seed.1.identity_" not in manifest
    assert "seed.1.convergence" not in manifest and "nan" not in manifest
    assert assert_finite_rows(out) == [
        f"seed1/{name}.csv" for name in ("rotation_scaled", "rotation_unit", "x")
    ]


def test_config_b_verify_skips_the_bounded_checks(command):
    code, lines, err, _ = command("verify", CONFIG_B)
    assert code == 0 and err == ""
    assert lines == [
        "PASS bound[rotation] seed=1: |rhs|-bound=-3.331e+00 tolerance=5.500e-09",
        "NOTE oracle[bounded] seed=1: scale leaves double range, skipped",
        "NOTE oracle[weighted] seed=1: scale leaves double range, skipped",
        "NOTE identity[bounded] seed=1: values leave double range, skipped",
        "NOTE identity[weighted] seed=1: values leave double range, skipped",
        "NOTE convergence seed=1: skipped, no identity residual in double range",
    ]
    assert_nothing_unbounded(lines)


def test_config_b_builds_no_coarser_rung(command, monkeypatch):
    calls = []
    rung_residuals = verification._rung_residuals

    def spy(path):
        calls.append(path.grid.n_steps)
        return rung_residuals(path)

    monkeypatch.setattr(verification, "_rung_residuals", spy)
    for name in ("run", "verify"):
        code, _, err, _ = command(name, CONFIG_B)
        assert code == 0 and err == ""
    assert calls == []


def test_config_b_figures_is_a_configuration_error(command):
    code, lines, err, out = command("figures", CONFIG_B)
    assert code == 1 and lines == []
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "double range" in err and "Traceback" not in err
    assert not list(out.rglob("*.csv"))


def test_config_b_recurrence_and_oracle_give_no_bounded_series():
    path = prepare_path(parse_config(CONFIG_B), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert recurrence_pair(path) == (None, None)
        assert bounded_recursive(path) is None
        assert oracle_rows(path) == {"bounded": None, "weighted": None}


@pytest.mark.parametrize("name", ["run", "verify", "figures"])
def test_config_c_path_out_of_range_is_a_configuration_error(command, name):
    code, lines, err, out = command(name, CONFIG_C)
    assert code == 1 and lines == []
    assert err == "configuration error: seed 1: the path leaves double range\n"
    assert not list(out.rglob("*.csv"))


def test_config_d_run_skips_the_bounded_identity_and_the_rotations(command):
    code, lines, err, out = command("run", CONFIG_D)
    assert code == 0 and err == ""
    assert lines[:-1] == [
        "warning: seed 1: weighted transform skipped: its values leave double range",
        "warning: seed 1: identity_t1 skipped: its values leave double range",
        "warning: seed 1: weighted direct oracle skipped: its scale leaves double range",
        "warning: seed 1: unit rotation skipped: its bound leaves double range",
        "warning: seed 1: scaled rotation skipped: its scale leaves double range",
        "warning: seed 1: convergence skipped: no identity residual in double range",
    ]
    manifest = seed_entries(out)
    assert "seed.1.identity_" not in manifest and "seed.1.rotation_" not in manifest
    assert "nan" not in manifest and "inf" not in manifest
    assert assert_finite_rows(out) == [f"seed1/{name}.csv" for name in ("bound_t1", "t1", "x")]

    # fig6 is the bounded identity's lhs, judged alone: the rhs leaves double range, fig6 does not
    code, lines, err, out = command("figures", CONFIG_D)
    assert code == 0 and err == ""
    assert len(assert_finite_rows(out)) == 6


def test_config_d_verify_notes_the_rotation_and_bounded_identity(command):
    # oracle[bounded] is left out: its direct reference loses phase at |x| ~ 1e200
    code, lines, err, _ = command("verify", CONFIG_D)
    assert err == ""
    for note in (
        "NOTE bound[rotation] seed=1: bound leaves double range, skipped",
        "NOTE identity[bounded] seed=1: values leave double range, skipped",
        "NOTE identity[weighted] seed=1: values leave double range, skipped",
        "NOTE convergence seed=1: skipped, no identity residual in double range",
    ):
        assert note in lines
    assert "PASS bound[t1] seed=1: max_violation=0.000e+00 tolerance=2.000e-09" in lines
    assert not any("rotation" in line for line in lines if line.startswith(("PASS", "FAIL")))
    assert_nothing_unbounded(lines)
    assert not any("inf" in line for line in lines)


def test_config_d_rung_has_no_residual():
    path = prepare_path(parse_config(CONFIG_D), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verification._rung_residuals(path) == {"bounded": None, "weighted": None}


def test_config_e_leaves_double_range_mid_segment_and_feeds_the_nodes_before_it():
    """A transform's consumers get every node before its first value out of double range, as
    segments of one node feed them, though the segment that holds that value starts before it."""
    path = prepare_path(parse_config(CONFIG_E), 1)
    fed = {}
    for segment in (1, transforms._SEGMENT_NODES):
        bounded, weighted = Gather(), Gather()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transforms, "_SEGMENT_NODES", segment)
            assert transforms.reduce_pass(path, ([bounded], [weighted])) == [True, False]
        fed[segment] = np.concatenate(weighted.blocks)
    first = len(fed[1])  # the weighted transform's first node out of double range
    assert fed[transforms._SEGMENT_NODES].tobytes() == fed[1].tobytes()
    assert np.isfinite(fed[1]).all()
    # the default segments: none starts at that node, nor between it and the head's last node
    starts = np.cumsum([0] + [len(block) for block in bounded.blocks])
    assert verification.ORACLE_CEILING < first < path.grid.n_steps
    assert not ((verification.ORACLE_CEILING < starts) & (starts <= first)).any()


def test_config_e_verify_checks_the_whole_weighted_head(command):
    """The oracle reads the first 4001 nodes of the pass: they are all in double range, as the
    head's own recurrence is, so the weighted row is checked rather than skipped."""
    code, lines, err, _ = command("verify", CONFIG_E)
    assert code == 0 and err == ""
    assert "PASS oracle[weighted] seed=1 n=4000: deviation=3.123e+285 tolerance=1.479e+293" in lines
    assert "NOTE identity[weighted] seed=1: values leave double range, skipped" in lines
