import numpy as np
import pytest

from rangebound import cli, experiment
from rangebound.experiment import VerificationCheck, VerificationSummary

SMALL = "t_max=5\nn_steps=512\na=const:2\nsigma=const:1\nu=const:1\nseeds=1\n"


@pytest.fixture
def config_file(tmp_path):
    target = tmp_path / "run.cfg"
    target.write_text(SMALL + f"output_dir={tmp_path / 'out'}\n")
    return target


def test_run_command(config_file, tmp_path, capsys):
    assert cli.main(["run", str(config_file)]) == 0
    assert (tmp_path / "out" / "manifest.txt").exists()
    assert (tmp_path / "out" / "seed1" / "x.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_run_with_out_and_seed_override(config_file, tmp_path):
    out = tmp_path / "elsewhere"
    assert cli.main(["run", str(config_file), "--out", str(out), "--seed-override", "7"]) == 0
    assert (out / "seed7" / "x.csv").exists()
    assert not (out / "seed1").exists()


def test_figures_command(config_file, tmp_path, capsys):
    assert cli.main(["figures", str(config_file), "--out", str(tmp_path / "figs")]) == 0
    produced = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
    assert len(produced) == 6
    assert "fig5_modZ.csv" in produced


def test_verify_command(config_file, capsys):
    assert cli.main(["verify", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "PASS bound[t1] seed=1" in out
    assert "FAIL" not in out


def test_missing_config_is_configuration_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_is_configuration_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("t_max=5\nn_steps=0\n")
    assert cli.main(["run", str(bad)]) == 1
    assert "n_steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra_args, seeds",
    [(["--seed-override", "-1"], "1"), ([], "-3"), ([], str(2**128))],
)
def test_seed_outside_philox_key_range_exits_1(tmp_path, capsys, extra_args, seeds):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL.replace("seeds=1", f"seeds={seeds}") + f"output_dir={tmp_path / 'out'}\n")
    assert cli.main(["run", str(cfg), *extra_args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "outside [0, 2**128)" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_repeated_seed_exits_1_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL.replace("seeds=1", "seeds=1,1") + f"output_dir={tmp_path / 'out'}\n")
    for command in ("run", "verify"):
        assert cli.main([command, str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "configuration error: line 6: duplicate seed 1\n"
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "figures", "verify"])
def test_grid_too_large_to_allocate_exits_1_with_one_line(tmp_path, capsys, command):
    # 10**15 + 1 float64 nodes take 8e15 bytes, more than the 2**47 or 2**48
    # bytes an x86-64 or arm64 process maps by default, so the grid's first
    # allocation fails before memory is touched
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        SMALL.replace("n_steps=512", "n_steps=1000000000000000")
        + f"output_dir={tmp_path / 'out'}\n"
    )
    assert cli.main([command, str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert "allocate" in captured.err and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


# each refused while the seed is evaluated: a refused flag, a path that leaves
# double range, a 3-line file for 8 steps, a grid too large to allocate
@pytest.mark.parametrize(
    "config, args",
    [
        (SMALL, ["--levels", "2"]),
        (SMALL.replace("a=const:2", "x0=1e308\na=const:1e308"), []),
        (SMALL.replace("n_steps=512", "n_steps=8").replace("a=const:2", "a=file:a.txt"), []),
        (SMALL.replace("n_steps=512", "n_steps=1000000000000000"), []),
    ],
    ids=["levels", "path_out_of_range", "short_file", "allocation"],
)
def test_run_refused_while_evaluating_leaves_no_output_directory(tmp_path, capsys, config, args):
    (tmp_path / "a.txt").write_text("1\n2\n3\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + f"output_dir={tmp_path / 'out'}\n")
    assert cli.main(["run", str(cfg), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + f"output_dir={blocker / 'nested'}\n")
    assert cli.main(["run", str(cfg)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_without_csv_outputs_fails_at_the_manifest(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + f"outputs=convergence\noutput_dir={blocker / 'nested'}\n")
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "{cfg}", "--levels", "abc"], "argument --levels: invalid int value: 'abc'"),
        (["verify"], "the following arguments are required: config"),
    ],
    ids=["levels_abc", "no_config"],
)
def test_usage_errors_exit_1_with_one_line(config_file, capsys, argv, message):
    assert cli.main([arg.format(cfg=config_file) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"configuration error: {message}\n"
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rangebound verify")


def test_verification_failure_exit_code(config_file, monkeypatch, capsys):
    failing = VerificationSummary(
        checks=[VerificationCheck("bound[t1] seed=1", False, "max_violation=1.0e+00")]
    )
    monkeypatch.setattr(cli, "verify_suite", lambda config, convergence_levels: failing)
    assert cli.main(["verify", str(config_file)]) == 2
    assert "FAIL bound[t1]" in capsys.readouterr().out


def test_levels_flag_reaches_convergence(config_file, capsys):
    assert cli.main(["verify", str(config_file), "--levels", "3"]) == 0
    out = capsys.readouterr().out
    assert "convergence[bounded]" in out


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("levels", ["2", "0", "-1"])
def test_levels_below_three_are_a_configuration_error(config_file, tmp_path, capsys, command, levels):
    # 512 steps support 2 levels as a grid would, so only the count itself is wrong
    assert cli.main([command, str(config_file), "--levels", levels]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: convergence needs at least 3 refinement levels, got {levels}\n"
    )
    assert not list((tmp_path / "out").rglob("*.csv"))


# name -> (n_steps, coefficient lines, coefficients read from files); at 8000
# steps, above the oracle ceiling, the oracle checks the path's first 4000 steps
FILE_CONFIGS = {
    "file_drift_state_noise": (1000, "a=file:a.txt\nsigma=state:1.5\nu=const:1\n", ("a",)),
    "file_integrand": (1000, "a=const:2\nsigma=const:1\nu=file:u.txt\n", ("u",)),
    "file_above_oracle_ceiling": (8000, "a=file:a.txt\nsigma=const:1\nu=file:u.txt\n", ("a", "u")),
}


@pytest.mark.parametrize("name", sorted(FILE_CONFIGS))
def test_file_coefficients_are_decimated_on_coarse_grids(tmp_path, monkeypatch, capsys, name):
    n_steps, coefficients, sampled = FILE_CONFIGS[name]
    rng = np.random.default_rng(5)
    samples = {}
    for coefficient in sampled:
        samples[coefficient] = rng.uniform(-2.0, 2.0, n_steps)
        np.savetxt(tmp_path / f"{coefficient}.txt", samples[coefficient], fmt="%.17g")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"t_max=5\nn_steps={n_steps}\n{coefficients}seeds=1\noutput_dir={tmp_path / 'out'}\n"
    )

    paths = []
    original = experiment.simulate_path

    def recording(*args, **kwargs):
        paths.append(original(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(experiment, "simulate_path", recording)

    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out
    assert {p.grid.n_steps for p in paths} - {n_steps}
    if n_steps > 4000:
        # the ladder's rungs carry the seed; the oracle's head is no new path
        assert any(p.grid.n_steps == n_steps // 2 and p.seed == 1 for p in paths)
    for path in paths:
        factor = n_steps // path.grid.n_steps
        for coefficient in sampled:
            assert np.array_equal(getattr(path, coefficient), samples[coefficient][::factor])
