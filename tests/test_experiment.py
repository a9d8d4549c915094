import numpy as np
import pytest

import rangebound as rb
from rangebound import experiment
from rangebound.config import parse_config
from rangebound.experiment import (
    FIGURE_NAMES,
    ExperimentManifest,
    emit_figures,
    prepare_path,
    run_experiment,
    verify_suite,
)

from checks import bounded_recursive, whole_bound

SMALL = "t_max=5\nn_steps=500\na=const:2\nsigma=const:1\nu=const:1\nseeds=1\n"
DRIFTLESS = "t_max=5\nn_steps=512\na=const:0\nsigma=const:1\nu=const:1\nseeds=3\n"
PSI_SMALL = "t_max=5\nn_steps=500\na=const:2\nsigma=const:1\npsi=const:1\nseeds=1\n"


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if not l.startswith("created_utc"))


class TestRunExperiment:
    def test_path_and_t1_files(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=path,t1\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert sorted(manifest.files) == ["seed1/t1.csv", "seed1/x.csv"]
        header, rows = read_rows(tmp_path / "seed1" / "x.csv")
        assert header == "t,x"
        assert len(rows) == 501
        header, rows = read_rows(tmp_path / "seed1" / "t1.csv")
        assert header == "t,X,Y"
        assert len(rows) == 501

    def test_t_column_strictly_increasing(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=path,t1,t2\n")
        run_experiment(cfg, out_dir=tmp_path)
        for name in ("x.csv", "t1.csv", "t2.csv"):
            t = np.loadtxt(tmp_path / "seed1" / name, delimiter=",", skiprows=1, usecols=0)
            assert np.all(np.diff(t) > 0)

    def test_empty_outputs_manifest_only(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert manifest.files == []
        assert (tmp_path / "manifest.txt").exists()
        assert not (tmp_path / "seed1").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config(SMALL)
        run_experiment(cfg, out_dir=tmp_path / "one")
        run_experiment(cfg, out_dir=tmp_path / "two")
        names = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*.csv"))
        assert names
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        first = strip_timestamp((tmp_path / "one" / "manifest.txt").read_text())
        second = strip_timestamp((tmp_path / "two" / "manifest.txt").read_text())
        assert first == second

    def test_manifest_margin_matches_whole_array_margin(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=bounds\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        path = prepare_path(cfg, 1)
        report = whole_bound(bounded_recursive(path), path.u, path.grid)
        recorded = manifest.get("seed.1.bound_t1.max_violation")
        assert float(recorded) == report.max_violation
        assert manifest.get("seed.1.bound_t1.violation_index") == str(report.violation_index)
        assert manifest.get("seed.1.bound_t1.passed") == "true"

    def test_remarks_skipped_with_drift(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=remarks\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert manifest.files == []
        assert any("remarks skipped" in w for w in manifest.warnings)

    def test_remarks_written_when_driftless(self, tmp_path):
        cfg = parse_config(DRIFTLESS + "outputs=remarks\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert "seed3/rotation_unit.csv" in manifest.files
        assert "seed3/rotation_scaled.csv" in manifest.files
        assert float(manifest.get("seed.3.rotation_unit.rhs_abs")) <= 4.5 + 1e-9
        assert float(manifest.get("seed.3.rotation_unit.bound")) == pytest.approx(4.5)

    def test_oracle_downgrade_warning(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=identities\n")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rb.verification, "ORACLE_CEILING", 100)
            manifest = run_experiment(cfg, out_dir=tmp_path)
        assert any("recursive-only" in w for w in manifest.warnings)
        assert manifest.get("seed.1.oracle.bounded.deviation") is None

    def test_oracle_recorded_when_feasible(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=identities\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        deviation = float(manifest.get("seed.1.oracle.bounded.deviation"))
        assert 0.0 <= deviation < 1e-9
        assert float(manifest.get("seed.1.identity_t1.residual")) > 0.0

    def test_convergence_summaries(self, tmp_path):
        cfg = parse_config(SMALL.replace("n_steps=500", "n_steps=512") + "outputs=convergence\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        grids = manifest.get("seed.1.convergence.bounded.grids")
        assert grids == "64,128,256,512"
        assert manifest.get("seed.1.convergence.bounded.median_order") is not None

    def test_convergence_infeasible_warns(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=convergence\n")
        manifest = run_experiment(cfg, out_dir=tmp_path, convergence_levels=4)
        assert any("convergence skipped" in w for w in manifest.warnings)

    def test_psi_pipeline_bounds(self, tmp_path):
        cfg = parse_config(PSI_SMALL + "outputs=bounds,t2\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert "seed1/bound_t2.csv" in manifest.files
        assert manifest.get("seed.1.bound_t2.passed") == "true"

    def test_multiple_seeds_layout(self, tmp_path):
        cfg = parse_config(SMALL.replace("seeds=1", "seeds=1,2") + "outputs=path\n")
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert manifest.files == ["seed1/x.csv", "seed2/x.csv"]


class TestFloatFormat:
    def test_seventeen_digit_round_trip(self, tmp_path):
        cfg = parse_config(SMALL + "outputs=path\n")
        run_experiment(cfg, out_dir=tmp_path)
        path = prepare_path(cfg, 1)
        from_file = np.loadtxt(tmp_path / "seed1" / "x.csv", delimiter=",", skiprows=1, usecols=1)
        assert np.array_equal(from_file, path.x)


class TestEmitFigures:
    def test_all_six_files(self, tmp_path):
        cfg = parse_config(SMALL)
        files = emit_figures(cfg, out_dir=tmp_path)
        assert [f.name for f in files] == list(FIGURE_NAMES)
        for f in files:
            header, rows = read_rows(f)
            assert header in ("t,value", "t,X,Y")
            assert len(rows) == 501

    def test_modulus_figure_respects_envelope(self, tmp_path):
        cfg = parse_config(SMALL)
        emit_figures(cfg, out_dir=tmp_path)
        mod = np.loadtxt(tmp_path / "fig5_modZ.csv", delimiter=",", skiprows=1, usecols=1)
        assert np.max(mod) <= 5.0 + 1e-9

    def test_deterministic_drift_matches_closed_form(self, tmp_path):
        cfg = parse_config(SMALL.replace("sigma=const:1", "sigma=const:0"))
        emit_figures(cfg, out_dir=tmp_path)
        data = np.loadtxt(tmp_path / "fig2_X.csv", delimiter=",", skiprows=1)
        t, x = data[:, 0], data[:, 1]
        assert np.max(np.abs(x - np.sin(2 * t) / 2)) < 5 * (5.0 / 500)

    def test_zero_integrand_zero_figures(self, tmp_path):
        cfg = parse_config(SMALL.replace("u=const:1", "u=const:0"))
        emit_figures(cfg, out_dir=tmp_path)
        for name in FIGURE_NAMES[1:]:
            data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            assert np.all(data[:, 1:] == 0.0)


class TestManifestText:
    def test_files_and_warnings(self):
        manifest = ExperimentManifest()
        manifest.add("tool", "rangebound 0.1.0")
        manifest.add("seed.1.file", "seed1/x.csv")
        manifest.add("warning", "something odd")
        assert manifest.to_text() == (
            "tool = rangebound 0.1.0\nseed.1.file = seed1/x.csv\nwarning = something odd\n"
        )
        assert manifest.files == ["seed1/x.csv"]
        assert manifest.warnings == ["something odd"]


class TestVerifySuite:
    def test_reference_config_passes(self):
        cfg = parse_config(SMALL.replace("n_steps=500", "n_steps=512"))
        summary = verify_suite(cfg)
        assert not summary.failed
        names = [c.name for c in summary.checks]
        assert any(name.startswith("bound[t1]") for name in names)
        assert any(name.startswith("oracle[bounded]") for name in names)
        assert any("convergence[bounded]" in n for n in summary.notes)

    def test_psi_config_checks_discounted_bound(self):
        cfg = parse_config(PSI_SMALL)
        summary = verify_suite(cfg)
        assert not summary.failed
        assert any(c.name.startswith("bound[t2]") for c in summary.checks)

    def test_driftless_config_checks_rotation(self):
        cfg = parse_config(DRIFTLESS)
        summary = verify_suite(cfg)
        assert not summary.failed
        assert any(c.name.startswith("bound[rotation]") for c in summary.checks)

    @pytest.mark.parametrize("n_steps", [12800, 4001, 8006])
    def test_oracle_checks_the_head_above_ceiling(self, n_steps):
        # every n_steps above the ceiling gets an oracle on its first 4000 steps
        cfg = parse_config(SMALL.replace("n_steps=500", f"n_steps={n_steps}"))
        summary = verify_suite(cfg)
        oracle_checks = [c for c in summary.checks if c.name.startswith("oracle")]
        assert [c.name for c in oracle_checks] == [
            "oracle[bounded] seed=1 n=4000",
            "oracle[weighted] seed=1 n=4000",
        ]
        assert all(c.passed for c in oracle_checks)
        assert not any(n.startswith("oracle") for n in summary.notes)


PSI_LADDER = "t_max=5\nn_steps=1024\na=const:2\nsigma=const:1\npsi=sin:1,0.5,2\nseeds=1\n"
SINE_LADDER = "t_max=5\nn_steps=4096\nx0=0.3\na=sin:1,2,3\nsigma=sin:2,1,1\nu=const:1\nseeds=1\n"


def _note_value(notes, prefix, key):
    (note,) = [n for n in notes if n.startswith(prefix)]
    return note.split(f"{key}=")[1].split()[0]


class TestConvergenceLadder:
    """The ladder's finest rung is the seed's own path, and each rung is simulated once."""

    def test_psi_verify_finest_rung_is_the_identity_residual(self):
        notes = verify_suite(parse_config(PSI_LADDER)).notes
        for identity in ("bounded", "weighted"):
            residual = float(_note_value(notes, f"identity[{identity}] seed=1", "residual"))
            ladder = _note_value(notes, f"convergence[{identity}] seed=1", "residuals")
            assert ladder.split(",")[-1] == f"{residual:.3e}"

    def test_psi_run_finest_rung_is_the_identity_residual(self, tmp_path):
        manifest = run_experiment(parse_config(PSI_LADDER), out_dir=tmp_path)
        for identity, name in (("bounded", "identity_t1"), ("weighted", "identity_t2")):
            ladder = manifest.get(f"seed.1.convergence.{identity}.residuals").split(",")
            assert ladder[-1] == manifest.get(f"seed.1.{name}.residual")

    @pytest.fixture
    def simulated_steps(self, monkeypatch):
        steps = []
        original = experiment.simulate_path

        def counting(*args, **kwargs):
            path = original(*args, **kwargs)
            steps.append(path.grid.n_steps)
            return path

        monkeypatch.setattr(experiment, "simulate_path", counting)
        return steps

    def test_verify_simulates_each_rung_once(self, simulated_steps):
        cfg = parse_config(SINE_LADDER)
        # a ceiling at n keeps the oracle on the seed's own path
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rb.verification, "ORACLE_CEILING", 4096)
            summary = verify_suite(cfg, convergence_levels=4)
        assert sum(simulated_steps) == 4096 + 2048 + 1024 + 512

        def rung(grid, increments, factor):
            specs = (spec.coarsened(factor) for spec in (cfg.a_spec, cfg.sigma_spec, cfg.u_spec))
            return rb.simulate_path(*specs, grid, increments, cfg.x0)

        reports = rb.convergence_ladder(prepare_path(cfg, 1).dw, cfg.t_max, rung, 4)
        for identity in ("bounded", "weighted"):
            report = reports[identity]
            expected = (
                f"convergence[{identity}] seed=1: median_order={report.median_order:.3f} "
                "residuals=" + ",".join(f"{r:.3e}" for r in report.residual_norms)
            )
            assert f"NOTE {expected}" in summary.lines()

    def test_run_simulates_each_rung_once(self, simulated_steps, tmp_path):
        manifest = run_experiment(parse_config(SINE_LADDER), out_dir=tmp_path, convergence_levels=4)
        assert sum(simulated_steps) == 4096 + 2048 + 1024 + 512
        assert manifest.get("seed.1.convergence.weighted.grids") == "512,1024,2048,4096"
