import numpy as np
import pytest

import rangebound as rb
from rangebound import ConfigurationError
from rangebound.config import ALL_OUTPUTS, config_echo_lines, parse_coefficient, parse_config

PAPER_TEXT = "t_max=5\nn_steps=100000\na=const:2\nsigma=const:1\nu=const:1\nseeds=1\n"


class TestParseConfig:
    def test_reference_config(self):
        cfg = parse_config(PAPER_TEXT)
        assert cfg.t_max == 5.0
        assert cfg.n_steps == 100_000
        assert cfg.a_spec.kind == "const" and cfg.a_spec.params == (2.0,)
        assert cfg.sigma_spec.params == (1.0,)
        assert cfg.u_spec.params == (1.0,)
        assert cfg.psi_spec is None
        assert cfg.seeds == (1,)

    def test_defaults(self):
        cfg = parse_config(PAPER_TEXT)
        assert cfg.x0 == 0.0
        assert cfg.outputs == frozenset(ALL_OUTPUTS)
        assert cfg.output_dir == "out"

    def test_spaces_and_comments_tolerated(self):
        text = "# reference run\nt_max = 5\nn_steps = 100\na = const:2\n\nsigma = const:1\nu = const:1\nseeds = 1, 2 ,3\n"
        cfg = parse_config(text)
        assert cfg.seeds == (1, 2, 3)

    def test_explicit_empty_outputs(self):
        cfg = parse_config(PAPER_TEXT + "outputs=\n")
        assert cfg.outputs == frozenset()

    def test_outputs_subset(self):
        cfg = parse_config(PAPER_TEXT + "outputs=path,t1\n")
        assert cfg.outputs == frozenset({"path", "t1"})

    def test_unknown_output_rejected_with_line(self):
        with pytest.raises(ConfigurationError, match="line 7"):
            parse_config(PAPER_TEXT + "outputs=path,plots\n")

    def test_missing_integrand_names_keys(self):
        text = "t_max=5\nn_steps=100\na=const:2\nsigma=const:1\nseeds=1\n"
        with pytest.raises(ConfigurationError, match="'u' or 'psi'"):
            parse_config(text)

    def test_conflicting_integrands(self):
        with pytest.raises(ConfigurationError, match="conflict"):
            parse_config(PAPER_TEXT + "psi=const:1\n")

    def test_zero_steps_message(self):
        text = PAPER_TEXT.replace("n_steps=100000", "n_steps=0")
        with pytest.raises(ConfigurationError, match="n_steps must be >= 1"):
            parse_config(text)

    @pytest.mark.parametrize(
        "t_max, n_steps, accepted",
        [(5e-324, 4, False), (1e-322, 30, False), (1e-322, 20, True), (1e-300, 64, True)],
    )
    def test_steps_too_small_for_t_to_increase_strictly(self, t_max, n_steps, accepted):
        text = PAPER_TEXT.replace("t_max=5", f"t_max={t_max!r}").replace("100000", str(n_steps))
        # the refusal matches the grid build_grid would make
        assert bool(np.all(np.diff(rb.build_grid(t_max, n_steps).nodes) > 0)) == accepted
        if accepted:
            assert parse_config(text).n_steps == n_steps
        else:
            with pytest.raises(ConfigurationError, match="line 2: step .* too small for t"):
                parse_config(text)

    @pytest.mark.parametrize("n_steps", [10**17, 10**400], ids=["1e17", "1e400"])
    def test_steps_past_distinct_doubles_are_refused_unbuilt(self, n_steps):
        # node n_steps - 1 rounds to t_max; 10**400 has no double step at all
        text = PAPER_TEXT.replace("100000", str(n_steps))
        with pytest.raises(ConfigurationError, match="line 2: step .* too small for t"):
            parse_config(text)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2: unknown key 'dx'"):
            parse_config("t_max=5\ndx=1\n")

    def test_malformed_number_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("t_max=five\nn_steps=10\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("t_max=5\nt_max=6\n")

    def test_empty_seed_list(self):
        text = PAPER_TEXT.replace("seeds=1", "seeds=,")
        with pytest.raises(ConfigurationError, match="seeds"):
            parse_config(text)

    @pytest.mark.parametrize("seeds", ["-3", "1,-1", str(2**128)])
    def test_seed_outside_philox_key_range(self, seeds):
        text = PAPER_TEXT.replace("seeds=1", f"seeds={seeds}")
        with pytest.raises(ConfigurationError, match=r"line 6: seed .* outside \[0, 2\*\*128\)"):
            parse_config(text)

    def test_seed_range_endpoints_accepted(self):
        cfg = parse_config(PAPER_TEXT.replace("seeds=1", f"seeds=0,{2**128 - 1}"))
        assert cfg.seeds == (0, 2**128 - 1)

    @pytest.mark.parametrize("seeds", ["1,1", "2,1,2", "1, 01"])
    def test_repeated_seed_rejected_with_line(self, seeds):
        text = PAPER_TEXT.replace("seeds=1", f"seeds={seeds}")
        with pytest.raises(ConfigurationError, match=r"line 6: duplicate seed [12]$"):
            parse_config(text)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError, match="t_max"):
            parse_config("n_steps=10\n")
        with pytest.raises(ConfigurationError, match="n_steps"):
            parse_config("t_max=5\n")

    def test_psi_routes_to_discounted_pipeline(self):
        text = PAPER_TEXT.replace("u=const:1", "psi=const:1")
        cfg = parse_config(text)
        assert cfg.uses_discounted_u
        assert cfg.u_spec is None

    def test_overrides(self):
        cfg = parse_config(PAPER_TEXT).with_overrides(seeds=[9], output_dir="elsewhere")
        assert cfg.seeds == (9,)
        assert cfg.output_dir == "elsewhere"

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_override_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigurationError, match="outside"):
            parse_config(PAPER_TEXT).with_overrides(seeds=[seed])


class TestParseCoefficient:
    def test_const(self):
        spec = parse_coefficient("const:-2.5")
        assert spec.kind == "const" and spec.params == (-2.5,)

    def test_sin(self):
        spec = parse_coefficient("sin:1,0.5,3")
        assert spec.kind == "sin" and spec.params == (1.0, 0.5, 3.0)

    def test_state(self):
        spec = parse_coefficient("state:2")
        assert spec.kind == "state"
        assert spec.sample_series(rb.build_grid(1.0, 1), x_left=np.array([1.0]))[0] == 1.0

    def test_file_samples(self, tmp_path):
        target = tmp_path / "u.txt"
        target.write_text("0.5\n-0.25\n1.0\n")
        spec = parse_coefficient("file:u.txt", base_dir=tmp_path)
        assert spec.kind == "samples"
        assert np.array_equal(spec.samples, [0.5, -0.25, 1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_coefficient("file:nope.txt", base_dir=tmp_path)

    @pytest.mark.parametrize("token", ["const:abc", "sin:1,2", "poly:1", "const:inf"])
    def test_malformed_tokens(self, token):
        with pytest.raises(ConfigurationError):
            parse_coefficient(token)


def test_echo_lines_round_trip_floats():
    cfg = parse_config(PAPER_TEXT)
    lines = config_echo_lines(cfg)
    by_key = dict(line.split(" = ", 1) for line in lines)
    assert float(by_key["config.t_max"]) == 5.0
    assert by_key["config.a"] == "const:2"
    assert by_key["config.seeds"] == "1"
