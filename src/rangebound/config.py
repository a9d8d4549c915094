"""Flat key = value experiment configuration.

Coefficient syntax: ``const:<c>``, ``sin:<c0>,<c1>,<omega>``, ``state:<c>``
(c / (1 + x^2)), or ``file:<path>`` (one value per line, one per grid step).
Exactly one of ``u`` and ``psi`` must be given; ``psi`` routes the run through
the weighted transform with the variance-discounted integrand.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .engine import CoefficientSpec
from .errors import ConfigurationError

ALL_OUTPUTS = ("path", "t1", "t2", "identities", "remarks", "bounds", "convergence")

_KEYS = ("t_max", "n_steps", "x0", "a", "sigma", "u", "psi", "seeds", "outputs", "output_dir")

def _check_seeds(seeds: tuple[int, ...], line: int | None = None) -> tuple[int, ...]:
    """Reject repeated seeds and seeds outside [0, 2**128), the Philox generator's key range."""
    for index, seed in enumerate(seeds):
        if not 0 <= seed < 2**128:
            raise ConfigurationError(f"seed {seed} outside [0, 2**128)", line)
        if seed in seeds[:index]:
            raise ConfigurationError(f"duplicate seed {seed}", line)
    return seeds


@dataclass(frozen=True)
class ExperimentConfig:
    t_max: float
    n_steps: int
    a_spec: CoefficientSpec
    sigma_spec: CoefficientSpec
    u_spec: CoefficientSpec | None = None
    psi_spec: CoefficientSpec | None = None
    x0: float = 0.0
    seeds: tuple[int, ...] = (1,)
    outputs: frozenset[str] = frozenset(ALL_OUTPUTS)
    output_dir: str = "out"

    @property
    def uses_discounted_u(self) -> bool:
        return self.psi_spec is not None

    def with_overrides(self, seeds=None, output_dir=None) -> "ExperimentConfig":
        cfg = self
        if seeds is not None:
            cfg = replace(cfg, seeds=_check_seeds(tuple(int(s) for s in seeds)))
        if output_dir is not None:
            cfg = replace(cfg, output_dir=str(output_dir))
        return cfg


def parse_coefficient(token: str, base_dir: str | Path = ".", line: int | None = None) -> CoefficientSpec:
    """Parse one coefficient token of the config syntax."""
    kind, _, arg = token.strip().partition(":")
    try:
        if kind == "const":
            return CoefficientSpec.constant(_number(arg))
        if kind == "sin":
            parts = arg.split(",")
            if len(parts) != 3:
                raise ConfigurationError(
                    f"sin coefficient needs 3 parameters c0,c1,omega, got {arg!r}"
                )
            return CoefficientSpec.sinusoid(*(_number(p) for p in parts))
        if kind == "state":
            return CoefficientSpec.state_bounded(_number(arg))
        if kind == "file":
            path = Path(base_dir) / arg
            if not path.is_file():
                raise ConfigurationError(f"coefficient file not found: {path}")
            # a file without values is refused below, not warned about
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(path, dtype=np.float64, ndmin=2)
            if values.shape[1] != 1 or not len(values):
                got = f"{values.shape[1]} values on a line" if len(values) else "no values"
                raise ConfigurationError(
                    f"coefficient file {path} has {got}, expected one per line"
                )
            return CoefficientSpec.from_samples(values[:, 0])
    except ConfigurationError as exc:  # CoefficientSpec's refusals get the line too
        raise ConfigurationError(str(exc), line) from exc
    except ValueError as exc:
        raise ConfigurationError(f"bad coefficient {token!r}: {exc}", line) from exc
    raise ConfigurationError(
        f"unknown coefficient kind {kind!r}, expected const, sin, state, or file", line
    )


def _number(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def parse_config(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    """Parse and validate config text, filling defaults (x0=0, outputs=all)."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigurationError(f"expected key = value, got {stripped!r}", lineno)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigurationError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigurationError(f"duplicate key {key!r}", lineno)
        raw[key] = (value.strip(), lineno)

    def take(key):
        return raw.pop(key, (None, None))

    def scalar(key, convert, default=None):
        text, line = take(key)
        if text is None:
            if default is None:
                raise ConfigurationError(f"missing required key {key!r}")
            return default, line
        try:
            return convert(text), line
        except ValueError as exc:
            raise ConfigurationError(f"invalid value for {key}: {text!r}", line) from exc

    t_max, t_max_line = scalar("t_max", _number)
    if t_max <= 0:
        raise ConfigurationError("t_max must be > 0", t_max_line)
    n_steps, n_steps_line = scalar("n_steps", int)
    if n_steps < 1:
        raise ConfigurationError("n_steps must be >= 1", n_steps_line)
    # build_grid's nodes k * dt rise strictly to t_max only while dt > 0 and node
    # n_steps - 1 stays below t_max; an n_steps past double range has no step
    dt = t_max / n_steps if n_steps < 2**1024 else 0.0
    if not (dt > 0 and dt * (n_steps - 1) < t_max):
        raise ConfigurationError(f"step {dt!r} too small for t to increase strictly", n_steps_line)
    x0, _ = scalar("x0", _number, default=0.0)

    specs: dict[str, CoefficientSpec | None] = {}
    spec_lines: dict[str, int | None] = {}
    for key in ("a", "sigma", "u", "psi"):
        token, line = take(key)
        spec_lines[key] = line
        specs[key] = spec = None if token is None else parse_coefficient(token, base_dir, line)
        if spec is not None and spec.kind == "samples" and len(spec.samples) != n_steps:
            got = f"{len(spec.samples)} entries, grid needs {n_steps}"
            raise ConfigurationError(f"samples coefficient has {got}", line)
    for key in ("a", "sigma"):
        if specs[key] is None:
            raise ConfigurationError(f"missing required key {key!r}")
    if specs["u"] is not None and specs["psi"] is not None:
        raise ConfigurationError(
            "keys 'u' and 'psi' conflict: give exactly one",
            max(spec_lines["u"], spec_lines["psi"]),
        )
    if specs["u"] is None and specs["psi"] is None:
        raise ConfigurationError("missing integrand: define either 'u' or 'psi'")

    seeds_text, seeds_line = take("seeds")
    if seeds_text is None:
        raise ConfigurationError("missing required key 'seeds'")
    try:
        seeds = tuple(int(part) for part in seeds_text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigurationError(f"invalid seed list {seeds_text!r}", seeds_line) from exc
    if not seeds:
        raise ConfigurationError("seeds must be a nonempty list", seeds_line)
    _check_seeds(seeds, seeds_line)

    outputs_text, outputs_line = take("outputs")
    if outputs_text is None:
        outputs = frozenset(ALL_OUTPUTS)
    else:
        tokens = [part.strip() for part in outputs_text.split(",") if part.strip()]
        unknown = [tok for tok in tokens if tok not in ALL_OUTPUTS]
        if unknown:
            raise ConfigurationError(
                f"unknown outputs {unknown}, allowed: {', '.join(ALL_OUTPUTS)}", outputs_line
            )
        outputs = frozenset(tokens)

    output_dir, _ = scalar("output_dir", str, default="out")

    return ExperimentConfig(
        t_max=t_max,
        n_steps=n_steps,
        a_spec=specs["a"],
        sigma_spec=specs["sigma"],
        u_spec=specs["u"],
        psi_spec=specs["psi"],
        x0=x0,
        seeds=seeds,
        outputs=outputs,
        output_dir=output_dir,
    )


def coefficient_token(spec: CoefficientSpec) -> str:
    """Canonical config token for a coefficient (samples render as inline length)."""
    if spec.kind == "const":
        return f"const:{spec.params[0]:.17g}"
    if spec.kind == "sin":
        return "sin:" + ",".join(format(p, ".17g") for p in spec.params)
    if spec.kind == "state":
        return f"state:{spec.params[0]:.17g}"
    return f"samples[{len(spec.samples)}]"


def config_echo_lines(config: ExperimentConfig) -> list[str]:
    """Normalized key = value lines describing the resolved config."""
    lines = [
        f"config.t_max = {config.t_max:.17g}",
        f"config.n_steps = {config.n_steps}",
        f"config.x0 = {config.x0:.17g}",
        f"config.a = {coefficient_token(config.a_spec)}",
        f"config.sigma = {coefficient_token(config.sigma_spec)}",
    ]
    if config.u_spec is not None:
        lines.append(f"config.u = {coefficient_token(config.u_spec)}")
    if config.psi_spec is not None:
        lines.append(f"config.psi = {coefficient_token(config.psi_spec)}")
    lines.append("config.seeds = " + ",".join(str(s) for s in config.seeds))
    lines.append("config.outputs = " + ",".join(sorted(config.outputs)))
    lines.append(f"config.output_dir = {config.output_dir}")
    return lines
