"""Stochastic integrals with a preselected containing range.

Simulates dx = a dt + sigma dw paths, applies phasor-convolution transforms
whose modulus stays inside a chosen deterministic envelope for every drift,
and verifies the envelopes, identities, and convergence orders by simulation.
"""

__version__ = "0.1.0"

from .config import ALL_OUTPUTS, ExperimentConfig, parse_coefficient, parse_config
from .engine import (
    CoefficientSpec,
    PathRecord,
    TimeGrid,
    build_grid,
    coarsen_increments,
    sample_wiener,
    simulate_path,
)
from .errors import ConfigurationError, OracleCostError
from .experiment import (
    ExperimentManifest,
    emit_figures,
    prepare_path,
    run_experiment,
    verify_suite,
)
from .transforms import (
    TransformSeries,
    reduce_pass,
    scaled_rotation_identity,
    transform_pair_direct,
    transform_pair_recursive,
    unit_rotation_identity,
    variance_discounted_u,
)
from .verification import (
    BoundReport,
    ConvergenceReport,
    EnvelopeCheck,
    IdentityCheck,
    compare_oracle_pair,
    convergence_ladder,
    orders_from_residuals,
)

__all__ = [
    "ALL_OUTPUTS",
    "BoundReport",
    "CoefficientSpec",
    "ConfigurationError",
    "ConvergenceReport",
    "EnvelopeCheck",
    "ExperimentConfig",
    "ExperimentManifest",
    "IdentityCheck",
    "OracleCostError",
    "PathRecord",
    "TimeGrid",
    "TransformSeries",
    "build_grid",
    "coarsen_increments",
    "compare_oracle_pair",
    "convergence_ladder",
    "emit_figures",
    "orders_from_residuals",
    "parse_coefficient",
    "parse_config",
    "prepare_path",
    "reduce_pass",
    "run_experiment",
    "sample_wiener",
    "scaled_rotation_identity",
    "simulate_path",
    "transform_pair_direct",
    "transform_pair_recursive",
    "unit_rotation_identity",
    "variance_discounted_u",
    "verify_suite",
    "__version__",
]
