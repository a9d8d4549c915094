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
    simulate_seeded,
)
from .errors import ConfigurationError, OracleCostError
from .experiment import (
    ExperimentManifest,
    emit_figures,
    prepare_path,
    run_experiment,
    verify_suite,
)
from .quadrature import ito_cumsum, riemann_cumsum
from .transforms import (
    TransformSeries,
    bounded_identity_sides,
    bounded_transform_recursive,
    scaled_rotation_identity,
    transform_pair_direct,
    transform_pair_recursive,
    unit_rotation_identity,
    variance_discounted_u,
    weighted_identity_sides,
)
from .verification import (
    DEFAULT_ORACLE_CEILING,
    BoundReport,
    ConvergenceReport,
    check_envelope,
    compare_oracle_pair,
    convergence_ladder,
    orders_from_residuals,
    residual_norm,
)

__all__ = [
    "ALL_OUTPUTS",
    "BoundReport",
    "CoefficientSpec",
    "ConfigurationError",
    "ConvergenceReport",
    "DEFAULT_ORACLE_CEILING",
    "ExperimentConfig",
    "ExperimentManifest",
    "OracleCostError",
    "PathRecord",
    "TimeGrid",
    "TransformSeries",
    "bounded_identity_sides",
    "bounded_transform_recursive",
    "build_grid",
    "check_envelope",
    "coarsen_increments",
    "compare_oracle_pair",
    "convergence_ladder",
    "emit_figures",
    "ito_cumsum",
    "orders_from_residuals",
    "parse_coefficient",
    "parse_config",
    "prepare_path",
    "residual_norm",
    "riemann_cumsum",
    "run_experiment",
    "sample_wiener",
    "scaled_rotation_identity",
    "simulate_path",
    "simulate_seeded",
    "transform_pair_direct",
    "transform_pair_recursive",
    "unit_rotation_identity",
    "variance_discounted_u",
    "verify_suite",
    "weighted_identity_sides",
    "__version__",
]
