"""Two-level overlapping Schwarz preconditioners with linear and Bezier
coarse spaces for 2D Helmholtz model problems, plus the GMRES harness that
reproduces the wavenumber-robustness iteration-count tables."""

from .coarse import CoarseSpace, build_focs, build_hocs, coarse_correct, galerkin
from .decomposition import (
    Decomposition,
    Partition,
    extend,
    extend_max,
    max_overlap_layers,
    partition,
)
from .discretization import (
    Grid,
    HelmholtzProblem,
    RegimeReport,
    analytical_mp1,
    assemble,
    regime,
)
from .gmres import GmresConfig, SolveReport, gmres
from .harness import (
    ConfigError,
    ExperimentConfig,
    TableRow,
    builtin_table,
    emit_csv,
    parse_config,
    run_experiment,
    validate_config,
)
from .linalg import SingularMatrixError
from .schwarz import SchwarzPreconditioner

__all__ = [
    "CoarseSpace",
    "ConfigError",
    "Decomposition",
    "ExperimentConfig",
    "GmresConfig",
    "Grid",
    "HelmholtzProblem",
    "Partition",
    "RegimeReport",
    "SchwarzPreconditioner",
    "SingularMatrixError",
    "SolveReport",
    "TableRow",
    "analytical_mp1",
    "assemble",
    "build_focs",
    "build_hocs",
    "builtin_table",
    "coarse_correct",
    "emit_csv",
    "extend",
    "extend_max",
    "galerkin",
    "gmres",
    "max_overlap_layers",
    "parse_config",
    "partition",
    "regime",
    "run_experiment",
    "validate_config",
]

__version__ = "0.1.0"
