"""Tools for state-dependent jumping kernels of pure-jump Markov processes.

The package has three layers:

* construction and numerical certification of kernels — expression
  parsing (:mod:`jumplab.exprlang`), kernel families
  (:mod:`jumplab.kernels`), adaptive quadrature
  (:mod:`jumplab.quadrature`) and sufficient-condition checks
  (:mod:`jumplab.validators`);
* exact-event simulation of the associated processes by tail thinning
  (:mod:`jumplab.simulator`);
* empirical verification of martingale, quadratic-variation and
  iterated-logarithm behaviour on simulated ensembles
  (:mod:`jumplab.estimators`), driven from config files by
  :mod:`jumplab.cli`.
"""

__version__ = "0.1.0"

from .coeffs import CoefficientFn, constant, from_source, inverse_quadratic_bump
from .errors import (
    AtomicKernelError,
    ConfigError,
    DivergenceDetected,
    DivergentIntegral,
    DomainError,
    EnvelopeViolation,
    ExprSyntaxError,
    JumpCapExceeded,
    JumplabError,
    RangeError,
    ToleranceNotMet,
    UnknownIdentifier,
)
from .kernels import (
    BigJumpPowerLaw,
    BigJumpStretchedExp,
    CompoundPoissonAtoms,
    ConeRestriction,
    HuntDifference,
    KernelSpec,
    StableLikeSmall,
    bass_constant,
    surface_area,
)
from .simulator import (
    Path,
    PathEnsemble,
    SimConfig,
    ThinningSimulator,
    read_path_csv,
    simulate_ensemble,
    simulate_path,
    state_at,
    states_at,
    write_path_csv,
)
from .validators import StateGrid, ValidationReport, default_grid, run_all

__all__ = [name for name in dir() if not name.startswith("_")]
