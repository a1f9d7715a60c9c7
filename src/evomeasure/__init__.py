"""Selection-mutation dynamics on finite nonnegative measures.

The state of the model is a finite measure over a compact strategy space;
births redistribute mass through a mutation kernel, deaths remove it, and
both rates may depend on the total population.  The package provides the
measure/kernel/fitness building blocks, two independent solvers (direct RK4
and a Picard fixed-point iteration on contraction windows), the classical
special-case reductions used as cross-validation oracles, and a small
experiment CLI.
"""

from .space import StrategySpace, atoms, grid_1d, grid_2d
from .measures import (
    MeasureVec,
    bl_distance,
    from_density,
    merge_supports,
    unit_atom,
    zero_measure,
)
from .kernels import MutationKernel, dirac_kernel, gaussian_kernel, kernel_from_density, matrix_kernel, uniform_kernel
from .fitness import (
    FitnessPair,
    TruncationConstants,
    beverton_holt_pair,
    constant_pair,
    custom_pair,
    estimate_constants,
    logistic_pair,
    mean_fitness_pair,
    ricker_pair,
    verify_assumptions,
)
from .dynamics import (
    Trajectory,
    field_lipschitz_ratio,
    flow,
    picard_operator,
    picard_solve,
    rk4_integrate,
    vector_field,
)
from .reductions import (
    DiscreteSystem,
    discrete_rhs,
    integrate_discrete,
    integrate_replicator_mutator,
    mm_residual,
    normalized_trajectory,
    quasispecies_run,
    replicator_check,
    replicator_mutator_rhs,
)
from .errors import ConfigError, NumericError

__version__ = "0.1.0"
