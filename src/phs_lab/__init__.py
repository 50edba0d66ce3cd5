"""Learning port-Hamiltonian dynamics from data and shaping them in closed loop.

The package covers four layers: plant models and simulation (``core``), a
physics-structured Gaussian process over PHS vector fields (``kernels``,
``gp``), passivity-based tracking control via the modified matching equation
(``control``, ``verify``), and a reproducible experiment pipeline with a CLI
(``config``, ``pipeline``, ``cli``).
"""

from .config import default_config, load_config, save_config, validate_config
from .control import (
    DesiredDynamics,
    ReferencePlan,
    left_annihilator,
    make_desired_dynamics,
    matching_residual,
    microactuator_desired_matrices,
    semi_passive_control,
    solve_reference_plan,
    tracking_control,
)
from .core import (
    MicroactuatorParams,
    PhsModel,
    Trajectory,
    energy_balance_residual,
    eval_dynamics,
    make_mass_spring_damper,
    make_microactuator,
    phs_output,
    simulate_feedback,
)
from .errors import (
    ConditioningError,
    ConfigError,
    ModelEvaluationError,
    PhsLabError,
    PlanError,
    SimulationDivergedError,
    StageError,
    SynthesisError,
    TrainingError,
)
from .filtering import FilteredDataset, filter_derivatives
from .gp import (
    GpHyperparams,
    GpPhsModel,
    OptimizerConfig,
    calibrate_beta,
    condition,
    load_model,
    negative_log_marginal_likelihood,
    save_model,
    train,
)
from .kernels import gram_matrix, phs_kernel, se_hessian
from .pipeline import generate_dataset, run_pipeline
from .structure import (
    FixedStructure,
    MicroactuatorStructure,
    StructureEstimate,
    structure_from_jsonable,
)
from .verify import (
    ConditionReport,
    HdMinimumReport,
    VerifySpec,
    build_desired_dynamics,
    validate_hd_minimum,
    verify_dissipation_condition,
)

__version__ = "0.1.0"
