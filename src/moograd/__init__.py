"""Multi-objective gradient optimization toolkit.

Min-norm common-descent methods (deterministic, stochastic, and
dynamic-sampling), a recurrent learned optimizer trained by truncated
backpropagation through time, and a guarded hybrid that falls back to the
convergent method whenever the learned update underperforms.
"""

__version__ = "0.1.0"

from .guard import gml2o_deterministic_run, gml2o_run, guard_select
from .metrics import dominates, extract_front, hypervolume_2d, hypervolume_3d, theorem_monitor
from .minnorm import (
    MinNormSolution,
    criticality_measure,
    min_norm_2obj_oracle,
    simplex_grid_oracle,
    solve_min_norm,
)
from .ml2o import (
    Ml2oParams,
    init_params,
    load_checkpoint,
    meta_train,
    ml2o_direction,
    preprocess_gradient,
    save_checkpoint,
)
from .optimizers import SampleSchedule, StepSchedule, sample_size
from .problems import make_problem, make_quadratic_pair, make_toy_mtl, register_named_problem

__all__ = [
    "MinNormSolution",
    "Ml2oParams",
    "SampleSchedule",
    "StepSchedule",
    "criticality_measure",
    "dominates",
    "extract_front",
    "gml2o_deterministic_run",
    "gml2o_run",
    "guard_select",
    "hypervolume_2d",
    "hypervolume_3d",
    "init_params",
    "load_checkpoint",
    "make_problem",
    "make_quadratic_pair",
    "make_toy_mtl",
    "meta_train",
    "min_norm_2obj_oracle",
    "ml2o_direction",
    "preprocess_gradient",
    "register_named_problem",
    "sample_size",
    "save_checkpoint",
    "simplex_grid_oracle",
    "solve_min_norm",
    "theorem_monitor",
    "__version__",
]
