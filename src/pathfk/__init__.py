"""Simulation of coupled forward-backward systems driven by two independent
Brownian motions, and verification of the induced path-field identities."""

from .errors import (BudgetError, GridAlignmentError, PreconditionError,
                     SolverError)
from .paths import (Path, PathDistance, horizontal_extend, make_grid,
                    path_dist, restrict, sup_norm, vertical_bump)
from .calculus import (DerivativeEstimate, PathFunctional, SmoothMap,
                       backward_ito_residual, functional_ito_residual,
                       horizontal_derivative, vertical_derivative,
                       vertical_hessian)
from .simulation import (BrownianPair, ScenarioEnsemble, random_initial_path,
                         sample_drivers, simulate_forward)
from .models import (Model, ModelRegistryEntry, get_entry, get_model,
                     on_path, registry, running_integral, shifted_model)
from .solver import (BackwardSolution, RegressionBasis, frozen_noise_increments,
                     solve_nested, solve_regression)
from .verification import (comparison_check, discretization_convergence_check,
                           discretized_model, field_from_closed_form,
                           field_from_engine, flow_check, moment_envelope_check,
                           moment_envelope_score, moment_probes,
                           regularity_check, spde_residual,
                           spde_residual_check, z_growth_check,
                           z_representation_check)
from .config import ExperimentConfig, ConfigError, load_config
from .reports import CheckReport

__all__ = [name for name in dir() if not name.startswith("_")]
