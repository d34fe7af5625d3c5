"""Simulation and numerical-analysis toolkit for mean-field networks of
point processes carrying an age and a leaky memory state.

Submodules:
  model    parametric families (intensity, interaction, jump, laws) + validators
  particle event-driven finite-N simulation by thinning, coupled pairs
  limit    fixed-point solver for the deterministic limit signal
  pde      semi-Lagrangian solver for the limit population density equation
  pathint  jump-count expansion of the limit density (independent oracle)
  metrics  Wasserstein distances and convergence studies
  presets  shipped example models
  cli      command-line front end
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    BaselineSpec,
    ConfigurationError,
    InitialLaw,
    IntensitySpec,
    InteractionSpec,
    JumpSpec,
    ModelSpec,
    PsiParams,
    intensity_eval,
    jump_apply,
    jump_inverse,
    jump_inverse_jacobian_logdet,
    psi_eval,
    validate_assumptions,
)
from .limit import XPath, solve_x_picard  # noqa: F401
from .particle import (  # noqa: F401
    simulate_coupled_pair,
    simulate_equivalent_hawkes,
    simulate_network,
)
from .pde import Grid, solve_alm_pde, weak_form_residual  # noqa: F401
from .pathint import PathIntegralConfig, density_at, jump_count_tail  # noqa: F401
from .presets import preset  # noqa: F401
