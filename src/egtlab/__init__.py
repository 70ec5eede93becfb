"""Population dynamics where growth rates are monotone transforms of payoffs.

Strictly dominated strategies need not die out once growth rates bend the
payoffs nonlinearly, and strictly dominating ones need not win. The package
bundles the pieces needed to study that numerically: game containers and
strict-dominance certificates (LP based), link functions with shape
classification, continuous flows and discrete generation maps integrated in
log coordinates, elimination diagnostics, and a catalog of ready-made
counterexample constructions.
"""

from .diagnostics import (Verdict, elimination_metrics, least_squares_slope,
                          log_min_support, log_mixture_mass, periodic_floor,
                          taylor_sign_check, verdict, w_series)
from .discrete import (BackgroundFitness, affine_background,
                       constant_background, geometric_background, iterate)
from .dominance import (DominanceResult, EliminationTrace, find_dominator,
                        is_mixed_iteratively_dominated, iterate_elimination,
                        strict_margin)
from .dynamics import (Coupled, GrowthRule, IntegrationError, Schedule,
                       Trajectory, eval_schedule, integrate, write_trajectory_csv)
from .games import (Game, MixedStrategy, SimplexError, as_strategy, game_from_dict,
                    game_to_dict, load_game, pure, uniform, validate_simplex)
from .links import (DomainError, DynamicsClass, LinkFunction, classify_link,
                    discrete_effective_link, eval_link, exp_link, linear_link,
                    log_link, parse_link, power_link, rps_direction, sqrt_link,
                    table_link)
from .lp import LpError, solve_max
from .scenarios import (SCENARIOS, Rps4Construction, SurvivalConstruction, build_rps4,
                        build_survival)

__version__ = "0.1.0"
