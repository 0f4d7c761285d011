"""Cycle and component statistics of random mappings.

Analytic machinery (delay differential equations, Laplace transforms, moment
constants, limiting densities) validated against Monte Carlo simulation and
exact small-n enumeration.
"""

from ._kernels import BACKEND as kernel_backend
from .dde import (
    PiecewiseSolution,
    dickman_solution,
    rho_closed_form,
    sigma_closed_form,
    sigma_tilde,
    solve_generalized_dickman,
    solve_theta_dde,
    theta_solution,
    watterson_solution,
)
from .distributions import (
    JointPoint,
    Regime,
    connected_cycle_cdf,
    cyclic_points_density,
    joint_density,
    largest_component_cdf,
    mapping_longest_cycle_cdf,
    perm_longest_cycle_cdf,
)
from .exact_enum import ExactTables, enumerate_all
from .gfseries import RationalSeries, a_count, component_cycle_egf, tree_function_series
from .laplace import (
    TransformSpec,
    divisibility_report,
    forward_laplace,
    hk_closed_form,
    invert,
    mapping_cycle_cdf_contour,
    truncated_cdf_series,
)
from .mapping_sim import (
    GraphSummary,
    Mapping,
    SimStats,
    analyze,
    interplay_estimate,
    sample_mapping,
    simulate,
)
from .moments import g_constant, median_lambda, mode_lambda1, moment_table
from .specfun import arctanh, dilog, e1_complex, e1_real, erfcx

__version__ = "0.1.0"
