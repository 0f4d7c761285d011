"""The integer rule: every count, rank, size and seed argument is an int or an
integral float within its bounds, and anything else raises the entry point's
documented ValueError-family error before any solve, draw or fit."""

import math
import re

import numpy as np
import pytest

from randmap import _kernels, dde, distributions, gfseries, mapping_sim, moments
from randmap._args import integer
from randmap.dde import DdeError
from randmap.distributions import JointPoint
from randmap.exact_enum import EnumerationSizeError, enumerate_all
from randmap.gfseries import SeriesOrderError

TABLE_3 = enumerate_all(3)

# name, the call with the checked argument v, its error class, and the paths
# past the check that a refusal must not reach
ENTRY_POINTS = [
    ("simulate", lambda v: mapping_sim.simulate(v, 5, seed=1), ValueError,
     [(mapping_sim, "_worker_run"), (_kernels, "batch_stats")]),
    ("enumerate_all", lambda v: enumerate_all(v).joint.tolist(), EnumerationSizeError,
     [(_kernels, "enumerate_tally")]),
    ("ExactTables.a", lambda v: TABLE_3.a(v, 3), ValueError, []),
    ("enumerate_tally", lambda v: _kernels.enumerate_tally(v).tolist(), ValueError,
     [(_kernels, "_batch_stats")]),
    ("a_count", lambda v: gfseries.a_count(v, 1, 3), SeriesOrderError,
     [(gfseries, "component_cycle_egf")]),
    ("component_cycle_egf", lambda v: gfseries.component_cycle_egf(1, v), SeriesOrderError,
     [(gfseries, "_tree_coeffs")]),
    ("dickman_solution", lambda v: dde.dickman_solution(v).coef.tolist(), DdeError,
     [(dde, "_dickman_cached"), (dde, "_solve_pieces")]),
    ("solve_generalized_dickman", lambda v: dde.solve_generalized_dickman(v).coef.tolist(),
     DdeError, [(dde, "dickman_solution"), (dde, "_solve_pieces")]),
    ("tower", lambda v: dde.tower(v, 1.0, 5.0), DdeError, [(dde, "_tower_level")]),
    ("perm_longest_cycle_cdf", lambda v: distributions.perm_longest_cycle_cdf(0.3, v), DdeError,
     [(distributions, "_rank_solution")]),
    ("mapping_longest_cycle_cdf", lambda v: distributions.mapping_longest_cycle_cdf(0.5, v),
     DdeError, [(distributions, "_rank_solution")]),
    ("joint_density", lambda v: distributions.joint_density(JointPoint(0.5, 1.5), v), DdeError,
     [(distributions, "_rank_solution")]),
    ("connected_cycle_cdf", lambda v: distributions.connected_cycle_cdf(1.0, v), DdeError, []),
    ("cross_rank_moment", lambda v: moments.cross_rank_moment(1, v), ValueError,
     [(moments, "e1_real")]),
]
IDS = [name for name, *_ in ENTRY_POINTS]


@pytest.mark.parametrize("value", ["3", None, 2.5, math.nan, math.inf],
                         ids=["str", "None", "2.5", "nan", "inf"])
@pytest.mark.parametrize("name, call, error, paths", ENTRY_POINTS, ids=IDS)
def test_non_integer_is_refused_before_any_work(monkeypatch, name, call, error, paths, value):
    # "3" and None reached a comparison and raised a bare TypeError
    def unreachable(*args, **kwargs):
        raise AssertionError(f"{name} went past its argument check")

    for owner, attr in paths:
        monkeypatch.setattr(owner, attr, unreachable)
    with pytest.raises(error, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("name, call, error, paths", ENTRY_POINTS, ids=IDS)
def test_integral_float_is_that_integer(name, call, error, paths):
    assert call(3.0) == call(3)


@pytest.mark.parametrize(
    "low, high, bounds", [(-math.inf, math.inf, ""), (1, math.inf, " >= 1"), (2, 5, " in [2, 5]")]
)
def test_one_message_form(low, high, bounds):
    for value, shown in (("4", "'4'"), (np.float64(4.5), "4.5"), (None, "None")):
        with pytest.raises(DdeError, match=re.escape(f"x must be an integer{bounds}, got {shown}")):
            integer(value, "x", low, high, DdeError)
    assert integer(np.float64(4.0), "x", low, high) == 4
    assert type(integer(np.float64(4.0), "x", low, high)) is int
