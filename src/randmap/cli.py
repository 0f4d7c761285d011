"""Command-line interface.

One subcommand per reproduction task: pointwise evaluation of the limiting
functions, CDFs, moment-constant tables, numerical transform inversion,
Monte Carlo simulation, exact enumeration, and the divisibility report.
A record is one dict with the keys command, params (unless --quiet), values,
errors (if any), seed (if any) and wall_time_s (unless --quiet), in that
order.  It is emitted as JSON (one object) or CSV (name/value table); all
numbers are encoded with shortest round-trip precision (17 significant
digits suffice to reparse them exactly).  JSON has no NaN or infinity, so a
non-finite number (an argument such as ``--b nan``) is written as the string
"nan", "inf" or "-inf".

Each handler imports the modules it runs when it starts, so a command loads
only those, and its ``wall_time_s`` includes their import.

Exit codes: 0 success, 1 computation error (the reason lands in the record),
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

# Largest --steps of `divisibility`: the report computes several float arrays
# of that length.
MAX_DIVISIBILITY_STEPS = 100_000

_COMPUTE_ERRORS = (ValueError, ArithmeticError, RuntimeError, MemoryError)


def _strict(value):
    """The record with every non-finite float replaced by its repr string."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return repr(float(value))
    return value


def _render(record: dict, fmt: str) -> str:
    """The record as one JSON object or as a name/value CSV table."""
    if fmt == "json":
        return json.dumps(_strict(record), allow_nan=False)
    rows = [("name", "value"), ("command", record["command"])]
    rows += [(f"param.{k}", v) for k, v in sorted(record.get("params", {}).items())]
    rows += [(k, repr(v)) for k, v in sorted(record["values"].items())]
    rows += [(f"error.{k}", v) for k, v in sorted(record.get("errors", {}).items())]
    rows += [(k, record[k]) for k in ("seed", "wall_time_s") if k in record]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().rstrip("\n")


def _regime_from(args):
    from . import distributions

    if args.regime == "pavlov" and args.c is None:
        raise ValueError("pavlov regime requires --c")
    return distributions.Regime(args.regime, args.c if args.regime == "pavlov" else None)


def _cmd_eval(args):
    from . import dde

    x = args.x
    if args.fn == "rho":
        sol = dde.dickman_solution(1)
    elif args.fn in ("sigma", "sigma-tilde"):
        sol = dde.watterson_solution()
    elif args.fn == "rho-r":
        if args.r is None:
            raise ValueError("--fn rho-r requires --r")
        sol = dde.dickman_solution(args.r)
    else:  # g, the last of the parser's choices
        if args.theta is None:
            raise ValueError("--fn g requires --theta")
        sol = dde.theta_solution(args.theta)
    pole = " (the solution has a pole at x = 0 for theta < 1)"
    if args.fn == "sigma-tilde" and x <= 0.0:  # sqrt(x) sigma(x)
        if x == 0.0:
            raise ValueError(f"sigma-tilde is not finite at x = {x!r}{pole}")
        raise ValueError(f"sigma-tilde = sqrt(x) sigma(x) needs x >= 0, got {x!r}")
    value = float(dde.sigma_tilde(sol, x) if args.fn == "sigma-tilde" else sol(x))
    if not math.isfinite(value):
        cause = pole if 0.0 <= x <= 1.0 else ""  # only x^(theta-1), theta < 1, blows up
        raise ValueError(f"{args.fn} is not finite at x = {x!r}{cause}")
    return {"value": value}, {}, None


def _rank(args) -> int:
    """--r, or rank 1 when it is not given (an explicit 0 stays 0 and fails)."""
    return 1 if args.r is None else args.r


def _cmd_cdf(args):
    from . import distributions

    if args.kind == "perm-cycle":
        if args.a is None:
            raise ValueError("perm-cycle requires --a")
        value = distributions.perm_longest_cycle_cdf(args.a, _rank(args))
    elif args.kind == "largest-component":
        if args.a is None:
            raise ValueError("largest-component requires --a")
        value = distributions.largest_component_cdf(args.a)
    else:  # mapping-cycle, the last of the parser's choices
        if args.b is None:
            raise ValueError("mapping-cycle requires --b")
        if args.regime == "connected":
            value = distributions.connected_cycle_cdf(args.b, _rank(args))
        else:
            value = distributions.mapping_longest_cycle_cdf(
                args.b, _rank(args), _regime_from(args)
            )
    return {"cdf": float(value)}, {}, None


def _cmd_constants(args):
    from . import moments

    regime = _regime_from(args)
    table = moments.moment_table(regime, include_cross_rank=args.cross_rank)
    values = {}
    for r in (1, 2, 3, 4):
        values[f"g_{r}_1"] = table.g1[r]
        values[f"g_{r}_2"] = table.g2[r]
        values[f"mean_{r}"] = table.mean[r]
        values[f"variance_{r}"] = table.variance[r]
        values[f"corr_n_{r}"] = table.corr_with_n[r]
    values["mode"] = table.mode
    values["median"] = table.median
    for (r, s), v in sorted(table.cross_rank_corr.items()):
        values[f"corr_lambda_{r}_{s}"] = v
    return values, {}, None


def _cmd_invlaplace(args):
    from . import laplace

    spec_kwargs = {"id": args.transform}
    if args.transform == "theta":
        if args.theta is None:
            raise ValueError("theta transform requires --theta")
        spec_kwargs["theta"] = args.theta
    if args.transform == "cycle-cdf":
        if args.b is None:
            raise ValueError("cycle-cdf transform requires --b")
        spec_kwargs["b"] = args.b
    spec = laplace.TransformSpec(**spec_kwargs)
    value = float(laplace.invert(spec, args.xi, method=args.method))
    if not math.isfinite(value):
        raise ValueError(f"the inverse of {args.transform} is not finite at xi = {args.xi!r}")
    return {"value": value}, {}, None


def _cmd_simulate(args):
    from . import mapping_sim

    stats = mapping_sim.simulate(
        args.n,
        args.trials,
        constraint=args.constraint,
        seed=args.seed,
        workers=args.workers,
    )
    values = {
        "attempts": float(stats.attempts),
        "acceptance_rate": stats.acceptance_rate,
        "p_largest_contains_longest": stats.p_largest_contains_longest,
    }
    for name in ("lambda1", "lambda2", "lambda3", "lambda4", "n_cyclic", "components"):
        values[f"mean_{name}"] = stats.mean[name]
        values[f"variance_{name}"] = stats.variance[name]
    for r in (1, 2, 3, 4):
        values[f"corr_lambda{r}_n"] = stats.corr_lambda_n[r]
    errors = {f"se_{k}": v for k, v in stats.standard_error.items()}
    errors["se_p_largest_contains_longest"] = stats.p_largest_contains_longest_se
    return values, errors, args.seed


def _cmd_enumerate(args):
    from . import exact_enum, gfseries

    tables = exact_enum.enumerate_all(args.n)
    values = {
        "total": float(tables.total()),
        "connected_count": float(tables.connected_count),
        "mean_lambda1": tables.mean_lambda1(),
    }
    if args.check_egf:
        # the whole (n+1) x (n+1) table: no mapping has m = 0 components or,
        # with m >= 1, l = 0 cyclic points, and a_count gives 0 at l = 0
        mismatches = 0
        for m in range(args.n + 1):
            for l in range(args.n + 1):
                expected = gfseries.a_count(args.n, m, l) if m else 0
                if tables.a(m, l) != expected:
                    mismatches += 1
        values["egf_match"] = 1.0 if mismatches == 0 else 0.0
        values["egf_mismatch_cells"] = float(mismatches)
    return values, {}, None


def _cmd_divisibility(args):
    import numpy as np

    from . import laplace

    if not (0.0 < args.eta_min < args.eta_max < math.inf):
        raise ValueError("need finite 0 < eta-min < eta-max")
    if not 2 <= args.steps <= MAX_DIVISIBILITY_STEPS:
        raise ValueError(f"need 2 <= steps <= {MAX_DIVISIBILITY_STEPS}")
    grid = np.linspace(args.eta_min, args.eta_max, args.steps)
    return laplace.divisibility_report(grid), {}, None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randmap",
        description="Cycle and component statistics of random mappings.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--quiet", action="store_true", help="omit params and wall time")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a limiting function")
    p.add_argument("--fn", required=True, choices=("rho", "sigma", "sigma-tilde", "rho-r", "g"))
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--theta", type=float)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("cdf", parents=[common], help="limiting CDF values")
    p.add_argument(
        "--kind", required=True, choices=("perm-cycle", "largest-component", "mapping-cycle")
    )
    p.add_argument("--r", type=int)
    p.add_argument(
        "--regime",
        choices=("rayleigh", "halfnormal", "pavlov", "connected"),
        default="rayleigh",
    )
    p.add_argument("--c", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.set_defaults(handler=_cmd_cdf)

    p = sub.add_parser("constants", parents=[common], help="moment-constant tables")
    p.add_argument("--regime", required=True, choices=("rayleigh", "halfnormal"))
    p.add_argument("--cross-rank", action="store_true")
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("invlaplace", parents=[common], help="numerical inverse transform")
    p.add_argument(
        "--transform",
        required=True,
        choices=(
            "dickman",
            "watterson",
            "theta",
            "cycle-cdf",
            "erfc-gauss",
            "halfnormal",
            "rayleigh",
        ),
    )
    p.add_argument("--theta", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--method", choices=("talbot", "bromwich"))
    p.set_defaults(handler=_cmd_invlaplace)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo over random mappings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--constraint", default="none")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("enumerate", parents=[common], help="exact enumeration, n <= 7")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-egf", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("divisibility", parents=[common], help="half-normal divisibility report")
    p.add_argument("--eta-min", type=float, required=True)
    p.add_argument("--eta-max", type=float, required=True)
    p.add_argument(
        "--steps", type=int, required=True, help=f"grid points, 2 to {MAX_DIVISIBILITY_STEPS}"
    )
    p.set_defaults(handler=_cmd_divisibility)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    record = {"command": args.command}
    if not args.quiet:
        record["params"] = {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("handler", "format", "quiet", "command") and v is not None
        }
    start = time.perf_counter()
    try:
        values, errors, seed = args.handler(args)
        code = 0
    except _COMPUTE_ERRORS as exc:
        values, errors, seed = {}, {"reason": f"{type(exc).__name__}: {exc}"}, None
        code = 1
    record["values"] = values
    if errors:
        record["errors"] = errors
    if seed is not None:
        record["seed"] = seed
    if not args.quiet:
        record["wall_time_s"] = time.perf_counter() - start
    print(_render(record, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
