"""Command-line surface: analyze, path, scenarios, baselines.

Exit codes: 0 success, 2 malformed input or parameter, 3 inputs that do not
fit together, 4 internal solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import __version__
from .beliefs import default_catalog
from .core import DecisionProblem, Prior
from .io import (
    INADMISSIBLE,
    NOT_BAYES,
    ConsistencyError,
    InputError,
    daily_market,
    format_number,
    load_costs,
    load_daily,
    load_monthly,
    load_priors,
    load_utilities,
    load_weights,
    render_data_rows,
    render_json,
    render_rows,
    write_reports,
)
from .lp import SolverError
from .scenarios import (
    generic_labels,
    kmeans_partition,
    label_regimes,
    monthly_features,
    portfolio_returns,
    utility_matrix,
)
from .selection import (
    CostAssignment,
    gamma_aggregate,
    rex_score,
    selection_path,
    variance_cost,
)
from .stability import NeedKind, RadiusKind, stability_profile

__all__ = ["main", "run"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorstab",
        description="Stability analysis of Bayes-optimal acts under banded prior perturbations.",
    )
    parser.add_argument("--version", action="version", version=f"priorstab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    analyze = sub.add_parser(
        "analyze",
        help="robustness radius and contamination need for every (act, prior) pair",
    )
    analyze.add_argument("--utilities", required=True, help="utilities CSV (act,<state>,...)")
    analyze.add_argument(
        "--priors", help="priors CSV (prior,<state>,...); packaged catalog when omitted"
    )
    analyze.add_argument("--out", default=".", help="output directory (default .)")
    analyze.set_defaults(func=cmd_analyze)

    path = sub.add_parser(
        "path", help="cost-adjusted selection path over the trade-off weight lambda"
    )
    path.add_argument("--utilities", required=True)
    path.add_argument("--priors", help="priors CSV; packaged catalog when omitted")
    path.add_argument("--prior", help="prior name (may be omitted with a single-prior file)")
    path.add_argument(
        "--cost-mode", choices=("variance", "file"), default="variance",
        help="per-act costs: utility-row variance, or an explicit file",
    )
    path.add_argument("--costs", help="costs CSV (act,cost); required with --cost-mode file")
    path.add_argument("--lambda-max", type=float, default=3.0, help="grid endpoint (default 3)")
    path.add_argument("--grid", type=float, default=0.01, help="grid step (default 0.01)")
    path.add_argument("--out", default=".")
    path.set_defaults(func=cmd_path)

    scen = sub.add_parser(
        "scenarios", help="build a regime-conditioned utility matrix from return data"
    )
    scen.add_argument("--monthly", required=True, help="monthly CSV (date,<asset>,...[,market_vol])")
    scen.add_argument("--weights", required=True, help="weights CSV (portfolio,<asset>,...)")
    scen.add_argument("--daily", help="daily CSV (date,<market>) for realized volatility")
    scen.add_argument("--market", help="market asset column (default: first asset)")
    scen.add_argument("--seed", type=int, default=42, help="clustering seed (default 42)")
    scen.add_argument("--k", type=int, default=4, help="number of regimes (default 4)")
    scen.add_argument("--out", default=".")
    scen.set_defaults(func=cmd_scenarios)

    base = sub.add_parser(
        "baselines", help="band-envelope and trust-blend rankings for comparison"
    )
    base.add_argument("--utilities", required=True)
    base.add_argument("--priors", help="priors CSV; packaged catalog when omitted")
    base.add_argument("--prior", help="prior name (may be omitted with a single-prior file)")
    base.add_argument("--epsilon", type=float, default=0.1, help="band radius (default 0.1)")
    base.add_argument("--eta", type=float, default=0.5, help="pessimism weight (default 0.5)")
    base.add_argument("--mu", type=float, default=0.5, help="trust weight (default 0.5)")
    base.add_argument("--out", default=".")
    base.set_defaults(func=cmd_baselines)
    return parser


def _in_unit_interval(value: float, flag: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{flag} must lie in [0, 1], got {value!r}")
    return float(value)


def _resolve_priors(priors_arg, problem: DecisionProblem) -> list[Prior]:
    if priors_arg:
        states, priors = load_priors(priors_arg)
        source = priors_arg
    else:
        catalog = default_catalog()
        states, priors = catalog.states, list(catalog.entries)
        source = "packaged prior catalog"
    if set(states) != set(problem.states):
        raise ConsistencyError(
            f"{source}: prior states {list(states)} do not match "
            f"utility states {list(problem.states)}"
        )
    if states != problem.states:
        index = [states.index(s) for s in problem.states]
        priors = [Prior(p.name, p.mass[index]) for p in priors]
    return priors


def _select_prior(priors: list[Prior], name: str | None) -> Prior:
    if name is None:
        if len(priors) == 1:
            return priors[0]
        raise InputError(
            f"--prior is required when several priors are available "
            f"({', '.join(p.name for p in priors)})"
        )
    for p in priors:
        if p.name == name:
            return p
    raise InputError(f"no prior named {name!r} (available: {', '.join(p.name for p in priors)})")


def cmd_analyze(args) -> int:
    problem = load_utilities(args.utilities)
    priors = _resolve_priors(args.priors, problem)
    profile = stability_profile(problem, priors)

    records = [
        {
            "prior": row.prior,
            "act": row.act,
            "is_bayes": row.is_bayes,
            "expected_utility": row.expected_utility,
            "rob": row.radius.epsilon if row.radius.kind is RadiusKind.VALUE else NOT_BAYES,
            "con": row.need.epsilon if row.need.kind is NeedKind.VALUE else INADMISSIBLE,
            "certificate": {
                "weights": dict(row.need.certificate.weights),
                "margins": [float(m) for m in row.need.certificate.margins],
            } if row.need.kind is NeedKind.INFEASIBLE else None,
        }
        for row in profile.rows
    ]
    measures = ("expected_utility", "is_bayes", "rob", "con")
    write_reports(args.out, {
        "stability.csv": render_rows(
            ["prior", "act", "measure", "value"],
            [(r["prior"], r["act"], m, r[m]) for r in records for m in measures],
        ),
        "stability.json": render_json({
            "report": "stability",
            "acts": list(problem.acts),
            "states": list(problem.states),
            "priors": [{"name": p.name, "mass": [float(x) for x in p.mass]} for p in priors],
            "rows": records,
        }),
    })
    for prior in priors:
        bayes = [r.act for r in profile.for_prior(prior.name) if r.is_bayes]
        print(f"{prior.name}: optimal {', '.join(bayes)}")
    print(f"wrote stability.csv and stability.json to {args.out}")
    return 0


def _cost_assignment(args, problem: DecisionProblem) -> CostAssignment:
    if args.cost_mode == "variance":
        if args.costs:
            raise InputError("--costs is only read with --cost-mode file")
        return variance_cost(problem)
    if not args.costs:
        raise InputError("--cost-mode file requires --costs")
    table = load_costs(args.costs)
    missing = [a for a in problem.acts if a not in table]
    extra = [a for a in table if a not in problem.acts]
    if missing or extra:
        raise ConsistencyError(
            f"{args.costs}: cost acts do not match utility acts "
            f"(missing: {missing}, unknown: {extra})"
        )
    return CostAssignment(problem.acts, [table[a] for a in problem.acts])


def cmd_path(args) -> int:
    problem = load_utilities(args.utilities)
    priors = _resolve_priors(args.priors, problem)
    prior = _select_prior(priors, args.prior)
    if not 0.0 < args.lambda_max < math.inf:
        raise InputError(f"--lambda-max must be positive and finite, got {args.lambda_max!r}")
    if not 0.0 < args.grid < math.inf:
        raise InputError(f"--grid must be positive and finite, got {args.grid!r}")
    costs = _cost_assignment(args, problem)
    profile = stability_profile(problem, [prior])
    path = selection_path(profile, costs, prior.name, args.lambda_max, args.grid)

    lines = [
        {
            "act": line.act,
            "intercept": INADMISSIBLE if line.inadmissible else line.intercept,
            "slope": line.slope,
            "cost": costs.normalized(line.act),
            "inadmissible": line.inadmissible,
        }
        for line in path.lines
    ]
    by_act = {line.act: line for line in path.lines}
    grid = [
        {"lambda": float(lam), "selected": act, "score": by_act[act].at(lam)}
        for lam, act in zip(path.lambda_grid, path.grid_selected)
    ]
    breakpoints = [float(b) for b in path.breakpoints]
    write_reports(args.out, {
        "path_lines.csv": render_rows(
            ["act", "intercept", "slope", "cost"],
            [(x["act"], x["intercept"], x["slope"], x["cost"]) for x in lines],
        ),
        "path_grid.csv": render_rows(
            ["lambda", "act", "score"], [(g["lambda"], g["selected"], g["score"]) for g in grid]
        ),
        "path_breakpoints.csv": render_rows(["lambda"], [(b,) for b in breakpoints]),
        "path.json": render_json({
            "report": "path",
            "prior": prior.name,
            "lambda_max": float(args.lambda_max),
            "grid_step": float(args.grid),
            "cost_mode": args.cost_mode,
            "lines": lines,
            "breakpoints": breakpoints,
            "segments": [{"lo": s.lo, "hi": s.hi, "act": s.act} for s in path.segments],
            "grid": grid,
        }),
    })
    for seg in path.segments:
        print(f"lambda in [{format_number(seg.lo)}, {format_number(seg.hi)}]: {seg.act}")
    print(f"wrote path_grid.csv, path_lines.csv, path_breakpoints.csv, path.json to {args.out}")
    return 0


def cmd_scenarios(args) -> int:
    panel = load_monthly(args.monthly)
    book = load_weights(args.weights)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    if args.seed < 0:
        raise InputError(f"--seed must be nonnegative, got {args.seed}")
    market = args.market if args.market else panel.assets[0]
    if market not in panel.assets:
        raise InputError(f"--market {market!r} is not a column of {args.monthly}")
    if args.daily:
        # beside a market_vol column only the daily file's header is read
        has_vol = panel.volatility is not None
        column, daily = (daily_market(args.daily), None) if has_vol else load_daily(args.daily)
        if column != market:
            raise ConsistencyError(
                f"{args.daily}: daily column {column!r} is not the market asset {market!r}"
            )
        if has_vol:
            print("note: monthly file carries market_vol; daily file ignored")
        else:
            panel = replace(panel, daily=daily)
    if set(book.assets) != set(panel.assets):
        raise ConsistencyError(
            f"{args.weights}: weight assets {sorted(book.assets)} do not match "
            f"monthly assets {sorted(panel.assets)}"
        )

    features = monthly_features(panel, market)
    model = kmeans_partition(features, k=args.k, seed=args.seed, months=panel.months)
    model = label_regimes(model) if args.k == 4 else generic_labels(model)
    returns = portfolio_returns(panel, book)
    problem = utility_matrix(returns, model, book.names)

    write_reports(args.out, {
        "regimes.csv": render_data_rows(
            ["month", "cluster", "label"],
            [
                (month, int(cluster), model.labels[int(cluster)])
                for month, cluster in zip(panel.months, model.assignment)
            ],
        ),
        "utilities.csv": render_data_rows(
            ["act", *problem.states], [(act, *problem.row(act)) for act in problem.acts]
        ),
    })
    sizes = {model.labels[j]: int((model.assignment == j).sum()) for j in range(model.k)}
    print("regime sizes: " + ", ".join(f"{name}={sizes[name]}" for name in problem.states))
    print(f"wrote regimes.csv and utilities.csv to {args.out}")
    return 0


def cmd_baselines(args) -> int:
    problem = load_utilities(args.utilities)
    priors = _resolve_priors(args.priors, problem)
    prior = _select_prior(priors, args.prior)
    epsilon = _in_unit_interval(args.epsilon, "--epsilon")
    eta = _in_unit_interval(args.eta, "--eta")
    mu = _in_unit_interval(args.mu, "--mu")

    worst = gamma_aggregate(problem, prior, epsilon, "minimax")
    best = gamma_aggregate(problem, prior, epsilon, "maximax")
    mixed = gamma_aggregate(problem, prior, epsilon, "mix", eta)
    rex = rex_score(problem, prior, mu)

    rows = [(prior.name, act, measure, result.values[act]) for act in problem.acts
            for measure, result in (("gamma_min", worst), ("gamma_max", best), ("rex", rex))]
    write_reports(args.out, {
        "baselines.csv": render_rows(["prior", "act", "measure", "value"], rows)
    })
    print(f"band radius {format_number(epsilon)} around {prior.name}")
    print(f"worst-case optimal: {', '.join(worst.optimal)}")
    print(f"best-case optimal: {', '.join(best.optimal)}")
    print(f"mixed (eta={format_number(eta)}) optimal: {', '.join(mixed.optimal)}")
    print(f"trust blend (mu={format_number(mu)}) optimal: {', '.join(rex.optimal)}")
    print(f"wrote baselines.csv to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"internal solver error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())
