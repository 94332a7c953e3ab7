"""Cost-adjusted stability scores, selection paths, and baseline criteria.

Each act's score is affine in the trade-off weight lambda (intercept from the
normalized stability measure, slope from the normalized cost), so the
selected act as a function of lambda is the upper envelope of a line
arrangement and its breakpoints are exact pairwise intersections rather than
grid artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DecisionProblem, Prior, expected_utility
from .lp import minimize_over_band
from .stability import NeedKind, StabilityProfile

__all__ = [
    "SCORE_TIE_TOL",
    "CostAssignment",
    "GammaResult",
    "RexResult",
    "ScoreBranch",
    "SelectionPath",
    "PathSegment",
    "gamma_aggregate",
    "rex_score",
    "selection_path",
    "variance_cost",
]

SCORE_TIE_TOL = 1e-12
_MAX_GRID_POINTS = 1_000_000  # bounds the grid's memory and its evaluation loop


@dataclass(frozen=True)
class CostAssignment:
    """Nonnegative per-act selection costs with max-normalization."""

    acts: tuple[str, ...]
    raw: np.ndarray

    def __init__(self, acts, raw):
        acts = tuple(acts)
        costs = np.asarray(raw, dtype=float)
        if costs.shape != (len(acts),):
            raise ValueError("one cost per act required")
        if not np.all(np.isfinite(costs)) or np.any(costs < 0.0):
            raise ValueError("costs must be finite and nonnegative")
        object.__setattr__(self, "acts", acts)
        object.__setattr__(self, "raw", costs)

    @property
    def denominator(self) -> float:
        return float(self.raw.max()) if self.raw.size else 0.0

    def normalized(self, act: str) -> float:
        den = self.denominator
        if den <= 0.0:
            return 0.0
        return float(self.raw[self.acts.index(act)] / den)


def variance_cost(problem: DecisionProblem) -> CostAssignment:
    """Population variance of each utility row, as the act's selection cost."""
    return CostAssignment(problem.acts, problem.utilities.var(axis=1))


class ScoreBranch(Enum):
    BAYES = "bayes"
    NON_BAYES = "non_bayes"


@dataclass(frozen=True)
class ScoreLine:
    """Score of one act as a line in lambda: value = intercept + slope*lambda."""

    act: str
    intercept: float
    slope: float
    branch: ScoreBranch
    inadmissible: bool

    def at(self, lam: float) -> float:
        if self.inadmissible:
            return -np.inf
        return self.intercept + self.slope * lam


def score_lines(
    profile: StabilityProfile, costs: CostAssignment, prior: str
) -> tuple[ScoreLine, ...]:
    """Per-act affine score coefficients under one prior.

    The stability intercept is the radius normalized by the largest radius
    among the optimal acts, or minus the need normalized by the largest
    finite need; an empty or zero denominator makes the term 0.  Strictly
    inadmissible acts are flagged and score -inf at every lambda.
    """
    rows = profile.for_prior(prior)
    if set(costs.acts) != set(r.act for r in rows):
        raise ValueError("cost assignment does not cover the profile's acts")
    rob_values = [r.radius.epsilon for r in rows if r.is_bayes]
    rob_den = max(rob_values) if rob_values else 0.0
    con_values = [r.need.epsilon for r in rows if r.need.kind is NeedKind.VALUE]
    con_den = max(con_values) if con_values else 0.0

    lines = []
    for r in rows:
        branch = ScoreBranch.BAYES if r.is_bayes else ScoreBranch.NON_BAYES
        if r.need.kind is NeedKind.INFEASIBLE:
            lines.append(ScoreLine(r.act, -np.inf, 0.0, branch, inadmissible=True))
            continue
        if r.is_bayes:
            intercept = r.radius.epsilon / rob_den if rob_den > 0.0 else 0.0
        else:
            intercept = -(r.need.epsilon / con_den) if con_den > 0.0 else 0.0
        # 0.0 - cost, not -cost, so that a zero cost gives slope 0.0 and not -0.0
        lines.append(
            ScoreLine(r.act, intercept, 0.0 - costs.normalized(r.act), branch, False)
        )
    return tuple(lines)


@dataclass(frozen=True)
class PathSegment:
    lo: float
    hi: float
    act: str


@dataclass(frozen=True)
class SelectionPath:
    """Argmax of the score along lambda: grid view plus exact envelope."""

    prior: str
    lambda_grid: np.ndarray
    grid_selected: tuple[str, ...]
    breakpoints: tuple[float, ...]
    segments: tuple[PathSegment, ...]
    lines: tuple[ScoreLine, ...]


def _canonical_winner(lines, lam: float, act_order) -> str:
    values = {line.act: line.at(lam) for line in lines}
    best = max(values.values())
    for act in act_order:
        if act in values and values[act] >= best - SCORE_TIE_TOL:
            return act
    raise ValueError("no finite score on the path")  # pragma: no cover


def selection_path(
    profile: StabilityProfile,
    costs: CostAssignment,
    prior: str,
    lambda_max: float = 3.0,
    grid_step: float = 0.01,
) -> SelectionPath:
    """Selected acts over [0, lambda_max], with exact envelope breakpoints.

    Candidate breakpoints are the pairwise line intersections
    (intercept_a - intercept_b) / (cost_a - cost_b) inside the range; the
    winner on each open interval between candidates is constant, so probing
    midpoints yields the exact piecewise structure.  The grid evaluation is
    kept alongside as a cross-check and for plotting.
    """
    if not 0.0 < lambda_max < np.inf:
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max!r}")
    if not 0.0 < grid_step < np.inf:
        raise ValueError(f"grid_step must be positive and finite, got {grid_step!r}")
    steps = lambda_max / grid_step + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise ValueError(
            f"a grid step of {grid_step!r} up to {lambda_max!r} gives more than "
            f"{_MAX_GRID_POINTS} grid points"
        )
    n_steps = int(np.floor(steps))
    all_lines = score_lines(profile, costs, prior)
    lines = [line for line in all_lines if not line.inadmissible]
    if not lines:
        raise ValueError("all acts are strictly inadmissible; no path exists")
    act_order = [r.act for r in profile.for_prior(prior)]

    candidates = set()
    for i, li in enumerate(lines):
        for lj in lines[i + 1:]:
            denom = li.slope - lj.slope
            if denom == 0.0:
                continue
            lam = (lj.intercept - li.intercept) / denom
            if 0.0 < lam < lambda_max:
                candidates.add(float(lam))
    # 0 and lambda_max always stay the ends; an interior knot within 1e-12
    # of the last one kept, or of lambda_max, merges into it.
    merged = [0.0]
    for x in sorted(candidates):
        if x - merged[-1] > 1e-12 and lambda_max - x > 1e-12:
            merged.append(x)
    merged.append(float(lambda_max))

    segments: list[PathSegment] = []
    for lo, hi in zip(merged[:-1], merged[1:]):
        winner = _canonical_winner(lines, 0.5 * (lo + hi), act_order)
        if segments and segments[-1].act == winner:
            segments[-1] = PathSegment(segments[-1].lo, hi, winner)
        else:
            segments.append(PathSegment(lo, hi, winner))
    breakpoints = tuple(seg.lo for seg in segments[1:])

    # 0, each step that lies clear below lambda_max, then lambda_max itself: a
    # step within the slack of n_steps, or past it by rounding, would repeat
    # lambda_max.
    steps = np.arange(1, n_steps + 1) * grid_step
    grid = np.concatenate([[0.0], steps[lambda_max - steps > 1e-9 * grid_step], [lambda_max]])
    grid_selected = tuple(_canonical_winner(lines, lam, act_order) for lam in grid)
    return SelectionPath(
        prior=prior,
        lambda_grid=grid,
        grid_selected=grid_selected,
        breakpoints=breakpoints,
        segments=tuple(segments),
        lines=all_lines,
    )


def _argmax_acts(acts, values: np.ndarray) -> tuple[str, ...]:
    best = values.max()
    return tuple(a for a, v in zip(acts, values) if v >= best - SCORE_TIE_TOL)


def _mix(lo: float, hi: float, eta: float) -> float:
    # exact at the eta endpoints and on a collapsed envelope
    if eta == 1.0 or lo == hi:
        return lo
    if eta == 0.0:
        return hi
    return eta * lo + (1.0 - eta) * hi


@dataclass(frozen=True)
class GammaResult:
    """Per-act expected-utility envelope over a band, aggregated by attitude."""

    mode: str
    eta: float | None
    lower: dict[str, float]
    upper: dict[str, float]
    values: dict[str, float]
    optimal: tuple[str, ...]


def gamma_aggregate(
    problem: DecisionProblem,
    prior: Prior,
    radius: float,
    mode: str = "minimax",
    eta: float | None = None,
) -> GammaResult:
    """Rank acts by worst, best, or mixed expected utility over a band.

    The band holds the priors within ``radius`` of ``prior`` in every
    coordinate.  ``minimax`` aggregates with the infimum, ``maximax`` with
    the supremum, and ``mix`` with eta*inf + (1-eta)*sup.
    """
    if mode not in ("minimax", "maximax", "mix"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if mode == "mix":
        if eta is None or not 0.0 <= eta <= 1.0:
            raise ValueError(f"mix mode needs eta in [0, 1], got {eta!r}")
    if not 0.0 <= radius <= 1.0:
        raise ValueError(f"band radius must lie in [0, 1], got {radius!r}")
    lower = {}
    upper = {}
    for act in problem.acts:
        row = problem.row(act)
        lower[act] = minimize_over_band(row, prior.mass, radius)[0]
        upper[act] = -minimize_over_band(-row, prior.mass, radius)[0]
    if mode == "minimax":
        values = dict(lower)
    elif mode == "maximax":
        values = dict(upper)
    else:
        values = {a: _mix(lower[a], upper[a], eta) for a in problem.acts}
    ranked = np.array([values[a] for a in problem.acts])
    return GammaResult(
        mode=mode,
        eta=eta if mode == "mix" else None,
        lower=lower,
        upper=upper,
        values=values,
        optimal=_argmax_acts(problem.acts, ranked),
    )


@dataclass(frozen=True)
class RexResult:
    """Blend of expected utility and worst-state utility per act."""

    mu: float
    values: dict[str, float]
    optimal: tuple[str, ...]


def rex_score(problem: DecisionProblem, prior: Prior, mu: float) -> RexResult:
    """mu-weighted mix of expected utility and the act's worst-state utility."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu!r}")
    values = {}
    for act in problem.acts:
        eu = expected_utility(problem, act, prior)
        floor = float(problem.row(act).min())
        values[act] = mu * eu + (1.0 - mu) * floor
    ranked = np.array([values[a] for a in problem.acts])
    return RexResult(mu=mu, values=values, optimal=_argmax_acts(problem.acts, ranked))
