"""Fixtures, and reference helpers that only the tests use.

The helpers were library functions once; they stay here as independent
oracles and conveniences, built on the public API.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from scipy.optimize import linprog

from priorstab import DecisionProblem, Prior
from priorstab.lp import minimize_over_band
from priorstab.selection import SCORE_TIE_TOL, ScoreBranch, score_lines

# Tight tolerances for scipy's HiGHS, used as an independent LP oracle.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

# Conditional mean returns of the six stock portfolios across the four
# regimes, used as a regression anchor throughout the suite.
PORTFOLIO_ACTS = (
    "equity_core",
    "balanced_equity",
    "multi_asset",
    "bond_dominant",
    "real_asset_tilt",
    "equal_weight",
)
REGIME_STATES = ("Expansion", "Recovery", "Stagnation", "Recession")
PORTFOLIO_UTILITIES = np.array(
    [
        [0.021, 0.059, -0.011, -0.049],
        [0.018, 0.051, -0.011, -0.037],
        [0.015, 0.051, -0.011, -0.029],
        [0.006, 0.024, -0.007, -0.024],
        [0.014, 0.042, -0.008, -0.045],
        [0.015, 0.041, -0.009, -0.024],
    ]
)


@pytest.fixture
def toy_problem():
    return DecisionProblem(("a", "b"), ("s1", "s2"), [[1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def toy_prior():
    return Prior("ref", [0.7, 0.3])


@pytest.fixture
def portfolio_problem():
    return DecisionProblem(PORTFOLIO_ACTS, REGIME_STATES, PORTFOLIO_UTILITIES)


@pytest.fixture
def uniform4():
    return Prior("uniform", [0.25, 0.25, 0.25, 0.25])


def random_problem(rng, max_acts=5, max_states=5, min_acts=2, min_states=2):
    n = int(rng.integers(min_acts, max_acts + 1))
    m = int(rng.integers(min_states, max_states + 1))
    utilities = rng.uniform(-1.0, 1.0, size=(n, m))
    acts = tuple(f"act{i}" for i in range(n))
    states = tuple(f"state{j}" for j in range(m))
    return DecisionProblem(acts, states, utilities)


def random_prior(rng, m, name="p"):
    return Prior(name, rng.dirichlet(np.ones(m)))


@pytest.fixture
def make_problem():
    return random_problem


@pytest.fixture
def make_prior():
    return random_prior


# ---------------------------------------------------------------------------
# Synthetic return panel with four planted (return, volatility) regimes.

PLANTED_CENTERS = {
    "Expansion": (0.040, 0.010),
    "Recovery": (0.025, 0.030),
    "Stagnation": (0.000, 0.020),
    "Recession": (-0.045, 0.045),
}
PLANTED_RET_NOISE = 0.004
PLANTED_VOL_NOISE = 0.0025


def build_planted_panel(seed=777, months=120):
    """120 months drawn from four well-separated planted regimes.

    Separation between regime centers is several within-cluster standard
    deviations in both features, so any reasonable clustering recovers the
    planted partition.
    """
    rng = np.random.default_rng(seed)
    names = list(PLANTED_CENTERS)
    per_regime = months // 4
    planted = np.repeat(np.arange(4), per_regime)
    rng.shuffle(planted)
    planted_names = [names[g] for g in planted]

    ret = np.array([PLANTED_CENTERS[n][0] for n in planted_names])
    ret = ret + rng.normal(0.0, PLANTED_RET_NOISE, months)
    vol = np.array([PLANTED_CENTERS[n][1] for n in planted_names])
    vol = np.abs(vol + rng.normal(0.0, PLANTED_VOL_NOISE, months))

    bond = 0.2 * ret + rng.normal(0.002, 0.002, months)
    commodity = rng.normal(0.0, 0.01, months)

    month_labels = []
    year, month = 2015, 1
    for _ in range(months):
        month_labels.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            year, month = year + 1, 1

    assets = ("market", "bond_fund", "commodity_fund")
    returns = np.column_stack([ret, bond, commodity])
    return {
        "months": tuple(month_labels),
        "assets": assets,
        "returns": returns,
        "volatility": vol,
        "planted_names": planted_names,
    }


def planted_monthly_csv(panel):
    lines = ["date," + ",".join(panel["assets"]) + ",market_vol"]
    for i, month in enumerate(panel["months"]):
        cells = [repr(float(x)) for x in panel["returns"][i]]
        cells.append(repr(float(panel["volatility"][i])))
        lines.append(month + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


PLANTED_WEIGHTS_CSV = (
    "portfolio,market,bond_fund,commodity_fund\n"
    "all_market,1.0,0.0,0.0\n"
    "defensive_mix,0.2,0.7,0.1\n"
    "balanced,0.4,0.4,0.2\n"
)


@pytest.fixture(scope="session")
def planted_panel():
    return build_planted_panel()


# ---------------------------------------------------------------------------
# Reference helpers.


def affine_transform(problem, scale, shift):
    """Rescale utilities to scale*u + shift; scale must be positive."""
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    return DecisionProblem(problem.acts, problem.states, scale * problem.utilities + shift)


def pairwise_margin(problem, a, b, prior, epsilon):
    """Worst advantage of ``a`` over ``b`` across the band of radius epsilon."""
    if a == b:
        raise ValueError("pairwise margin needs two distinct acts")
    d = problem.row(a) - problem.row(b)
    return minimize_over_band(d, prior.mass, epsilon)[0]


def worst_case_margin(problem, a, prior, epsilon):
    """Minimum pairwise margin of ``a`` against all competitors."""
    if problem.num_acts < 2:
        raise ValueError("worst-case margin needs at least two acts")
    return min(pairwise_margin(problem, a, b, prior, epsilon) for b in problem.acts if b != a)


def band_bounds(center, radius):
    """Per-coordinate lower and upper bounds of the band, clipped to [0, 1]."""
    center = np.asarray(center, dtype=float)
    return np.maximum(0.0, center - radius), np.minimum(1.0, center + radius)


@dataclass(frozen=True)
class BandFeasibility:
    feasible: bool
    witness: np.ndarray | None = None


def band_feasible_with_halfspaces(center, radius, halfspaces):
    """Is band-and-simplex compatible with the halfspaces <pi, h> >= 0?

    The band center is tried first (it always lies in band-and-simplex); when
    it fails, scipy's HiGHS decides feasibility of the bounded program and
    supplies a witness, independently of the package's simplex.
    """
    center = np.asarray(center, dtype=float)
    m = center.size
    normals = np.asarray(list(halfspaces), dtype=float)
    if normals.size == 0:
        return BandFeasibility(feasible=True, witness=center.copy())
    if normals.ndim != 2 or normals.shape[1] != m:
        raise ValueError(f"halfspace normals must be rows of length {m}")
    if np.all(normals @ center >= 0.0):
        return BandFeasibility(feasible=True, witness=center.copy())

    lower, upper = band_bounds(center, radius)
    res = linprog(
        np.zeros(m), A_ub=-normals, b_ub=np.zeros(normals.shape[0]),
        A_eq=np.ones((1, m)), b_eq=[1.0], bounds=list(zip(lower, upper)),
        method="highs", options=HIGHS_OPTIONS,
    )
    if res.status == 2:
        return BandFeasibility(feasible=False)
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return BandFeasibility(feasible=True, witness=res.x)


@dataclass(frozen=True)
class StabilityScore:
    act: str
    lam: float
    value: float  # -inf for strictly inadmissible acts
    branch: ScoreBranch


def stability_score(profile, costs, lam, prior):
    """Cost-adjusted stability score of every act at one lambda."""
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam!r}")
    return [
        StabilityScore(line.act, float(lam), line.at(lam), line.branch)
        for line in score_lines(profile, costs, prior)
    ]


def optimal_acts(scores):
    """All acts within tolerance of the best score, best-ranked act first.

    Input order is act order, so the first element is the canonical
    representative (lowest act index).
    """
    finite = [s for s in scores if np.isfinite(s.value)]
    if not finite:
        raise ValueError("all acts are strictly inadmissible; no score is finite")
    best = max(s.value for s in finite)
    return tuple(s.act for s in finite if s.value >= best - SCORE_TIE_TOL)


@dataclass(frozen=True)
class ReferenceRun:
    status: str
    value: float | None
    point: np.ndarray | None
    basis: np.ndarray
    tableau: np.ndarray
    used_bland: bool


def reference_simplex(lp, start=None):
    """A plain tableau simplex written from `solve_lp`'s documented rules.

    A cold start pivots the program's basis in row by row; a restart copies
    an earlier outcome's tableau and basis.  Either way the right-hand side
    is clipped at 0 and the cost row set to the objective and re-priced.
    Entering columns: Dantzig's most negative reduced cost, lowest index
    first, until ``_STALL_LIMIT`` consecutive degenerate pivots, then Bland's
    lowest eligible index for the rest of the run.  Leaving rows: minimum
    ratio, ties within 1e-12 relative going to the lowest basic index.  Each
    pivot is one ``np.outer`` update.
    """
    from priorstab.lp import _PIVOT_TOL, _STALL_LIMIT

    def pivot(T, row, col):
        T[row, :] /= T[row, col]
        factors = T[:, col].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row, :])
        T[:, col] = 0.0
        T[row, col] = 1.0

    c, A, b = lp.objective, lp.eq_matrix, lp.eq_rhs
    m, n = A.shape
    if start is None:
        basis = lp.basis.copy()
        T = np.zeros((m + 1, n + 1))
        T[:m, :n] = A
        T[:m, -1] = b
        for r in range(m):
            pivot(T, r, basis[r])
    else:
        basis, T = start.basis.copy(), start.tableau.copy()
    T[:m, -1] = np.maximum(T[:m, -1], 0.0)
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[-1, :] -= c[basis] @ T[:m, :]
    stalled = 0
    while True:
        reduced = T[-1, :-1]
        if stalled < _STALL_LIMIT:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -_PIVOT_TOL:
                break
        else:
            eligible = [j for j in range(n) if reduced[j] < -_PIVOT_TOL]
            if not eligible:
                break
            enter = eligible[0]
        rows = [r for r in range(m) if T[r, enter] > _PIVOT_TOL]
        if not rows:
            return ReferenceRun("unbounded", None, None, basis, T, stalled >= _STALL_LIMIT)
        ratios = {r: T[r, -1] / T[r, enter] for r in rows}
        best = min(ratios.values())
        tied = [r for r in rows if ratios[r] <= best + 1e-12 * (1.0 + abs(best))]
        leave = min(tied, key=lambda r: basis[r])
        if stalled < _STALL_LIMIT:
            stalled = stalled + 1 if best <= _PIVOT_TOL else 0
        pivot(T, leave, enter)
        basis[leave] = enter
    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return ReferenceRun("optimal", float(c @ x), x, basis, T, stalled >= _STALL_LIMIT)


def slack_tableaux(eq_block, eq_rhs):
    """Starting tableaux and bases of programs whose last columns are a
    slack basis: the unit vectors, in row order.

    ``eq_block`` holds one (rows, columns) constraint matrix per program,
    and ``eq_rhs`` their right-hand sides (one shared vector, or one per
    program).  No set-up pivot is run, so each tableau is the constraints
    plus 0.0, the bits the reference's set-up pivots leave.
    """
    p, m, n = eq_block.shape
    T = np.zeros((p, m + 1, n + 1))
    T[:, :m, :n] = eq_block
    T[:, :m, -1] = eq_rhs
    T[:, :-1] += 0.0
    return T, np.tile(np.arange(n - m, n), (p, 1))


def need_start(m):
    """The starting basis of a need program on ``m`` states, as a profile
    starts it: u_j basic in state row j and y+ in the budget row."""
    return np.append(np.arange(2, 2 + m), 0)


def acts_at(path, lam, breakpoint_tol=1e-9):
    """Acts a selection path selects at ``lam``: both neighbors near a breakpoint."""
    acts = []
    for seg in path.segments:
        if seg.lo - breakpoint_tol <= lam <= seg.hi + breakpoint_tol:
            if seg.act not in acts:
                acts.append(seg.act)
    if not acts:
        raise ValueError(f"lambda {lam!r} outside the path range")
    return tuple(acts)
