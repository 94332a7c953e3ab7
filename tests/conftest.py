"""Fixtures, and reference helpers that only the tests use.

The helpers were library functions once; they stay here as independent
oracles and conveniences, built on the public API.
"""

from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.optimize import linprog

from priorstab import DecisionProblem, Prior
from priorstab.core import TIE_TOL
from priorstab.lp import minimize_over_band, solve_stack, start_tableaux
from priorstab.selection import _SCORE_TIE_TOL, score_lines
from priorstab.stability import Radius

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


def expected_utility(problem, act, prior):
    """E_pi[u_act], one row at a time: the oracle for expected utilities."""
    return float(prior.mass @ problem.row(act))


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


def stability_score(profile, costs, lam, prior):
    """Cost-adjusted stability score of every act at one lambda."""
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam!r}")
    return [
        StabilityScore(line.act, float(lam), line.at(lam))
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
    return tuple(s.act for s in finite if s.value >= best - _SCORE_TIE_TOL)


@dataclass(frozen=True)
class ReferenceRun:
    status: str
    value: float | None
    point: np.ndarray | None
    basis: np.ndarray
    tableau: np.ndarray
    used_bland: bool


def reference_simplex(lp, start=None):
    """A plain tableau simplex written from `solve_stack`'s documented rules.

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


def linear_program(objective, eq_matrix, eq_rhs, basis):
    """min c.x subject to A x = b and x >= 0, with ``basis`` naming, per
    row, the column basic in it at a feasible vertex the caller knows."""
    c = np.asarray(objective, dtype=float)
    A = np.asarray(eq_matrix, dtype=float).reshape(-1, c.size)
    return SimpleNamespace(objective=c, eq_matrix=A, eq_rhs=np.asarray(eq_rhs, dtype=float),
                           basis=np.asarray(basis, dtype=int))


def _is_slack_basis(lp):
    m, n = lp.eq_matrix.shape
    return (np.array_equal(lp.basis, np.arange(n - m, n))
            and (lp.eq_matrix[:, n - m:] == np.eye(m)).all())


def stack_outcome(cost, tableau, basis):
    """The outcome of one member of a `solve_stack` run, which leaves every
    member optimal: its value, its point (clipped at 0), its final basis and
    its final tableau, from which another run can restart."""
    x = np.zeros(cost.size)
    x[basis] = np.maximum(tableau[:-1, -1], 0.0)
    return SimpleNamespace(value=float(cost @ x), point=x, basis=basis, tableau=tableau)


def solve_programs(programs, starts=None):
    """Solve ``programs`` (`linear_program`) of one shape in one
    `solve_stack` run, and read each member's outcome (`stack_outcome`).

    A member whose entry in ``starts`` is an earlier optimal outcome
    restarts from a copy of that outcome's tableau and basis; the others
    start cold from their own basis, by `slack_tableaux` where every cold
    basis is the unit vectors in row order and by `start_tableaux`
    otherwise.  Each outcome keeps the tableau and basis its member started
    from as ``start``, from which `reference_simplex` can retrace the run.
    """
    programs = list(programs)
    starts = [None] * len(programs) if starts is None else list(starts)
    tableaux = [start and start.tableau for start in starts]
    bases = [start and start.basis for start in starts]
    cold = [i for i, start in enumerate(starts) if start is None]
    if cold:
        block = np.array([programs[i].eq_matrix for i in cold])
        rhs = np.array([programs[i].eq_rhs for i in cold])
        if all(_is_slack_basis(programs[i]) for i in cold):
            T, B = slack_tableaux(block, rhs)
        else:
            T, B = start_tableaux(block, rhs, np.array([programs[i].basis for i in cold]))
        for i, Ti, Bi in zip(cold, T, B):
            tableaux[i], bases[i] = Ti, Bi
    T, B = np.array(tableaux), np.array(bases)
    begun = T.copy(), B.copy()
    costs = np.array([lp.objective for lp in programs])
    solve_stack(T, B, costs)
    outs = []
    for *member, T0, B0 in zip(costs, T, B, *begun):
        outs.append(stack_outcome(*member))
        outs[-1].start = SimpleNamespace(tableau=T0, basis=B0)
    return outs


def as_float(quantity):
    """A radius or a need as a float: -inf for a radius of an act that is
    not Bayes, +inf for an infeasible need."""
    if quantity.epsilon is not None:
        return quantity.epsilon
    return -np.inf if isinstance(quantity, Radius) else np.inf


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


# ---------------------------------------------------------------------------
# An exact referee: the need and the game value on rationals.  Every float is
# a rational, so the table and the prior enter exactly, and the programs are
# posed in their primal form, the form HiGHS is given, not priorstab's dual.


def _exact_pivot(T, row, col):
    pivot = T[row][col]
    T[row] = [x / pivot for x in T[row]]
    for i, other in enumerate(T):
        factor = other[col]
        if i != row and factor:
            T[i] = [x - factor * y for x, y in zip(other, T[row])]


def _exact_phase(T, basis, cost, columns):
    """Minimize ``cost`` over the tableau ``T`` (constraint rows, then the
    cost row it overwrites) from the feasible basis ``basis``, entering only
    ``columns``, by Bland's rule: the lowest improving column, and among the
    rows of the smallest ratio the one whose basic column is lowest."""
    m = len(basis)
    T[m] = [cost[j] - sum(cost[basis[i]] * T[i][j] for i in range(m))
            for j in range(len(cost))] + [-sum(cost[basis[i]] * T[i][-1] for i in range(m))]
    while True:
        enter = next((j for j in columns if T[m][j] < 0), None)
        if enter is None:
            return -T[m][-1]
        rows = [i for i in range(m) if T[i][enter] > 0]
        if not rows:
            raise AssertionError("the exact program is unbounded")
        best = min(T[i][-1] / T[i][enter] for i in rows)
        leave = min((i for i in rows if T[i][-1] / T[i][enter] == best), key=basis.__getitem__)
        _exact_pivot(T, leave, enter)
        basis[leave] = enter


def exact_simplex(c, A, b):
    """min c.x subject to A x = b and x >= 0 on rationals, by the two-phase
    simplex with Bland's rule, which cannot cycle: the optimum, or None
    where the program is infeasible.

    A row whose right-hand side is negative is negated.  A row that owns a
    unit column starts with it basic, and each other row with an artificial
    variable; phase 1 drives the artificials to 0 and out of the basis, and
    phase 2 minimizes ``c`` over the original columns.
    """
    n = len(c)
    rows = [[-x for x in row] + [-rhs] if rhs < 0 else list(row) + [rhs] for row, rhs in zip(A, b)]
    m = len(rows)
    basis = []
    for i, row in enumerate(rows):
        unit = [j for j in range(n) if row[j] == 1 and all(r[j] == 0 for r in rows if r is not row)]
        basis.append(unit[0] if unit else None)
    artificials = [i for i in range(m) if basis[i] is None]
    T = [row[:n] + [Fraction(int(i == r)) for r in artificials] + row[n:]
         for i, row in enumerate(rows)] + [None]
    for k, i in enumerate(artificials):
        basis[i] = n + k
    width = n + len(artificials)
    if artificials:
        cost = [Fraction(0)] * n + [Fraction(1)] * len(artificials)
        if _exact_phase(T, basis, cost, range(width)) > 0:
            return None
        for i in range(m):
            if basis[i] >= n:  # an artificial at 0: pivot in an original column
                col = next((j for j in range(n) if T[i][j] != 0), None)
                if col is not None:
                    _exact_pivot(T, i, col)
                    basis[i] = col
        keep = [i for i in range(m) if basis[i] < n]  # the others are redundant
        T = [T[i] for i in keep] + [None]
        basis = [basis[i] for i in keep]
    return _exact_phase(T, basis, list(c) + [Fraction(0)] * len(artificials), range(n))


def _exact_table(problem, act):
    u = [[Fraction(x) for x in row] for row in problem.utilities.tolist()]
    a = problem.act_index(act)
    tol = Fraction(TIE_TOL) * (max(map(max, u)) - min(map(min, u)))
    gains = [[x - y for x, y in zip(row, u[a])] for b, row in enumerate(u) if b != a]
    return gains, tol


def exact_need(problem, act, prior):
    """The need of ``act`` at ``prior`` by the tie rule, on rationals: min eps
    over pi in the simplex with |pi - pi0| <= eps and (u_a - u_b).pi >=
    -TIE_TOL * range for every competitor b, or None where no pi qualifies.

    Variables: pi (m), eps, the slacks of the upper and lower band rows
    (m each) and of the competitor rows (k)."""
    gains, tol = _exact_table(problem, act)
    center = [Fraction(x) for x in prior.mass.tolist()]
    m, k = len(center), len(gains)
    n = 3 * m + 1 + k
    zero, one = Fraction(0), Fraction(1)
    A, b = [], []
    for j in range(m):
        for sign, slack in ((1, 1 + m + j), (-1, 1 + 2 * m + j)):
            row = [zero] * n
            row[j], row[m], row[slack] = one, -sign * one, sign * one
            A.append(row)
            b.append(center[j])
    for i, g in enumerate(gains):  # g.pi + slack = tol
        A.append(g + [zero] * (2 * m + 1) + [one if r == i else zero for r in range(k)])
        b.append(tol)
    A.append([one] * m + [zero] * (n - m))
    b.append(one)
    return exact_simplex([zero] * m + [one] + [zero] * (n - m - 1), A, b)


def exact_game_value(problem, act):
    """The value of the matrix game behind a certificate, on rationals: max t
    over mixtures w of the competitors with (w @ gains)_j >= t in every
    state, gains being u_b - u_a.

    Variables: t = t+ - t-, the weights (k) and one slack per state (m)."""
    gains, _ = _exact_table(problem, act)
    k, m = len(gains), len(gains[0])
    zero, one = Fraction(0), Fraction(1)
    A = [[one, -one] + [-g[j] for g in gains] + [one if r == j else zero for r in range(m)]
         for j in range(m)]
    A.append([zero, zero] + [one] * k + [zero] * m)
    value = exact_simplex([-one, one] + [zero] * (k + m), A, [zero] * m + [one])
    return -value
