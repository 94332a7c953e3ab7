"""Linear-programming kernel for small dense problems.

Two routes into the same geometry: a two-phase simplex for programs in
standard form (min c.x subject to A x = b and x >= 0), and a closed-form
greedy minimizer for linear objectives over the intersection of a coordinate
band with the probability simplex.  The simplex works on a dense tableau,
which suits the small programs solved here.  Phase 1 starts from a crash
basis: every row that owns a single-nonzero column starts with that column
basic, and artificial variables go only on the rows left over.  Entering
columns are priced by Dantzig's rule (most negative reduced cost); after a
run of degenerate pivots the run switches to Bland's rule, which cannot
cycle, so termination stays guaranteed.  Leaving-row ties always go to the
lowest basic index.  Every choice is deterministic, so a program always
yields the same vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "FEASIBILITY_TOL",
    "BandBox",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "SolverError",
    "minimize_over_band",
    "solve_lp",
]

FEASIBILITY_TOL = 1e-9  # residual allowed on equality constraints
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 20_000
# Consecutive degenerate pivots before Bland's rule takes over.  Beale's
# example cycles every 6; the need programs of the benchmark tables never
# stall this long, so Dantzig's fewer pivots are kept where they are safe.
_STALL_LIMIT = 50


class SolverError(RuntimeError):
    """The solver produced an internally inconsistent result."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def _vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  A x = b  and  x >= 0.

    Inequalities and bounds are expected to arrive already slacked into
    this form by the caller.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __init__(self, objective, eq_matrix, eq_rhs):
        c = _vector(objective, "objective")
        A = np.asarray(eq_matrix, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"eq_matrix must be two-dimensional, got shape {A.shape}")
        b = _vector(eq_rhs, "eq_rhs")
        n = c.size
        if A.shape[1] != n:
            raise ValueError(f"eq_matrix has {A.shape[1]} columns for {n} variables")
        if b.size != A.shape[0]:
            raise ValueError(f"eq_rhs has {b.size} entries for {A.shape[0]} rows")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("objective, matrix and rhs must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", A)
        object.__setattr__(self, "eq_rhs", b)

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _run_simplex(T: np.ndarray, basis: np.ndarray) -> LpStatus:
    """Minimize the objective encoded in the last tableau row.

    Dantzig pricing (lowest index among equal reduced costs) until
    ``_STALL_LIMIT`` consecutive degenerate pivots, then Bland's rule for the
    rest of the run.
    """
    stalled = 0
    for _ in range(_MAX_PIVOTS):
        reduced = T[-1, :-1]
        if stalled < _STALL_LIMIT:
            enter = int(np.argmin(reduced))  # Dantzig: most negative
            if reduced[enter] >= -_PIVOT_TOL:
                return LpStatus.OPTIMAL
        else:
            candidates = np.flatnonzero(reduced < -_PIVOT_TOL)
            if candidates.size == 0:
                return LpStatus.OPTIMAL
            enter = int(candidates[0])  # Bland: lowest eligible index
        column = T[:-1, enter]
        rows = np.flatnonzero(column > _PIVOT_TOL)
        if rows.size == 0:
            return LpStatus.UNBOUNDED
        ratios = T[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        leave = int(tied[np.argmin(basis[tied])])  # Bland: lowest basic index
        if stalled < _STALL_LIMIT:
            stalled = stalled + 1 if best <= _PIVOT_TOL else 0
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise SolverError("simplex pivot limit exceeded")


def _crash_basis(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, a column that can start basic in it, or -1.

    A column qualifies for a row when it is nonzero in that row only and its
    value ``b[r] / A[r, j]`` is nonnegative; a row with rhs 0 and a negative
    coefficient is sign-flipped in place to make the column usable.  Each row
    takes its lowest-index qualifying column.  Expects ``b >= 0``.
    """
    crash = np.full(A.shape[0], -1)
    nonzero = A != 0.0
    singles = np.flatnonzero(np.count_nonzero(nonzero, axis=0) == 1)
    _, owners = np.nonzero(nonzero[:, singles].T)
    usable = (A[owners, singles] > 0.0) | (b[owners] == 0.0)
    for j, r in zip(singles[usable].tolist(), owners[usable].tolist()):
        if crash[r] < 0:
            crash[r] = j
    flip = crash >= 0
    flip[flip] = A[flip, crash[flip]] < 0.0
    A[flip] *= -1.0
    return crash


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve a standard-form program on a dense tableau.

    Returns a basic optimal solution; its point is clipped at 0, so pivot
    rounding never leaves a coordinate below its bound.
    """
    c = lp.objective
    A = lp.eq_matrix.copy()
    b = lp.eq_rhs.copy()
    m, n = A.shape
    negative = b < 0
    A[negative] *= -1.0
    b[negative] *= -1.0
    basis = _crash_basis(A, b)

    # Phase 1: crash columns start basic (scaled to a unit pivot); the other
    # rows get one artificial each, and the run minimizes their sum.
    covered = np.flatnonzero(basis >= 0)
    uncovered = np.flatnonzero(basis < 0)
    n_art = uncovered.size
    T = np.zeros((m + 1, n + n_art + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[covered] /= T[covered, basis[covered]][:, None]
    basis[uncovered] = n + np.arange(n_art)
    T[uncovered, basis[uncovered]] = 1.0
    if n_art:
        T[-1, :] = -T[uncovered, :].sum(axis=0)
        T[-1, n:n + n_art] = 0.0
        if _run_simplex(T, basis) is LpStatus.UNBOUNDED:
            raise SolverError("phase-1 objective reported unbounded")
        if -T[-1, -1] > FEASIBILITY_TOL:
            return LpOutcome(status=LpStatus.INFEASIBLE)

    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] < n:
            keep.append(r)
            continue
        pivots = np.flatnonzero(np.abs(T[r, :n]) > _PIVOT_TOL)
        if pivots.size:
            _pivot(T, r, int(pivots[0]))
            basis[r] = int(pivots[0])
            keep.append(r)
    if len(keep) < m:
        T = np.vstack([T[keep, :], T[-1:, :]])
        basis = basis[keep]
        m = len(keep)
    T = np.hstack([T[:, :n], T[:, -1:]])

    # Phase 2: original objective, expressed in the current basis.
    T[-1, :] = 0.0
    T[-1, :n] = c
    T[-1, :] -= c[basis] @ T[:m, :]
    if _run_simplex(T, basis) is LpStatus.UNBOUNDED:
        return LpOutcome(status=LpStatus.UNBOUNDED)

    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return LpOutcome(status=LpStatus.OPTIMAL, value=float(c @ x), point=x)


@dataclass(frozen=True)
class BandBox:
    """Coordinate band of radius ``radius`` around a simplex point.

    Effective bounds are clipped to [0, 1]; intersected with the simplex the
    region is never empty because it contains its own center.
    """

    center: np.ndarray
    radius: float
    lower: np.ndarray = field(init=False, compare=False)
    upper: np.ndarray = field(init=False, compare=False)

    def __init__(self, center, radius: float):
        c = _vector(center, "center")
        if c.size == 0:
            raise ValueError("center must be nonempty")
        if np.any(c < 0.0):
            raise ValueError("center must have nonnegative coordinates")
        if abs(c.sum() - 1.0) > 1e-9:
            raise ValueError(f"center mass sums to {c.sum()!r}, not 1")
        r = float(radius)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"radius must lie in [0, 1], got {r!r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "lower", np.maximum(0.0, c - r))
        object.__setattr__(self, "upper", np.minimum(1.0, c + r))

    @property
    def dimension(self) -> int:
        return self.center.size


def minimize_over_band(direction, band: BandBox) -> tuple[float, np.ndarray, float]:
    """Exact minimum of <pi, direction> over band-and-simplex, and its rate.

    Greedy mass allocation: every coordinate starts at its lower bound and
    the mass moved off the center onto the lower bounds is poured back into
    coordinates in ascending order of the direction coefficient (ties broken
    toward the lower index), each up to its capacity.  This is the
    closed-form solution of the transportation-style program, so no simplex
    run is needed.

    The third element is the right-hand derivative of the minimum in the
    band radius.  Filled coordinates move with their upper bound, untouched
    ones with their lower bound, and the coordinate the pour stops in takes
    up the difference.  Where the rest of the mass exactly fills a
    coordinate (always so at radius 0, where every capacity is 0), the pour
    stops there only if the capacity also grows at least as fast as the
    rest, which is the choice that stays feasible just beyond the radius.
    """
    d = _vector(direction, "direction")
    if d.size != band.dimension:
        raise ValueError(f"direction has {d.size} entries for dimension {band.dimension}")
    coefficients = d.tolist()
    lower = band.lower.tolist()
    upper = band.upper.tolist()
    point = list(lower)
    rate = [-1.0 if lo > 0.0 else 0.0 for lo in lower]
    # Measured from the center, the mass to pour is exactly 0 at radius 0.
    rest = sum(c - lo for c, lo in zip(band.center.tolist(), lower))
    rest_rate = -sum(rate)
    for j in sorted(range(d.size), key=coefficients.__getitem__):
        cap = upper[j] - lower[j]
        upper_rate = 1.0 if upper[j] < 1.0 else 0.0
        cap_rate = upper_rate - rate[j]
        if (cap, cap_rate) >= (rest, rest_rate):
            point[j] += rest
            rate[j] += rest_rate
            break
        point[j] = upper[j]
        rate[j] = upper_rate
        rest -= cap
        rest_rate -= cap_rate
    point = np.array(point)
    return float(point @ d), point, float(np.array(rate) @ d)
