"""Linear-programming kernel for small dense problems.

Two routes into the same geometry: a phase-2 simplex for programs in
standard form (min c.x subject to A x = b and x >= 0), and a closed-form
greedy minimizer for linear objectives over the intersection of a coordinate
band with the probability simplex.  The simplex works on a dense tableau,
which suits the small programs solved here.  Every program carries a
feasible starting basis of its own (the package poses the need program in
dual form, whose slack basis is feasible, and the certificate program from a
known vertex), so there is no phase 1.  Entering columns are priced by
Dantzig's rule (most negative reduced cost); after a run of degenerate pivots
the run switches to Bland's rule, which cannot cycle, so termination stays
guaranteed.  Leaving-row ties always go to the lowest basic index.  Every
choice is deterministic, so a program always yields the same vertex.

An optimal outcome keeps its final basis and tableau.  A program built on
the same constraint arrays (A and b) and differing only in its objective
(`LinearProgram.with_objective`) can restart from that outcome: the basis is still feasible, so only the cost row
is replaced and re-priced, and phase 2 continues from the old optimum
(parametric cost, Dantzig 1963).  The need program of an act, whose
reference prior enters only its objective, is restarted this way across the
priors of a profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "FEASIBILITY_TOL",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "SolverError",
    "minimize_over_band",
    "solve_lp",
]

FEASIBILITY_TOL = 1e-9  # negative value allowed on a starting basic variable
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
    UNBOUNDED = "unbounded"


def _vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  A x = b  and  x >= 0, from a feasible basis.

    Inequalities and bounds are expected to arrive already slacked into
    this form by the caller.  ``basis`` names, per row, the column basic in
    it at a feasible vertex the caller knows.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    basis: np.ndarray

    def __init__(self, objective, eq_matrix, eq_rhs, basis):
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
        basis = np.asarray(basis, dtype=int)
        if basis.shape != b.shape or np.any((basis < 0) | (basis >= n)):
            raise ValueError(f"basis must name one of the {n} columns for each row")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", A)
        object.__setattr__(self, "eq_rhs", b)
        object.__setattr__(self, "basis", basis)

    def with_objective(self, objective) -> LinearProgram:
        """This program under a new objective, on the very same constraint
        arrays and basis, so that `solve_lp` can restart it from an outcome of
        this program.  Only the objective is validated: the constraints were
        checked when this program was built."""
        c = _vector(objective, "objective")
        if c.shape != self.objective.shape:
            raise ValueError(f"objective has {c.size} entries for {self.num_variables} variables")
        if not np.isfinite(c).all():
            raise ValueError("objective must be finite")
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, objective=c)
        return lp

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    """Status, optimal value and point; an optimal outcome also keeps the
    program it solved and its final basis and tableau, from which
    `solve_lp` can restart."""

    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None
    program: LinearProgram | None = field(default=None, repr=False, compare=False)
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    tableau: np.ndarray | None = field(default=None, repr=False, compare=False)


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row] / T[row, col]
    # Every row, the pivot row too, takes one broadcast update; the pivot row
    # is then written back.  Its pivot entry is exactly 1 (x / x), and adding
    # 0 turns its -0.0 entries into 0.0, as subtracting 0 * prow would.
    T -= T[:, col, None] * prow
    T[:, col] = 0.0
    np.add(prow, 0.0, out=T[row])


def _run_simplex(T: np.ndarray, basis: np.ndarray) -> LpStatus:
    """Minimize the objective encoded in the last tableau row.

    Dantzig pricing (lowest index among equal reduced costs) until
    ``_STALL_LIMIT`` consecutive degenerate pivots, then Bland's rule for the
    rest of the run.
    """
    # Views into T, which every pivot updates in place.
    reduced, body, rhs = T[-1, :-1], T[:-1], T[:-1, -1]
    stalled = 0
    for _ in range(_MAX_PIVOTS):
        if stalled < _STALL_LIMIT:
            enter = int(reduced.argmin())  # Dantzig: most negative
            if reduced[enter] >= -_PIVOT_TOL:
                return LpStatus.OPTIMAL
        else:
            eligible = reduced < -_PIVOT_TOL
            enter = int(eligible.argmax())  # Bland: lowest eligible index
            if not eligible[enter]:
                return LpStatus.OPTIMAL
        column = body[:, enter]
        rows = (column > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return LpStatus.UNBOUNDED
        ratios = rhs[rows] / column[rows]
        best = float(np.minimum.reduce(ratios))
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        leave = int(tied[basis[tied].argmin()])  # Bland: lowest basic index
        if stalled < _STALL_LIMIT:
            stalled = stalled + 1 if best <= _PIVOT_TOL else 0
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise SolverError("simplex pivot limit exceeded")


def solve_lp(lp: LinearProgram, *, start: LpOutcome | None = None) -> LpOutcome:
    """Solve a standard-form program from a feasible basis (phase 2 only).

    Without ``start`` the run begins at the program's own basis.  With it,
    the run restarts from that earlier optimal outcome, which must come from
    a program holding the very same ``eq_matrix`` and ``eq_rhs`` arrays, left
    unmodified (only the objective may differ; a start solved on other
    arrays is rejected): its final tableau is copied, its cost row replaced
    by this objective and re-priced, and the simplex continues from its
    basis.  Returns a basic optimal solution; its point is clipped at 0, so
    pivot rounding never leaves a coordinate below its bound.  A singular or
    infeasible starting basis is the caller's error and raises
    ``SolverError``.
    """
    c, A, b = lp.objective, lp.eq_matrix, lp.eq_rhs
    m, n = A.shape
    if start is None:
        basis = lp.basis.copy()
        T = np.zeros((m + 1, n + 1))
        T[:m, :n] = A
        T[:m, -1] = b
        for r, j in enumerate(basis.tolist()):
            if abs(T[r, j]) <= _PIVOT_TOL:
                raise SolverError("starting basis is singular")
            _pivot(T, r, j)
    else:
        if start.tableau is None:
            raise ValueError("a restart needs an optimal outcome with its tableau")
        if start.program.eq_matrix is not A or start.program.eq_rhs is not b:
            raise ValueError("a restart needs a start solved on the same constraint arrays")
        basis = start.basis.copy()
        T = start.tableau.copy()
    if (T[:m, -1] < -FEASIBILITY_TOL).any():
        raise SolverError("starting basis is infeasible")
    T[:m, -1] = np.maximum(T[:m, -1], 0.0)
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[-1, :] -= c[basis] @ T[:m, :]
    if _run_simplex(T, basis) is LpStatus.UNBOUNDED:
        return LpOutcome(status=LpStatus.UNBOUNDED)

    x = np.zeros(n)
    x[basis] = np.maximum(T[:m, -1], 0.0)
    return LpOutcome(
        status=LpStatus.OPTIMAL, value=float(c @ x), point=x, program=lp, basis=basis,
        tableau=T,
    )


def minimize_over_band(direction, center, radius: float) -> tuple[float, np.ndarray, float]:
    """Exact minimum of <pi, direction> over band-and-simplex, and its rate.

    The band holds the points within ``radius`` of the simplex point
    ``center`` in every coordinate, clipped to [0, 1]; callers pass a valid
    center and a radius in [0, 1].  Greedy mass allocation: every coordinate
    starts at its lower bound and the mass moved off the center onto the
    lower bounds is poured back into coordinates in ascending order of the
    direction coefficient (ties broken toward the lower index), each up to
    its capacity.  This is the closed-form solution of the
    transportation-style program, so no simplex run is needed.

    The third element is the right-hand derivative of the minimum in the
    band radius.  Filled coordinates move with their upper bound, untouched
    ones with their lower bound, and the coordinate the pour stops in takes
    up the difference.  Where the rest of the mass exactly fills a
    coordinate (always so at radius 0, where every capacity is 0), the pour
    stops there only if the capacity also grows at least as fast as the
    rest, which is the choice that stays feasible just beyond the radius.
    """
    d = _vector(direction, "direction")
    c = _vector(center, "center")
    if d.size != c.size:
        raise ValueError(f"direction has {d.size} entries for dimension {c.size}")
    coefficients = d.tolist()
    center = c.tolist()
    lower = [max(0.0, x - radius) for x in center]
    upper = [min(1.0, x + radius) for x in center]
    point = list(lower)
    rate = [-1.0 if lo > 0.0 else 0.0 for lo in lower]
    # Measured from the center, the mass to pour is exactly 0 at radius 0.
    rest = sum(x - lo for x, lo in zip(center, lower))
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
