"""Linear-programming kernel for small dense problems.

Two routes into the same geometry: a phase-2 simplex for programs in
standard form (min c.x subject to A x = b and x >= 0), and a closed-form
greedy minimizer for linear objectives over the intersection of a coordinate
band with the probability simplex.  The simplex works on a dense tableau,
which suits the small programs solved here.  Every program carries a
feasible starting basis of its own, so there is no phase 1.  Entering
columns are priced by Dantzig's rule (most negative reduced cost); after a
run of degenerate pivots the run switches to Bland's rule, which cannot
cycle, so termination stays guaranteed.  Leaving-row ties always go to the
lowest basic index.  Every choice is deterministic, so a program always
yields the same vertex.

A cold start pivots the program's basis in, row by row, unless the basis
columns, in row order, are exactly the unit vectors (a slack basis): those
pivots would only turn -0.0 entries into 0.0, so the tableau starts from the
constraints plus 0.0.

An optimal outcome keeps its final basis and tableau.  A program built on
the same constraint arrays (A and b) and differing only in its objective
(`LinearProgram.with_objective`) can restart from that outcome
(`solve_lps`' ``starts``): the basis is still feasible, so only the cost row
is replaced and re-priced, and phase 2 continues from the old optimum
(parametric cost, Dantzig 1963).

Programs of one shape can run side by side (`solve_lps`) in one
(members, rows, columns) stack of tableaux.  A pivot here costs about as much
in numpy call overhead as in arithmetic, so each step prices, ratio-tests and
pivots every active member with whole-stack operations.  The arithmetic is
the 2D run's, element by element, so each member takes the very pivots and
bits it would take alone.  A stacked step costs more than a 2D pivot, so a
lone program, and the last member left in a stack, run in the 2D loop.
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
    "solve_lps",
]

FEASIBILITY_TOL = 1e-9  # negative value allowed on a starting basic variable
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 20_000
# Consecutive degenerate pivots before Bland's rule takes over.  Beale's
# example cycles every 6; the need programs of the benchmark tables never
# stall this long, so Dantzig's fewer pivots are kept where they are safe.
_STALL_LIMIT = 50


class SolverError(RuntimeError):
    """The solver produced an internally inconsistent result.

    ``member`` is the position of the program at fault in its call: its
    index in the list `solve_lps` was given, and 0 for `solve_lp`.
    """

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


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
        # Whether the basis columns, in row order, are exactly the unit
        # vectors, so that a cold start needs no set-up pivots.
        object.__setattr__(self, "_unit_basis", bool((A[:, basis] == np.eye(b.size)).all()))

    @classmethod
    def block(cls, eq_block, eq_rhs, basis) -> list[LinearProgram]:
        """Zero-objective programs, one per matrix of a (programs, rows,
        columns) block, all sharing ``eq_rhs`` and ``basis``: the block is
        validated once, and each program holds a view of its matrix."""
        A = np.asarray(eq_block, dtype=float)
        if A.ndim != 3 or not np.isfinite(A).all():
            raise ValueError("eq_block must be a finite three-dimensional array")
        if not len(A):
            return []
        programs = [cls(np.zeros(A.shape[2]), A[0], eq_rhs, basis)]
        units = (A[:, :, programs[0].basis] == np.eye(A.shape[1])).all(axis=(1, 2))
        for matrix, unit in zip(A[1:], units[1:].tolist()):
            lp = object.__new__(cls)
            lp.__dict__.update(programs[0].__dict__, eq_matrix=matrix, _unit_basis=unit)
            programs.append(lp)
        return programs

    def with_objective(self, objective) -> LinearProgram:
        """This program under a new objective, on the very same constraint
        arrays and basis, so that `solve_lps` can restart it from an outcome
        of this program.  Only the objective is validated: the constraints were
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
    `solve_lps` can restart."""

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


def _pivot_stack(T: np.ndarray, rows, cols, column: np.ndarray) -> None:
    """`_pivot` on every tableau of a stack: tableau i pivots on row
    ``rows[i]`` and column ``cols[i]``, whose entries ``column[i]`` the
    caller has gathered.  The arithmetic is `_pivot`'s, element by element,
    so each tableau takes a 2D pivot's bits."""
    at = np.arange(T.shape[0])
    prow = T[at, rows] / column[at, rows][:, None]
    T -= column[:, :, None] * prow[:, None, :]
    T[at, :, cols] = 0.0
    T[at, rows] = prow + 0.0


def _run_simplex(T: np.ndarray, basis: np.ndarray, stalled: int = 0, pivots: int = 0) -> LpStatus:
    """Minimize the objective encoded in the last tableau row.

    Dantzig pricing (lowest index among equal reduced costs) until
    ``_STALL_LIMIT`` consecutive degenerate pivots, then Bland's rule for the
    rest of the run.  ``stalled`` and ``pivots`` carry the counts of a run
    begun in a stack (`_run_stack`).
    """
    # Views into T, which every pivot updates in place.
    reduced, body, rhs = T[-1, :-1], T[:-1], T[:-1, -1]
    for _ in range(pivots, _MAX_PIVOTS):
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


def _run_stack(T: np.ndarray, bases: np.ndarray) -> list[LpStatus]:
    """`_run_simplex` on every tableau of a stack at once, in place.

    Each step prices, ratio-tests and pivots all active members with
    whole-stack operations, by the rules and the elementwise arithmetic of
    `_run_simplex`, so every member takes the pivots it would take alone.  A
    member that is optimal or unbounded leaves the stack; the last one
    finishes in `_run_simplex`, carrying its stall and pivot counts.
    """
    status = [None] * len(T)
    ids = np.arange(len(T))  # stack position -> member
    S, B = T, bases  # the active members; a copy once one has left
    # The step at which each member's run of degenerate pivots began, so its
    # stall count is step - since; Bland's rule, once on, stays on.
    since = np.zeros(len(T), dtype=int)
    at = ids
    step = 0
    while ids.size > 1:
        if step == _MAX_PIVOTS:
            raise SolverError("simplex pivot limit exceeded", int(ids[0]))
        reduced = S[:, -1, :-1]
        enter = reduced.argmin(axis=1)  # Dantzig: most negative
        bland = None
        if step >= _STALL_LIMIT:  # no count can reach the limit sooner
            bland = step - since >= _STALL_LIMIT
            # Bland: lowest eligible index
            enter = np.where(bland, (reduced < -_PIVOT_TOL).argmax(axis=1), enter)
        improving = reduced[at, enter] < -_PIVOT_TOL
        column = S[at, :, enter]
        positive = column[:, :-1] > _PIVOT_TOL
        ratios = np.divide(S[:, :-1, -1], column[:, :-1], out=np.full(positive.shape, np.inf),
                           where=positive)
        best = ratios.min(axis=1, initial=np.inf)
        go = improving & (best < np.inf)
        if not go.all():
            for pos in (~go).nonzero()[0].tolist():
                i = ids[pos]
                status[i] = LpStatus.UNBOUNDED if improving[pos] else LpStatus.OPTIMAL
                if S is not T:
                    T[i], bases[i] = S[pos], B[pos]
            S, B, ids, since = S[go], B[go], ids[go], since[go]
            if ids.size < 2:
                break  # the last member redoes this step's choice in 2D
            at = at[:ids.size]
            enter, column, ratios, best = enter[go], column[go], ratios[go], best[go]
            if bland is not None:
                bland = bland[go]
        tied = ratios <= (best + 1e-12 * (1.0 + np.abs(best)))[:, None]
        leave = np.where(tied, B, T.shape[2]).argmin(axis=1)  # lowest basic index
        moved = best > _PIVOT_TOL
        if bland is not None:
            moved &= ~bland
        since[moved] = step + 1
        _pivot_stack(S, leave, enter, column)
        B[at, leave] = enter
        step += 1
    if ids.size == 1:
        i = int(ids[0])
        try:
            status[i] = _run_simplex(S[0], B[0], step - int(since[0]), step)
        except SolverError as exc:
            exc.member = i
            raise
        if S is not T:
            T[i], bases[i] = S[0], B[0]
    return status


def _cold_start(T: np.ndarray, lp: LinearProgram) -> None:
    """Fill the zeroed tableau ``T`` with ``lp``'s constraints and pivot its
    basis in, row by row.  A basis of unit vectors in row order is left as
    it stands: its pivots would only turn -0.0 entries into 0.0."""
    m, n = lp.eq_matrix.shape
    T[:m, :n] = lp.eq_matrix
    T[:m, -1] = lp.eq_rhs
    if lp._unit_basis:
        T[:m] += 0.0
        return
    for r, j in enumerate(lp.basis.tolist()):
        if abs(T[r, j]) <= _PIVOT_TOL:
            raise SolverError("starting basis is singular")
        _pivot(T, r, j)


def _check_start(lp: LinearProgram, start: LpOutcome) -> None:
    if start.tableau is None:
        raise ValueError("a restart needs an optimal outcome with its tableau")
    if start.program.eq_matrix is not lp.eq_matrix or start.program.eq_rhs is not lp.eq_rhs:
        raise ValueError("a restart needs a start solved on the same constraint arrays")


def _outcome(lp: LinearProgram, status: LpStatus, T: np.ndarray, basis: np.ndarray) -> LpOutcome:
    if status is LpStatus.UNBOUNDED:
        return LpOutcome(status=status)
    x = np.zeros(lp.num_variables)
    x[basis] = np.maximum(T[:-1, -1], 0.0)
    return LpOutcome(
        status=status, value=float(lp.objective @ x), point=x, program=lp, basis=basis,
        tableau=T,
    )


def _solve_one(lp: LinearProgram, start: LpOutcome | None) -> LpOutcome:
    # The body of `solve_lp`, which `solve_lps` also runs for a lone program:
    # a wrapper around either public name (as a span recorder installs) then
    # sees each call once.
    c = lp.objective
    m, n = lp.eq_matrix.shape
    if start is None:
        basis = lp.basis.copy()
        T = np.zeros((m + 1, n + 1))
        _cold_start(T, lp)
    else:
        _check_start(lp, start)
        basis = start.basis.copy()
        T = start.tableau.copy()
    if (T[:m, -1] < -FEASIBILITY_TOL).any():
        raise SolverError("starting basis is infeasible")
    T[:m, -1] = np.maximum(T[:m, -1], 0.0)
    T[-1, :n] = c
    T[-1, -1] = 0.0
    T[-1, :] -= c[basis] @ T[:m, :]
    return _outcome(lp, _run_simplex(T, basis), T, basis)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve a standard-form program from its own feasible basis (phase 2
    only).

    Returns a basic optimal solution; its point is clipped at 0, so pivot
    rounding never leaves a coordinate below its bound.  A singular or
    infeasible starting basis is the caller's error and raises
    ``SolverError``.
    """
    return _solve_one(lp, None)


def solve_lps(lps, *, starts=None) -> list[LpOutcome]:
    """Solve programs of one shape side by side, each as it would run alone.

    ``starts`` holds, per program, ``None`` for a cold start (as `solve_lp`)
    or an earlier optimal outcome to restart from.  That outcome must come
    from a program holding the very same ``eq_matrix`` and ``eq_rhs`` arrays,
    left unmodified (only the objective may differ; a start solved on other
    arrays is rejected): its final tableau is copied, its cost row replaced
    by this objective and re-priced, and the simplex continues from its
    basis.  A lone program runs in the 2D loop.  Several share one stack of
    tableaux, which `_run_stack` runs; each outcome equals the member's solo
    run bit for bit, and an unbounded member drops out while the others go
    on.  A failure raises `SolverError` with ``member`` set to the position
    of the program at fault.
    """
    lps = list(lps)
    starts = [None] * len(lps) if starts is None else list(starts)
    if len(starts) != len(lps):
        raise ValueError(f"{len(starts)} starts for {len(lps)} programs")
    if len(lps) < 2:
        return [_solve_one(lp, start) for lp, start in zip(lps, starts)]
    m, n = lps[0].eq_matrix.shape
    if any(lp.eq_matrix.shape != (m, n) for lp in lps):
        raise ValueError("programs solved together must share one shape")
    T = np.zeros((len(lps), m + 1, n + 1))
    bases = np.empty((len(lps), m), dtype=int)
    for i, (lp, start) in enumerate(zip(lps, starts)):
        if start is not None:
            _check_start(lp, start)
            T[i], bases[i] = start.tableau, start.basis
            continue
        bases[i] = lp.basis
        try:
            _cold_start(T[i], lp)
        except SolverError as exc:
            exc.member = i
            raise
    infeasible = (T[:, :m, -1] < -FEASIBILITY_TOL).any(axis=1)
    if infeasible.any():
        raise SolverError("starting basis is infeasible", int(infeasible.argmax()))
    T[:, :m, -1] = np.maximum(T[:, :m, -1], 0.0)
    # One stacked matmul prices every cost row: it runs the same BLAS product
    # on each member as a 2D one does, so each row takes the same bits.
    costs = np.array([lp.objective for lp in lps])
    T[:, -1, :n] = costs
    T[:, -1, -1] = 0.0
    T[:, -1, :] -= np.matmul(costs[np.arange(len(lps))[:, None], bases][:, None, :],
                             T[:, :m, :])[:, 0, :]
    return [_outcome(lp, status, Ti, basis)
            for lp, status, Ti, basis in zip(lps, _run_stack(T, bases), T, bases)]


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
