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

Programs of one shape run side by side in one (members, rows + 1,
columns + 1) stack of tableaux, constraint rows first and the cost row
last, right-hand side in the last column (`solve_stack`).  A pivot here
costs about as much in numpy call overhead as in arithmetic, so each step
prices, ratio-tests and pivots every active member with whole-stack
operations.  The arithmetic is the 2D run's, element by element, so each
member takes the very pivots and bits it would take alone.  A stacked step
costs more than a 2D pivot, so a lone program, and the last member left in
a stack, run in the 2D loop.

A stack starts either from a feasible basis its caller chose, a crash basis
away from a degenerate vertex (`start_tableaux`; Bixby 1992), or from
tableaux an earlier run left optimal.  A restart needs no more: the basis
of an optimal tableau is still feasible under any other objective, so only
the cost row is replaced and re-priced, and phase 2 continues from the old
optimum (parametric cost, Dantzig 1963).
`solve_lps` solves `LinearProgram` objects through the same stack, after
pivoting in any basis that is not a slack basis, row by row.
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
    "start_tableaux",
    "solve_lp",
    "solve_lps",
    "solve_stack",
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

    @property
    def num_variables(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpOutcome:
    """Status, optimal value and point; an optimal outcome also keeps its
    final basis and tableau, from which `solve_stack` can restart."""

    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)
    tableau: np.ndarray | None = field(default=None, repr=False, compare=False)


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row] / T[row, col]
    # Every row, the pivot row too, takes one broadcast update, which leaves
    # the pivot column exactly +0.0 (x - x * 1.0); the pivot row is then
    # written back.  Its pivot entry is exactly 1 (x / x), and adding 0 turns
    # its -0.0 entries into 0.0, as subtracting 0 * prow would.
    T -= T[:, col, None] * prow
    np.add(prow, 0.0, out=T[row])


def _pivot_stack(T: np.ndarray, rows, cols, column: np.ndarray) -> None:
    """`_pivot` on every tableau of a stack: tableau i pivots on row
    ``rows[i]`` and column ``cols[i]``, whose entries ``column[i]`` the
    caller has gathered.  The arithmetic is `_pivot`'s, element by element,
    so each tableau takes a 2D pivot's bits."""
    at = np.arange(T.shape[0])
    prow = T[at, rows] / column[at, rows][:, None]
    T -= column[:, :, None] * prow[:, None, :]
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
        column = S[at, :, enter]
        improving = column[:, -1] < -_PIVOT_TOL
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
    """Pivot ``lp``'s basis into the tableau ``T``, which holds its
    constraints, row by row.  A basis of unit vectors in row order is left
    as it stands (its pivots would only turn -0.0 entries into 0.0, which
    adding 0.0 does)."""
    if lp._unit_basis:
        T[:-1] += 0.0
        return
    for r, j in enumerate(lp.basis.tolist()):
        if abs(T[r, j]) <= _PIVOT_TOL:
            raise SolverError("starting basis is singular")
        _pivot(T, r, j)


def _tableaux(eq_block, eq_rhs) -> np.ndarray:
    """A stack of tableaux holding the constraints of a (programs, rows,
    columns) block and their right-hand sides, under a zero cost row."""
    p, m, n = eq_block.shape
    T = np.zeros((p, m + 1, n + 1))
    T[:, :m, :n] = eq_block
    T[:, :m, -1] = eq_rhs
    return T


def start_tableaux(eq_block, eq_rhs, bases) -> tuple[np.ndarray, np.ndarray]:
    """Starting tableaux of programs in canonical form for their feasible
    bases ``bases`` (programs, rows), and a copy of the bases.

    ``eq_block`` holds one (rows, columns) constraint matrix per program,
    and ``eq_rhs`` their right-hand sides (one shared vector, or one per
    program).  One stacked inverse of the basis matrices, applied to [A | b]
    in one stacked product, gives the tableaux (numpy's stacked solve is
    slower against that many right-hand sides); the basis columns are then
    written as exact unit vectors.
    """
    T = _tableaux(eq_block, eq_rhs)
    p, m = bases.shape
    at = np.arange(p)[:, None]
    T[:, :m] = np.matmul(np.linalg.inv(T[at[:, :, None], np.arange(m)[:, None], bases[:, None, :]]),
                         T[:, :m])
    T[at, :m, bases] = np.eye(m)
    return T, bases.copy()


def solve_stack(tableaux: np.ndarray, bases: np.ndarray, costs: np.ndarray) -> list[LpStatus]:
    """Minimize ``costs`` over a stack of tableaux, in place, each member as
    it would run alone.

    ``tableaux`` (members, rows + 1, columns + 1) hold each member's
    constraints in canonical form for its feasible basis ``bases``
    (members, rows): from `start_tableaux`, or as an earlier run left them
    (a restart).  The right-hand sides are clipped at 0, the cost rows set
    to ``costs`` (members, columns) and priced, and the simplex runs; the
    final tableaux and bases are left in the arrays.  An unbounded member
    drops out while the others go on.  A failure raises `SolverError` with
    ``member`` set to the member at fault.
    """
    T = tableaux
    m, n = bases.shape[1], costs.shape[1]
    if T.shape[1:] != (m + 1, n + 1) or len(bases) != len(T) or len(costs) != len(T):
        raise ValueError(f"a stack of {T.shape} tableaux needs bases and costs of its shape")
    infeasible = (T[:, :m, -1] < -FEASIBILITY_TOL).any(axis=1)
    if infeasible.any():
        raise SolverError("starting basis is infeasible", int(infeasible.argmax()))
    T[:, :m, -1] = np.maximum(T[:, :m, -1], 0.0)
    # One stacked matmul prices every cost row: it runs the same BLAS product
    # on each member as a 2D one does, so each row takes the same bits.
    T[:, -1, :n] = costs
    T[:, -1, -1] = 0.0
    T[:, -1, :] -= np.matmul(np.take_along_axis(costs, bases, axis=1)[:, None, :],
                             T[:, :m, :])[:, 0, :]
    return _run_stack(T, bases)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve a standard-form program from its own feasible basis (phase 2
    only).

    Returns a basic optimal solution; its point is clipped at 0, so pivot
    rounding never leaves a coordinate below its bound.  A singular or
    infeasible starting basis is the caller's error and raises
    ``SolverError``.
    """
    return solve_lps([lp])[0]


def solve_lps(lps) -> list[LpOutcome]:
    """Solve programs of one shape side by side (`solve_stack`), each as it
    would run alone, cold from its own basis.  A failure raises
    `SolverError` with ``member`` set to the position of the program at
    fault."""
    lps = list(lps)
    if not lps:
        return []
    if any(lp.eq_matrix.shape != lps[0].eq_matrix.shape for lp in lps):
        raise ValueError("programs solved together must share one shape")
    T = _tableaux(np.array([lp.eq_matrix for lp in lps]), np.array([lp.eq_rhs for lp in lps]))
    for i, lp in enumerate(lps):
        try:
            _cold_start(T[i], lp)
        except SolverError as exc:
            exc.member = i
            raise
    bases = np.array([lp.basis for lp in lps])
    statuses = solve_stack(T, bases, np.array([lp.objective for lp in lps]))
    outs = []
    for lp, status, Ti, basis in zip(lps, statuses, T, bases):
        if status is LpStatus.UNBOUNDED:
            outs.append(LpOutcome(status=status))
            continue
        x = np.zeros(lp.num_variables)
        x[basis] = np.maximum(Ti[:-1, -1], 0.0)
        outs.append(LpOutcome(status=status, value=float(lp.objective @ x), point=x,
                              basis=basis, tableau=Ti))
    return outs


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
