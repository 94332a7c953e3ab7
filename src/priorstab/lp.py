"""Linear-programming kernel for small dense problems.

Two routes into the same geometry: a phase-2 simplex for programs in
standard form (min c.x subject to A x = b and x >= 0), and a closed-form
greedy minimizer for linear objectives over the intersection of a coordinate
band with the probability simplex.  The simplex works on a dense tableau,
which suits the small programs solved here.  Every program starts from a
feasible basis its caller supplies, so there is no phase 1.  Entering
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
operations.  The arithmetic is elementwise within each member, so a member
takes the very pivots and bits it would take alone, in a stack of one.  A
member leaves the stack once it is optimal.  A run ends with every member
optimal, or raises `SolverError` naming the member at fault, such as an
unbounded one.

A stack starts either from a feasible basis its caller chose, a crash basis
away from a degenerate vertex (`start_tableaux`; Bixby 1992), or from
tableaux an earlier run left optimal.  A restart needs no more: the basis
of an optimal tableau is still feasible under any other objective, so only
the cost row is replaced and re-priced, and phase 2 continues from the old
optimum (parametric cost, Dantzig 1963).  `start_tableaux` and
`solve_stack` are the one way into the simplex; a lone program is a stack
of one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SolverError",
    "minimize_over_band",
    "start_tableaux",
    "solve_stack",
]

_FEASIBILITY_TOL = 1e-9  # negative value allowed on a starting basic variable
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 20_000
# Consecutive degenerate pivots before Bland's rule takes over.  Beale's
# example cycles every 6; the need programs of the benchmark tables never
# stall this long, so Dantzig's fewer pivots are kept where they are safe.
_STALL_LIMIT = 50


class SolverError(RuntimeError):
    """The solver produced an internally inconsistent result.

    ``member`` is the position of the program at fault in its stack.
    """

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


def _vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _pivot_stack(T: np.ndarray, rows, cols, column: np.ndarray) -> None:
    """Pivot every tableau of a stack: tableau i on row ``rows[i]`` and
    column ``cols[i]``, whose entries ``column[i]`` the caller has gathered."""
    at = np.arange(T.shape[0])
    prow = T[at, rows] / column[at, rows][:, None]
    # Every row, the pivot row too, takes one outer-product update, one
    # rounded product per entry, which leaves the pivot column exactly +0.0
    # (x - x * 1.0); the pivot row is then written back.  Its pivot entry is
    # exactly 1 (x / x), and adding 0 turns its -0.0 entries into 0.0, as
    # subtracting 0 * prow would.
    T -= np.einsum("ki,kj->kij", column, prow)
    T[at, rows] = prow + 0.0


def _run_stack(T: np.ndarray, bases: np.ndarray) -> None:
    """Minimize the objective in the last row of each tableau of a stack, in
    place.

    Each step prices, ratio-tests and pivots all active members with
    whole-stack operations, each member on Bland's rule once its own run of
    degenerate pivots reaches ``_STALL_LIMIT``.  An optimal member leaves
    the stack, an unbounded one raises, and the rest step on.
    """
    ids = np.arange(len(T))  # stack position -> member
    S, B = T, bases  # the active members; a copy once one has left
    # The step at which each member's run of degenerate pivots began, so its
    # stall count is step - since; Bland's rule, once on, stays on.
    since = np.zeros(len(T), dtype=int)
    at = ids
    step = 0
    while ids.size:
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
                i = int(ids[pos])
                if improving[pos]:
                    raise SolverError("program is unbounded", i)
                if S is not T:
                    T[i], bases[i] = S[pos], B[pos]
            S, B, ids, since = S[go], B[go], ids[go], since[go]
            if not ids.size:
                break
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
    p, m, n = eq_block.shape
    T = np.zeros((p, m + 1, n + 1))
    T[:, :m, :n] = eq_block
    T[:, :m, -1] = eq_rhs
    at = np.arange(p)[:, None]
    T[:, :m] = np.matmul(np.linalg.inv(T[at[:, :, None], np.arange(m)[:, None], bases[:, None, :]]),
                         T[:, :m])
    T[at, :m, bases] = np.eye(m)
    return T, bases.copy()


def solve_stack(tableaux: np.ndarray, bases: np.ndarray, costs: np.ndarray) -> None:
    """Minimize ``costs`` over a stack of tableaux, in place, each member as
    it would run alone.

    ``tableaux`` (members, rows + 1, columns + 1) hold each member's
    constraints in canonical form for its feasible basis ``bases``
    (members, rows): from `start_tableaux`, or as an earlier run left them
    (a restart).  The right-hand sides are clipped at 0, the cost rows set
    to ``costs`` (members, columns) and priced, and the simplex runs; the
    final tableaux and bases, every one optimal, are left in the arrays.  A
    failure, such as an unbounded member, raises `SolverError` with
    ``member`` set to the member at fault.
    """
    T = tableaux
    m, n = bases.shape[1], costs.shape[1]
    if T.shape[1:] != (m + 1, n + 1) or len(bases) != len(T) or len(costs) != len(T):
        raise ValueError(f"a stack of {T.shape} tableaux needs bases and costs of its shape")
    infeasible = (T[:, :m, -1] < -_FEASIBILITY_TOL).any(axis=1)
    if infeasible.any():
        raise SolverError("starting basis is infeasible", int(infeasible.argmax()))
    T[:, :m, -1] = np.maximum(T[:, :m, -1], 0.0)
    # One stacked matmul prices every cost row: it runs the same BLAS product
    # on each member as a 2D one does, so each row takes the same bits.
    T[:, -1, :n] = costs
    T[:, -1, -1] = 0.0
    T[:, -1, :] -= np.matmul(np.take_along_axis(costs, bases, axis=1)[:, None, :],
                             T[:, :m, :])[:, 0, :]
    _run_stack(T, bases)


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
