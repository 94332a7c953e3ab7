"""Stability of Bayes-optimal acts under band perturbations of the prior.

For an act that is optimal at the reference prior, the *robustness radius* is
the largest band radius within which it stays optimal for every prior in the
band; for any act, the *contamination need* is the smallest radius at which
some prior in the band makes it optimal.  The radius is exact, by Newton on
each competitor's convex band minimum, skipping the competitors that a
cheap bound shows cannot bind; the need comes from a single linear program.
Optimality follows `bayes_acts`' tie rule throughout, and one rule decides
admissibility: an act is Bayes somewhere exactly when no mixture of its
competitors beats it by more than the tie tolerance in every state (the
minimax theorem).  Where the best mixture does, it is returned as a
checkable certificate.  A profile over several priors decides this once per
act, in one stack of certificate programs, and solves the need programs of
all its acts together (`_solve_needs`).  Both run in `lp.solve_stack` on
arrays built straight from the table, started off the degenerate all-slack
vertex, and both read their optimum off the final basis alone (`_off_bases`).
Every radius, need and certificate is computed on the table at its unit
scale (`DecisionProblem._unit`), so none depends on the table's magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TIE_TOL, BayesSet, DecisionProblem, Prior, bayes_acts
from .lp import SolverError, minimize_over_band, solve_stack, start_tableaux

__all__ = [
    "DominanceCertificate",
    "Need",
    "Radius",
    "StabilityProfile",
    "StabilityRow",
    "contamination_need",
    "robustness_radius",
    "stability_profile",
]

# Members per restart stack of a profile's need programs.  Each member holds
# a tableau of (states + 2) x (3 states + acts + 3) floats.
_RESTART_CHUNK = 64


@dataclass(frozen=True)
class Radius:
    """Robustness radius; ``epsilon`` is ``None`` for an act not Bayes at the
    reference prior, the -infinity case."""

    epsilon: float | None

    def __post_init__(self):
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"radius value must lie in [0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class DominanceCertificate:
    """Mixture of competitors that strictly beats an act in every state.

    ``weights`` maps each competing act to its mixture weight; ``margins``
    holds, per state, the advantage of the mixture over the dominated act.
    """

    weights: dict[str, float]
    margins: np.ndarray

    def __post_init__(self):
        w = np.asarray(list(self.weights.values()), dtype=float)
        if w.size == 0 or np.any(w < -1e-12):
            raise ValueError("certificate weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"certificate weights sum to {float(w.sum())}, not 1")
        margins = np.asarray(self.margins, dtype=float)
        # Relative to the largest margin, which is at most the table's utility
        # range, so every certificate the tie rule accepts passes.
        if margins.min() <= TIE_TOL * np.abs(margins).max():
            raise ValueError("certificate margins must exceed the tie tolerance")
        object.__setattr__(self, "margins", margins)


@dataclass(frozen=True)
class Need:
    """Contamination need; ``epsilon`` is ``None`` exactly when a dominance
    certificate stands in for the +infinity case."""

    epsilon: float | None
    certificate: DominanceCertificate | None = None

    def __post_init__(self):
        if (self.epsilon is None) == (self.certificate is None):
            raise ValueError("a need carries either an epsilon or a certificate")
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"need value must lie in [0, 1], got {self.epsilon!r}")


def _dominance_rows(u: np.ndarray, rows) -> np.ndarray:
    """Per act row i of ``rows``, the rows u[i] - u[b] for every competitor
    b, in act order: a (len(rows), acts - 1, states) block."""
    rows = np.asarray(rows)[:, None]
    position = np.arange(len(u) - 1)
    return u[rows[:, 0]][:, None, :] - u[position + (position >= rows)]


def _largest_safe_radius(d: np.ndarray, center: np.ndarray) -> float:
    """Largest radius up to which <pi, d> >= 0 over band-and-simplex.

    The band minimum f is convex, nonincreasing and piecewise-linear in the
    radius, with f(1) = min(d) < 0.  Newton's method from radius 0 follows
    tangents, which lie below a convex function, so every iterate keeps
    f >= 0 and each step enters a new linear piece: the run ends after at
    most as many steps as f has pieces.  It stops on the sign of f, or when
    a step keeps the slope, since f is then linear back to the previous
    iterate and the tangent's root is its root; rounding can leave f a few
    ulps above 0 there.
    """
    radius = 0.0
    value, _, slope = minimize_over_band(d, center, radius)
    while value > 0.0:
        step = min(1.0, radius - value / slope)
        if step <= radius:
            break
        radius = step
        value, _, next_slope = minimize_over_band(d, center, radius)
        if next_slope == slope:
            break
        slope = next_slope
    return radius


def robustness_radius(
    problem: DecisionProblem, a: str, prior: Prior, *, bayes: BayesSet | None = None
) -> Radius:
    """Largest band radius keeping ``a`` optimal everywhere in the band.

    Optimal follows `bayes_acts`' tie rule: ``a`` may trail a competitor b by
    the tie tolerance tau, and every prior's masses sum to 1, so against b
    it stays optimal where <pi, d> >= 0 for the gap d = u_a - u_b + tau.
    The radius is the smallest of the competitors' safe radii, capped at 1.
    A competitor with d >= 0 in every state never binds.  Over the band of
    radius eps, <pi - pi0, d> >= -eps * spread(d), where spread(d) is the
    sum of the largest floor(m / 2) entries of d minus the sum of the
    smallest floor(m / 2), so <pi0, d> / spread(d) is a lower bound on the
    competitor's safe radius.  Competitors are visited in ascending order of
    that bound, and the visit stops once it exceeds the smallest radius
    found so far, so the radius is the smallest root over every competitor
    that can bind.  ``bayes`` is the Bayes set that decides whether ``a`` is
    optimal at ``prior``; it defaults to the problem's own.
    """
    if a not in (bayes_acts(problem, prior) if bayes is None else bayes):
        return Radius(None)
    unit = problem._unit[0]
    diffs = unit.utilities[problem.act_index(a)] - unit.utilities + unit.tie_tol
    diffs = diffs[(diffs < 0.0).any(axis=1)]  # a's own row is tau >= 0
    h = problem.num_states // 2
    bounds = []
    for lead, d in zip((diffs @ prior.mass).tolist(), diffs.tolist()):
        d.sort()
        spread = sum(d[len(d) - h:]) - sum(d[:h])
        bounds.append(lead / spread if spread > 0.0 else -np.inf)
    radius = 1.0
    for i in sorted(range(len(bounds)), key=bounds.__getitem__):
        # Newton's roots and the bounds are each a few ulps off, so a bound
        # must clear the radius by a margin before it proves anything.
        if bounds[i] > radius * (1.0 + 1e-9):
            break
        radius = min(radius, _largest_safe_radius(diffs[i], prior.mass))
    return Radius(radius)


def _best_mixtures(gains: np.ndarray) -> np.ndarray:
    """Per (competitors, states) block of gains of unit max-norm, the weights of
    the mixture of its rows whose smallest entry is largest, for all blocks
    in one stack; that entry is the value of the matrix game.

    Each program is posed in game form: max t subject to t <= (G.T w)_j for
    every state j, sum(w) = 1 and w >= 0, with t = t+ - t- free.
    Variables: t+, t-, the weights w (k) and one slack per state (m).  It
    starts at the best single competitor b*, whose smallest gain is t: w_b*
    is basic in the budget row, t+ (t- where t < 0) in the row of b*'s worst
    state, and each other state's slack in its own row.
    """
    p, k, m = gains.shape
    A = np.zeros((p, m + 1, k + m + 2))
    A[:, :m, 0], A[:, :m, 1] = 1.0, -1.0
    A[:, :m, 2:k + 2] = -gains.transpose(0, 2, 1)
    A[:, m, 2:k + 2] = 1.0
    A[:, :m, k + 2:] = np.eye(m)
    b = np.zeros(m + 1)
    b[m] = 1.0
    at = np.arange(p)
    top = gains.min(axis=2).argmax(axis=1)
    start = np.empty((p, m + 1), dtype=int)
    start[:, :m], start[:, m] = np.arange(k + 2, k + m + 2), 2 + top
    start[at, gains[at, top].argmin(axis=1)] = gains[at, top].min(axis=1) < 0.0
    T, bases = start_tableaux(A, b, start)
    costs = np.zeros((p, k + m + 2))
    costs[:, 0], costs[:, 1] = -1.0, 1.0  # maximize t
    solve_stack(T, bases, costs)
    return np.maximum(_off_bases(A, b, at, costs, bases)[1][:, 2:k + 2], 0.0)


def _dominating_mixtures(problem: DecisionProblem, acts):
    """Per act of ``acts``: its competitors' gains u(b, .) - u(act, .) at the
    problem's unit scale, and their best mixture (`_best_mixtures`), found on
    the scale of the act's largest gain so that pivots are well sized."""
    gains = -_dominance_rows(problem._unit[0].utilities, [problem.act_index(a) for a in acts])
    scale = np.abs(gains).max(axis=(1, 2), keepdims=True)
    return gains, _best_mixtures(gains / np.where(scale > 0.0, scale, 1.0))


def _certificate(problem: DecisionProblem, act: str, gains, weights):
    """The mixture ``weights`` of ``act``'s competitors, whose gains over it
    at the problem's unit scale are ``gains`` (`_dominating_mixtures`), as
    its certificate, where the mixture's smallest gain exceeds the tie
    tolerance tau at that scale; its margins are in utility units.

    An act is Bayes at a prior by `bayes_acts`' rule when no competitor's
    expected gain exceeds tau there, and by the minimax theorem some prior
    does that exactly when no mixture gains more than tau in every state
    (von Neumann; Berger 1985, ch. 5).  So ``None`` means the act is Bayes
    somewhere, and its need programs, loosened by tau, are bounded.
    """
    unit, e = problem._unit
    margins = weights @ gains
    if margins.min() <= unit.tie_tol:
        return None
    others = [b for b in problem.acts if b != act]
    return DominanceCertificate(
        weights={b: float(w) for b, w in zip(others, weights)}, margins=np.ldexp(margins, e)
    )


def _bayes_at_probes(problem: DecisionProblem) -> list[str]:
    """Acts Bayes, by `bayes_acts`' tie rule, at a vertex of the simplex or
    at the midpoint of one of its edges.

    Vertex j and the midpoints of its edges to the later vertices are priced
    in one sum of half-utility columns (the vertex as the midpoint of j with
    itself), so memory stays linear in the table's size.
    """
    half = 0.5 * problem.utilities
    tol = problem.tie_tol
    found = np.zeros(problem.num_acts, dtype=bool)
    for j in range(problem.num_states):
        values = half[:, j:] + half[:, j, None]
        found |= (values >= values.max(axis=0) - tol).any(axis=1)
    return [act for act, hit in zip(problem.acts, found.tolist()) if hit]


def _need_block(problem: DecisionProblem, acts) -> tuple[np.ndarray, ...]:
    """The constraints of the need programs of ``acts``, as one (acts,
    m + 1, n) block, their shared right-hand side, their dominance rows'
    norms, and their starting bases.

    An act's need program is posed in dual form.  The primal is min eps over
    pi in the simplex with |pi - pi0| <= eps and diffs @ pi >= -tol / norms,
    where diffs holds the act's dominance rows scaled to unit max-norm and
    tol is the tie tolerance, so that pi makes the act Bayes by `bayes_acts`'
    rule.  Its dual is max y - pi0.u + pi0.l - (tol / norms).w subject to
    y - u_j + l_j + (diffs.T w)_j <= 0 per state and sum(u) + sum(l) <= 1,
    with u, l, w >= 0 and y = y+ - y- free.  Variables: y+, y- (2), u (m),
    l (m), w (k) and one slack per row (m + 1).  The right-hand side is
    (0, ..., 0, 1), and the reference prior pi0 and the tolerance enter only
    the objective (`_need_costs`, `_solve_needs`).  Every program starts at
    u_j basic in state row j and y+ in the budget row, the same columns for
    every act, where every basic value is 1 / m.
    """
    k, m = problem.num_acts - 1, problem.num_states
    diffs = _dominance_rows(problem.utilities, [problem.act_index(act) for act in acts])
    # Each dominance row is a halfspace through the origin, so scaling it to
    # unit max-norm leaves the program unchanged and keeps pivots well sized.
    norms = np.abs(diffs).max(axis=2)
    norms = np.where(norms > 0.0, norms, 1.0)
    w = 2 + 2 * m  # first column of w; the slacks follow it
    A = np.zeros((len(acts), m + 1, w + k + m + 1))
    A[:, :m, 0], A[:, :m, 1] = 1.0, -1.0
    A[:, :m, 2:2 + m] = -np.eye(m)
    A[:, :m, 2 + m:w] = np.eye(m)
    A[:, :m, w:w + k] = (diffs / norms[:, :, None]).transpose(0, 2, 1)
    A[:, m, 2:w] = 1.0
    A[:, :, w + k:] = np.eye(m + 1)
    b = np.zeros(m + 1)
    b[m] = 1.0
    return A, b, norms, np.tile(np.append(np.arange(2, 2 + m), 0), (len(acts), 1))


def _need_costs(priors, m: int, n: int) -> np.ndarray:
    """The cost rows of the need programs, of n columns, at each of
    ``priors``: the dual objective y - pi0.u + pi0.l, negated to be
    minimized, before the loosening of w."""
    masses = np.array([prior.mass for prior in priors])
    costs = np.zeros((len(priors), n))
    costs[:, 0], costs[:, 1] = -1.0, 1.0
    costs[:, 2:2 + m] = masses
    costs[:, 2 + m:2 + 2 * m] = -masses
    return costs


def _off_bases(A: np.ndarray, b: np.ndarray, at: np.ndarray, costs, bases):
    """The optimal values and points at bases ``bases``: member i is
    program ``at[i]`` of the block ``A`` under cost row ``costs[i]``, read
    off in one stacked solve."""
    # A tableau carries the rounding of every pivot since its program's
    # start, which depends on the priors solved before.  Reading the optimum
    # off the final basis alone, solved afresh from the original constraints,
    # makes it independent of that path.  The stacked solve runs the same
    # LAPACK routine on each basis as a 2D solve, and the stacked product of
    # a row and a column the same dot product, so each member takes the bits
    # of a member read off alone.
    bases = np.sort(bases, axis=1)
    matrices = A[at[:, None, None], np.arange(b.size)[:, None], bases[:, None, :]]
    try:
        x = np.linalg.solve(matrices, np.tile(b, (len(at), 1))[:, :, None])
    except np.linalg.LinAlgError as exc:
        # slogdet runs the same LU factorization, and its sign is 0 where
        # that meets an exact zero pivot: the member at fault.
        singular = int((np.linalg.slogdet(matrices)[0] == 0.0).argmax())
        raise SolverError("final basis is singular", singular) from exc
    rows = np.arange(len(at))[:, None]
    point = np.zeros_like(costs)
    point[rows, bases] = x[:, :, 0]
    return np.matmul(costs[rows, bases][:, None, :], x)[:, 0, 0], point


def _solve_needs(problem: DecisionProblem, pending, priors, tol: float) -> dict:
    """The needs of the (act, prior index) pairs ``pending``, keyed by pair,
    on a table at unit scale; ``tol`` is the Bayes sets' tie tolerance at
    that scale, every pending act must be Bayes somewhere (`_certificate`)
    and none at its prior.

    The need programs of the pending acts are built as one block of
    constraints (`_need_block`), loosened by ``tol`` in each member's cost
    row, and solved in stacked simplex runs (`solve_stack`), each member
    taking the pivots and bits of its own solo run.  The cold stack holds
    each act's program at its first pending prior, started at `_need_block`'s
    basis.  The reference prior enters a program only through its cost row,
    so the restart stacks hold the program at every later pending prior,
    each a copy of its act's final tableau and basis in the cold stack under
    the new prior's cost row.  Restarts are cut into stacks of
    ``_RESTART_CHUNK`` members, so memory stays bounded however many priors
    there are.  The needs of a stack are read off their members' final bases
    (`_off_bases`).  An act Bayes somewhere has a feasible loosened
    primal, so an unbounded member is a solver fault; failures are raised
    with the act and prior at fault attached.
    """
    if not pending:
        return {}
    cold, later = {}, []  # per act, its first pending pair; every later pair
    for act, j in pending:
        if act in cold:
            later.append((act, j))
        else:
            cold[act] = (act, j)
    position = {act: i for i, act in enumerate(cold)}  # in the block
    A, b, norms, start = _need_block(problem, list(cold))
    costs = _need_costs(priors, problem.num_states, A.shape[2])
    w = 2 + 2 * problem.num_states  # first column of w
    needs = {}

    def run(members, T, bases):
        at = np.array([position[act] for act, _ in members])
        member_costs = costs[[j for _, j in members]]
        member_costs[:, w:w + norms.shape[1]] = tol / norms[at]
        try:
            solve_stack(T, bases, member_costs)
            values = _off_bases(A, b, at, member_costs, bases)[0]
        except SolverError as exc:
            act, j = members[exc.member]
            raise SolverError(f"act {act!r}, prior {priors[j].name!r}: {exc}") from exc
        # The optimum is a distance between simplex points, so it lies in
        # [0, 1]; rounding can land it an ulp outside.  0.0 comes first, so a
        # need of -0.0 reads as 0.0.
        needs.update(zip(members, (Need(min(max(0.0, -v), 1.0)) for v in values.tolist())))

    T, bases = start_tableaux(A, b, start)
    run(list(cold.values()), T, bases)
    for lo in range(0, len(later), _RESTART_CHUNK):
        members = later[lo:lo + _RESTART_CHUNK]
        at = [position[act] for act, _ in members]
        run(members, T[at], bases[at])
    return needs


def contamination_need(problem: DecisionProblem, a: str, prior: Prior) -> Need:
    """Smallest band radius at which some prior in the band makes ``a`` optimal.

    Acts optimal at the reference prior need no contamination.  Otherwise
    the best mixture of the competitors decides whether any prior makes
    ``a`` Bayes by `bayes_acts`' tie rule (`_certificate`).  Where none
    does, the need is infinite, certified by that mixture; elsewhere it is
    the optimum of a single program, solved in dual form (`_need_block`).
    """
    if a in bayes_acts(problem, prior):
        return Need(0.0)
    (gains,), (weights,) = _dominating_mixtures(problem, [a])
    certificate = _certificate(problem, a, gains, weights)
    if certificate is not None:
        return Need(None, certificate)
    unit = problem._unit[0]
    return _solve_needs(unit, [(a, 0)], [prior], unit.tie_tol)[a, 0]


@dataclass(frozen=True)
class StabilityRow:
    prior: str
    act: str
    is_bayes: bool
    expected_utility: float
    radius: Radius
    need: Need


@dataclass(frozen=True)
class StabilityProfile:
    """Radius and need for every (act, prior) pair, in input order."""

    priors: tuple[str, ...]
    rows: tuple[StabilityRow, ...]

    def for_prior(self, prior: str) -> tuple[StabilityRow, ...]:
        if prior not in self.priors:
            raise KeyError(f"unknown prior {prior!r}")
        return tuple(r for r in self.rows if r.prior == prior)


def stability_profile(problem: DecisionProblem, priors) -> StabilityProfile:
    """Compute radius and need for every (act, prior) pair.

    Strict inadmissibility does not depend on the prior, so it is decided
    once per act.  An act that is Bayes somewhere is not strictly dominated
    (Pearce, Econometrica 1984, Lemma 3), so before any program is solved,
    admissibility is witnessed by the profile priors and by fixed probe
    priors: the vertices of the simplex and the midpoints of its edges, all
    judged by `bayes_acts`' tie rule.  Only the acts Bayes at none of them get
    a certificate program, whose best mixture decides (`_certificate`).
    Every row of a dominated act reuses its certificate.
    The other acts' needs are measured against the undominated acts only: at
    every prior some undominated act attains the maximum expected utility, so
    dropping the dominated ones changes no need.  Each row's radius and need
    are judged by the full table's Bayes set and tie tolerance, the ones that
    set ``is_bayes``: the smaller table has a smaller utility range and so a
    tighter tolerance, which is why radii are taken on the full table.  The
    needs of all (act, prior) pairs are solved together (`_solve_needs`).
    Failures past the input checks are internal: they are re-raised as
    `SolverError` with the offending act, and prior where there is one,
    attached.
    """
    priors = list(priors)
    names = [p.name for p in priors]
    if len(set(names)) != len(names):
        raise ValueError("prior names must be unique within a profile")
    bsets = [bayes_acts(problem, prior) for prior in priors]
    optimal_somewhere = {act for bset in bsets for act in bset.optimal_acts}
    optimal_somewhere.update(_bayes_at_probes(problem))
    certificates = dict.fromkeys(problem.acts)
    unwitnessed = [act for act in problem.acts if act not in optimal_somewhere]
    if unwitnessed:
        try:
            mixtures = _dominating_mixtures(problem, unwitnessed)
        except SolverError as exc:
            raise SolverError(f"act {unwitnessed[exc.member]!r}: {exc}") from exc
        for act, gains, weights in zip(unwitnessed, *mixtures):
            try:
                certificates[act] = _certificate(problem, act, gains, weights)
            except ValueError as exc:
                raise SolverError(f"act {act!r}: {exc}") from exc
    kept = [i for i, act in enumerate(problem.acts) if certificates[act] is None]
    unit = problem._unit[0]
    undominated = DecisionProblem(
        [problem.acts[i] for i in kept], problem.states, unit.utilities[kept]
    )
    pending = [(act, j) for j, bset in enumerate(bsets) for act in undominated.acts
               if act not in bset]
    needs = _solve_needs(undominated, pending, priors, unit.tie_tol)
    rows = []
    for j, (prior, bset) in enumerate(zip(priors, bsets)):
        for act in problem.acts:
            try:
                if certificates[act] is None:
                    radius = robustness_radius(problem, act, prior, bayes=bset)
                    need = Need(0.0) if act in bset else needs[act, j]
                else:
                    radius = Radius(None)
                    need = Need(None, certificates[act])
            except (SolverError, ValueError) as exc:
                raise SolverError(f"act {act!r}, prior {prior.name!r}: {exc}") from exc
            rows.append(
                StabilityRow(
                    prior=prior.name,
                    act=act,
                    is_bayes=act in bset,
                    expected_utility=bset.expected_utilities[act],
                    radius=radius,
                    need=need,
                )
            )
    return StabilityProfile(priors=tuple(names), rows=tuple(rows))
