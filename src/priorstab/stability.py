"""Stability of Bayes-optimal acts under band perturbations of the prior.

For an act that is optimal at the reference prior, the *robustness radius* is
the largest band radius within which it stays optimal for every prior in the
band; for any act, the *contamination need* is the smallest radius at which
some prior in the band makes it optimal.  The radius is exact, by Newton on
each competitor's convex band minimum; the need comes from a single linear
program.  When no prior anywhere makes an act optimal, a mixture of the
competing acts strictly dominates it, and that mixture is returned as a
checkable certificate.  A profile over several priors decides this once per
act and builds the need programs of all its acts as one block.  A program's
reference prior enters only its objective, so a profile solves a cold stack
of each act's first program (`solve_lps`) and a restart stack of every later
one, restarted from the act's first optimal tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import TIE_TOL, BayesSet, DecisionProblem, Prior, bayes_acts
from .lp import (
    LinearProgram,
    LpStatus,
    SolverError,
    minimize_over_band,
    solve_lp,
    solve_lps,
)

__all__ = [
    "STRICT_DOMINANCE_TOL",
    "DominanceCertificate",
    "Need",
    "NeedKind",
    "NeedProgram",
    "Radius",
    "RadiusKind",
    "StabilityProfile",
    "StabilityRow",
    "contamination_need",
    "robustness_radius",
    "stability_profile",
    "strict_inadmissibility_certificate",
]

# Mixture advantage below this share of the largest utility difference is
# not "strict".
STRICT_DOMINANCE_TOL = 1e-9
# Members per restart stack of a profile's need programs.  Each member holds
# a tableau of (states + 2) x (3 states + acts + 3) floats.
_RESTART_CHUNK = 64


class RadiusKind(Enum):
    VALUE = "value"
    NOT_BAYES = "not_bayes"


@dataclass(frozen=True)
class Radius:
    """Robustness radius; ``NOT_BAYES`` stands in for the -infinity case."""

    kind: RadiusKind
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind is RadiusKind.VALUE:
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"radius value must lie in [0, 1], got {self.epsilon!r}")
        elif self.epsilon is not None:
            raise ValueError("a NOT_BAYES radius carries no epsilon")

    @classmethod
    def value(cls, epsilon: float) -> "Radius":
        return cls(RadiusKind.VALUE, float(epsilon))

    @classmethod
    def not_bayes(cls) -> "Radius":
        return cls(RadiusKind.NOT_BAYES)

    def as_float(self) -> float:
        return self.epsilon if self.kind is RadiusKind.VALUE else -np.inf


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
            raise ValueError(f"certificate weights sum to {w.sum()!r}, not 1")
        margins = np.asarray(self.margins, dtype=float)
        # Relative to the largest margin, which is at most the table's largest
        # utility difference, so every certificate the program accepts passes.
        if margins.min() <= STRICT_DOMINANCE_TOL * np.abs(margins).max():
            raise ValueError("certificate margins must exceed the strictness threshold")
        object.__setattr__(self, "margins", margins)


class NeedKind(Enum):
    VALUE = "value"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Need:
    """Contamination need; ``INFEASIBLE`` stands in for the +infinity case."""

    kind: NeedKind
    epsilon: float | None = None
    certificate: DominanceCertificate | None = None

    def __post_init__(self):
        if self.kind is NeedKind.VALUE:
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"need value must lie in [0, 1], got {self.epsilon!r}")
            if self.certificate is not None:
                raise ValueError("a finite need carries no certificate")
        else:
            if self.certificate is None:
                raise ValueError("an infeasible need requires a dominance certificate")
            if self.epsilon is not None:
                raise ValueError("an infeasible need carries no epsilon")

    @classmethod
    def value(cls, epsilon: float) -> "Need":
        return cls(NeedKind.VALUE, float(epsilon))

    @classmethod
    def infeasible(cls, certificate: DominanceCertificate) -> "Need":
        return cls(NeedKind.INFEASIBLE, certificate=certificate)

    def as_float(self) -> float:
        return self.epsilon if self.kind is NeedKind.VALUE else np.inf


def _difference_rows(problem: DecisionProblem, act: str) -> tuple[list[str], np.ndarray]:
    """Rows u(act, .) - u(b, .) for every competitor b, in act order."""
    i = problem.act_index(act)
    others = [b for b in problem.acts if b != act]
    diffs = problem.utilities[i] - np.delete(problem.utilities, i, axis=0)
    return others, diffs


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

    The radius is the smallest of the competitors' safe radii, capped at 1.
    A competitor that ``a`` beats in every state never binds, and one whose
    band minimum is still nonnegative at the smallest radius found so far
    cannot lower it, so it costs a single evaluation.  ``bayes`` is the
    Bayes set that decides whether ``a`` is optimal at ``prior``; it defaults
    to the problem's own.
    """
    if a not in (bayes_acts(problem, prior) if bayes is None else bayes):
        return Radius.not_bayes()
    _, diffs = _difference_rows(problem, a)
    radius = 1.0
    for d in diffs:
        if d.min() >= 0.0:
            continue
        if radius < 1.0 and minimize_over_band(d, prior.mass, radius)[0] >= 0.0:
            continue
        radius = min(radius, _largest_safe_radius(d, prior.mass))
    return Radius.value(radius)


def _best_mixture(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Mixture weights of the rows maximizing their smallest entry, and that
    entry: the dominance program on gains of unit scale."""
    k, m = rows.shape
    # Variables: mixture weights (k), shifted advantage t - t_lo (1), and
    # per-state slack (m).  The optimal t is at least min(rows) > t_lo, so
    # the shift never binds; the weights need no cap, as they sum to 1.
    t_lo = float(rows.min()) - 1.0
    objective = np.zeros(k + 1 + m)
    objective[k] = -1.0  # maximize t
    A = np.zeros((1 + m, k + 1 + m))
    A[0, :k] = 1.0
    A[1:, :k] = rows.T
    A[1:, k] = -1.0
    A[1 + np.arange(m), k + 1 + np.arange(m)] = -1.0
    b = np.full(1 + m, t_lo)
    b[0] = 1.0
    # Start at the first competitor alone: its weight is basic in the
    # simplex row, t - t_lo in the row of its smallest entry (where t
    # binds), and each other state's slack in its own row.
    basis = np.concatenate([[0], k + 1 + np.arange(m)])
    basis[1 + np.argmin(rows[0])] = k

    out = solve_lp(LinearProgram(objective, A, b, basis))
    if out.status is not LpStatus.OPTIMAL:
        raise SolverError(f"dominance program ended with status {out.status.value}")
    return out.point[:k], t_lo + out.point[k]


def strict_inadmissibility_certificate(
    problem: DecisionProblem, a: str
) -> DominanceCertificate | None:
    """Best strictly dominating mixture of the competitors, if one exists.

    Maximizes the smallest per-state advantage t of a convex combination of
    the other acts over ``a``; the combination certifies strict
    inadmissibility exactly when the optimum exceeds the strictness
    threshold, relative to the largest utility difference.  Returns ``None``
    otherwise (including the weak-domination boundary, e.g. a duplicated
    act).  The certificate's margins are in the original utility units.
    """
    if problem.num_acts < 2:
        raise ValueError("a certificate needs at least one competing act")
    others, diffs = _difference_rows(problem, a)
    gains = -diffs  # per competitor: u(b, .) - u(a, .)
    # The program runs on unit-scale gains, so its threshold is scale-free.
    scale = float(np.abs(gains).max())
    beta, t_star = _best_mixture(gains / scale if scale > 0.0 else gains)
    if t_star <= STRICT_DOMINANCE_TOL:
        return None
    return DominanceCertificate(
        weights={b_act: float(w) for b_act, w in zip(others, beta)},
        margins=beta @ gains,
    )


def _certificate_on_row_scales(problem: DecisionProblem, a: str) -> DominanceCertificate | None:
    """The dominance program on the need program's scaling: each competitor's
    gains at unit max-norm, so strictness is judged per competitor and not
    against the table's largest gain.  The weights are mapped back through
    the row norms and renormalised, so the margins stay in utility units."""
    others, diffs = _difference_rows(problem, a)
    gains = -diffs
    norms = np.abs(gains).max(axis=1)
    norms = np.where(norms > 0.0, norms, 1.0)
    beta, t_star = _best_mixture(gains / norms[:, None])
    if t_star <= STRICT_DOMINANCE_TOL:
        return None
    weights = beta / norms
    weights /= weights.sum()
    return DominanceCertificate(
        weights={b_act: float(w) for b_act, w in zip(others, weights)},
        margins=weights @ gains,
    )


def _bayes_at_probes(problem: DecisionProblem) -> list[str]:
    """Acts Bayes, by `bayes_acts`' tie rule, at a vertex of the simplex or
    at the midpoint of one of its edges.

    Vertex j and the midpoints of its edges to the later vertices are priced
    in one sum of half-utility columns (the vertex as the midpoint of j with
    itself), so memory stays linear in the table's size.
    """
    u = problem.utilities
    half = 0.5 * u
    tol = TIE_TOL * (u.max() - u.min())
    found = np.zeros(problem.num_acts, dtype=bool)
    for j in range(problem.num_states):
        values = half[:, j:] + half[:, j, None]
        found |= (values >= values.max(axis=0) - tol).any(axis=1)
    return [act for act, hit in zip(problem.acts, found.tolist()) if hit]


class NeedProgram:
    """The constraints of one act's need program, kept across priors.

    The primal is min eps over pi in the simplex with |pi - pi0| <= eps and
    diffs @ pi >= 0, where diffs holds the act's dominance rows scaled to
    unit max-norm.  Its dual is max y - pi0.u + pi0.l subject to
    y - u_j + l_j + (diffs.T w)_j <= 0 per state and sum(u) + sum(l) <= 1,
    with u, l, w >= 0 and y = y+ - y- free.  Variables: y+, y- (2), u (m),
    l (m), w (k) and one slack per row (m + 1).  The right-hand side is
    (0, ..., 0, 1), so the slack basis is feasible, and the reference prior
    pi0 enters only the objective.  ``last`` holds the latest optimal
    outcome of `contamination_need`, from which its next solve restarts, so
    a program is mutable state: it is not to be shared between threads.
    """

    def __init__(self, problem: DecisionProblem, act: str):
        (self._program,), (self._norms,) = _need_block(problem, [act])
        self.problem, self.act, self.last = problem, act, None

    def at(self, prior: Prior, tol: float = 0.0) -> LinearProgram:
        """The program with ``prior`` as the reference.

        With ``tol`` > 0 each dominance row may fall short of 0 by ``tol``
        utility units, so the act need only come within ``tol`` of every
        competitor, as `bayes_acts`' tie rule asks: the primal rows become
        diffs @ pi >= -tol / norm, which costs tol / norm per unit of w.
        """
        m = self.problem.num_states
        if prior.dimension != m:
            raise ValueError(f"prior {prior.name!r} has {prior.dimension} states, problem has {m}")
        objective = _need_objective(self._program.num_variables, prior)
        if tol > 0.0:
            w = 2 + 2 * m
            objective[w:w + self._norms.size] = tol / self._norms
        return self._program.with_objective(objective)


def _need_block(problem: DecisionProblem, acts) -> tuple[list[LinearProgram], np.ndarray]:
    """The need programs of ``acts`` (see `NeedProgram`), under a zero
    objective, and their dominance rows' norms, built as one (acts, m + 1, n)
    block of constraints and validated once."""
    u = problem.utilities
    rows = np.array([problem.act_index(act) for act in acts], dtype=int)
    k, m = problem.num_acts - 1, problem.num_states
    # Per act, the dominance rows u(act, .) - u(b, .) for every competitor b,
    # in act order, as `_difference_rows` gives them.
    position = np.arange(k)
    diffs = u[rows][:, None, :] - u[position + (position >= rows[:, None])]
    # Each dominance row is a halfspace through the origin, so scaling it to
    # unit max-norm leaves the program unchanged and keeps pivots well sized.
    norms = np.abs(diffs).max(axis=2)
    norms = np.where(norms > 0.0, norms, 1.0)
    w = 2 + 2 * m  # first column of w; the slacks follow it
    A = np.zeros((rows.size, m + 1, w + k + m + 1))
    A[:, :m, 0], A[:, :m, 1] = 1.0, -1.0
    A[:, :m, 2:2 + m] = -np.eye(m)
    A[:, :m, 2 + m:w] = np.eye(m)
    A[:, :m, w:w + k] = (diffs / norms[:, :, None]).transpose(0, 2, 1)
    A[:, m, 2:w] = 1.0
    A[:, :, w + k:] = np.eye(m + 1)
    b = np.zeros(m + 1)
    b[m] = 1.0
    return LinearProgram.block(A, b, w + k + np.arange(m + 1)), norms


def _need_objective(size: int, prior: Prior) -> np.ndarray:
    """The need program's objective at ``prior``: its dual objective
    y - pi0.u + pi0.l, negated to be minimized."""
    m = prior.dimension
    objective = np.zeros(size)
    objective[0], objective[1] = -1.0, 1.0
    objective[2:2 + m] = prior.mass
    np.negative(prior.mass, out=objective[2 + m:2 + 2 * m])
    return objective


def _needs_off_bases(outs) -> list[Need]:
    """The needs at optimal outcomes of need programs, read off their final
    bases in one stacked solve."""
    # A tableau carries the rounding of every pivot since its program's cold
    # start, which depends on the priors solved before.  Reading the optimum
    # off the final basis alone, solved afresh from the original constraints,
    # makes the need independent of that path.  The stacked solve runs the
    # same LAPACK routine on each basis as a 2D solve, and the stacked product
    # of a row and a column the same dot product, so each need takes the bits
    # of a member read off alone.
    if not outs:
        return []
    bases = np.sort([out.basis for out in outs], axis=1)
    x = np.linalg.solve(
        np.array([out.program.eq_matrix[:, basis] for out, basis in zip(outs, bases)]),
        np.array([out.program.eq_rhs for out in outs])[:, :, None],
    )
    costs = np.array([out.program.objective[basis] for out, basis in zip(outs, bases)])
    values = np.matmul(costs[:, None, :], x)[:, 0, 0]
    # The optimum is a distance between simplex points, so it lies in
    # [0, 1]; rounding can land it an ulp outside.
    return [Need.value(min(max(-value, 0.0), 1.0)) for value in values.tolist()]


def _unbounded_need(program: NeedProgram, prior: Prior, tol: float) -> Need:
    """The need of ``program``'s act at ``prior`` where its program there is
    unbounded; ``tol`` is the tie tolerance of the Bayes sets.

    No prior makes the act exactly optimal, but it may be Bayes somewhere by
    the tie rule; the program loosened by ``tol`` decides that, and its
    optimum is then the need.  Only an act Bayes nowhere gets a strictly
    dominating mixture as its certificate, so no profile row calls an act
    inadmissible that another row finds Bayes.
    """
    loose = solve_lp(program.at(prior, tol))
    if loose.status is LpStatus.OPTIMAL:
        return _needs_off_bases([loose])[0]
    problem, a = program.problem, program.act
    # The need program scales each dominance row to unit max-norm, so it can
    # see a strict dominance that is small next to the table's largest gain;
    # the certificate program is then solved once more on that scaling.
    certificate = strict_inadmissibility_certificate(problem, a)
    if certificate is None:
        certificate = _certificate_on_row_scales(problem, a)
    if certificate is None:
        raise SolverError(
            f"contamination program for act {a!r} is infeasible "
            "but no dominance certificate exists"
        )
    return Need.infeasible(certificate)


def contamination_need(
    problem: DecisionProblem,
    a: str,
    prior: Prior,
    *,
    bayes: BayesSet | None = None,
    program: NeedProgram | None = None,
) -> Need:
    """Smallest band radius at which some prior in the band makes ``a`` optimal.

    Acts optimal at the reference prior need no contamination; ``bayes``
    decides which those are, as in `robustness_radius`.  Otherwise the need
    is the optimum of a single program, solved in dual form (`NeedProgram`);
    an unbounded dual means no prior makes ``a`` exactly optimal.  The
    program loosened by the problem's tie tolerance then decides whether a
    prior makes it Bayes by `bayes_acts`' rule, and only where none does is
    the need infinite, certified by a strictly dominating mixture.
    ``program`` is the act's program, built from this problem, to be reused
    across priors: the solve restarts from its last optimal outcome and
    leaves its own optimum there.  Without it the program is built and solved
    cold.  Either way the need is read off the
    final basis alone, so it does not depend on the priors solved before.
    """
    if a in (bayes_acts(problem, prior) if bayes is None else bayes):
        return Need.value(0.0)
    if program is None:
        program = NeedProgram(problem, a)
    elif program.problem is not problem or program.act != a:
        raise ValueError(f"the need program passed was not built for act {a!r} of this problem")
    out = solve_lp(program.at(prior), start=program.last)
    if out.status is not LpStatus.OPTIMAL:
        u = problem.utilities
        return _unbounded_need(program, prior, TIE_TOL * (u.max() - u.min()))
    program.last = out
    return _needs_off_bases([out])[0]


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

    acts: tuple[str, ...]
    priors: tuple[str, ...]
    rows: tuple[StabilityRow, ...]

    def row(self, prior: str, act: str) -> StabilityRow:
        for r in self.rows:
            if r.prior == prior and r.act == act:
                return r
        raise KeyError(f"no row for act {act!r} under prior {prior!r}")

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
    a certificate program.  Every row of a dominated act reuses its certificate.
    The other acts are measured against the undominated acts only: at every
    prior some undominated act attains the maximum expected utility, so
    dropping the dominated ones changes no radius and no need.  Each row's
    radius and need are judged by the full table's Bayes set, the same one
    that sets ``is_bayes``: the smaller table has a smaller utility range and
    so a tighter tie tolerance.

    The need programs of the undominated acts are built as one block
    (`_need_block`) and solved in stacked simplex runs (`solve_lps`), each
    member taking the pivots and bits of its own solo run.  The cold stack
    holds each act's program at the first prior where the act is not Bayes.
    The reference prior enters a program only through its objective, so the
    restart stack holds the program at every later such prior, restarted from
    the act's first optimal tableau with the new prior's cost row; it is cut
    into stacks of ``_RESTART_CHUNK`` members, so memory stays bounded however
    many priors there are.  The needs of a stack are read off their members'
    final bases in one stacked solve, as `contamination_need` reads one, and
    an unbounded program is resolved as there, with the full table's tie
    tolerance.  Failures are re-raised with the offending act, and prior
    where there is one, attached.
    """
    priors = list(priors)
    names = [p.name for p in priors]
    if len(set(names)) != len(names):
        raise ValueError("prior names must be unique within a profile")
    bsets = [bayes_acts(problem, prior) for prior in priors]
    u = problem.utilities
    tol = TIE_TOL * (u.max() - u.min())  # the Bayes sets' tie tolerance
    optimal_somewhere = {act for bset in bsets for act in bset.optimal_acts}
    optimal_somewhere.update(_bayes_at_probes(problem))
    certificates = {}
    for act in problem.acts:
        if act in optimal_somewhere:
            certificates[act] = None
            continue
        try:
            certificates[act] = strict_inadmissibility_certificate(problem, act)
        except (SolverError, ValueError) as exc:
            raise type(exc)(f"act {act!r}: {exc}") from exc
    kept = [i for i, act in enumerate(problem.acts) if certificates[act] is None]
    undominated = DecisionProblem(
        [problem.acts[i] for i in kept], problem.states, problem.utilities[kept]
    )
    pending = [(act, j) for j, bset in enumerate(bsets) for act in undominated.acts
               if act not in bset]
    first = {}  # act -> its first prior with a need
    for act, j in pending:
        first.setdefault(act, j)
    later = [(act, j) for act, j in pending if j != first[act]]
    lps = dict(zip(first, _need_block(undominated, list(first))[0]))
    # One objective per prior, sized like every need program (none if none)
    objectives = [_need_objective(lp.num_variables, prior)
                  for lp in list(lps.values())[:1] for prior in priors]
    last, needs = {}, {}  # per act, its first optimum; per (act, prior), its need
    for members in [list(first.items())] + [
        later[lo:lo + _RESTART_CHUNK] for lo in range(0, len(later), _RESTART_CHUNK)
    ]:
        try:
            outs = solve_lps([lps[act].with_objective(objectives[j]) for act, j in members],
                             starts=[last.get(act) for act, _ in members])
        except SolverError as exc:
            act, j = members[exc.member]
            raise SolverError(f"act {act!r}, prior {priors[j].name!r}: {exc}") from exc
        optimal = [(member, out) for member, out in zip(members, outs)
                   if out.status is LpStatus.OPTIMAL]
        needs.update(zip([member for member, _ in optimal],
                         _needs_off_bases([out for _, out in optimal])))
        for (act, _), out in optimal:
            last.setdefault(act, out)
    rows = []
    for j, (prior, bset) in enumerate(zip(priors, bsets)):
        for act in problem.acts:
            try:
                if certificates[act] is None:
                    radius = robustness_radius(undominated, act, prior, bayes=bset)
                    need = Need.value(0.0) if act in bset else needs.get((act, j))
                    if need is None:  # its program is unbounded
                        need = _unbounded_need(NeedProgram(undominated, act), prior, tol)
                else:
                    radius = Radius.not_bayes()
                    need = Need.infeasible(certificates[act])
            except (SolverError, ValueError) as exc:
                raise type(exc)(
                    f"act {act!r}, prior {prior.name!r}: {exc}"
                ) from exc
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
    return StabilityProfile(
        acts=problem.acts, priors=tuple(names), rows=tuple(rows)
    )
