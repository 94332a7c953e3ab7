"""Finite decision problems, priors, and expected-utility optimality."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TIE_TOL",
    "BayesSet",
    "DecisionProblem",
    "Prior",
    "bayes_acts",
]

TIE_TOL = 1e-12  # expected-utility gap, per unit of utility range, counted as a tie


@dataclass(frozen=True)
class DecisionProblem:
    """Acts, states, and the acts-by-states utility matrix."""

    acts: tuple[str, ...]
    states: tuple[str, ...]
    utilities: np.ndarray

    def __init__(self, acts, states, utilities):
        acts = tuple(str(a) for a in acts)
        states = tuple(str(s) for s in states)
        u = np.asarray(utilities, dtype=float)
        if len(acts) < 1 or len(states) < 1:
            raise ValueError("need at least one act and one state")
        if len(set(acts)) != len(acts):
            raise ValueError("act identifiers must be unique")
        if len(set(states)) != len(states):
            raise ValueError("state identifiers must be unique")
        if u.shape != (len(acts), len(states)):
            raise ValueError(
                f"utility matrix has shape {u.shape}, expected {(len(acts), len(states))}"
            )
        if not np.all(np.isfinite(u)):
            raise ValueError("utilities must be finite")
        # Tie tolerances scale with the range and programs take differences
        # of utilities, so both must be finite too.
        with np.errstate(over="ignore"):
            spread = u.max() - u.min()
        if not np.isfinite(spread):
            raise ValueError("the utility range (largest minus smallest utility) overflows")
        object.__setattr__(self, "acts", acts)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "utilities", u)

    @property
    def tie_tol(self) -> float:
        """The expected-utility gap counted as a tie: ``TIE_TOL`` times the
        utility range, so no tie changes under a positive affine rescaling."""
        return TIE_TOL * (self.utilities.max() - self.utilities.min())

    @cached_property
    def _unit(self) -> tuple[DecisionProblem, int]:
        """The problem scaled by 2^-e, the power of two that brings its largest
        |utility| into [0.5, 1), and e: exact away from underflow and overflow,
        so a table of subnormal or huge utilities computes as a unit one does."""
        e = int(np.frexp(np.abs(self.utilities).max())[1])
        return DecisionProblem(self.acts, self.states, np.ldexp(self.utilities, -e)), e

    @property
    def num_acts(self) -> int:
        return len(self.acts)

    @property
    def num_states(self) -> int:
        return len(self.states)

    def act_index(self, act: str) -> int:
        try:
            return self.acts.index(act)
        except ValueError:
            raise KeyError(f"unknown act {act!r}") from None

    def row(self, act: str) -> np.ndarray:
        return self.utilities[self.act_index(act)]


@dataclass(frozen=True)
class Prior:
    """A named point of the probability simplex.

    Masses must be nonnegative and sum to 1 within 1e-9.  A sum further
    from 1 than the rounding of the sum itself (size times machine epsilon)
    is renormalized away, so downstream programs can rely on the total being
    as close to 1 as floating point allows; a mass already that close is
    kept bit for bit, so rebuilding a prior from its own mass changes
    nothing.
    """

    name: str
    mass: np.ndarray

    def __init__(self, name: str, mass):
        m = np.array(mass, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ValueError("prior mass must be a nonempty vector")
        if not np.all(np.isfinite(m)):
            raise ValueError(f"prior {name!r} has non-finite mass entries")
        if np.any(m < 0.0):
            raise ValueError(f"prior {name!r} has negative mass entries")
        total = m.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"prior {name!r} mass sums to {float(total)!r}, not 1")
        if abs(total - 1.0) > m.size * np.finfo(float).eps:
            m = m / total
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "mass", m)


@dataclass(frozen=True)
class BayesSet:
    """All acts attaining maximal expected utility, with the full value map."""

    optimal_acts: tuple[str, ...]
    expected_utilities: dict[str, float]

    def __contains__(self, act: str) -> bool:
        return act in self.optimal_acts


def bayes_acts(problem: DecisionProblem, prior: Prior) -> BayesSet:
    """Acts within `DecisionProblem.tie_tol` of the maximal expected utility,
    decided at the problem's unit scale (`DecisionProblem._unit`)."""
    if prior.mass.size != problem.num_states:
        raise ValueError(
            f"prior {prior.name!r} has {prior.mass.size} states, "
            f"problem has {problem.num_states}"
        )
    unit, e = problem._unit
    values = unit.utilities @ prior.mass
    floor = values.max() - unit.tie_tol
    members = tuple(act for act, v in zip(problem.acts, values) if v >= floor)
    return BayesSet(
        optimal_acts=members,
        expected_utilities=dict(zip(problem.acts, np.ldexp(values, e).tolist())),
    )
