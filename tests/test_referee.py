"""The exact referee of `conftest` (`exact_need`, `exact_game_value`),
checked against HiGHS on generic tables and by hand on near ties."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from priorstab import DecisionProblem, Prior
from priorstab.core import TIE_TOL

from conftest import HIGHS_OPTIONS, exact_game_value, exact_need, random_prior, random_problem


def highs_tie_need(u, a, center):
    """min eps over pi in the simplex with |pi - pi0| <= eps and
    (u_a - u_b).pi >= -TIE_TOL * range, by HiGHS; None where infeasible."""
    m = u.shape[1]
    gains = np.delete(u, a, axis=0) - u[a]
    eye = np.eye(m)
    A_ub = np.block([[eye, -np.ones((m, 1))], [-eye, -np.ones((m, 1))],
                     [gains, np.zeros((len(gains), 1))]])
    tol = TIE_TOL * (u.max() - u.min())
    b_ub = np.concatenate([center, -center, np.full(len(gains), tol)])
    res = linprog(np.eye(m + 1)[m], A_ub=A_ub, b_ub=b_ub,
                  A_eq=np.append(np.ones(m), 0.0)[None, :], b_eq=[1.0],
                  method="highs", options=HIGHS_OPTIONS)
    assert res.status in (0, 2)
    return None if res.status == 2 else res.fun


def highs_game_value(u, a):
    """max t over mixtures w of the competitors with (w @ (u_b - u_a))_j >= t."""
    gains = np.delete(u, a, axis=0) - u[a]
    k, m = gains.shape
    res = linprog(-np.eye(k + 1)[k], A_ub=np.hstack([-gains.T, np.ones((m, 1))]),
                  b_ub=np.zeros(m), A_eq=np.append(np.ones(k), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(None, None)], method="highs",
                  options=HIGHS_OPTIONS)
    assert res.status == 0
    return -res.fun


def test_referee_matches_highs_on_generic_tables():
    rng = np.random.default_rng(77)
    infinite = finite = 0
    for _ in range(16):
        problem = random_problem(rng, max_acts=6, max_states=5, min_acts=3)
        prior = random_prior(rng, problem.num_states)
        u = problem.utilities
        for a, act in enumerate(problem.acts):
            assert float(exact_game_value(problem, act)) == pytest.approx(
                highs_game_value(u, a), abs=1e-9)
            exact, highs = exact_need(problem, act, prior), highs_tie_need(u, a, prior.mass)
            assert (exact is None) == (highs is None)
            if exact is None:
                infinite += 1
            else:
                assert float(exact) == pytest.approx(highs, abs=1e-9)
                finite += 1
    assert infinite > 5 and finite > 30


@pytest.mark.parametrize("delta", [1e-13, 1e-12, 2e-12, 5e-11, 1e-10, 3e-10, 1e-8])
def test_referee_is_exact_on_the_three_by_two_family(delta):
    # c trails the even mixture of a and b by exactly its gap in both
    # states, so that gap is the game value; at the even prior c is Bayes by
    # the tie rule iff the gap is at most 1e-12 of the range 1, and
    # otherwise no prior makes it Bayes
    c = 0.5 - delta
    problem = DecisionProblem("abc", ("s1", "s2"), [[1.0, 0.0], [0.0, 1.0], [c, c]])
    gap = Fraction(1, 2) - Fraction(c)
    assert exact_game_value(problem, "c") == gap
    need = exact_need(problem, "c", Prior("even", [0.5, 0.5]))
    assert need == (0 if gap <= Fraction(TIE_TOL) else None)


def test_referee_need_is_exact_at_a_near_tie():
    # a1 trails a0 by 1 - f in s0 only, f = fl(0.99999): it is Bayes where
    # pi(s0) (1 - f) <= 1e-12, so its need from (1, 0) is 1 - 1e-12 / (1 - f)
    f = 0.99999
    problem = DecisionProblem(("a0", "a1"), ("s0", "s1"), [[1.0, 0.0], [f, 0.0]])
    need = exact_need(problem, "a1", Prior("v", [1.0, 0.0]))
    assert need == 1 - Fraction(TIE_TOL) / (1 - Fraction(f))
    assert exact_game_value(problem, "a1") == 0
