from fractions import Fraction

import numpy as np
import pytest

from priorstab import (
    DecisionProblem,
    Prior,
    bayes_acts,
    selection_path,
    stability_profile,
    variance_cost,
)
from priorstab.core import expected_utility
from priorstab.selection import CostAssignment, ScoreBranch, gamma_aggregate, rex_score
from priorstab.stability import Need, Radius, StabilityProfile, StabilityRow

from conftest import (
    PORTFOLIO_UTILITIES,
    optimal_acts,
    random_prior,
    random_problem,
    stability_score,
)


def synthetic_profile(rows):
    acts = tuple(r.act for r in rows)
    return StabilityProfile(acts=acts, priors=(rows[0].prior,), rows=tuple(rows))


def bayes_row(act, rob, prior="p"):
    return StabilityRow(prior, act, True, 0.0, Radius.value(rob), Need.value(0.0))


def loser_row(act, con, prior="p"):
    return StabilityRow(prior, act, False, 0.0, Radius.not_bayes(), Need.value(con))


def inadmissible_row(act, prior="p"):
    from priorstab.stability import DominanceCertificate

    cert = DominanceCertificate(weights={"other": 1.0}, margins=np.array([0.5]))
    return StabilityRow(prior, act, False, 0.0, Radius.not_bayes(), Need.infeasible(cert))


class TestVarianceCost:
    def test_constant_row_costs_nothing(self):
        problem = DecisionProblem(
            ("flat", "spread"), ("s1", "s2"), [[0.3, 0.3], [1.0, 0.0]]
        )
        costs = variance_cost(problem)
        assert costs.normalized("flat") == 0.0
        assert costs.normalized("spread") == 1.0

    def test_portfolio_first_row_value(self, portfolio_problem):
        # oracle: population variance in exact arithmetic
        row = [Fraction(x).limit_denominator(10**6) for x in (0.021, 0.059, -0.011, -0.049)]
        mean = sum(row) / 4
        exact = float(sum((x - mean) ** 2 for x in row) / 4)
        assert exact == pytest.approx(0.001586, abs=1e-12)
        costs = variance_cost(portfolio_problem)
        assert costs.raw[0] == pytest.approx(0.001586, abs=1e-12)

    def test_all_constant_rows(self):
        problem = DecisionProblem(("x", "y"), ("s1", "s2"), [[0.2, 0.2], [0.4, 0.4]])
        costs = variance_cost(problem)
        assert costs.normalized("x") == 0.0
        assert costs.normalized("y") == 0.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            CostAssignment(("a",), [-0.1])


class TestStabilityScore:
    def test_max_rob_bayes_act_scores_one(self):
        profile = synthetic_profile([bayes_row("a", 0.6), loser_row("b", 0.3)])
        costs = CostAssignment(("a", "b"), [0.5, 1.0])
        scores = stability_score(profile, costs, 0.0, "p")
        assert scores[0].value == 1.0
        assert scores[0].branch is ScoreBranch.BAYES

    def test_max_con_loser_scores_minus_one(self):
        profile = synthetic_profile(
            [bayes_row("a", 0.6), loser_row("b", 0.1), loser_row("c", 0.4)]
        )
        costs = CostAssignment(("a", "b", "c"), [1.0, 1.0, 1.0])
        scores = {s.act: s for s in stability_score(profile, costs, 0.0, "p")}
        assert scores["c"].value == -1.0
        assert scores["b"].value == pytest.approx(-0.25, abs=1e-15)
        assert scores["c"].branch is ScoreBranch.NON_BAYES

    def test_inadmissible_sentinel_never_selected(self):
        profile = synthetic_profile(
            [bayes_row("a", 0.5), loser_row("b", 0.9), inadmissible_row("c")]
        )
        costs = CostAssignment(("a", "b", "c"), [1.0, 1.0, 0.0])
        for lam in (0.0, 1.0, 50.0):
            scores = stability_score(profile, costs, lam, "p")
            assert scores[2].value == -np.inf
            assert "c" not in optimal_acts(scores)

    def test_lambda_weighting(self):
        profile = synthetic_profile([bayes_row("a", 0.5), loser_row("b", 0.2)])
        costs = CostAssignment(("a", "b"), [2.0, 1.0])
        scores = {s.act: s for s in stability_score(profile, costs, 1.5, "p")}
        assert scores["a"].value == pytest.approx(1.0 - 1.5 * 1.0, abs=1e-15)
        assert scores["b"].value == pytest.approx(-1.0 - 1.5 * 0.5, abs=1e-15)

    def test_negative_lambda_rejected(self):
        profile = synthetic_profile([bayes_row("a", 0.5)])
        with pytest.raises(ValueError):
            stability_score(profile, CostAssignment(("a",), [1.0]), -0.1, "p")

    def test_branch_matches_bayes_membership(self, make_problem, make_prior):
        rng = np.random.default_rng(31)
        for _ in range(20):
            problem = make_problem(rng, max_acts=4, max_states=3)
            prior = make_prior(rng, problem.num_states)
            profile = stability_profile(problem, [prior])
            costs = variance_cost(problem)
            best = set(bayes_acts(problem, prior).optimal_acts)
            for s in stability_score(profile, costs, 0.7, prior.name):
                assert (s.branch is ScoreBranch.BAYES) == (s.act in best)


class TestOptimalActs:
    def test_unique_winner(self):
        profile = synthetic_profile(
            [bayes_row("a", 0.6), loser_row("b", 0.3), loser_row("c", 0.9)]
        )
        costs = CostAssignment(("a", "b", "c"), [1.0, 0.5, 0.1])
        assert optimal_acts(stability_score(profile, costs, 0.0, "p")) == ("a",)

    def test_exact_tie_keeps_both_lowest_first(self):
        profile = synthetic_profile([bayes_row("a", 0.5), bayes_row("b", 0.5)])
        costs = CostAssignment(("a", "b"), [1.0, 1.0])
        winners = optimal_acts(stability_score(profile, costs, 0.8, "p"))
        assert winners == ("a", "b")

    def test_all_inadmissible_is_an_error(self):
        profile = synthetic_profile([inadmissible_row("a"), inadmissible_row("b")])
        costs = CostAssignment(("a", "b"), [1.0, 1.0])
        with pytest.raises(ValueError):
            optimal_acts(stability_score(profile, costs, 0.0, "p"))

    def test_toy_lambda_zero_selects_bayes_act(self, toy_problem, toy_prior):
        profile = stability_profile(toy_problem, [toy_prior])
        costs = variance_cost(toy_problem)
        assert optimal_acts(stability_score(profile, costs, 0.0, "ref")) == ("a",)


class TestSelectionPath:
    def test_nonfinite_range_rejected(self, toy_problem, toy_prior):
        profile = stability_profile(toy_problem, [toy_prior])
        costs = variance_cost(toy_problem)
        for kwargs in ({"lambda_max": np.inf}, {"grid_step": np.inf}, {"lambda_max": np.nan}):
            with pytest.raises(ValueError, match="positive and finite"):
                selection_path(profile, costs, "ref", **kwargs)

    def test_engineered_breakpoint(self):
        profile = synthetic_profile([bayes_row("a", 0.8), bayes_row("b", 0.4)])
        costs = CostAssignment(("a", "b"), [1.0, 0.2])
        path = selection_path(profile, costs, "p", 3.0, 0.01)
        assert len(path.breakpoints) == 1
        assert abs(path.breakpoints[0] - 0.625) <= 1e-9
        assert [(s.act) for s in path.segments] == ["a", "b"]

    @pytest.mark.parametrize("lambda_max", [1e-300, 1e-13, 1e-12, 2e-12])
    def test_tiny_range_keeps_one_segment(self, lambda_max):
        # The engineered breakpoint at 0.625 lies outside the range, and the
        # range itself is no wider than the knot-merging distance.
        profile = synthetic_profile([bayes_row("a", 0.8), bayes_row("b", 0.4)])
        costs = CostAssignment(("a", "b"), [1.0, 0.2])
        path = selection_path(profile, costs, "p", lambda_max, 0.01)
        assert path.lambda_grid.tolist() == [0.0, lambda_max]
        assert path.breakpoints == ()
        assert [(s.lo, s.hi, s.act) for s in path.segments] == [(0.0, lambda_max, "a")]
        assert set(path.grid_selected) == {"a"}

    @pytest.mark.parametrize("lambda_max,grid_step,points",
                             [(0.3, 0.1, 4), (0.7, 0.1, 8), (0.9, 0.3, 4), (1.0, 0.3, 5),
                              (3.0, 0.01, 301)])
    def test_grid_ends_once_at_lambda_max(self, lambda_max, grid_step, points):
        # k * grid_step can round to just past lambda_max (3 * 0.1) or just
        # short of it (3 * 0.3), and must not repeat it
        profile = synthetic_profile([bayes_row("a", 0.8), bayes_row("b", 0.4)])
        costs = CostAssignment(("a", "b"), [1.0, 0.2])
        grid = selection_path(profile, costs, "p", lambda_max, grid_step).lambda_grid
        assert len(grid) == points
        assert grid[0] == 0.0 and grid[-1] == lambda_max
        assert (np.diff(grid) > 0.0).all()

    def test_equal_costs_no_breakpoints(self):
        profile = synthetic_profile(
            [bayes_row("a", 0.6), loser_row("b", 0.2), loser_row("c", 0.7)]
        )
        costs = CostAssignment(("a", "b", "c"), [0.4, 0.4, 0.4])
        path = selection_path(profile, costs, "p", 3.0, 0.1)
        assert path.breakpoints == ()
        assert set(path.grid_selected) == {"a"}

    def test_single_act_constant_path(self):
        profile = synthetic_profile([bayes_row("solo", 0.5)])
        path = selection_path(profile, CostAssignment(("solo",), [1.0]), "p", 3.0, 0.5)
        assert path.breakpoints == ()
        assert set(path.grid_selected) == {"solo"}

    def test_grid_agrees_with_envelope_random(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            rows = []
            bayes_ct = int(rng.integers(1, n + 1))
            for i in range(n):
                if i < bayes_ct:
                    rows.append(bayes_row(f"act{i}", float(rng.uniform(0, 1))))
                elif rng.uniform() < 0.15:
                    rows.append(inadmissible_row(f"act{i}"))
                else:
                    rows.append(loser_row(f"act{i}", float(rng.uniform(0.01, 1))))
            profile = synthetic_profile(rows)
            costs = CostAssignment(
                tuple(r.act for r in rows), rng.uniform(0.0, 1.0, n)
            )
            try:
                path = selection_path(profile, costs, "p", 3.0, 1e-3)
            except ValueError:
                assert all(r.need.kind.name == "INFEASIBLE" for r in rows)
                continue
            lines = {l.act: l for l in path.lines if not l.inadmissible}
            for lam in path.lambda_grid:
                if any(abs(lam - b) <= 1e-9 for b in path.breakpoints):
                    continue
                values = {a: l.at(lam) for a, l in lines.items()}
                best = max(values.values())
                grid_winner = next(
                    r.act for r in rows if r.act in values and values[r.act] >= best - 1e-12
                )
                segment_winner = next(
                    seg.act for seg in path.segments if seg.lo - 1e-12 <= lam <= seg.hi + 1e-12
                )
                assert grid_winner == segment_winner

    def test_lambda_zero_selects_max_rob_bayes_act(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            robs = rng.uniform(0.0, 1.0, n)
            bayes_ct = int(rng.integers(1, n + 1))
            rows = [
                bayes_row(f"act{i}", float(robs[i]))
                if i < bayes_ct
                else loser_row(f"act{i}", float(rng.uniform(0.01, 1)))
                for i in range(n)
            ]
            profile = synthetic_profile(rows)
            costs = CostAssignment(tuple(r.act for r in rows), rng.uniform(0.0, 1.0, n))
            winners = optimal_acts(stability_score(profile, costs, 0.0, "p"))
            best_rob = max(robs[:bayes_ct])
            expect = next(
                f"act{i}" for i in range(bayes_ct) if robs[i] >= best_rob - 1e-12
            )
            assert winners[0] == expect

    def test_large_lambda_selects_cheapest_finite_act(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            rows = []
            bayes_ct = int(rng.integers(1, n + 1))
            for i in range(n):
                if i < bayes_ct:
                    rows.append(bayes_row(f"act{i}", float(rng.uniform(0, 1))))
                else:
                    rows.append(loser_row(f"act{i}", float(rng.uniform(0.01, 1))))
            profile = synthetic_profile(rows)
            raw = rng.uniform(0.05, 1.0, n)
            costs = CostAssignment(tuple(r.act for r in rows), raw)
            norm = raw / raw.max()
            scores = stability_score(profile, costs, 1e9, "p")
            winner = optimal_acts(scores)[0]
            assert norm[int(winner[3:])] == pytest.approx(norm.min(), abs=1e-12)

    def test_rejects_bad_grid(self):
        profile = synthetic_profile([bayes_row("a", 0.5)])
        costs = CostAssignment(("a",), [1.0])
        with pytest.raises(ValueError):
            selection_path(profile, costs, "p", 0.0, 0.1)
        with pytest.raises(ValueError):
            selection_path(profile, costs, "p", 3.0, 0.0)

    def test_rejects_oversized_grid(self):
        # the ratio alone decides, before the grid is allocated
        profile = synthetic_profile([bayes_row("a", 0.5)])
        costs = CostAssignment(("a",), [1.0])
        for lambda_max, grid_step in ((1e12, 1.0), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="grid points"):
                selection_path(profile, costs, "p", lambda_max, grid_step)


class TestGammaAggregate:
    def test_zero_radius_equals_expected_utility(self, portfolio_problem, uniform4):
        for mode, eta in (("minimax", None), ("maximax", None), ("mix", 0.3)):
            result = gamma_aggregate(portfolio_problem, uniform4, 0.0, mode, eta)
            for act in portfolio_problem.acts:
                assert result.values[act] == expected_utility(portfolio_problem, act, uniform4)

    def test_full_band_minimax_is_row_minimum(self, portfolio_problem, uniform4):
        result = gamma_aggregate(portfolio_problem, uniform4, 1.0, "minimax")
        for act in portfolio_problem.acts:
            assert result.values[act] == pytest.approx(
                float(portfolio_problem.row(act).min()), abs=1e-12
            )

    def test_mix_endpoints_match_pure_modes(self, portfolio_problem, uniform4):
        worst = gamma_aggregate(portfolio_problem, uniform4, 0.35, "minimax")
        best = gamma_aggregate(portfolio_problem, uniform4, 0.35, "maximax")
        eta1 = gamma_aggregate(portfolio_problem, uniform4, 0.35, "mix", 1.0)
        eta0 = gamma_aggregate(portfolio_problem, uniform4, 0.35, "mix", 0.0)
        assert eta1.values == worst.values
        assert eta0.values == best.values

    def test_envelope_monotone_in_radius(self, make_problem, make_prior):
        rng = np.random.default_rng(35)
        for _ in range(20):
            problem = make_problem(rng)
            prior = make_prior(rng, problem.num_states)
            radii = np.linspace(0.0, 1.0, 11)
            lowers = []
            uppers = []
            for eps in radii:
                lowers.append(gamma_aggregate(problem, prior, float(eps), "minimax").values)
                uppers.append(gamma_aggregate(problem, prior, float(eps), "maximax").values)
            for act in problem.acts:
                lo_series = [v[act] for v in lowers]
                hi_series = [v[act] for v in uppers]
                assert np.all(np.diff(lo_series) <= 1e-12)
                assert np.all(np.diff(hi_series) >= -1e-12)

    def test_bad_mode_and_eta(self, toy_problem, toy_prior):
        with pytest.raises(ValueError):
            gamma_aggregate(toy_problem, toy_prior, 0.1, "median")
        with pytest.raises(ValueError):
            gamma_aggregate(toy_problem, toy_prior, 0.1, "mix", 1.5)
        with pytest.raises(ValueError):
            gamma_aggregate(toy_problem, toy_prior, 0.1, "mix")

    def test_rejects_bad_radius(self, toy_problem, toy_prior):
        for radius in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="radius"):
                gamma_aggregate(toy_problem, toy_prior, radius)

    def test_rejects_mismatched_dimension(self, toy_problem):
        with pytest.raises(ValueError, match="dimension"):
            gamma_aggregate(toy_problem, Prior("p3", [0.2, 0.3, 0.5]), 0.1)


class TestRexScore:
    def test_direct_evaluation(self):
        problem = DecisionProblem(("a", "b"), ("s1", "s2"), [[1.0, 0.0], [0.6, 0.4]])
        prior = Prior("p", [0.7, 0.3])
        result = rex_score(problem, prior, 0.5)
        # direct evaluation: 0.5*0.7 + 0.5*0.0 and 0.5*0.54 + 0.5*0.4
        assert result.values["a"] == pytest.approx(0.35, abs=1e-12)
        assert result.values["b"] == pytest.approx(0.47, abs=1e-12)
        assert result.optimal == ("b",)

    def test_full_trust_is_expected_utility(self, make_problem, make_prior):
        rng = np.random.default_rng(36)
        for _ in range(30):
            problem = make_problem(rng)
            prior = make_prior(rng, problem.num_states)
            result = rex_score(problem, prior, 1.0)
            for act in problem.acts:
                assert result.values[act] == expected_utility(problem, act, prior)

    def test_zero_trust_is_maximin(self, make_problem, make_prior):
        rng = np.random.default_rng(37)
        for _ in range(30):
            problem = make_problem(rng)
            prior = make_prior(rng, problem.num_states)
            result = rex_score(problem, prior, 0.0)
            for act in problem.acts:
                assert result.values[act] == float(problem.row(act).min())

    def test_rejects_out_of_range_mu(self, toy_problem, toy_prior):
        with pytest.raises(ValueError):
            rex_score(toy_problem, toy_prior, -0.1)
        with pytest.raises(ValueError):
            rex_score(toy_problem, toy_prior, 1.1)
