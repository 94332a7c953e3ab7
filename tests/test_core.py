import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorstab import DecisionProblem, Prior, bayes_acts, expected_utility

from conftest import PORTFOLIO_UTILITIES, affine_transform, random_prior, random_problem


class TestExpectedUtility:
    def test_portfolio_uniform_value(self, portfolio_problem, uniform4):
        # oracle: sum the four entries of the third row and divide by 4
        expected = sum(PORTFOLIO_UTILITIES[2]) / 4.0
        value = expected_utility(portfolio_problem, "multi_asset", uniform4)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.0065, abs=1e-12)

    def test_degenerate_prior_reads_column(self, portfolio_problem):
        on_first = Prior("expansion_only", [1.0, 0.0, 0.0, 0.0])
        assert expected_utility(portfolio_problem, "equity_core", on_first) == pytest.approx(
            0.021, abs=1e-15
        )
        for j, state in enumerate(portfolio_problem.states):
            mass = np.zeros(4)
            mass[j] = 1.0
            point = Prior(state, mass)
            for act in portfolio_problem.acts:
                assert expected_utility(portfolio_problem, act, point) == pytest.approx(
                    portfolio_problem.row(act)[j], abs=0
                )

    def test_unknown_act(self, portfolio_problem, uniform4):
        with pytest.raises(KeyError):
            expected_utility(portfolio_problem, "nope", uniform4)

    def test_prior_dimension_mismatch(self, toy_problem):
        with pytest.raises(ValueError):
            expected_utility(toy_problem, "a", Prior("p", [0.5, 0.25, 0.25]))

    def test_linear_in_the_prior(self, make_problem, make_prior):
        rng = np.random.default_rng(11)
        for _ in range(50):
            problem = make_problem(rng)
            p1 = make_prior(rng, problem.num_states, "p1")
            p2 = make_prior(rng, problem.num_states, "p2")
            alpha = float(rng.uniform())
            mix = Prior("mix", alpha * p1.mass + (1 - alpha) * p2.mass)
            for act in problem.acts:
                blended = alpha * expected_utility(problem, act, p1) + (1 - alpha) * expected_utility(
                    problem, act, p2
                )
                assert expected_utility(problem, act, mix) == pytest.approx(blended, abs=1e-12)


class TestBayesActs:
    def test_portfolio_uniform_enumeration(self, portfolio_problem, uniform4):
        # oracle: enumerate all six expectations directly
        values = {
            act: sum(row) / 4.0
            for act, row in zip(portfolio_problem.acts, PORTFOLIO_UTILITIES)
        }
        expected = [0.0050, 0.00525, 0.0065, -0.00025, 0.00075, 0.00575]
        for act, want in zip(portfolio_problem.acts, expected):
            assert values[act] == pytest.approx(want, abs=1e-12)
        result = bayes_acts(portfolio_problem, uniform4)
        assert result.optimal_acts == ("multi_asset",)
        for act in portfolio_problem.acts:
            assert result.expected_utilities[act] == pytest.approx(values[act], abs=1e-15)

    def test_single_act(self):
        problem = DecisionProblem(("only",), ("s1", "s2"), [[0.3, -0.2]])
        assert bayes_acts(problem, Prior("p", [0.5, 0.5])).optimal_acts == ("only",)

    def test_identical_acts_tie(self):
        problem = DecisionProblem(("a", "b"), ("s1", "s2"), [[0.4, 0.1], [0.4, 0.1]])
        assert bayes_acts(problem, Prior("p", [0.6, 0.4])).optimal_acts == ("a", "b")

    def test_degenerate_prior_is_column_argmax(self, make_problem):
        rng = np.random.default_rng(12)
        for _ in range(50):
            problem = make_problem(rng)
            j = int(rng.integers(problem.num_states))
            mass = np.zeros(problem.num_states)
            mass[j] = 1.0
            result = bayes_acts(problem, Prior("point", mass))
            column = problem.utilities[:, j]
            winners = {problem.acts[i] for i in np.flatnonzero(column >= column.max() - 1e-12)}
            assert set(result.optimal_acts) == winners


class TestAffineTransform:
    def test_identity(self, portfolio_problem):
        same = affine_transform(portfolio_problem, 1.0, 0.0)
        assert np.array_equal(same.utilities, portfolio_problem.utilities)
        assert same.acts == portfolio_problem.acts

    def test_scale_preserves_argmax(self, portfolio_problem, uniform4):
        doubled = affine_transform(portfolio_problem, 2.0, 0.0)
        assert bayes_acts(doubled, uniform4).optimal_acts == ("multi_asset",)

    def test_shift_moves_values_not_membership(self, portfolio_problem, uniform4):
        shifted = affine_transform(portfolio_problem, 1.0, 5.0)
        before = bayes_acts(portfolio_problem, uniform4)
        after = bayes_acts(shifted, uniform4)
        assert after.optimal_acts == before.optimal_acts
        for act in portfolio_problem.acts:
            assert after.expected_utilities[act] == pytest.approx(
                before.expected_utilities[act] + 5.0, abs=1e-12
            )

    def test_rejects_nonpositive_scale(self, portfolio_problem):
        with pytest.raises(ValueError):
            affine_transform(portfolio_problem, 0.0, 1.0)
        with pytest.raises(ValueError):
            affine_transform(portfolio_problem, -2.0, 1.0)

    def test_argmax_invariance_random(self, make_problem, make_prior):
        rng = np.random.default_rng(13)
        for _ in range(500):
            problem = make_problem(rng, max_acts=4, max_states=4)
            prior = make_prior(rng, problem.num_states)
            scale = float(rng.uniform(0.01, 10.0))
            shift = float(rng.uniform(-5.0, 5.0))
            transformed = affine_transform(problem, scale, shift)
            assert set(bayes_acts(problem, prior).optimal_acts) == set(
                bayes_acts(transformed, prior).optimal_acts
            )


class TestValidation:
    def test_prior_renormalizes_exactly(self):
        p = Prior("p", [0.3 + 2e-10, 0.7])
        assert p.mass.sum() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=29).filter(
            lambda w: sum(w) > 0.0
        ),
        drift=st.floats(-1e-10, 1e-10),
    )
    def test_rebuilt_prior_keeps_its_mass_bit_for_bit(self, weights, drift):
        raw = np.array(weights) / np.sum(weights) * (1.0 + drift)
        p = Prior("p", raw)
        rebuilt = Prior(p.name, p.mass)
        assert rebuilt.mass.tobytes() == p.mass.tobytes()
        assert abs(p.mass.sum() - 1.0) <= p.dimension * np.finfo(float).eps

    def test_prior_owns_its_mass(self):
        raw = np.array([0.25, 0.75])
        p = Prior("p", raw)
        raw[0] = 0.5
        assert p.mass.tolist() == [0.25, 0.75]

    def test_prior_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Prior("p", [0.3, 0.6])

    def test_prior_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            Prior("p", [-0.1, 1.1])

    def test_problem_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            DecisionProblem(("a", "b"), ("s",), [[1.0]])

    def test_problem_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DecisionProblem(("a",), ("s",), [[np.nan]])

    def test_problem_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            DecisionProblem(("a", "a"), ("s1", "s2"), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            DecisionProblem(("a", "b"), ("s", "s"), [[1.0, 0.0], [0.0, 1.0]])
