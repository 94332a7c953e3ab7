"""Acceptance suite: one test per release criterion, each printing a verdict.

Every expected value is produced by an oracle that is independent of the
code path it checks: explicit grid searches, vertex enumeration, alternate
closed forms, or plain-python recomputation.
"""

import csv
import json

import numpy as np
import pytest
from scipy.optimize import linprog

from priorstab import (
    DecisionProblem,
    Prior,
    bayes_acts,
    contamination_need,
    robustness_radius,
    selection_path,
)
from priorstab.lp import minimize_over_band
from priorstab.selection import CostAssignment, gamma_aggregate, rex_score
from priorstab.cli import main
from priorstab.stability import Need, Radius, StabilityProfile, StabilityRow

from conftest import (
    HIGHS_OPTIONS,
    PLANTED_WEIGHTS_CSV,
    PORTFOLIO_ACTS,
    PORTFOLIO_UTILITIES,
    REGIME_STATES,
    acts_at,
    affine_transform,
    band_bounds,
    build_planted_panel,
    expected_utility,
    planted_monthly_csv,
    random_prior,
    random_problem,
)

TOY = DecisionProblem(("a", "b"), ("s1", "s2"), [[1.0, 0.0], [0.0, 1.0]])
TOY_PRIOR = Prior("ref", [0.7, 0.3])


def verdict(number, text):
    print(f"ACCEPTANCE criterion {number} PASS: {text}")


def toy_band_grid(eps, step=1e-3):
    """First-coordinate grid over band-and-simplex for the two-state toy."""
    lo = max(0.0, 0.7 - eps)
    hi = min(1.0, 0.7 + eps)
    pts = np.arange(lo, hi, step)
    return np.append(pts, hi)


def test_criterion_1_toy_grid_oracles():
    # computed values at their stated tolerances
    rob = robustness_radius(TOY, "a", TOY_PRIOR)
    assert rob.epsilon is not None
    assert abs(rob.epsilon - 0.2) <= 1e-12
    con = contamination_need(TOY, "b", TOY_PRIOR)
    assert con.epsilon is not None
    assert abs(con.epsilon - 0.2) <= 1e-9

    # independent grid-search oracle: eps at 1e-4, band points at 1e-3;
    # act a is optimal at pi iff 2*pi1 - 1 >= 0, act b iff 1 - 2*pi1 >= 0
    eps_grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    rob_oracle = None
    for eps in eps_grid:
        margins = 2.0 * toy_band_grid(float(eps)) - 1.0
        if margins.min() >= -1e-12:
            rob_oracle = float(eps)
        else:
            break
    con_oracle = None
    for eps in eps_grid:
        margins = 1.0 - 2.0 * toy_band_grid(float(eps))
        if margins.max() >= -1e-12:
            con_oracle = float(eps)
            break
    assert rob_oracle is not None and abs(rob.epsilon - rob_oracle) <= 1e-12 + 1e-4
    assert con_oracle is not None and abs(con.epsilon - con_oracle) <= 1e-9 + 1e-4
    verdict(1, f"rob(a)={rob.epsilon:.8f}, con(b)={con.epsilon:.8f}, grid oracles agree")


def test_criterion_2_greedy_equals_simplex():
    rng = np.random.default_rng(1002)
    agreements = 0
    total = 1000
    for _ in range(total):
        m = int(rng.integers(2, 7))
        center, radius = rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 1.0))
        d = rng.uniform(-1.0, 1.0, m)
        greedy_value, _, _ = minimize_over_band(d, center, radius)
        # the band as an explicit program, solved by scipy's HiGHS
        lower, upper = band_bounds(center, radius)
        out = linprog(
            d, A_eq=np.ones((1, m)), b_eq=[1.0], bounds=list(zip(lower, upper)),
            method="highs", options=HIGHS_OPTIONS,
        )
        assert out.status == 0
        if abs(greedy_value - out.fun) <= 1e-9:
            agreements += 1
    assert agreements == total
    verdict(2, f"greedy value = HiGHS simplex value within 1e-9 on {agreements}/{total} instances")


def test_criterion_3_margin_monotone_in_radius():
    rng = np.random.default_rng(1003)
    grid = np.linspace(0.0, 1.0, 50)
    violations = 0
    for _ in range(200):
        problem = random_problem(rng, max_acts=4, max_states=4)
        prior = random_prior(rng, problem.num_states)
        act = problem.acts[int(rng.integers(problem.num_acts))]
        diffs = problem.row(act) - np.delete(
            problem.utilities, problem.act_index(act), axis=0
        )
        values = [
            min(minimize_over_band(d, prior.mass, float(e))[0] for d in diffs)
            for e in grid
        ]
        violations += int(np.sum(np.diff(values) > 1e-12))
    assert violations == 0
    verdict(3, "worst-case margin non-increasing on 200 problems x 50-point grid")


def test_criterion_4_definition_duality():
    rng = np.random.default_rng(1004)
    for _ in range(500):
        problem = random_problem(rng, max_acts=4, max_states=4)
        prior = random_prior(rng, problem.num_states)
        act = problem.acts[int(rng.integers(problem.num_acts))]
        member = act in bayes_acts(problem, prior).optimal_acts
        radius = robustness_radius(problem, act, prior)
        need = contamination_need(problem, act, prior)
        need_zero = need.epsilon == 0.0
        rob_finite = radius.epsilon is not None
        assert need_zero == rob_finite == member
    verdict(4, "con=0 <=> rob finite <=> optimal at the reference prior, 500/500 pairs")


def _simplex_grid(m, steps=1000):
    if m == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if m == 3:
        ii, jj = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        mask = ii + jj <= steps
        i = ii[mask]
        j = jj[mask]
        return np.column_stack([i, j, steps - i - j]) / steps
    raise ValueError(m)


def test_criterion_5_certificates_match_grid_search():
    # constructed dominated act: mixture (0.5, 0.5) beats it by 0.1 per state
    problem = DecisionProblem(
        ("mid", "up", "down"), ("s1", "s2"), [[0.4, 0.4], [1.0, 0.0], [0.0, 1.0]]
    )
    need = contamination_need(problem, "mid", Prior("half", [0.5, 0.5]))
    assert need.epsilon is None
    assert np.all(need.certificate.margins >= 0.1 - 1e-9)

    grids = {2: _simplex_grid(2), 3: _simplex_grid(3)}
    rng = np.random.default_rng(1005)
    infeasible_count = 0
    for trial in range(500):
        m = 2 if trial < 350 else 3
        problem = random_problem(rng, max_acts=4, max_states=m, min_states=m)
        prior = random_prior(rng, m)
        act = problem.acts[int(rng.integers(problem.num_acts))]
        diffs = problem.row(act) - np.delete(
            problem.utilities, problem.act_index(act), axis=0
        )
        grid_margins = (grids[m] @ diffs.T).min(axis=1)
        best_on_grid = float(grid_margins.max())
        need = contamination_need(problem, act, prior)
        if need.epsilon is None:
            infeasible_count += 1
            # a strictly dominating mixture forbids optimality anywhere
            assert best_on_grid < 0.0
        else:
            # some prior works, so the grid comes within its resolution of it
            slack = 2e-3 * float(np.abs(diffs).sum(axis=1).max())
            assert best_on_grid >= -slack
    assert infeasible_count > 0
    verdict(
        5,
        f"infeasibility = grid emptiness on 500 problems ({infeasible_count} certificates)",
    )


def test_criterion_6_portfolio_regression():
    problem = DecisionProblem(PORTFOLIO_ACTS, REGIME_STATES, PORTFOLIO_UTILITIES)
    uniform = Prior("uniform", [0.25, 0.25, 0.25, 0.25])
    result = bayes_acts(problem, uniform)
    assert result.optimal_acts == ("multi_asset",)
    # oracle: enumeration of the row sums over four equally likely states
    enumerated = {
        act: sum(float(x) for x in row) / 4.0
        for act, row in zip(PORTFOLIO_ACTS, PORTFOLIO_UTILITIES)
    }
    assert max(enumerated, key=enumerated.get) == "multi_asset"
    assert result.expected_utilities["multi_asset"] == pytest.approx(0.0065, abs=1e-12)
    radius = robustness_radius(problem, "multi_asset", uniform)
    assert radius.epsilon is not None and radius.epsilon > 0.0
    for act in PORTFOLIO_ACTS:
        if act == "multi_asset":
            continue
        need = contamination_need(problem, act, uniform)
        assert need.epsilon is not None and need.epsilon > 0.0
    verdict(6, "uniform prior selects multi_asset at 0.0065, positive radius, others need > 0")


def test_criterion_7_selection_path_exactness():
    rows = (
        StabilityRow("p", "first", True, 0.0, Radius(0.8), Need(0.0)),
        StabilityRow("p", "second", True, 0.0, Radius(0.4), Need(0.0)),
    )
    profile = StabilityProfile(priors=("p",), rows=rows)
    costs = CostAssignment(("first", "second"), [1.0, 0.2])
    path = selection_path(profile, costs, "p", 3.0, 1e-4)
    assert len(path.breakpoints) == 1
    # oracle: lines 1 - L and 0.5 - 0.2 L cross at 0.5 / 0.8
    assert abs(path.breakpoints[0] - 0.625) <= 1e-9

    lines = {line.act: line for line in path.lines}
    mismatches = 0
    for lam in path.lambda_grid:
        values = {act: line.at(float(lam)) for act, line in lines.items()}
        best = max(values.values())
        grid_winner = next(a for a in ("first", "second") if values[a] >= best - 1e-12)
        if any(abs(lam - b) <= 1e-9 for b in path.breakpoints):
            allowed = acts_at(path, float(lam))
            mismatches += int(grid_winner not in allowed)
        else:
            segment_winner = next(
                seg.act for seg in path.segments if seg.lo - 1e-12 <= lam <= seg.hi + 1e-12
            )
            mismatches += int(grid_winner != segment_winner)
    assert mismatches == 0
    verdict(7, f"single breakpoint at {path.breakpoints[0]!r}; 1e-4 grid agrees everywhere")


def test_criterion_8_affine_invariance():
    def assert_invariant(problem, prior, other):
        assert set(bayes_acts(problem, prior).optimal_acts) == set(
            bayes_acts(other, prior).optimal_acts
        )
        for act in problem.acts:
            r1 = robustness_radius(problem, act, prior)
            r2 = robustness_radius(other, act, prior)
            assert (r1.epsilon is None) == (r2.epsilon is None)
            if r1.epsilon is not None:
                assert abs(r1.epsilon - r2.epsilon) <= 1e-9
            n1 = contamination_need(problem, act, prior)
            n2 = contamination_need(other, act, prior)
            assert (n1.epsilon is None) == (n2.epsilon is None)
            if n1.epsilon is not None:
                assert abs(n1.epsilon - n2.epsilon) <= 1e-9

    rng = np.random.default_rng(1008)
    for _ in range(200):
        problem = random_problem(rng, max_acts=4, max_states=4)
        prior = random_prior(rng, problem.num_states)
        scale = float(rng.uniform(0.0, 10.0)) or 1e-3
        shift = float(rng.uniform(-5.0, 5.0))
        assert_invariant(problem, prior, affine_transform(problem, scale, shift))
    # extreme magnitudes: log-uniform scales in [1e-8, 1e8], shifts in proportion
    rng = np.random.default_rng(1080)
    for _ in range(100):
        problem = random_problem(rng, max_acts=4, max_states=4)
        prior = random_prior(rng, problem.num_states)
        scale = float(10.0 ** rng.uniform(-8.0, 8.0))
        shift = scale * float(rng.uniform(-5.0, 5.0))
        assert_invariant(problem, prior, affine_transform(problem, scale, shift))
    verdict(
        8,
        "optimal sets, radii and needs unchanged by 200 positive rescalings"
        " and 100 more at scales 1e-8 to 1e8",
    )


def test_criterion_9_scenario_pipeline(tmp_path):
    panel = build_planted_panel()
    monthly = tmp_path / "monthly.csv"
    monthly.write_text(planted_monthly_csv(panel))
    weights = tmp_path / "weights.csv"
    weights.write_text(PLANTED_WEIGHTS_CSV)

    outputs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        out.mkdir()
        code = main(
            [
                "scenarios", "--monthly", str(monthly), "--weights", str(weights),
                "--seed", "42", "--k", "4", "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out)

    with open(outputs[0] / "regimes.csv", newline="") as fh:
        regime_rows = list(csv.DictReader(fh))
    labels = [row["label"] for row in regime_rows]
    accuracy = float(np.mean([a == b for a, b in zip(labels, panel["planted_names"])]))
    assert accuracy >= 0.95
    assert set(labels) == set(REGIME_STATES)

    # utility matrix equals an independent plain-python group-by mean
    from priorstab.io import load_utilities

    problem = load_utilities(outputs[0] / "utilities.csv")
    weights_by_act = {
        "all_market": [1.0, 0.0, 0.0],
        "defensive_mix": [0.2, 0.7, 0.1],
        "balanced": [0.4, 0.4, 0.2],
    }
    for i, act in enumerate(problem.acts):
        w = weights_by_act[act]
        port = [
            sum(wk * float(panel["returns"][t, k]) for k, wk in enumerate(w))
            for t in range(len(labels))
        ]
        for j, state in enumerate(problem.states):
            members = [t for t, lab in enumerate(labels) if lab == state]
            mean = float(np.mean([port[t] for t in members]))
            assert abs(problem.utilities[i, j] - mean) <= 1e-12

    for name in ("regimes.csv", "utilities.csv"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    verdict(9, f"partition accuracy {accuracy:.3f}, group-by means match, reruns byte-identical")


def test_criterion_10_baseline_reductions():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        problem = random_problem(rng)
        prior = random_prior(rng, problem.num_states)
        for result in gamma_aggregate(problem, prior, 0.0, 0.37):
            for act in problem.acts:
                assert result.values[act] == expected_utility(problem, act, prior)
        trusting = rex_score(problem, prior, 1.0)
        analyzed = bayes_acts(problem, prior).expected_utilities
        for act in problem.acts:
            assert trusting.values[act] == analyzed[act]
        assert trusting.optimal == bayes_acts(problem, prior).optimal_acts
        cautious = rex_score(problem, prior, 0.0)
        floors = {act: float(problem.row(act).min()) for act in problem.acts}
        best = max(floors.values())
        maximin = tuple(a for a in problem.acts if floors[a] >= best - 1e-12)
        for act in problem.acts:
            assert cautious.values[act] == floors[act]
        assert cautious.optimal == maximin
    verdict(10, "zero-band criteria and trust-blend endpoints reduce exactly, 100 problems")
