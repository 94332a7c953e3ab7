import numpy as np
import pytest
from scipy.optimize import linprog

from priorstab import minimize_over_band
from priorstab.lp import LinearProgram, LpStatus, SolverError, solve_lp

from conftest import (
    HIGHS_OPTIONS,
    band_bounds,
    band_feasible_with_halfspaces,
    random_prior,
    reference_simplex,
)


def standard_form(objective, eq_matrix, eq_rhs, lower, upper, basis):
    """Pose min c.x, A x = b, lower <= x <= upper as a standard-form program.

    Substitutes x = lower + y with y >= 0, and adds a row y_j + s_j = cap_j
    for each finite upper bound; ``basis`` indexes the columns (y, then s) of
    a feasible vertex.  Returns the program and a map from its outcome to the
    original point and objective value.
    """
    c = np.asarray(objective, dtype=float)
    A = np.asarray(eq_matrix, dtype=float).reshape(-1, c.size)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n, r = c.size, A.shape[0]
    capped = np.flatnonzero(np.isfinite(upper))
    k = capped.size
    rows = np.zeros((r + k, n + k))
    rows[:r, :n] = A
    rows[r + np.arange(k), capped] = 1.0
    rows[r + np.arange(k), n + np.arange(k)] = 1.0
    rhs = np.concatenate([np.asarray(eq_rhs, dtype=float) - A @ lower, (upper - lower)[capped]])
    lp = LinearProgram(np.concatenate([c, np.zeros(k)]), rows, rhs, basis)

    def recover(out):
        return lower + out.point[:n], out.value + float(c @ lower)

    return lp, recover


def inequality_form(objective, ub_matrix, ub_rhs):
    """min c.x, A x <= b, x >= 0 with b >= 0, slacked, from its slack basis."""
    A = np.asarray(ub_matrix, dtype=float)
    r, n = A.shape
    return LinearProgram(
        np.concatenate([objective, np.zeros(r)]), np.hstack([A, np.eye(r)]), ub_rhs,
        n + np.arange(r),
    )


def band_minimum_highs(direction, center, radius):
    """The band-minimization instance, solved by scipy's HiGHS."""
    lower, upper = band_bounds(center, radius)
    res = linprog(
        direction, A_eq=np.ones((1, len(center))), b_eq=[1.0],
        bounds=list(zip(lower, upper)), method="highs", options=HIGHS_OPTIONS,
    )
    assert res.status == 0
    return res.fun


class TestSolveLp:
    def test_vertex_of_unit_simplex(self):
        out = solve_lp(LinearProgram([1.0, 0.0], [[1.0, 1.0]], [1.0], [0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(0.0, abs=1e-12)
        assert out.point == pytest.approx([0.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize(
        "program",
        [
            # x = 2 against the bound row x + s = 1: the basis puts s at -1
            pytest.param(([0.0, 0.0], [[1.0, 0.0], [1.0, 1.0]], [2.0, 1.0]), id="infeasible"),
            # a repeated row leaves no two columns independent
            pytest.param(([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]), id="singular"),
        ],
    )
    def test_unusable_basis_is_rejected(self, program):
        with pytest.raises(SolverError, match="starting basis"):
            solve_lp(LinearProgram(*program, [0, 1]))

    def test_segment_vertices(self):
        # Feasible set is the segment between (0.7, 0.3) and (0.3, 0.7);
        # enumerating both endpoints gives the optimum.  The start is
        # (0.7, 0.3): y1 in the sum row, s1 and s2 in their cap rows.
        objective = np.array([1.0, 2.0])
        vertices = [np.array([0.7, 0.3]), np.array([0.3, 0.7])]
        expected = min(float(objective @ v) for v in vertices)
        lp, recover = standard_form(
            objective, [[1.0, 1.0]], [1.0], [0.3, 0.3], [0.7, 0.7], [0, 2, 3]
        )
        out = solve_lp(lp)
        assert out.status is LpStatus.OPTIMAL
        point, value = recover(out)
        assert value == pytest.approx(expected, abs=1e-9)
        assert point == pytest.approx([0.7, 0.3], abs=1e-9)

    def test_unbounded(self):
        out = solve_lp(LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0]))
        assert out.status is LpStatus.UNBOUNDED

    def test_dimension_mismatch_is_structural_error(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, 2.0], [[1.0]], [1.0], [0])
        with pytest.raises(ValueError, match="basis"):
            LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], [0, 1])
        with pytest.raises(ValueError, match="basis"):
            LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], [2])

    def test_degenerate_instance_terminates(self):
        # Beale's example cycles under the naive most-negative rule; Bland's
        # rule must terminate at the optimum.
        out = solve_lp(beale_program())
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-9)

    def test_deterministic(self):
        # starts at the vertex (0.6, 0.4, 0): y0, y1 and the slacks s1, s2
        lp, _ = standard_form(
            [1.0, -2.0, 0.5], [[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.full(3, 0.6), [0, 1, 4, 5]
        )
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.value == second.value
        assert np.array_equal(first.point, second.point)

    def test_random_instances_match_scipy(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            c, A, b, upper = random_inequality_program(rng)
            n = c.size
            # x <= upper enters as rows, so the program is bounded
            lp = inequality_form(c, np.vstack([A, np.eye(n)]), np.concatenate([b, upper]))
            ours = solve_lp(lp)
            ref = linprog(c, A_ub=A, b_ub=b, bounds=list(zip(np.zeros(n), upper)), method="highs")
            assert ours.status is LpStatus.OPTIMAL
            assert ref.status == 0
            point = ours.point[:n]
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(point >= 0.0)
            assert np.all(point <= upper + 1e-12)
            assert np.max(A @ point - b) < 1e-9


def random_inequality_program(rng):
    """min c.x subject to A x <= b and 0 <= x <= upper, with b >= 0."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 4))
    upper = rng.uniform(0.5, 3.0, n)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.0, 2.0, m)
    c = rng.normal(size=n)
    return c, A, b, upper


def with_objective(lp, objective):
    """``lp`` on the same constraint arrays, with a new cost on its original
    variables (none on the slacks), as a restart requires."""
    return lp.with_objective(np.concatenate([objective, np.zeros(lp.eq_rhs.size)]))


class TestRestart:
    def test_restarts_match_scipy(self):
        # Each program is solved from its slack basis, then restarted under
        # three fresh objectives in turn, each from the previous optimum.
        rng = np.random.default_rng(101)
        pivoted = 0
        for _ in range(80):
            c, A, b, upper = random_inequality_program(rng)
            n = c.size
            rows, rhs = np.vstack([A, np.eye(n)]), np.concatenate([b, upper])
            cold = inequality_form(c, rows, rhs)
            start = solve_lp(cold)
            for _ in range(3):
                fresh = rng.normal(size=n)
                ours = solve_lp(with_objective(cold, fresh), start=start)
                ref = linprog(
                    fresh, A_ub=A, b_ub=b, bounds=list(zip(np.zeros(n), upper)),
                    method="highs", options=HIGHS_OPTIONS,
                )
                assert ours.status is LpStatus.OPTIMAL
                assert ref.status == 0
                assert ours.value == pytest.approx(ref.fun, abs=1e-9)
                point = ours.point[:n]
                assert np.all(point >= 0.0)
                assert np.all(point <= upper + 1e-12)
                assert np.max(A @ point - b) < 1e-9
                pivoted += not np.array_equal(ours.basis, start.basis)
                start = ours
        assert pivoted > 0

    def test_restart_to_an_unbounded_objective(self):
        # x0 has no cap row and only loosens the rows (A[:, 0] <= 0), so a
        # positive cost on it is bounded and a negative one is not
        rng = np.random.default_rng(707)
        for _ in range(40):
            c, A, b, upper = random_inequality_program(rng)
            n = c.size
            A[:, 0] = -np.abs(A[:, 0])
            rows, rhs = np.vstack([A, np.eye(n)[1:]]), np.concatenate([b, upper[1:]])
            c[0] = abs(c[0])
            cold = inequality_form(c, rows, rhs)
            start = solve_lp(cold)
            assert start.status is LpStatus.OPTIMAL
            fresh = rng.normal(size=n)
            fresh[0] = -abs(fresh[0])
            ref = linprog(
                fresh, A_ub=rows, b_ub=rhs, bounds=(0, None), method="highs",
                options=HIGHS_OPTIONS,
            )
            assert ref.status == 3  # unbounded
            out = solve_lp(with_objective(cold, fresh), start=start)
            assert out.status is LpStatus.UNBOUNDED
            assert out.tableau is None
            with pytest.raises(ValueError, match="tableau"):
                solve_lp(cold, start=out)

    def test_same_objective_takes_no_pivot(self, monkeypatch):
        import priorstab.lp as lp_module

        pivots = []
        pivot = lp_module._pivot

        def counted(T, row, col):
            pivots.append((row, col))
            pivot(T, row, col)

        rng = np.random.default_rng(808)
        for _ in range(20):
            c, A, b, upper = random_inequality_program(rng)
            lp = inequality_form(c, np.vstack([A, np.eye(c.size)]), np.concatenate([b, upper]))
            first = solve_lp(lp)
            monkeypatch.setattr(lp_module, "_pivot", counted)
            again = solve_lp(lp, start=first)
            monkeypatch.undo()
            assert pivots == []
            assert again.value == first.value
            assert np.array_equal(again.point, first.point)
            assert np.array_equal(again.basis, first.basis)

    def test_start_of_another_shape_is_rejected(self):
        first = solve_lp(inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0]))
        other = inequality_form([1.0, -1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.5])
        with pytest.raises(ValueError, match="same constraint arrays"):
            solve_lp(other, start=first)
        wider = inequality_form([1.0, -1.0, 0.5], [[1.0, 1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="same constraint arrays"):
            solve_lp(wider, start=first)

    def test_start_from_other_constraints_of_the_same_shape_is_rejected(self):
        # Restarted from x <= 1, the program x <= 2 would stop at the old
        # optimum x = 1: a same-shape start must come from the same arrays.
        lp = inequality_form([-1.0], [[1.0]], [1.0])
        first = solve_lp(lp)
        assert first.value == -1.0
        other = inequality_form([-1.0], [[1.0]], [2.0])
        with pytest.raises(ValueError, match="same constraint arrays"):
            solve_lp(other, start=first)
        copied = LinearProgram(lp.objective, lp.eq_matrix.copy(), lp.eq_rhs, lp.basis)
        with pytest.raises(ValueError, match="same constraint arrays"):
            solve_lp(copied, start=first)
        assert solve_lp(with_objective(lp, [-2.0]), start=first).value == -2.0

    def test_with_objective_keeps_the_constraints_and_checks_the_objective(self):
        lp = inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0])
        other = lp.with_objective([2.0, -1.0, 0.0])
        assert other.objective.tolist() == [2.0, -1.0, 0.0]
        assert lp.objective.tolist() == [1.0, -1.0, 0.0]
        assert other.eq_matrix is lp.eq_matrix and other.eq_rhs is lp.eq_rhs
        assert other.basis is lp.basis
        for bad, match in (([1.0, 2.0], "2 entries for 3"), ([[1.0, 2.0, 3.0]], "one-dimensional"),
                           ([np.nan, 0.0, 0.0], "finite"), ([np.inf, 0.0, 0.0], "finite")):
            with pytest.raises(ValueError, match=match):
                lp.with_objective(bad)

    def test_repr_leaves_out_the_restart_state(self):
        out = solve_lp(inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0]))
        assert out.tableau is not None
        assert "tableau" not in repr(out) and "basis" not in repr(out)


def assert_same_path(ours, ref):
    """``solve_lp``'s outcome equals the reference run's, bit for bit."""
    assert ours.status.value == ref.status
    if ref.status == "optimal":
        assert float(ours.value).hex() == float(ref.value).hex()
        assert ours.point.tobytes() == ref.point.tobytes()
        assert np.array_equal(ours.basis, ref.basis)
        assert ours.tableau.tobytes() == ref.tableau.tobytes()


class TestPivotPath:
    """`solve_lp` takes the reference simplex's pivots, not only its optimum."""

    def test_random_programs_and_their_restarts(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            c, A, b, upper = random_inequality_program(rng)
            n = c.size
            cold = inequality_form(c, np.vstack([A, np.eye(n)]), np.concatenate([b, upper]))
            start = solve_lp(cold)
            assert_same_path(start, reference_simplex(cold))
            for _ in range(3):
                lp = with_objective(cold, rng.normal(size=n))
                ours = solve_lp(lp, start=start)
                assert_same_path(ours, reference_simplex(lp, start))
                start = ours

    def test_beale_takes_the_bland_fallback(self):
        ref = reference_simplex(beale_program())
        assert ref.used_bland
        assert_same_path(solve_lp(beale_program()), ref)

    def test_profile_programs(self, monkeypatch):
        # Every certificate and need program of some profiles, cold or
        # restarted; the certificate programs pivot in -1 slack entries.
        import priorstab.stability as stab

        solved = []
        solve = stab.solve_lp

        def spied(lp, *, start=None):
            out = solve(lp, start=start)
            solved.append((lp, start, out))
            return out

        monkeypatch.setattr(stab, "solve_lp", spied)
        rng = np.random.default_rng(303)
        for _ in range(12):
            n, m = int(rng.integers(3, 9)), int(rng.integers(2, 6))
            u = rng.uniform(-1.0, 1.0, size=(n + 2, m))
            u[n] = u[:2].mean(axis=0) - 0.05  # strictly dominated
            u[n + 1] = np.round(u[n + 1], 1)
            problem = stab.DecisionProblem(
                [f"a{i}" for i in range(n + 2)], [f"s{j}" for j in range(m)], u
            )
            stab.stability_profile(problem, [random_prior(rng, m, f"p{k}") for k in range(5)])
        monkeypatch.undo()
        # a need program's objective starts (-1, 1); a certificate program's
        # has its only nonzero, -1, at t
        need = [(lp, start) for lp, start, _ in solved if lp.objective[1] == 1.0]
        assert len(need) < len(solved)
        assert any(start is not None for _, start in need)
        for lp, start, out in solved:
            assert_same_path(out, reference_simplex(lp, start))


def beale_program():
    """Beale's example: cycles under the most-negative rule on its own.

    The third variable is capped at 1 by the last row.
    """
    A = np.array(
        [
            [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
    return LinearProgram(c, A, [0.0, 0.0, 1.0], [4, 5, 6])


def assert_matches_highs(lp):
    ours = solve_lp(lp)
    ref = linprog(lp.objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs, method="highs")
    assert ref.status == 0
    assert ours.status is LpStatus.OPTIMAL
    assert ours.value == pytest.approx(ref.fun, abs=1e-9)
    assert np.max(np.abs(lp.eq_matrix @ ours.point - lp.eq_rhs)) < 1e-9
    assert np.all(ours.point >= 0.0)


class TestPricingAndCrash:
    def test_beale_terminates_at_the_known_optimum(self):
        # optimum x = (1/25, 0, 1, 0) with value -1/20 (Beale, 1955)
        out = solve_lp(beale_program())
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-12)
        assert out.point[:4] == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)

    def test_program_without_rows(self):
        out = solve_lp(LinearProgram([1.0, 2.0], np.zeros((0, 2)), [], []))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == 0.0
        assert np.array_equal(out.point, [0.0, 0.0])

    def test_beale_cycles_without_the_bland_fallback(self, monkeypatch):
        import priorstab.lp as lp_module

        monkeypatch.setattr(lp_module, "_STALL_LIMIT", 10**9)
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 500)
        with pytest.raises(lp_module.SolverError, match="pivot limit"):
            solve_lp(beale_program())

    def test_degenerate_slack_basis_matches_highs(self):
        rng = np.random.default_rng(505)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            # B x <= d on even rows and B x >= 0 on odd rows, so every odd
            # slack starts basic at 0; each x is capped by a row of its own
            B = rng.uniform(-1.0, 1.0, size=(m, n))
            sign = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
            d = np.where(sign > 0, rng.uniform(0.1, 2.0, m), 0.0)
            A = np.vstack([sign[:, None] * B, np.eye(n)])
            caps = rng.uniform(0.5, 2.0, n)
            assert_matches_highs(inequality_form(rng.normal(size=n), A, np.concatenate([d, caps])))


class TestMinimizeOverBand:
    def test_matches_explicit_program(self):
        value, point, _ = minimize_over_band([1.0, 2.0], [0.5, 0.5], 0.2)
        assert value == pytest.approx(band_minimum_highs([1.0, 2.0], [0.5, 0.5], 0.2), abs=1e-9)
        assert value == pytest.approx(1.3, abs=1e-9)
        assert point == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_zero_radius_returns_center(self):
        center = np.array([0.3, 0.45, 0.25])
        d = np.array([0.2, -1.4, 3.0])
        value, point, _ = minimize_over_band(d, center, 0.0)
        assert np.array_equal(point, center)
        assert value == float(center @ d)

    def test_full_simplex_puts_mass_on_minimum(self):
        value, point, _ = minimize_over_band([5.0, 1.0, 3.0], [1 / 3, 1 / 3, 1 / 3], 1.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert point == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_tie_breaks_toward_lower_index(self):
        _, point, _ = minimize_over_band([1.0, 1.0, 2.0, 2.0], [0.25, 0.25, 0.25, 0.25], 1.0)
        assert point == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize_over_band([1.0, 2.0, 3.0], [0.5, 0.5], 0.1)

    def test_random_instances_match_simplex(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            m = int(rng.integers(2, 7))
            center, radius = rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 1.0))
            d = rng.uniform(-1.0, 1.0, m)
            value, point, _ = minimize_over_band(d, center, radius)
            assert value == pytest.approx(band_minimum_highs(d, center, radius), abs=1e-9)
            # the greedy point itself lies in band-and-simplex
            lower, upper = band_bounds(center, radius)
            assert point.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(point >= lower - 1e-15)
            assert np.all(point <= upper + 1e-15)

    def test_negating_direction_negates_value(self):
        def maximize_over_band(d, center, radius):
            # independent route: pour mass in descending coefficient order
            lower, upper = band_bounds(center, radius)
            point = lower.copy()
            residual = 1.0 - point.sum()
            caps = upper - lower
            for j in np.argsort(-np.asarray(d), kind="stable"):
                take = min(caps[j], residual)
                point[j] += take
                residual -= take
                if residual <= 0.0:
                    break
            return float(point @ d)

        rng = np.random.default_rng(303)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            center, radius = rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 1.0))
            d = rng.uniform(-1.0, 1.0, m)
            value, _, _ = minimize_over_band(d, center, radius)
            assert value == pytest.approx(-maximize_over_band(-d, center, radius), abs=1e-12)


def band_min_reference(d, center, radius):
    """Band minimum by the plain pour from 1 - sum(lower), without rates."""
    lower, upper = band_bounds(center, radius)
    point = lower.copy()
    residual = 1.0 - point.sum()
    caps = upper - lower
    for j in np.argsort(d, kind="stable"):
        take = min(caps[j], residual)
        point[j] += take
        residual -= take
        if residual <= 0.0:
            break
    return float(point @ d)


class TestBandMinimumRate:
    def test_toy_rate_at_radius_zero(self):
        # every capacity is 0 at radius 0; beyond it s1 (d=1) falls with its
        # lower bound and s2 (d=-1) takes that mass, so the rate is -1 - 1
        _, point, slope = minimize_over_band([1.0, -1.0], [0.7, 0.3], 0.0)
        assert np.array_equal(point, [0.7, 0.3])
        assert slope == -2.0

    def test_rate_stops_at_the_clips(self):
        # beyond radius 0.3 the s2 upper bound is clipped at 1 and the s1 lower
        # bound at 0, so nothing moves any more
        _, _, slope = minimize_over_band([1.0, -1.0], [0.3, 0.7], 0.3)
        assert slope == 0.0
        _, _, slope = minimize_over_band([1.0, -1.0], [0.3, 0.7], 0.2)
        assert slope == -2.0

    def test_rates_match_finite_differences(self):
        rng = np.random.default_rng(505)
        h = 1e-7
        for _ in range(300):
            m = int(rng.integers(2, 8))
            center = rng.dirichlet(np.ones(m))
            d = rng.uniform(-1.0, 1.0, m)
            radius = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.0, 1.0 - h))
            _, _, slope = minimize_over_band(d, center, radius)
            ahead = band_min_reference(d, center, radius + h)
            here = band_min_reference(d, center, radius)
            # pieces are far wider than h except with negligible probability
            assert slope == pytest.approx((ahead - here) / h, abs=1e-6)


class TestBandFeasibility:
    def test_no_halfspaces_returns_center(self):
        res = band_feasible_with_halfspaces([0.7, 0.3], 0.1, [])
        assert res.feasible
        assert np.array_equal(res.witness, [0.7, 0.3])

    def test_center_already_satisfies(self):
        res = band_feasible_with_halfspaces([0.7, 0.3], 0.1, [[1.0, -1.0]])
        assert res.feasible
        assert res.witness[0] >= res.witness[1]

    def test_out_of_reach_halfspace(self):
        # max attainable first coordinate is 0.3, but the halfspace needs 0.5
        res = band_feasible_with_halfspaces([0.2, 0.8], 0.1, [[1.0, -1.0]])
        assert not res.feasible
        assert res.witness is None

    def test_witness_respects_all_constraints(self):
        rng = np.random.default_rng(404)
        hits = 0
        for _ in range(100):
            m = int(rng.integers(2, 5))
            center, radius = rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 0.5))
            normals = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 4)), m))
            res = band_feasible_with_halfspaces(center, radius, normals)
            if res.feasible:
                hits += 1
                w = res.witness
                lower, upper = band_bounds(center, radius)
                assert w.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(w >= lower - 1e-9)
                assert np.all(w <= upper + 1e-9)
                assert np.all(normals @ w >= -1e-9)
        assert hits > 0
