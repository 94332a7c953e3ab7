import numpy as np
import pytest
from scipy.optimize import linprog

from priorstab import BandBox, minimize_over_band
from priorstab.lp import LinearProgram, LpStatus, solve_lp

from conftest import band_feasible_with_halfspaces


def standard_form(objective, eq_matrix, eq_rhs, lower, upper):
    """Pose min c.x, A x = b, lower <= x <= upper as a standard-form program.

    Substitutes x = lower + y with y >= 0, and adds a row y_j + s_j = cap_j
    for each finite upper bound.  Returns the program and a map from its
    outcome to the original point and objective value.
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
    lp = LinearProgram(np.concatenate([c, np.zeros(k)]), rows, rhs)

    def recover(out):
        return lower + out.point[:n], out.value + float(c @ lower)

    return lp, recover


def band_lp(direction, band):
    """The band-minimization instance as an explicit program."""
    m = band.dimension
    return standard_form(direction, np.ones((1, m)), [1.0], band.lower, band.upper)


class TestSolveLp:
    def test_vertex_of_unit_simplex(self):
        out = solve_lp(LinearProgram([1.0, 0.0], [[1.0, 1.0]], [1.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(0.0, abs=1e-12)
        assert out.point == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_bound_contradiction_is_infeasible(self):
        # x = 2 against the bound row x + s = 1
        out = solve_lp(LinearProgram([0.0, 0.0], [[1.0, 0.0], [1.0, 1.0]], [2.0, 1.0]))
        assert out.status is LpStatus.INFEASIBLE

    def test_segment_vertices(self):
        # Feasible set is the segment between (0.7, 0.3) and (0.3, 0.7);
        # enumerating both endpoints gives the optimum.
        objective = np.array([1.0, 2.0])
        vertices = [np.array([0.7, 0.3]), np.array([0.3, 0.7])]
        expected = min(float(objective @ v) for v in vertices)
        lp, recover = standard_form(objective, [[1.0, 1.0]], [1.0], [0.3, 0.3], [0.7, 0.7])
        out = solve_lp(lp)
        assert out.status is LpStatus.OPTIMAL
        point, value = recover(out)
        assert value == pytest.approx(expected, abs=1e-9)
        assert point == pytest.approx([0.7, 0.3], abs=1e-9)

    def test_unbounded(self):
        out = solve_lp(LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0]))
        assert out.status is LpStatus.UNBOUNDED

    def test_dimension_mismatch_is_structural_error(self):
        with pytest.raises(ValueError):
            LinearProgram([1.0, 2.0], [[1.0]], [1.0])

    def test_degenerate_instance_terminates(self):
        # Beale's example cycles under the naive most-negative rule; Bland's
        # rule must terminate at the optimum.
        out = solve_lp(beale_program())
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-9)

    def test_redundant_rows_are_tolerated(self):
        out = solve_lp(LinearProgram([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        lp, _ = standard_form([1.0, -2.0, 0.5], [[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.full(3, 0.6))
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.value == second.value
        assert np.array_equal(first.point, second.point)

    def test_random_instances_match_scipy(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 4))
            lower = rng.uniform(-2.0, 0.0, n)
            upper = lower + rng.uniform(0.5, 3.0, n)
            x0 = rng.uniform(lower, upper)
            A = rng.normal(size=(m, n))
            b = A @ x0
            c = rng.normal(size=n)
            lp, recover = standard_form(c, A, b, lower, upper)
            ours = solve_lp(lp)
            ref = linprog(c, A_eq=A, b_eq=b, bounds=list(zip(lower, upper)), method="highs")
            assert ours.status is LpStatus.OPTIMAL
            assert ref.status == 0
            point, value = recover(ours)
            assert value == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(point >= lower - 1e-12)
            assert np.all(point <= upper + 1e-12)
            assert np.max(np.abs(A @ point - b)) < 1e-9


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
    return LinearProgram(c, A, [0.0, 0.0, 1.0])


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
        out = solve_lp(LinearProgram([1.0, 2.0], np.zeros((0, 2)), []))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == 0.0
        assert np.array_equal(out.point, [0.0, 0.0])

    def test_beale_cycles_without_the_bland_fallback(self, monkeypatch):
        import priorstab.lp as lp_module

        monkeypatch.setattr(lp_module, "_STALL_LIMIT", 10**9)
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 500)
        with pytest.raises(lp_module.SolverError, match="pivot limit"):
            solve_lp(beale_program())

    @pytest.fixture
    def crashes(self, monkeypatch):
        """Record the crash basis of every program solved."""
        import priorstab.lp as lp_module

        seen = []
        original = lp_module._crash_basis

        def recording(A, b):
            crash = original(A, b)
            seen.append(crash.copy())
            return crash

        monkeypatch.setattr(lp_module, "_crash_basis", recording)
        return seen

    def test_every_row_crashed_matches_highs(self, crashes):
        rng = np.random.default_rng(505)
        for _ in range(60):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            # slacked inequalities B x <= d; every other row has rhs 0 and a
            # surplus column (-1), which the crash takes after a sign flip;
            # the capped x get a slack row each
            B = rng.uniform(-1.0, 1.0, size=(m, n))
            sign = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
            d = np.where(sign > 0, rng.uniform(0.1, 2.0, m), 0.0)
            A = np.hstack([B, np.diag(sign)])
            upper = np.concatenate([rng.uniform(0.5, 2.0, n), np.full(m, np.inf)])
            lp, _ = standard_form(rng.normal(size=n + m), A, d, np.zeros(n + m), upper)
            assert_matches_highs(lp)
            assert np.all(crashes.pop() >= 0)

    def test_no_row_crashed_matches_highs(self, crashes):
        rng = np.random.default_rng(606)
        for _ in range(60):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(2, 5))
            A = rng.uniform(0.1, 1.0, size=(m, n)) * rng.choice([-1.0, 1.0], size=(m, n))
            b = A @ rng.uniform(0.0, 1.0, n)
            assert_matches_highs(LinearProgram(rng.uniform(0.1, 1.0, n), A, b))
            assert np.all(crashes.pop() < 0)


class TestBandBox:
    def test_bounds_bracket_center(self):
        band = BandBox([0.2, 0.5, 0.3], 0.25)
        assert np.all(band.lower <= band.center)
        assert np.all(band.center <= band.upper)
        assert band.lower.sum() <= 1.0 + 1e-9
        assert band.upper.sum() >= 1.0 - 1e-9

    def test_rejects_bad_center(self):
        with pytest.raises(ValueError):
            BandBox([0.5, 0.6], 0.1)
        with pytest.raises(ValueError):
            BandBox([-0.1, 1.1], 0.1)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            BandBox([0.5, 0.5], -0.1)
        with pytest.raises(ValueError):
            BandBox([0.5, 0.5], 1.5)


class TestMinimizeOverBand:
    def test_matches_explicit_program(self):
        band = BandBox([0.5, 0.5], 0.2)
        value, point, _ = minimize_over_band([1.0, 2.0], band)
        lp, recover = band_lp([1.0, 2.0], band)
        assert value == pytest.approx(recover(solve_lp(lp))[1], abs=1e-9)
        assert value == pytest.approx(1.3, abs=1e-9)
        assert point == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_zero_radius_returns_center(self):
        center = np.array([0.3, 0.45, 0.25])
        band = BandBox(center, 0.0)
        d = np.array([0.2, -1.4, 3.0])
        value, point, _ = minimize_over_band(d, band)
        assert np.array_equal(point, center)
        assert value == float(center @ d)

    def test_full_simplex_puts_mass_on_minimum(self):
        band = BandBox([1 / 3, 1 / 3, 1 / 3], 1.0)
        value, point, _ = minimize_over_band([5.0, 1.0, 3.0], band)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert point == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_tie_breaks_toward_lower_index(self):
        band = BandBox([0.25, 0.25, 0.25, 0.25], 1.0)
        _, point, _ = minimize_over_band([1.0, 1.0, 2.0, 2.0], band)
        assert point == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            minimize_over_band([1.0, 2.0, 3.0], BandBox([0.5, 0.5], 0.1))

    def test_random_instances_match_simplex(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            m = int(rng.integers(2, 7))
            band = BandBox(rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 1.0)))
            d = rng.uniform(-1.0, 1.0, m)
            value, point, _ = minimize_over_band(d, band)
            lp, recover = band_lp(d, band)
            out = solve_lp(lp)
            assert out.status is LpStatus.OPTIMAL
            assert value == pytest.approx(recover(out)[1], abs=1e-9)
            # the greedy point itself lies in band-and-simplex
            assert point.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(point >= band.lower - 1e-15)
            assert np.all(point <= band.upper + 1e-15)

    def test_negating_direction_negates_value(self):
        def maximize_over_band(d, band):
            # independent route: pour mass in descending coefficient order
            point = band.lower.copy()
            residual = 1.0 - point.sum()
            caps = band.upper - band.lower
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
            band = BandBox(rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 1.0)))
            d = rng.uniform(-1.0, 1.0, m)
            value, _, _ = minimize_over_band(d, band)
            assert value == pytest.approx(-maximize_over_band(-d, band), abs=1e-12)


def band_min_reference(d, band):
    """Band minimum by the plain pour from 1 - sum(lower), without rates."""
    point = band.lower.copy()
    residual = 1.0 - point.sum()
    caps = band.upper - band.lower
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
        _, point, slope = minimize_over_band([1.0, -1.0], BandBox([0.7, 0.3], 0.0))
        assert np.array_equal(point, [0.7, 0.3])
        assert slope == -2.0

    def test_rate_stops_at_the_clips(self):
        # beyond radius 0.3 the s2 upper bound is clipped at 1 and the s1 lower
        # bound at 0, so nothing moves any more
        _, _, slope = minimize_over_band([1.0, -1.0], BandBox([0.3, 0.7], 0.3))
        assert slope == 0.0
        _, _, slope = minimize_over_band([1.0, -1.0], BandBox([0.3, 0.7], 0.2))
        assert slope == -2.0

    def test_rates_match_finite_differences(self):
        rng = np.random.default_rng(505)
        h = 1e-7
        for _ in range(300):
            m = int(rng.integers(2, 8))
            center = rng.dirichlet(np.ones(m))
            d = rng.uniform(-1.0, 1.0, m)
            radius = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.0, 1.0 - h))
            _, _, slope = minimize_over_band(d, BandBox(center, radius))
            ahead = band_min_reference(d, BandBox(center, radius + h))
            here = band_min_reference(d, BandBox(center, radius))
            # pieces are far wider than h except with negligible probability
            assert slope == pytest.approx((ahead - here) / h, abs=1e-6)


class TestBandFeasibility:
    def test_no_halfspaces_returns_center(self):
        band = BandBox([0.7, 0.3], 0.1)
        res = band_feasible_with_halfspaces(band, [])
        assert res.feasible
        assert np.array_equal(res.witness, band.center)

    def test_center_already_satisfies(self):
        band = BandBox([0.7, 0.3], 0.1)
        res = band_feasible_with_halfspaces(band, [[1.0, -1.0]])
        assert res.feasible
        assert res.witness[0] >= res.witness[1]

    def test_out_of_reach_halfspace(self):
        # max attainable first coordinate is 0.3, but the halfspace needs 0.5
        band = BandBox([0.2, 0.8], 0.1)
        res = band_feasible_with_halfspaces(band, [[1.0, -1.0]])
        assert not res.feasible
        assert res.witness is None

    def test_witness_respects_all_constraints(self):
        rng = np.random.default_rng(404)
        hits = 0
        for _ in range(100):
            m = int(rng.integers(2, 5))
            band = BandBox(rng.dirichlet(np.ones(m)), float(rng.uniform(0.0, 0.5)))
            normals = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 4)), m))
            res = band_feasible_with_halfspaces(band, normals)
            if res.feasible:
                hits += 1
                w = res.witness
                assert w.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(w >= band.lower - 1e-9)
                assert np.all(w <= band.upper + 1e-9)
                assert np.all(normals @ w >= -1e-9)
        assert hits > 0
