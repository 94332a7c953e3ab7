import numpy as np
import pytest
from scipy.optimize import linprog

from priorstab.lp import (
    LinearProgram,
    LpStatus,
    SolverError,
    minimize_over_band,
    solve_lp,
    solve_lps,
)

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


def restart(lp, start):
    """``lp`` restarted from the outcome ``start``: a lone member of
    `solve_lps`, the one restart route."""
    return solve_lps([lp], starts=[start])[0]


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
                ours = restart(with_objective(cold, fresh), start)
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
            out = restart(with_objective(cold, fresh), start)
            assert out.status is LpStatus.UNBOUNDED
            assert out.tableau is None
            with pytest.raises(ValueError, match="tableau"):
                restart(cold, out)

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
            again = restart(lp, first)
            monkeypatch.undo()
            assert pivots == []
            assert again.value == first.value
            assert np.array_equal(again.point, first.point)
            assert np.array_equal(again.basis, first.basis)

    def test_start_of_another_shape_is_rejected(self):
        first = solve_lp(inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0]))
        other = inequality_form([1.0, -1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.5])
        with pytest.raises(ValueError, match="same constraint arrays"):
            restart(other, first)
        wider = inequality_form([1.0, -1.0, 0.5], [[1.0, 1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="same constraint arrays"):
            restart(wider, first)

    def test_start_from_other_constraints_of_the_same_shape_is_rejected(self):
        # Restarted from x <= 1, the program x <= 2 would stop at the old
        # optimum x = 1: a same-shape start must come from the same arrays.
        lp = inequality_form([-1.0], [[1.0]], [1.0])
        first = solve_lp(lp)
        assert first.value == -1.0
        other = inequality_form([-1.0], [[1.0]], [2.0])
        with pytest.raises(ValueError, match="same constraint arrays"):
            restart(other, first)
        copied = LinearProgram(lp.objective, lp.eq_matrix.copy(), lp.eq_rhs, lp.basis)
        with pytest.raises(ValueError, match="same constraint arrays"):
            restart(copied, first)
        assert restart(with_objective(lp, [-2.0]), first).value == -2.0

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
                ours = restart(lp, start)
                assert_same_path(ours, reference_simplex(lp, start))
                start = ours

    def test_beale_takes_the_bland_fallback(self):
        ref = reference_simplex(beale_program())
        assert ref.used_bland
        assert_same_path(solve_lp(beale_program()), ref)

    def test_profile_programs(self, monkeypatch):
        # Every certificate and need program of some profiles, cold or
        # restarted, alone or in a stack; the certificate programs pivot in
        # -1 slack entries.
        import priorstab.stability as stab

        solved, stacked = [], []
        solve, solve_stack = stab.solve_lp, stab.solve_lps

        def spied(lp):
            out = solve(lp)
            solved.append((lp, None, out))
            return out

        def spied_stack(lps, *, starts=None):
            outs = solve_stack(lps, starts=starts)
            stacked.append(len(lps))
            solved.extend(zip(lps, starts, outs))
            return outs

        monkeypatch.setattr(stab, "solve_lp", spied)
        monkeypatch.setattr(stab, "solve_lps", spied_stack)
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
        assert len(need) == sum(stacked) and max(stacked) > 1
        assert any(start is not None for _, start in need)
        for lp, start, out in solved:
            assert_same_path(out, reference_simplex(lp, start))

    def test_stacked_members_run_as_alone(self):
        rng = np.random.default_rng(111)
        for _ in range(40):
            lps = program_stack(rng, int(rng.integers(2, 9)))
            for lp, out in zip(lps, solve_lps(lps)):
                assert_same_outcome(out, solve_lp(lp))
                assert_same_path(out, reference_simplex(lp))

    def test_stacks_mix_cold_and_restarted_members(self):
        rng = np.random.default_rng(222)
        restarted = pivoted = 0
        for _ in range(40):
            cold = program_stack(rng, int(rng.integers(2, 9)))
            firsts = [solve_lp(lp) for lp in cold]
            n = cold[0].num_variables - cold[0].eq_rhs.size
            lps = [with_objective(lp, rng.normal(size=n)) for lp in cold]
            starts = [first if rng.uniform() < 0.5 else None for first in firsts]
            for lp, start, out in zip(lps, starts, solve_lps(lps, starts=starts)):
                assert_same_outcome(out, restart(lp, start))
                assert_same_path(out, reference_simplex(lp, start))
                if start is not None:
                    restarted += 1
                    pivoted += not np.array_equal(out.basis, start.basis)
        assert restarted > 0 and pivoted > 0

    def test_stacked_set_up_pivots_on_negative_entries(self, monkeypatch):
        # The certificate programs of one table share a shape, and their
        # starting bases pivot in -1 slack entries, whose rows then hold -0.0
        import priorstab.stability as stab

        programs = []
        solve = stab.solve_lp

        def spied(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(stab, "solve_lp", spied)
        rng = np.random.default_rng(555)
        stacks = []
        for _ in range(10):
            n, m = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            problem = stab.DecisionProblem(
                [f"a{i}" for i in range(n)], [f"s{j}" for j in range(m)],
                rng.uniform(-1.0, 1.0, size=(n, m)),
            )
            for act in problem.acts:
                stab.strict_inadmissibility_certificate(problem, act)
            stacks.append(programs[:])
            programs.clear()
        monkeypatch.undo()
        for lps in stacks:
            for lp, out in zip(lps, solve_lps(lps)):
                assert_same_outcome(out, solve_lp(lp))
                assert_same_path(out, reference_simplex(lp))

    def test_an_unbounded_member_leaves_the_others_running(self):
        # x0 has no cap row and only loosens the rows, so a negative cost on
        # it is unbounded and a positive one is not
        rng = np.random.default_rng(333)
        for _ in range(30):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            lps = []
            for k in range(int(rng.integers(3, 8))):
                A = rng.normal(size=(m, n))
                A[:, 0] = -np.abs(A[:, 0])
                c = rng.normal(size=n)
                c[0] = abs(c[0]) if k % 2 else -abs(c[0])
                rows = np.vstack([A, np.eye(n)[1:]])
                rhs = np.concatenate([rng.uniform(0.0, 2.0, m), rng.uniform(0.5, 3.0, n - 1)])
                lps.append(inequality_form(c, rows, rhs))
            outs = solve_lps(lps)
            assert [out.status for out in outs[:2]] == [LpStatus.UNBOUNDED, LpStatus.OPTIMAL]
            for lp, out in zip(lps, outs):
                assert_same_outcome(out, solve_lp(lp))
                assert_same_path(out, reference_simplex(lp))

    def test_beale_members_keep_their_own_pricing_rule(self):
        # Beale's objective, and twice it, cycle until both members switch to
        # Bland's rule inside the stack; the other objectives do not stall
        beale = beale_program()
        rng = np.random.default_rng(444)
        lps = [beale, beale.with_objective(2.0 * beale.objective)] + [
            beale.with_objective(np.concatenate([rng.normal(size=4), np.zeros(3)]))
            for _ in range(6)
        ]
        refs = [reference_simplex(lp) for lp in lps]
        assert refs[0].used_bland and refs[1].used_bland
        assert not any(ref.used_bland for ref in refs[2:])
        for lp, ref, out in zip(lps, refs, solve_lps(lps)):
            assert_same_outcome(out, solve_lp(lp))
            assert_same_path(out, ref)

    def test_members_switch_to_bland_at_their_own_step(self, monkeypatch):
        # With a stall limit of 1 or 2, degenerate pivots (rows with a zero
        # right-hand side) put members on Bland's rule at different steps
        # inside the stack, where they stay
        import priorstab.lp as lp_module

        rng = np.random.default_rng(666)
        switched = 0
        for limit in (1, 2):
            monkeypatch.setattr(lp_module, "_STALL_LIMIT", limit)
            for _ in range(30):
                n, m = int(rng.integers(3, 7)), int(rng.integers(2, 5))
                lps = []
                for _ in range(int(rng.integers(3, 8))):
                    A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
                    rhs = np.concatenate([np.where(np.arange(m) % 2 == 0, 0.0, 1.0),
                                          rng.uniform(0.5, 2.0, n)])
                    lps.append(inequality_form(rng.normal(size=n), A, rhs))
                refs = [reference_simplex(lp) for lp in lps]
                switched += sum(ref.used_bland for ref in refs)
                for lp, ref, out in zip(lps, refs, solve_lps(lps)):
                    assert_same_outcome(out, solve_lp(lp))
                    assert_same_path(out, ref)
        assert switched > 0

    def test_the_last_member_finishes_in_the_2d_loop(self, monkeypatch):
        # x3 alone takes one pivot to its cap; Beale, still cycling, is then
        # handed over with the stall count it has run up in the stack
        import priorstab.lp as lp_module

        handed = []
        run = lp_module._run_simplex

        def spied(T, basis, stalled=0, pivots=0):
            handed.append((stalled, pivots))
            return run(T, basis, stalled, pivots)

        beale = beale_program()
        lps = [beale_program(), beale.with_objective([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0])]
        monkeypatch.setattr(lp_module, "_run_simplex", spied)
        outs = solve_lps(lps)
        monkeypatch.undo()
        assert handed == [(1, 1)]
        for lp, out in zip(lps, outs):
            assert_same_outcome(out, solve_lp(lp))
            assert_same_path(out, reference_simplex(lp))

    def test_a_unit_basis_starts_without_set_up_pivots(self, monkeypatch):
        # Slack bases are exactly the unit vectors in row order, here with
        # -0.0 entries in the body and beside the slacks' ones, and with the
        # slack columns placed in shuffled positions; the run starts from the
        # constraints as they stand, with the reference's bits
        import priorstab.lp as lp_module

        pivots = []
        pivot, pivot_stack = lp_module._pivot, lp_module._pivot_stack
        run, run_stack = lp_module._run_simplex, lp_module._run_stack

        def counted(T, *args):
            pivots.append(1)
            return pivot(T, *args)

        def counted_stack(T, *args):
            pivots.append(len(T))
            return pivot_stack(T, *args)

        set_up = []

        def entered(T, *args):
            set_up.append(len(pivots))
            return run(T, *args)

        def entered_stack(T, *args):
            set_up.append(len(pivots))
            return run_stack(T, *args)

        monkeypatch.setattr(lp_module, "_pivot", counted)
        monkeypatch.setattr(lp_module, "_pivot_stack", counted_stack)
        monkeypatch.setattr(lp_module, "_run_simplex", entered)
        monkeypatch.setattr(lp_module, "_run_stack", entered_stack)
        rng = np.random.default_rng(777)
        signed_zeros = 0
        for _ in range(40):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            lps = []
            for _ in range(int(rng.integers(1, 5))):
                A = np.round(rng.normal(size=(m + n, n)), 1)
                A[rng.uniform(size=A.shape) < 0.3] = -0.0
                A[m:] = np.where(np.eye(n), 1.0, -0.0)  # caps on every variable
                order = rng.permutation(n + m + n)
                slacks = np.where(np.eye(m + n), 1.0, -0.0)
                matrix = np.empty((m + n, n + m + n))
                matrix[:, order[:n]] = A
                matrix[:, order[n:]] = slacks
                rhs = np.concatenate([rng.uniform(0.0, 2.0, m), rng.uniform(0.5, 3.0, n)])
                lps.append(LinearProgram(rng.normal(size=2 * n + m), matrix, rhs, order[n:]))
                signed_zeros += int(np.signbit(matrix[matrix == 0.0]).sum())
            pivots.clear()
            set_up.clear()
            outs = solve_lps(lps)
            assert set_up[0] == 0
            for lp, out in zip(lps, outs):
                pivots.clear()
                set_up.clear()
                alone = solve_lp(lp)
                assert set_up[0] == 0
                assert_same_outcome(out, alone)
                assert_same_path(out, reference_simplex(lp))
        assert signed_zeros > 0

    def test_a_permuted_unit_basis_still_pivots(self, monkeypatch):
        # The identity's columns named out of row order are no unit basis:
        # the set-up pivots run, and here find the basis singular, as they
        # would for any program; a diagonal basis other than the identity
        # pivots to the reference's bits
        import priorstab.lp as lp_module

        lp = inequality_form([1.0, -1.0], [[1.0, 1.0], [2.0, -1.0]], [1.0, 2.0])
        swapped = LinearProgram(lp.objective, lp.eq_matrix, lp.eq_rhs, lp.basis[::-1])
        for stack in ([swapped], [lp, swapped]):
            with pytest.raises(SolverError, match="singular") as caught:
                solve_lps(stack)
            assert caught.value.member == len(stack) - 1
        scaled = LinearProgram(lp.objective, lp.eq_matrix * [[2.0], [0.5]], lp.eq_rhs, lp.basis)
        pivots = []
        pivot = lp_module._pivot

        def counted(T, *args):
            pivots.append(args)
            return pivot(T, *args)

        monkeypatch.setattr(lp_module, "_pivot", counted)
        out = solve_lp(scaled)
        monkeypatch.undo()
        assert pivots[:2] == [(0, 2), (1, 3)]
        assert_same_path(out, reference_simplex(scaled))
        for out in solve_lps([scaled, lp]):
            assert_same_path(out, reference_simplex(out.program))

    def test_a_block_validates_once_and_judges_each_basis_apart(self):
        # The programs of a block share its basis columns' positions, but
        # only the matrices whose columns there are unit vectors skip the
        # set-up pivots; every program takes the reference's bits
        lp = inequality_form([1.0, -1.0], [[1.0, 1.0], [2.0, -1.0]], [1.0, 2.0])
        signed = np.where(lp.eq_matrix == 0.0, -0.0, lp.eq_matrix)
        block = np.stack([lp.eq_matrix, lp.eq_matrix * [[2.0], [0.5]], signed])
        programs = LinearProgram.block(block, lp.eq_rhs, lp.basis)
        assert [p._unit_basis for p in programs] == [True, False, True]
        assert all(p.eq_matrix.base is programs[0].eq_matrix.base for p in programs)
        for program in programs:
            program = program.with_objective(lp.objective)
            out = solve_lp(program)
            assert_same_path(out, reference_simplex(program))
        assert LinearProgram.block(block[:0], lp.eq_rhs, lp.basis) == []
        for bad in (block[0], np.where(block == 2.0, np.inf, block)):
            with pytest.raises(ValueError, match="finite three-dimensional"):
                LinearProgram.block(bad, lp.eq_rhs, lp.basis)

    def test_stacked_read_off_takes_each_members_bits(self, monkeypatch):
        # Every optimal need program of some profiles, read off its basis
        # within its stack, alone, and by a 2D solve of its own
        import priorstab.stability as stab

        stacks = []
        solve_stack = stab.solve_lps

        def spied(lps, *, starts=None):
            found = solve_stack(lps, starts=starts)
            stacks.append([out for out in found if out.status is LpStatus.OPTIMAL])
            return found

        monkeypatch.setattr(stab, "solve_lps", spied)
        rng = np.random.default_rng(888)
        for _ in range(10):
            n, m = int(rng.integers(4, 12)), int(rng.integers(2, 7))
            problem = stab.DecisionProblem(
                [f"a{i}" for i in range(n)], [f"s{j}" for j in range(m)],
                rng.uniform(-1.0, 1.0, size=(n, m)),
            )
            stab.stability_profile(problem, [random_prior(rng, m, f"p{k}") for k in range(4)])
        monkeypatch.undo()
        assert sum(map(len, stacks)) > 100 and max(map(len, stacks)) > 10
        for outs in stacks:
            for out, need in zip(outs, stab._needs_off_bases(outs)):
                expected = need_off_basis(out)
                assert need.epsilon.hex() == expected.hex()
                assert stab._needs_off_bases([out])[0].epsilon.hex() == expected.hex()

    def test_restart_stacks_cut_into_chunks_read_the_same(self, monkeypatch):
        import priorstab.stability as stab

        rng = np.random.default_rng(999)
        problem = stab.DecisionProblem(
            [f"a{i}" for i in range(12)], [f"s{j}" for j in range(5)],
            rng.uniform(-1.0, 1.0, size=(12, 5)),
        )
        priors = [random_prior(rng, 5, f"p{k}") for k in range(12)]
        sizes, members = [], []
        solve_stack = stab.solve_lps

        def spied(lps, *, starts=None):
            sizes.append(len(lps))
            outs = solve_stack(lps, starts=starts)
            members.extend(zip(lps, starts, outs))
            return outs

        monkeypatch.setattr(stab, "solve_lps", spied)
        monkeypatch.setattr(stab, "_RESTART_CHUNK", 1000)
        whole = stab.stability_profile(problem, priors)
        assert len(sizes) == 2 and sizes[1] > 50
        sizes.clear()
        monkeypatch.setattr(stab, "_RESTART_CHUNK", 5)
        chunked = stab.stability_profile(problem, priors)
        assert len(sizes) > 10 and max(sizes[1:]) == 5
        # in every chunk, each act restarts from its first outcome
        first = {}
        for lp, start, out in members:
            if start is None:
                first[id(lp.eq_matrix)] = out
            else:
                assert start is first[id(lp.eq_matrix)]
        assert [row.need.as_float().hex() for row in chunked.rows] == [
            row.need.as_float().hex() for row in whole.rows]

    def test_lone_and_malformed_stacks(self):
        lp = inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0])
        wider = inequality_form([1.0, -1.0, 0.5], [[1.0, 1.0, 1.0]], [1.0])
        assert solve_lps([]) == []
        alone = solve_lp(lp)
        assert_same_outcome(solve_lps([lp])[0], alone)
        assert_same_outcome(restart(lp, alone), solve_lps([lp, lp], starts=[alone, None])[0])
        assert_same_path(restart(lp, alone), reference_simplex(lp, alone))
        with pytest.raises(ValueError, match="share one shape"):
            solve_lps([lp, wider])
        with pytest.raises(ValueError, match="1 starts for 2 programs"):
            solve_lps([lp, lp], starts=[None])
        first = solve_lp(lp)
        with pytest.raises(ValueError, match="same constraint arrays"):
            solve_lps([lp, inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0])],
                      starts=[None, first])
        valid = LinearProgram([1.0, 0.0], [[1.0, 1.0]], [1.0], [0])
        singular = LinearProgram([1.0, 0.0], [[0.0, 1.0]], [1.0], [0])
        for stack in ([valid, singular], [valid, singular, valid]):
            with pytest.raises(SolverError, match="singular") as caught:
                solve_lps(stack)
            assert caught.value.member == 1


def program_stack(rng, count):
    """``count`` random capped inequality programs of one shape."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    lps = []
    for _ in range(count):
        A = rng.normal(size=(m, n))
        caps = rng.uniform(0.5, 3.0, n)
        rhs = np.concatenate([rng.uniform(0.0, 2.0, m), caps])
        lps.append(inequality_form(rng.normal(size=n), np.vstack([A, np.eye(n)]), rhs))
    return lps


def need_off_basis(out):
    """The need at an optimal need-program outcome, by a 2D solve of its
    final basis: the read-off of a single member."""
    basis = np.sort(out.basis)
    x = np.linalg.solve(out.program.eq_matrix[:, basis], out.program.eq_rhs)
    return min(max(-float(out.program.objective[basis] @ x), 0.0), 1.0)


def assert_same_outcome(ours, alone):
    """A stack member's outcome equals the solo run's, bit for bit."""
    assert ours.status is alone.status
    if alone.status is LpStatus.OPTIMAL:
        assert float(ours.value).hex() == float(alone.value).hex()
        assert ours.point.tobytes() == alone.point.tobytes()
        assert np.array_equal(ours.basis, alone.basis)
        assert ours.tableau.tobytes() == alone.tableau.tobytes()


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
