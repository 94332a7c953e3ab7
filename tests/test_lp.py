"""The simplex kernel, reached as the package reaches it: programs start
in a stack (`start_tableaux`, or the tests' `slack_tableaux`) and run in
`solve_stack`, a lone program as a stack of one.  Pivot paths are checked
against `reference_simplex`, run from the tableau and basis each member
started with."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from priorstab.lp import LpStatus, SolverError, minimize_over_band, solve_stack, start_tableaux

from conftest import (
    HIGHS_OPTIONS,
    as_float,
    band_bounds,
    band_feasible_with_halfspaces,
    linear_program,
    need_start,
    random_prior,
    reference_simplex,
    slack_tableaux,
    solve_programs,
    stack_outcome,
)


def solve_alone(lp, start=None):
    """``lp`` as a stack of one (`solve_programs`), cold or restarted from
    the optimal outcome ``start`` of a program on the same constraints."""
    return solve_programs([lp], None if start is None else [start])[0]


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
    lp = linear_program(np.concatenate([c, np.zeros(k)]), rows, rhs, basis)

    def recover(out):
        return lower + out.point[:n], out.value + float(c @ lower)

    return lp, recover


def inequality_form(objective, ub_matrix, ub_rhs):
    """min c.x, A x <= b, x >= 0 with b >= 0, slacked, from its slack basis."""
    A = np.asarray(ub_matrix, dtype=float)
    r, n = A.shape
    return linear_program(
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
        out = solve_alone(linear_program([1.0, 0.0], [[1.0, 1.0]], [1.0], [0]))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(0.0, abs=1e-12)
        assert out.point == pytest.approx([0.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize(
        "program",
        [
            # x = 2 against the bound row x + s = 1: the basis puts s at -1
            pytest.param(([0.0, 0.0], [[1.0, 0.0], [1.0, 1.0]], [2.0, 1.0]), id="infeasible"),
        ],
    )
    def test_unusable_basis_is_rejected(self, program):
        with pytest.raises(SolverError, match="starting basis"):
            solve_alone(linear_program(*program, [0, 1]))

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
        out = solve_alone(lp)
        assert out.status is LpStatus.OPTIMAL
        point, value = recover(out)
        assert value == pytest.approx(expected, abs=1e-9)
        assert point == pytest.approx([0.7, 0.3], abs=1e-9)

    def test_unbounded(self):
        out = solve_alone(linear_program([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0]))
        assert out.status is LpStatus.UNBOUNDED

    def test_degenerate_instance_terminates(self):
        # Beale's example cycles under the naive most-negative rule; Bland's
        # rule must terminate at the optimum.
        out = solve_alone(beale_program())
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-9)

    def test_deterministic(self):
        # starts at the vertex (0.6, 0.4, 0): y0, y1 and the slacks s1, s2
        lp, _ = standard_form(
            [1.0, -2.0, 0.5], [[1.0, 1.0, 1.0]], [1.0], np.zeros(3), np.full(3, 0.6), [0, 1, 4, 5]
        )
        first = solve_alone(lp)
        second = solve_alone(lp)
        assert first.value == second.value
        assert np.array_equal(first.point, second.point)

    def test_random_instances_match_scipy(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            c, A, b, upper = random_inequality_program(rng)
            n = c.size
            # x <= upper enters as rows, so the program is bounded
            lp = inequality_form(c, np.vstack([A, np.eye(n)]), np.concatenate([b, upper]))
            ours = solve_alone(lp)
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


def reobjective(lp, objective):
    """``lp`` on the same constraint arrays and basis under ``objective``."""
    return linear_program(objective, lp.eq_matrix, lp.eq_rhs, lp.basis)


def with_objective(lp, objective):
    """``lp`` on the same constraint arrays, with a new cost on its original
    variables (none on the slacks), as a restart requires."""
    return reobjective(lp, np.concatenate([objective, np.zeros(lp.eq_rhs.size)]))


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
            start = solve_alone(cold)
            for _ in range(3):
                fresh = rng.normal(size=n)
                ours = solve_alone(with_objective(cold, fresh), start)
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
            start = solve_alone(cold)
            assert start.status is LpStatus.OPTIMAL
            fresh = rng.normal(size=n)
            fresh[0] = -abs(fresh[0])
            ref = linprog(
                fresh, A_ub=rows, b_ub=rhs, bounds=(0, None), method="highs",
                options=HIGHS_OPTIONS,
            )
            assert ref.status == 3  # unbounded
            out = solve_alone(with_objective(cold, fresh), start)
            assert out.status is LpStatus.UNBOUNDED
            assert solve_alone(with_objective(cold, fresh)).tableau is None

    def test_same_objective_takes_no_pivot(self, monkeypatch):
        import priorstab.lp as lp_module

        pivots = []
        pivot_stack = lp_module._pivot_stack

        def counted(T, rows, cols, column):
            pivots.extend(zip(rows, cols))
            pivot_stack(T, rows, cols, column)

        rng = np.random.default_rng(808)
        for _ in range(20):
            c, A, b, upper = random_inequality_program(rng)
            lp = inequality_form(c, np.vstack([A, np.eye(c.size)]), np.concatenate([b, upper]))
            first = solve_alone(lp)
            monkeypatch.setattr(lp_module, "_pivot_stack", counted)
            again = solve_alone(lp, first)
            monkeypatch.undo()
            assert pivots == []
            assert again.value == first.value
            assert np.array_equal(again.point, first.point)
            assert np.array_equal(again.basis, first.basis)

    def test_start_of_another_shape_is_rejected(self):
        # a restart tableau must fit the costs and bases it is run under
        first = solve_alone(inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0]))
        other = inequality_form([1.0, -1.0], [[1.0, 1.0], [1.0, 0.0]], [1.0, 0.5])
        with pytest.raises(ValueError, match="of its shape"):
            solve_alone(other, first)
        wider = inequality_form([1.0, -1.0, 0.5], [[1.0, 1.0, 1.0]], [1.0])
        with pytest.raises(ValueError, match="of its shape"):
            solve_alone(wider, first)
        with pytest.raises(ValueError, match="of its shape"):
            solve_stack(first.tableau[None].copy(), first.basis[None].copy(),
                        np.zeros((2, first.tableau.shape[1] - 1)))


def assert_same_path(ours, ref):
    """A stack member's outcome equals the reference run's, bit for bit."""
    assert ours.status.value == ref.status
    if ref.status == "optimal":
        assert float(ours.value).hex() == float(ref.value).hex()
        assert ours.point.tobytes() == ref.point.tobytes()
        assert np.array_equal(ours.basis, ref.basis)
        assert ours.tableau.tobytes() == ref.tableau.tobytes()


class TestPivotPath:
    """Every stack member takes the reference simplex's pivots from the
    tableau and basis it started with, not only its optimum."""

    def test_random_programs_and_their_restarts(self):
        rng = np.random.default_rng(101)
        for _ in range(80):
            c, A, b, upper = random_inequality_program(rng)
            n = c.size
            cold = inequality_form(c, np.vstack([A, np.eye(n)]), np.concatenate([b, upper]))
            start = solve_alone(cold)
            assert_same_path(start, reference_simplex(cold, start.start))
            for _ in range(3):
                lp = with_objective(cold, rng.normal(size=n))
                ours = solve_alone(lp, start)
                assert_same_path(ours, reference_simplex(lp, ours.start))
                start = ours

    def test_beale_takes_the_bland_fallback(self):
        out = solve_alone(beale_program())
        ref = reference_simplex(beale_program(), out.start)
        assert ref.used_bland
        assert_same_path(out, ref)

    def test_profile_programs(self, monkeypatch):
        # Every member of the certificate and need stacks of some profiles,
        # cold or restarted, takes the reference simplex's pivots from the
        # tableau and basis it starts with.
        import priorstab.stability as stab

        members, stacked = [], []
        solve = stab.solve_stack

        def spied(T, bases, costs):
            starts = T.copy(), bases.copy()
            statuses = solve(T, bases, costs)
            stacked.append(len(T))
            members.extend(zip(*starts, costs, T.copy(), bases.copy(), statuses))
            return statuses

        monkeypatch.setattr(stab, "solve_stack", spied)
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
        # a need program's cost row has nonzeros past its first two columns
        # (the reference prior); a certificate program's, (-1, 1) on t+ and
        # t-, has none
        need = [member for member in members if member[2][2:].any()]
        assert 0 < len(need) < len(members) == sum(stacked) and max(stacked) > 1
        cold = [np.array_equal(B0, need_start(B0.size - 1)) for _, B0, *_ in need]
        assert any(cold) and not all(cold)  # cold and restarted members
        for T0, B0, cost, T, basis, status in members:
            lp = linear_program(cost, T0[:-1, :-1], T0[:-1, -1], B0)
            ref = reference_simplex(lp, SimpleNamespace(tableau=T0, basis=B0))
            assert_same_path(stack_outcome(cost, T, basis, status), ref)
    def test_stacked_members_run_as_alone(self):
        rng = np.random.default_rng(111)
        for _ in range(40):
            lps = program_stack(rng, int(rng.integers(2, 9)))
            for lp, out in zip(lps, solve_programs(lps)):
                assert_same_outcome(out, solve_alone(lp))
                assert_same_path(out, reference_simplex(lp, out.start))

    def test_stacks_mix_cold_and_restarted_members(self):
        # slack tableaux and earlier optima side by side in one stack
        rng = np.random.default_rng(222)
        restarted = pivoted = 0
        for _ in range(40):
            cold = program_stack(rng, int(rng.integers(2, 9)))
            firsts = [solve_alone(lp) for lp in cold]
            n = cold[0].objective.size - cold[0].eq_rhs.size
            lps = [with_objective(lp, rng.normal(size=n)) for lp in cold]
            starts = [first if rng.uniform() < 0.5 else None for first in firsts]
            for lp, start, out in zip(lps, starts, solve_programs(lps, starts)):
                assert_same_outcome(out, solve_alone(lp, start))
                assert_same_path(out, reference_simplex(lp, out.start))
                if start is not None:
                    restarted += 1
                    pivoted += not np.array_equal(out.basis, start.basis)
        assert restarted > 0 and pivoted > 0
    def test_stacked_set_up_pivots_on_negative_entries(self):
        # Dominance programs posed with the mixture's advantage shifted and
        # started at the first competitor alone share a shape per table;
        # their starting bases hold -1 slack entries, so `start_tableaux`
        # sets them up by an inverse
        rng = np.random.default_rng(555)
        for _ in range(10):
            n, m = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            u = rng.uniform(-1.0, 1.0, size=(n, m))
            lps = [shifted_dominance_program(np.delete(u, i, axis=0) - u[i]) for i in range(n)]
            for lp, out in zip(lps, solve_programs(lps)):
                assert_same_outcome(out, solve_alone(lp))
                assert_same_path(out, reference_simplex(lp, out.start))
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
            outs = solve_programs(lps)
            assert [out.status for out in outs[:2]] == [LpStatus.UNBOUNDED, LpStatus.OPTIMAL]
            for lp, out in zip(lps, outs):
                assert_same_outcome(out, solve_alone(lp))
                assert_same_path(out, reference_simplex(lp, out.start))

    def test_beale_members_keep_their_own_pricing_rule(self):
        # Beale's objective, and twice it, cycle until both members switch to
        # Bland's rule inside the stack; the other objectives do not stall
        beale = beale_program()
        rng = np.random.default_rng(444)
        lps = [beale, reobjective(beale, 2.0 * beale.objective)] + [
            reobjective(beale, np.concatenate([rng.normal(size=4), np.zeros(3)]))
            for _ in range(6)
        ]
        outs = solve_programs(lps)
        refs = [reference_simplex(lp, out.start) for lp, out in zip(lps, outs)]
        assert refs[0].used_bland and refs[1].used_bland
        assert not any(ref.used_bland for ref in refs[2:])
        for lp, ref, out in zip(lps, refs, outs):
            assert_same_outcome(out, solve_alone(lp))
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
                outs = solve_programs(lps)
                refs = [reference_simplex(lp, out.start) for lp, out in zip(lps, outs)]
                switched += sum(ref.used_bland for ref in refs)
                for lp, ref, out in zip(lps, refs, outs):
                    assert_same_outcome(out, solve_alone(lp))
                    assert_same_path(out, ref)
        assert switched > 0

    def test_the_last_member_finishes_in_the_stack(self):
        # x3 alone takes one pivot to its cap and leaves; Beale, still
        # cycling, runs on alone with the stall count it has run up
        beale = beale_program()
        lps = [beale_program(), reobjective(beale, [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0])]
        outs = solve_programs(lps)
        for lp, out in zip(lps, outs):
            assert_same_outcome(out, solve_alone(lp))
            assert_same_path(out, reference_simplex(lp, out.start))

    def test_slack_tableaux_start_as_the_reference_does(self):
        # Slack tableaux are the constraints plus 0.0, with no set-up pivot:
        # -0.0 entries come out as the reference's set-up pivots leave them,
        # and every program takes the reference's bits.  Where the slack
        # columns are unit vectors (not in the second program, whose first
        # row is doubled), the slack start is one choice of bases for
        # start_tableaux, up to the sign of zeros
        lp = inequality_form([1.0, -1.0], [[1.0, 1.0], [2.0, -1.0]], [1.0, 2.0])
        signed = np.where(lp.eq_matrix == 0.0, -0.0, lp.eq_matrix)
        block = np.stack([lp.eq_matrix, lp.eq_matrix * [[2.0], [1.0]], signed])
        T, bases = slack_tableaux(block, lp.eq_rhs)
        assert not np.signbit(T[T == 0.0]).any()
        assert (bases == lp.basis).all()
        started, copy = start_tableaux(block, lp.eq_rhs, bases)
        assert (started[[0, 2]] == T[[0, 2]]).all() and (copy == bases).all()
        costs = np.tile(lp.objective, (len(block), 1))
        for A, cost, *member in zip(block, costs, T, bases, solve_stack(T, bases, costs)):
            program = linear_program(cost, A, lp.eq_rhs, lp.basis)
            assert_same_path(stack_outcome(cost, *member), reference_simplex(program))
        T, bases = slack_tableaux(block[:0], lp.eq_rhs)
        assert solve_stack(T, bases, costs[:0]) == []
    def test_stacked_read_off_takes_each_members_bits(self, monkeypatch):
        # Every optimal need program of some profiles, read off its basis
        # within its stack, alone, and by a 2D solve of its own
        import priorstab.stability as stab

        stacks = []
        read_off = stab._needs_off_bases

        def spied(A, b, at, costs, bases):
            stacks.append((A, b, at, costs, bases))
            return read_off(A, b, at, costs, bases)

        monkeypatch.setattr(stab, "_needs_off_bases", spied)
        rng = np.random.default_rng(888)
        for _ in range(10):
            n, m = int(rng.integers(4, 12)), int(rng.integers(2, 7))
            problem = stab.DecisionProblem(
                [f"a{i}" for i in range(n)], [f"s{j}" for j in range(m)],
                rng.uniform(-1.0, 1.0, size=(n, m)),
            )
            stab.stability_profile(problem, [random_prior(rng, m, f"p{k}") for k in range(4)])
        monkeypatch.undo()
        sizes = [len(at) for _, _, at, _, _ in stacks]
        assert sum(sizes) > 100 and max(sizes) > 10
        for A, b, at, costs, bases in stacks:
            for i, need in enumerate(read_off(A, b, at, costs, bases)):
                expected = need_off_basis(A[at[i]], b, costs[i], bases[i])
                assert need.epsilon.hex() == expected.hex()
                alone = read_off(A, b, at[i:i + 1], costs[i:i + 1], bases[i:i + 1])
                assert alone[0].epsilon.hex() == expected.hex()
    def test_restart_stacks_cut_into_chunks_read_the_same(self, monkeypatch):
        import priorstab.stability as stab

        rng = np.random.default_rng(999)
        problem = stab.DecisionProblem(
            [f"a{i}" for i in range(12)], [f"s{j}" for j in range(5)],
            rng.uniform(-1.0, 1.0, size=(12, 5)),
        )
        priors = [random_prior(rng, 5, f"p{k}") for k in range(12)]
        sizes, stacks = [], []
        solve = stab.solve_stack

        def spied(T, bases, costs):
            if not costs[0, 2:].any():  # a certificate stack
                return solve(T, bases, costs)
            sizes.append(len(T))
            starts = T.copy()
            statuses = solve(T, bases, costs)
            stacks.append((starts, T.copy()))
            return statuses

        monkeypatch.setattr(stab, "solve_stack", spied)
        monkeypatch.setattr(stab, "_RESTART_CHUNK", 1000)
        whole = stab.stability_profile(problem, priors)
        assert len(sizes) == 2 and sizes[1] > 50
        sizes.clear()
        stacks.clear()
        monkeypatch.setattr(stab, "_RESTART_CHUNK", 5)
        chunked = stab.stability_profile(problem, priors)
        assert len(sizes) > 10 and max(sizes[1:]) == 5
        # in every chunk, each member restarts from a copy of an optimum
        # of the cold stack, left as that stack ended
        (_, firsts), *restarts = stacks
        optima = {first.tobytes() for first in firsts}
        assert all(start.tobytes() in optima for starts, _ in restarts for start in starts)
        assert [as_float(row.need).hex() for row in chunked.rows] == [
            as_float(row.need).hex() for row in whole.rows]
    def test_lone_and_malformed_stacks(self):
        lp = inequality_form([1.0, -1.0], [[1.0, 1.0]], [1.0])
        T, bases = start_tableaux(lp.eq_matrix[None][:0], lp.eq_rhs, lp.basis[None][:0])
        assert solve_stack(T, bases, lp.objective[None][:0]) == []
        # a lone program and the same program in a stack of two
        alone = solve_alone(lp)
        assert_same_outcome(solve_programs([lp, lp])[0], alone)
        # a lone restart and the same restart beside a cold member
        T, bases = slack_tableaux(np.stack([lp.eq_matrix] * 2), lp.eq_rhs)
        T[0], bases[0] = alone.tableau, alone.basis
        costs = np.stack([lp.objective] * 2)
        paired = stack_outcome(lp.objective, T[0], bases[0], solve_stack(T, bases, costs)[0])
        assert_same_outcome(solve_alone(lp, alone), paired)
        assert_same_path(solve_alone(lp, alone), reference_simplex(lp, alone))
        with pytest.raises(ValueError, match="of its shape"):
            solve_stack(T, bases[:1], costs)

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


def need_off_basis(A, b, cost, basis):
    """The need of a need program at its optimal basis, by a 2D solve of
    that basis: the read-off of a single member."""
    basis = np.sort(basis)
    x = np.linalg.solve(A[:, basis], b)
    return min(max(-float(cost[basis] @ x), 0.0), 1.0)


def shifted_dominance_program(gains):
    """max over mixtures of the rows of ``gains`` of their smallest entry,
    with the advantage t shifted by t_lo = min(gains) - 1 so that it is
    nonnegative, started at the first row alone: its weight basic in the
    simplex row, t - t_lo in the row of its smallest entry, and each other
    state's slack, entered with -1, in its own row."""
    k, m = gains.shape
    objective = np.zeros(k + 1 + m)
    objective[k] = -1.0
    A = np.zeros((1 + m, k + 1 + m))
    A[0, :k] = 1.0
    A[1:, :k] = gains.T
    A[1:, k] = -1.0
    A[1 + np.arange(m), k + 1 + np.arange(m)] = -1.0
    b = np.full(1 + m, float(gains.min()) - 1.0)
    b[0] = 1.0
    basis = np.concatenate([[0], k + 1 + np.arange(m)])
    basis[1 + np.argmin(gains[0])] = k
    return linear_program(objective, A, b, basis)


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
    return linear_program(c, A, [0.0, 0.0, 1.0], [4, 5, 6])


def assert_matches_highs(lp):
    ours = solve_alone(lp)
    ref = linprog(lp.objective, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs, method="highs")
    assert ref.status == 0
    assert ours.status is LpStatus.OPTIMAL
    assert ours.value == pytest.approx(ref.fun, abs=1e-9)
    assert np.max(np.abs(lp.eq_matrix @ ours.point - lp.eq_rhs)) < 1e-9
    assert np.all(ours.point >= 0.0)


class TestPricingAndCrash:
    def test_beale_terminates_at_the_known_optimum(self):
        # optimum x = (1/25, 0, 1, 0) with value -1/20 (Beale, 1955)
        out = solve_alone(beale_program())
        assert out.status is LpStatus.OPTIMAL
        assert out.value == pytest.approx(-0.05, abs=1e-12)
        assert out.point[:4] == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)

    def test_program_without_rows(self):
        out = solve_alone(linear_program([1.0, 2.0], np.zeros((0, 2)), [], []))
        assert out.status is LpStatus.OPTIMAL
        assert out.value == 0.0
        assert np.array_equal(out.point, [0.0, 0.0])

    def test_beale_cycles_without_the_bland_fallback(self, monkeypatch):
        import priorstab.lp as lp_module

        monkeypatch.setattr(lp_module, "_STALL_LIMIT", 10**9)
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 500)
        with pytest.raises(lp_module.SolverError, match="pivot limit"):
            solve_alone(beale_program())

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
