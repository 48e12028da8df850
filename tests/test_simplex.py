"""Bounded-variable simplex, checked against brute-force vertex enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gridctrl import opf, simplex
from gridctrl.dcsens import ptdf
from gridctrl.netmodel import InputError
from gridctrl.place_cv import run_cv_placement
from gridctrl.simplex import (_AT_LOWER, _AT_UPPER, _BASIC, _FREE, FEAS_TOL, PIVOT_TOL, LpProblem,
                              SimplexNumericalError, SimplexStallError, solve_lp)

INF = np.inf


def lp(c, a_eq, b_eq, lower, upper) -> LpProblem:
    return LpProblem.build(c=c, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper)


def enumerate_optimum(p: LpProblem, tol=1e-9):
    """(best objective, feasible?) by enumerating basic feasible solutions.

    Requires finite bounds on every variable so each vertex fixes the
    nonbasic variables at a bound.  Exponential; keep n small.
    """
    n = p.c.shape[0]
    m = p.b_eq.shape[0]
    assert np.isfinite(p.lower).all() and np.isfinite(p.upper).all()
    best = None
    for basic in itertools.combinations(range(n), m):
        a_b = p.a_eq[:, basic]
        if m and abs(np.linalg.det(a_b)) < 1e-12:
            continue
        nonbasic = [j for j in range(n) if j not in basic]
        for corner in itertools.product((0, 1), repeat=len(nonbasic)):
            x = np.empty(n)
            for j, side in zip(nonbasic, corner):
                x[j] = p.upper[j] if side else p.lower[j]
            rhs = p.b_eq - p.a_eq[:, nonbasic] @ x[nonbasic] if nonbasic else p.b_eq
            if m:
                x[list(basic)] = np.linalg.solve(a_b, rhs)
            if (x < p.lower - tol).any() or (x > p.upper + tol).any():
                continue
            val = float(p.c @ x)
            if best is None or val < best:
                best = val
    return best


def test_single_variable_pinned_by_equality():
    res = solve_lp(lp([1.0], [[1.0]], [5.0], [0.0], [10.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(5.0)
    assert res.x[0] == pytest.approx(5.0)


def test_infeasible_zero_row():
    res = solve_lp(lp([1.0], [[0.0]], [1.0], [0.0], [10.0]))
    assert res.status == "infeasible"


def test_infeasible_bounds_conflict():
    # x + y = 10 is unreachable with both variables in [0, 3]
    res = solve_lp(lp([1.0, 1.0], [[1.0, 1.0]], [10.0], [0.0, 0.0], [3.0, 3.0]))
    assert res.status == "infeasible"


def test_unbounded_ray():
    res = solve_lp(lp([-1.0], np.zeros((0, 1)), [], [0.0], [INF]))
    assert res.status == "unbounded"


def test_pure_bound_flip_without_equalities():
    res = solve_lp(lp([-1.0, 2.0], np.zeros((0, 2)), [],
                      [0.0, -1.0], [3.0, 4.0]))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [3.0, -1.0])
    assert res.objective == pytest.approx(-5.0)


def test_negative_bounds():
    res = solve_lp(lp([1.0, 0.0], [[1.0, 1.0]], [-3.0],
                      [-2.0, -2.0], [-1.0, -1.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(-2.0)
    assert res.x[1] == pytest.approx(-1.0)


def test_free_variable():
    res = solve_lp(lp([0.0, 1.0], [[1.0, -1.0]], [0.0],
                      [1.0, -INF], [5.0, INF]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0)


def test_fixed_variable_equal_bounds():
    res = solve_lp(lp([1.0, 1.0], [[1.0, 1.0]], [4.0],
                      [2.5, 0.0], [2.5, 10.0]))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.x, [2.5, 1.5])


def test_transport_gadget():
    """Two supplies, one demand of 5; the cheap route wins."""
    # x1 + x2 = 5, costs 1 and 3, x1 capped at 4
    res = solve_lp(lp([1.0, 3.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [4.0, 6.0]))
    assert res.objective == pytest.approx(4.0 + 3.0)
    np.testing.assert_allclose(res.x, [4.0, 1.0])


def test_stall_raises():
    big = lp(np.arange(1.0, 7.0), np.ones((1, 6)), [15.0],
             np.zeros(6), np.full(6, 5.0))
    with pytest.raises(SimplexStallError):
        solve_lp(big, max_iter=1)


def test_zero_variables():
    """Rows with no column: satisfiable only when every right-hand side is 0."""
    res = solve_lp(lp([], [], [0.0, 0.0], [], []))
    assert res.status == "optimal" and res.objective == 0.0 and res.x.shape == (0,)
    assert solve_lp(lp([], [], [0.0, 1.0], [], [])).status == "infeasible"


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_lp(LpProblem.build(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                                 lower=[0.0], upper=[1.0]))
    # a 3x2 A for 2 rows and 3 columns is refused, not read as the 2x3 it reshapes to
    transposed = LpProblem.build(c=[1.0, 1.0, 1.0], a_eq=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                 b_eq=[1.0, 1.0], lower=[0.0] * 3, upper=[5.0] * 3)
    with pytest.raises(ValueError, match=r"A shape \(3, 2\) does not match \(2, 3\)"):
        solve_lp(transposed)


def test_matches_enumeration_on_random_programs():
    rng = np.random.default_rng(2024)
    solved = infeasible = 0
    for trial in range(120):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, min(n, 4)))
        a = rng.normal(size=(m, n)).round(3)
        lower = rng.uniform(-3.0, 0.0, size=n).round(3)
        upper = lower + rng.uniform(0.5, 4.0, size=n).round(3)
        if trial % 3 == 0:
            # anchor b inside the box so the program is feasible
            x0 = lower + rng.uniform(0.0, 1.0, size=n) * (upper - lower)
            b = a @ x0
        else:
            b = rng.normal(size=m) * 5.0
        c = rng.normal(size=n).round(3)
        p = lp(c, a, b, lower, upper)
        best = enumerate_optimum(p)
        res = solve_lp(p)
        if best is None:
            assert res.status == "infeasible", f"trial {trial}"
            infeasible += 1
        else:
            assert res.status == "optimal", f"trial {trial}"
            assert res.objective == pytest.approx(best, abs=1e-6), f"trial {trial}"
            np.testing.assert_allclose(p.a_eq @ res.x, p.b_eq, atol=1e-7)
            assert (res.x >= p.lower - 1e-7).all()
            assert (res.x <= p.upper + 1e-7).all()
            solved += 1
    # the mix must actually exercise both outcomes
    assert solved >= 40 and infeasible >= 20


def test_degenerate_ties_still_finish():
    """Many identical columns give tied ratios and degenerate steps; the
    streak stays under DEGENERATE_STREAK, so Dantzig's rule finishes alone
    (the chain below runs Bland's rule)."""
    n = 8
    a = np.ones((2, n))
    a[1, : n // 2] = 0.0
    b = np.array([4.0, 2.0])
    c = -np.ones(n)
    res = solve_lp(lp(c, a, b, np.zeros(n), np.full(n, 4.0)))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-4.0)


def test_oversized_lp_is_refused_before_its_tableau_is_built(monkeypatch):
    """m x (n + m) float64 against TABLEAU_LIMIT_BYTES, the limit itself allowed."""
    def unbuilt(_p):
        raise AssertionError("the tableau was built")

    monkeypatch.setattr(simplex, "TABLEAU_LIMIT_BYTES", 2**20)
    monkeypatch.setattr(simplex, "_Tableau", unbuilt)
    m, n = 256, 768                             # 256 x 1024 x 8 bytes = 2 MiB
    p = lp(np.ones(n), np.ones((m, n)), np.ones(m), np.zeros(n), np.ones(n))
    with pytest.raises(InputError, match=r"^the LP has 256 rows and 768 columns: its simplex "
                                         r"tableau needs 2 MiB, over the 1 MiB limit$"):
        solve_lp(p)
    simplex.check_tableau_size(256, 256)        # 256 x 512 x 8 bytes = 1 MiB
    with pytest.raises(InputError, match="256 rows and 257 columns"):
        simplex.check_tableau_size(256, 257)


# ---------------------------------------------------------------------------
# the certificate: the point and duals of the final tableau, on the original data


def test_certificate_rejects_a_phase_two_that_stops_early(monkeypatch):
    """Phase 1 ends at x = (4, 1); with costs (3, 1) that vertex is not optimal."""
    run = simplex._Tableau.run
    calls = []

    def phase_two_stops(tab, cvec, max_iter):
        calls.append(cvec)
        return run(tab, cvec, max_iter) if len(calls) == 1 else "optimal"

    monkeypatch.setattr(simplex._Tableau, "run", phase_two_stops)
    with pytest.raises(SimplexNumericalError, match="dual feasibility violated at an upper bound"):
        solve_lp(lp([3.0, 1.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [4.0, 6.0]))


def test_certificate_checks_reduced_costs_of_basic_columns(monkeypatch):
    """Duals read off a spoiled B^-1 leave the basic column a reduced cost."""
    certify = simplex._certify

    def spoiled(p, tab):
        tab.t[:, tab.n:] *= 7.0 / 6.0
        return certify(p, tab)

    monkeypatch.setattr(simplex, "_certify", spoiled)
    with pytest.raises(SimplexNumericalError, match="dual feasibility violated on a basic variable"):
        solve_lp(lp([1.0, 3.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [4.0, 6.0]))


# ---------------------------------------------------------------------------
# differential test against HiGHS


@st.composite
def small_lps(draw):
    """Integer LPs with 1-5 variables and 0-3 rows; every bound kind, and a
    right-hand side that half the time comes from a vertex of the box, which
    makes the program feasible and often degenerate."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 3))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=float)

    a = ints(-3, 3, m * n).reshape(m, n)
    c = ints(-3, 3, n)
    lower = ints(-4, 2, n)
    upper = lower + ints(0, 4, n)
    kinds = draw(st.lists(st.sampled_from(["box", "lower", "upper", "free"]),
                          min_size=n, max_size=n))
    lower[[k in ("upper", "free") for k in kinds]] = -INF
    upper[[k in ("lower", "free") for k in kinds]] = INF
    if draw(st.booleans()):
        corner = np.where(ints(0, 1, n) > 0, upper, lower)
        b = a @ np.where(np.isfinite(corner), corner, ints(-2, 2, n))
    else:
        b = ints(-5, 5, m)
    return lp(c, a, b, lower, upper)


def highs(p: LpProblem):
    """(status, objective) from HiGHS; a model HiGHS can only call
    "infeasible or unbounded" is told apart by a zero-cost solve."""
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(p.lower, p.upper)]
    rows = {"A_eq": p.a_eq, "b_eq": p.b_eq} if p.b_eq.size else {}
    res = linprog(p.c, bounds=bounds, method="highs", **rows)
    if res.status == 4:
        feasible = linprog(np.zeros_like(p.c), bounds=bounds, method="highs", **rows)
        return ("unbounded" if feasible.status == 0 else "infeasible"), None
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status], res.fun


@settings(max_examples=300, deadline=None)
@given(p=small_lps())
@example(p=lp([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], [2.0, 2.0],
              [0.0, 0.0, 0.0], [2.0, 2.0, 2.0]))                       # degenerate
@example(p=lp([1.0, 0.0], [[1.0, -1.0]], [3.0], [-INF, 0.0], [INF, 5.0]))    # free
@example(p=lp([1.0], [[1.0]], [-1.0], [0.0], [INF]))                   # infeasible
@example(p=lp([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0.0, 0.0], [INF, INF]))  # unbounded
def test_agrees_with_highs(p):
    assert_agrees_with_highs(p)


@settings(max_examples=300, deadline=None)
@given(p=small_lps())
@example(p=lp([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]], [2.0, 2.0],
              [0.0, 0.0, 0.0], [2.0, 2.0, 2.0]))                       # degenerate
def test_agrees_with_highs_under_bland(p):
    """Bland's rule from the first degenerate step on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "DEGENERATE_STREAK", 0)
        assert_agrees_with_highs(p)


def assert_agrees_with_highs(p: LpProblem):
    res = solve_lp(p)
    status, objective = highs(p)
    assert res.status == status
    if status == "optimal":
        assert abs(res.objective - objective) <= 1e-7 * (1.0 + abs(objective))
        np.testing.assert_allclose(p.a_eq @ res.x, p.b_eq, atol=1e-7)
        assert (res.x >= p.lower - 1e-7).all() and (res.x <= p.upper + 1e-7).all()


# ---------------------------------------------------------------------------
# the loop keeps its state between iterations and the pivot updates only the
# cells it changes: the same path and bits as a loop that rebuilds its state
# every iteration around the full rank-1 update


class _ReferenceTableau(simplex._Tableau):
    """The loop that rebuilds its masks, ratios and basic values every
    iteration, verbatim but for counting the iterations that price by
    Bland's rule, and the dense rank-1 pivot."""

    bland_steps = 0

    def run(self, cvec: np.ndarray, max_iter: int) -> str:
        """Minimize cvec over the current basis.  'optimal' or 'unbounded'."""
        bland = False
        streak = 0
        rng = self.upper - self.lower
        while True:
            if self.iterations >= max_iter:
                raise SimplexStallError(
                    f"no optimum after {self.iterations} iterations")
            self.iterations += 1

            z = cvec - (cvec[self.basis] @ self.t if self.m else 0.0)
            movable = (self.status != _BASIC) & (rng > 0.0)
            dtol = FEAS_TOL * (1.0 + np.abs(cvec).max(initial=0.0))
            up = movable & ((self.status == _AT_LOWER) | (self.status == _FREE)) & (z < -dtol)
            dn = movable & ((self.status == _AT_UPPER) | (self.status == _FREE)) & (z > dtol)
            elig = up | dn
            if not elig.any():
                return "optimal"
            self.bland_steps += bland
            if bland:
                j = int(np.flatnonzero(elig)[0])
            else:
                scores = np.where(elig, np.abs(z), -1.0)
                j = int(np.argmax(scores))
            direction = 1.0 if up[j] else -1.0

            d = self.t[:, j] if self.m else np.zeros(0)
            rate = -direction * d
            bvars = self.basis
            ratios = np.full(self.m, np.inf)
            grow = rate > PIVOT_TOL
            shrink = rate < -PIVOT_TOL
            if grow.any():
                room = self.upper[bvars[grow]] - self.x[bvars[grow]]
                ratios[grow] = np.maximum(room, 0.0) / rate[grow]
            if shrink.any():
                room = self.x[bvars[shrink]] - self.lower[bvars[shrink]]
                ratios[shrink] = np.maximum(room, 0.0) / (-rate[shrink])

            # distance from x[j] to the bound it moves towards, inf if none
            own = self.upper[j] - self.x[j] if direction > 0 else self.x[j] - self.lower[j]
            row_min = ratios.min() if self.m else np.inf
            delta = min(own, row_min)
            if not np.isfinite(delta):
                return "unbounded"

            streak = streak + 1 if delta <= 1e-10 else 0
            if streak > simplex.DEGENERATE_STREAK:
                bland = True
            elif streak == 0:
                bland = False

            if own <= row_min:
                # bound flip: variable reaches that bound, basis unchanged
                self.x[bvars] -= direction * own * d
                self.x[j] = self.upper[j] if direction > 0 else self.lower[j]
                self.status[j] = _AT_UPPER if direction > 0 else _AT_LOWER
                continue

            tie = ratios <= row_min + 1e-10
            if bland:
                cands = np.flatnonzero(tie)
                r = int(cands[np.argmin(bvars[cands])])
            else:
                stab = np.where(tie, np.abs(d), -1.0)
                r = int(np.argmax(stab))

            leaving = int(bvars[r])
            self.x[bvars] -= direction * delta * d
            self.x[j] = self.x[j] + direction * delta
            self.x[leaving] = self.upper[leaving] if rate[r] > 0 else self.lower[leaving]
            self.status[leaving] = _AT_UPPER if rate[r] > 0 else _AT_LOWER

            self._pivot(r, j)
            self.basis[r] = j
            self.status[j] = _BASIC

    def _pivot(self, r, j):
        """Subtract the rank-1 update from the whole tableau."""
        self.t[r] /= self.t[r, j]
        col = self.t[:, j].copy()
        col[r] = 0.0
        self.t -= np.outer(col, self.t[r])


def solve_with(tableau, p: LpProblem):
    """solve_lp on ``tableau``; the result and the tableau it ended with."""
    made = []

    class Recorded(tableau):
        def __init__(self, problem):
            super().__init__(problem)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_Tableau", Recorded)
        res = solve_lp(p)
    return res, made[0]


def assert_same_path(p: LpProblem):
    """Status, iterations, final basis and the point's bytes agree with the
    reference; returns the result and the reference's tableau."""
    got, got_tab = solve_with(simplex._Tableau, p)
    want, want_tab = solve_with(_ReferenceTableau, p)
    assert got.status == want.status
    assert got.iterations == want.iterations
    np.testing.assert_array_equal(got_tab.basis, want_tab.basis)
    if want.x is None:
        assert got.x is None and got.objective is None
    else:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.objective == want.objective
    return got, want_tab


@st.composite
def block_lps(draw):
    """2-6 small_lps() blocks on the diagonal plus one row coupling them
    through a new free, cost-free column, so most pivot rows and columns are
    sparse and the whole is feasible (bounded) iff every block is."""
    blocks = [draw(small_lps()) for _ in range(draw(st.integers(2, 6)))]
    n = sum(b.c.shape[0] for b in blocks)
    m = sum(b.b_eq.shape[0] for b in blocks)
    a = np.zeros((m + 1, n + 1))
    i = j = 0
    for b in blocks:
        rows, cols = b.a_eq.shape
        a[i:i + rows, j:j + cols] = b.a_eq
        i, j = i + rows, j + cols
    a[m, :n] = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    a[m, n] = -1.0

    def stacked(field, coupling):
        return np.concatenate([getattr(b, field) for b in blocks] + [[coupling]])

    return lp(stacked("c", 0.0), a, stacked("b_eq", 0.0),
              stacked("lower", -INF), stacked("upper", INF))


def lps_solved_by(call):
    """Every LP that ``call()`` hands the simplex through opf."""
    problems = []

    def capture(problem):
        problems.append(problem)
        return solve_lp(problem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opf, "solve_lp", capture)
        call()
    return problems


@settings(max_examples=300, deadline=None)
@given(p=small_lps())
@example(p=lp([-1.0, 2.0, 0.0], np.zeros((0, 3)), [], [0.0, -1.0, -INF], [3.0, 4.0, INF]))
def test_loop_matches_the_reference_on_small_lps(p):
    assert_same_path(p)


@settings(max_examples=200, deadline=None)
@given(p=block_lps())
def test_pivot_matches_the_full_update_on_block_lps(p):
    assert_same_path(p)


def test_pivot_matches_the_full_update_on_corrective_sc_opf(fixture10, monkeypatch):
    """Also with each pivot split into blocks of 16 cells: of several rows, or
    of one row where the pivot row has more than 16 nonzeros."""
    (p,) = lps_solved_by(lambda: opf.sc_opf(fixture10, [(1, 8)], mode=opf.CORRECTIVE))
    res, _ = assert_same_path(p)
    assert p.b_eq.shape == (197,)
    assert res.status == "optimal" and res.iterations > 100
    monkeypatch.setattr(simplex, "_PIVOT_CHUNK", 16)
    assert_same_path(p)


def test_loop_matches_the_reference_on_preventive_sc_opf(fixture10):
    (p,) = lps_solved_by(lambda: opf.sc_opf(fixture10, [(1, 8), (2, 6)]))
    res, _ = assert_same_path(p)
    assert res.status == "optimal" and res.iterations > 100


def test_loop_matches_the_reference_on_every_cos_curve_lp(fixture10):
    placements, _ = run_cv_placement(ptdf(fixture10), 3)
    problems = lps_solved_by(lambda: opf.cos_curve(fixture10, placements, mode=opf.CORRECTIVE))
    assert len(problems) == 8
    for p in problems:
        assert_same_path(p)


# ---------------------------------------------------------------------------
# Bland's rule: first eligible column in, lowest-index basic column out


def test_a_degenerate_streak_past_the_limit_switches_to_bland():
    """x_i = x_(i+1) along a chain of 50 links, x_0 <= 1, maximise x_50.  With
    b = 0 phase 1 makes only degenerate steps, more than DEGENERATE_STREAK in
    a row, so Bland's rule picks columns; the loop takes the reference's
    path through them."""
    m = 50
    a = np.eye(m, m + 1) - np.eye(m, m + 1, k=1)
    c = np.zeros(m + 1)
    c[-1] = -1.0
    upper = np.full(m + 1, INF)
    upper[0] = 1.0
    res, reference = assert_same_path(lp(c, a, np.zeros(m), np.zeros(m + 1), upper))
    assert reference.bland_steps > 0
    assert res.status == "optimal" and res.objective == pytest.approx(-1.0)


@settings(max_examples=200, deadline=None)
@given(p=small_lps())
def test_bland_steps_match_the_reference_on_small_lps(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "DEGENERATE_STREAK", 0)
        assert_same_path(p)


@settings(max_examples=200, deadline=None)
@given(p=block_lps())
def test_bland_steps_match_the_reference_on_block_lps(p):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "DEGENERATE_STREAK", 0)
        assert_same_path(p)

