"""Delta strategies, control-effort programs, and greedy LP placement."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gridctrl import place_lp, simplex
from gridctrl.dcsens import check_p_dc_max, cv, cv_matrix, node_pairs, ptdf
from gridctrl.netmodel import Bus, InputError, Line, Network
from gridctrl.simplex import FEAS_TOL, PIVOT_TOL, SimplexNumericalError
from gridctrl.place_lp import (
    DeltaStrategy,
    EffortResult,
    _effort,
    _efforts,
    control_effort,
    place_lp_next,
    run_lp_placement,
)
from test_dcsens import multigraphs


@pytest.fixture(scope="module", autouse=True)
def effort_lps():
    """(problem, result) of every effort LP the tests here hand to the
    simplex, for the HiGHS replay at the end of the module."""
    solved = []
    real = place_lp.solve_lp

    def recording(problem, *args, **kwargs):
        res = real(problem, *args, **kwargs)
        solved.append((problem, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(place_lp, "solve_lp", recording)
        yield solved


@pytest.fixture(scope="module")
def wheatstone() -> Network:
    """Balanced bridge: the (1,3) pair has exactly no grip on the diagonal."""
    return Network(
        buses=(Bus(1, True), Bus(2), Bus(3), Bus(4)),
        lines=(Line(1, 1, 2, 1.0), Line(2, 2, 3, 1.0), Line(3, 1, 4, 1.0),
               Line(4, 4, 3, 1.0), Line(5, 2, 4, 1.0)),
    )


# ---------------------------------------------------------------------------
# strategies


def test_strategy_defaults():
    """The README's defaults: 100 MW, a tenth of the limit, 1000 MW per p.u."""
    assert DeltaStrategy("const").param == 100.0
    assert DeltaStrategy("limit").param == 0.1
    assert DeltaStrategy("reactance").param == 1000.0
    assert DeltaStrategy("limit", 0.25).param == 0.25


def test_strategy_validation():
    for kind in ("percent", "constant", "fraction-of-limit"):
        with pytest.raises(InputError, match=f"^unknown delta strategy '{kind}'$"):
            DeltaStrategy(kind)
    with pytest.raises(ValueError, match="must be > 0"):
        DeltaStrategy("const", 0.0)
    with pytest.raises(ValueError, match="must be > 0"):
        DeltaStrategy("const", math.nan)


def test_strategy_deltas_mw(fixture10):
    ids = (1, 5, 11)
    np.testing.assert_allclose(
        DeltaStrategy("const", 100.0).deltas(fixture10, ids), [100.0] * 3)
    # limits 190 / 100 / 105 MW
    np.testing.assert_allclose(
        DeltaStrategy("limit", 0.1).deltas(fixture10, ids),
        [19.0, 10.0, 10.5])
    # reactances 0.06 / 0.08 / 0.20
    np.testing.assert_allclose(
        DeltaStrategy("reactance", 1000.0).deltas(fixture10, ids),
        [60.0, 80.0, 200.0])


def test_strategy_needs_limits(triangle3):
    with pytest.raises(InputError,
                       match="^line 1 has no limit; the fraction-of-limit strategy needs one$"):
        DeltaStrategy("limit").deltas(triangle3, (1,))


# ---------------------------------------------------------------------------
# control effort


def test_effort_single_target_closed_form(fixture10):
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    v = cv(mat, 1, 8).values
    got = control_effort(mat, [(1, 8)], [1], strat, net=fixture10)
    assert got == pytest.approx(100.0 / abs(v[0]), rel=1e-9)


def test_effort_scales_with_delta(fixture10):
    mat = ptdf(fixture10)
    one = control_effort(mat, [(1, 8)], [3], DeltaStrategy("const", 100.0),
                         net=fixture10)
    two = control_effort(mat, [(1, 8)], [3], DeltaStrategy("const", 200.0),
                         net=fixture10)
    assert two == pytest.approx(2.0 * one, rel=1e-9)


def test_effort_setpoint_cap(fixture10):
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    needed = 100.0 / abs(cv(mat, 1, 8).values[0])
    assert control_effort(mat, [(1, 8)], [1], strat,
                          p_dc_max=needed * 1.01, net=fixture10) is not None
    assert control_effort(mat, [(1, 8)], [1], strat,
                          p_dc_max=needed * 0.99, net=fixture10) is None


def test_effort_two_controllers_two_targets(fixture10):
    """With as many controllers as targets the equality system is square;
    the LP answer must reproduce the direct solve."""
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    placements = [(1, 8), (3, 6)]
    targets = [2, 11]
    cols = np.column_stack([cv(mat, m, n).values for m, n in placements])
    sub = cols[[1, 10], :]          # rows of lines 2 and 11
    setpoints = np.linalg.solve(sub, [100.0, 100.0])
    got = control_effort(mat, placements, targets, strat, net=fixture10)
    assert got == pytest.approx(np.abs(setpoints).sum(), rel=1e-8)


def test_effort_zero_cv_target_infeasible(wheatstone):
    mat = ptdf(wheatstone)
    strat = DeltaStrategy("const", 100.0)
    assert control_effort(mat, [(1, 3)], [5], strat, net=wheatstone) is None
    assert control_effort(mat, [(1, 3)], [2], strat,
                          net=wheatstone) == pytest.approx(200.0)


@st.composite
def effort_stacks(draw, near=False):
    """(blocks, deltas, p_dc_max): integer k x k blocks of a drawn rank, so a
    rank-deficient block is exactly singular and a regular one is far from
    singular, each with a delta either inside its range or drawn freely.

    With ``near`` the stack may also be scaled by 1e-6 or 1e3, and a
    rank-deficient block may be pushed off singularity along its smallest
    singular pair by 0.3, 1 or 3 times PIVOT_TOL * max(sigma_max, 1): just
    below, at and just above the regularity test."""
    k = draw(st.integers(1, 3))
    ints = st.integers(-2, 2)
    scales = st.floats(0.05, 2.0)
    if near:
        scales = st.one_of(scales, st.sampled_from([1e-6, 1e3]))
    scale = draw(scales)
    blocks, deltas = [], []
    for _ in range(draw(st.integers(1, 6))):
        rank = draw(st.integers(0, k))
        left = np.array(draw(st.lists(ints, min_size=k * rank, max_size=k * rank)))
        right = np.array(draw(st.lists(ints, min_size=k * rank, max_size=k * rank)))
        block = left.reshape(k, rank) @ right.reshape(rank, k)
        if draw(st.booleans()):
            delta = block @ np.array(draw(st.lists(ints, min_size=k, max_size=k)))
        else:
            delta = np.array(draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
        block = scale * block
        if near and rank < k:
            u, sigma, vt = np.linalg.svd(block)
            nudge = draw(st.sampled_from([0.0, 0.3, 1.0, 3.0]))
            block = block + (nudge * PIVOT_TOL * max(sigma[0], 1.0)
                             * np.outer(u[:, -1], vt[-1]))
        blocks.append(block)
        deltas.append(delta)
    p_dc_max = draw(st.one_of(st.just(math.inf), st.floats(0.1, 100.0)))
    return np.array(blocks, dtype=float), np.array(deltas, dtype=float), p_dc_max


@settings(max_examples=120, deadline=None)
@given(effort_stacks())
def test_efforts_match_effort_lp(stack):
    blocks, deltas, p_dc_max = stack
    got = _efforts(blocks, deltas, p_dc_max)
    assert got.shape == (len(blocks),)
    for block, delta, effort in zip(blocks, deltas, got):
        if np.linalg.matrix_rank(block) == len(block):
            peak = np.abs(np.linalg.solve(block, delta)).max()
            if abs(peak - p_dc_max) <= 1e-7 * p_dc_max:
                continue                  # either verdict is acceptable
        want = _effort(block, delta, p_dc_max)
        assert np.isnan(effort) == (want is None)
        if want is not None:
            assert effort == pytest.approx(want, rel=1e-9, abs=0.0)


def test_effort_cap_boundary_is_the_lp_rule(fixture10):
    """A setpoint over the cap by at most FEAS_TOL (1 + |P_DC|) is allowed,
    one over it by twice that is not; where the effort LP's verdict is
    clear-cut (at the cap up to roundoff, or past the band) it agrees."""
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    block = cv(mat, 1, 8).values[:1, None]
    delta = np.array([100.0])
    effort = control_effort(mat, [(1, 8)], [1], strat, net=fixture10)
    band = FEAS_TOL * (1.0 + effort)
    assert control_effort(mat, [(1, 8)], [1], strat, p_dc_max=effort - 0.5 * band,
                          net=fixture10) == effort
    for cap in (effort, float(np.nextafter(effort, 0.0))):
        assert control_effort(mat, [(1, 8)], [1], strat, p_dc_max=cap,
                              net=fixture10) == effort
        assert _effort(block, delta, cap) == pytest.approx(effort, rel=1e-12)
    for cap in (effort - 2.0 * band, effort * (1.0 - 1e-6)):
        assert control_effort(mat, [(1, 8)], [1], strat, p_dc_max=cap,
                              net=fixture10) is None
        assert _effort(block, delta, cap) is None


@pytest.mark.parametrize("candidate, effort", [((2, 6), 691.681131468978),
                                               ((2, 5), 519.5146255223352)])
def test_setpoint_at_the_cap_up_to_roundoff_is_feasible(fixture10, candidate, effort):
    """place-lp fixture10 --count 3 --strategy const --pdc-max 300, step 3:
    on target lines 4, 6 and 11 the third controller's setpoint is 300 MW,
    which the closed form may compute a few ulps above the cap (as
    300.0000000000002 for 2-6).  Both paths count the set feasible."""
    mat = ptdf(fixture10)
    placements, targets = [(7, 8), (7, 9), candidate], [4, 6, 11]
    block = cv_matrix(mat, placements).T[[mat.line_ids.index(t) for t in targets]]
    peak = np.abs(np.linalg.solve(block, np.full(3, 100.0))).max()
    assert peak == pytest.approx(300.0, rel=1e-12)
    got = control_effort(mat, placements, targets, DeltaStrategy("const", 100.0),
                         p_dc_max=300.0, net=fixture10)
    assert got == pytest.approx(effort, rel=1e-12)
    assert _effort(block, np.full(3, 100.0), 300.0) == pytest.approx(effort, rel=1e-12)


@pytest.fixture
def lp_calls(monkeypatch):
    """Count the effort LPs that place_lp hands to the simplex."""
    calls = []
    real = place_lp.solve_lp

    def spy(problem, *args, **kwargs):
        calls.append(problem)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(place_lp, "solve_lp", spy)
    return calls


def test_singular_reachable_block_uses_lp(wheatstone, fixture10, lp_calls):
    """Two copies of (1,3) see lines 1 and 3 alike: a singular block whose
    delta lies in its range, so only the LP knows how to split the setpoints."""
    mat = ptdf(wheatstone)
    strat = DeltaStrategy("const", 100.0)
    placements, targets = [(1, 3), (1, 3)], [1, 3]
    assert control_effort(mat, placements, targets, strat,
                          net=wheatstone) == pytest.approx(200.0)
    assert control_effort(mat, placements, targets, strat, p_dc_max=150.0,
                          net=wheatstone) == pytest.approx(200.0)
    assert control_effort(mat, placements, targets, strat, p_dc_max=99.0,
                          net=wheatstone) is None
    assert len(lp_calls) == 3
    lp_calls.clear()
    place_lp_next(fixture10, ptdf(fixture10), [], strat)
    assert lp_calls == []


def test_effort_validation(fixture10):
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    with pytest.raises(ValueError, match="as many targets"):
        control_effort(mat, [(1, 8)], [1, 2], strat, net=fixture10)
    with pytest.raises(ValueError, match="distinct"):
        control_effort(mat, [(1, 8), (3, 6)], [4, 4], strat, net=fixture10)
    with pytest.raises(InputError, match="no in-service line"):
        control_effort(mat, [(1, 8)], [55], strat, net=fixture10)
    for cap in (-5.0, math.nan):
        with pytest.raises(ValueError, match="p_dc_max must be >= 0"):
            control_effort(mat, [(1, 8)], [1], strat, p_dc_max=cap, net=fixture10)
        with pytest.raises(ValueError, match="p_dc_max must be >= 0"):
            place_lp_next(fixture10, mat, [], strat, p_dc_max=cap)


def test_all_infeasible_property():
    assert EffortResult(0.0, infeasible_sets=5, lp_count=5).all_infeasible
    assert not EffortResult(1.0, infeasible_sets=4, lp_count=5).all_infeasible
    assert not EffortResult(0.0, infeasible_sets=0, lp_count=0).all_infeasible


# ---------------------------------------------------------------------------
# greedy ranking


def test_first_step_matches_closed_form(fixture10):
    """k = 1 efforts are sums of per-line |delta / cv| ratios."""
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    ranked = place_lp_next(fixture10, mat, [], strat)
    assert len(ranked) == 45
    by_pair = dict(ranked)
    for pair in [(1, 8), (2, 5), (4, 10), (9, 10)]:
        v = cv(mat, *pair).values
        formula = sum(100.0 / abs(x) for x in v)
        res = by_pair[pair]
        assert res.total_effort == pytest.approx(formula, rel=1e-9)
        assert res.lp_count == 14
        assert res.infeasible_sets == 0
    totals = [r.total_effort for _p, r in ranked]
    assert totals == sorted(totals)


def test_first_pick_of_limit_strategy(fixture10):
    mat = ptdf(fixture10)
    ranked = place_lp_next(fixture10, mat, [], DeltaStrategy("limit"))
    assert ranked[0][0] == (1, 8)


def test_duplicate_controller_ranks_last(fixture10):
    """A second copy of an existing pair cannot hit two independent targets."""
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    ranked = place_lp_next(fixture10, mat, [(1, 8)], strat)
    by_pair = dict(ranked)
    dup = by_pair[(1, 8)]
    assert dup.all_infeasible
    assert dup.lp_count == 91 and dup.infeasible_sets == 91
    assert ranked[-1][1].all_infeasible


def test_run_lp_placement_two_steps(fixture10):
    mat = ptdf(fixture10)
    placements, tables = run_lp_placement(
        fixture10, mat, 2, DeltaStrategy("limit"))
    assert placements == [(1, 8), (5, 9)]
    assert [len(t) for t in tables] == [45, 45]
    assert sum(r.lp_count for _p, r in tables[0]) == 630
    assert sum(r.lp_count for _p, r in tables[1]) == 4095
    winner = tables[1][0]
    assert winner[0] == (5, 9)
    assert not winner[1].all_infeasible


def test_run_lp_placement_count_validation(fixture10):
    with pytest.raises(ValueError, match="count"):
        run_lp_placement(fixture10, ptdf(fixture10), 0, DeltaStrategy("const"))


@pytest.mark.filterwarnings("error")
def test_feasibility_does_not_depend_on_the_delta_scale(fixture10, case14):
    """With no cap a target set is reachable or not whatever the size of its
    deltas, so flat 1e308 MW deltas, whose squares pass the float range, get
    the verdicts of 100 MW."""
    for net in (fixture10, case14):
        mat = ptdf(net)
        for existing in ([], [(1, 2)]):
            verdicts = [sorted((p, r.infeasible_sets) for p, r in
                               place_lp_next(net, mat, existing, DeltaStrategy("const", mw)))
                        for mw in (100.0, 1e308)]
            assert verdicts[0] == verdicts[1]
            if existing:                # blocks holding (1, 2) twice miss some sets
                assert any(n for _p, n in verdicts[0])


# ---------------------------------------------------------------------------
# reference: the effort scoring that ran an SVD on every block and scored one
# candidate per call, verbatim; the stacked, screened code must give its bits


def _reference_efforts(blocks: np.ndarray, deltas: np.ndarray, p_dc_max: float) -> np.ndarray:
    check_p_dc_max(p_dc_max)
    efforts = np.full(blocks.shape[0], np.nan)
    u, sigma = np.linalg.svd(blocks)[:2]
    small = sigma <= PIVOT_TOL * np.maximum(sigma[:, :1], 1.0)
    regular = ~small[:, -1]
    if regular.any():
        x = np.abs(np.linalg.solve(blocks[regular], deltas[regular][..., None])[..., 0])
        peak = x.max(axis=1)
        within = peak <= p_dc_max + FEAS_TOL * (1.0 + peak)
        efforts[regular] = np.where(within, x.sum(axis=1), np.nan)
    off_range = np.sqrt((np.einsum("sji,sj->si", u, deltas) ** 2 * small).sum(axis=1))
    reachable = off_range <= 2.0 * FEAS_TOL * (1.0 + np.abs(deltas).max(axis=1))
    for i in np.flatnonzero(~regular & reachable):
        effort = _effort(blocks[i], deltas[i], p_dc_max)
        if effort is not None:
            efforts[i] = effort
    return efforts


def _reference_place_lp_next(net, mat, existing, strategy, p_dc_max=math.inf):
    pairs = node_pairs(mat.bus_ids)
    if not pairs:
        raise InputError("case has no node pair to place")
    k = len(existing) + 1
    line_ids = mat.line_ids
    target_sets = np.array(list(itertools.combinations(range(len(line_ids)), k)),
                           dtype=int).reshape(-1, k)
    deltas = strategy.deltas(net, line_ids)[target_sets]
    existing_cols = list(cv_matrix(mat, existing))

    def score(vec: np.ndarray) -> EffortResult:
        cols = np.column_stack(existing_cols + [vec])
        efforts = _reference_efforts(cols[target_sets], deltas, p_dc_max)
        feasible = efforts[~np.isnan(efforts)]
        # np.cumsum adds in target-set order, one float addition at a time
        total = float(np.cumsum(feasible)[-1]) if feasible.size else 0.0
        return EffortResult(total_effort=total,
                            infeasible_sets=len(efforts) - feasible.size,
                            lp_count=len(efforts))

    results = [score(vec) for vec in cv_matrix(mat, pairs)]
    ranked = sorted(zip(pairs, results),
                    key=lambda item: (item[1].all_infeasible, item[1].total_effort, item[0]))
    return ranked


def _bits(ranked):
    return [(pair, r.total_effort.hex(), r.infeasible_sets, r.lp_count)
            for pair, r in ranked]


def _outcome(fn):
    """fn's result, or the effort LP's numerical failure, which both codes
    must then raise alike."""
    try:
        return fn()
    except SimplexNumericalError as exc:
        return f"SimplexNumericalError: {exc}"


@settings(max_examples=200, deadline=None)
@given(effort_stacks(near=True))
def test_determinant_screen_clears_only_svd_regular_blocks(stack):
    """A block that skips the SVD is one the SVD test calls regular, and the
    efforts are the reference's bits.  The stacks include blocks right at the
    regularity threshold and blocks scaled by 1e-6 and 1e3."""
    blocks, deltas, p_dc_max = stack
    sigma = np.linalg.svd(blocks, compute_uv=False)
    svd_regular = sigma[:, -1] > PIVOT_TOL * np.maximum(sigma[:, 0], 1.0)
    seen = set()
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.update(b.tobytes() for b in a)
        return real_svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        # these near-singular LPs check bits, not the solver: keep them out
        # of the HiGHS replay
        mp.setattr(place_lp, "solve_lp", simplex.solve_lp)
        want = _outcome(lambda: _reference_efforts(blocks, deltas, p_dc_max).tobytes())
        mp.setattr(np.linalg, "svd", spy)
        got = _outcome(lambda: _efforts(blocks, deltas, p_dc_max).tobytes())
    for block, regular in zip(blocks, svd_regular):
        assert block.tobytes() in seen or regular
    assert got == want


def test_screen_sends_only_singular_blocks_to_the_svd(fixture10):
    """fixture10 step 2 after (1, 8): 45 candidates x 91 target sets.  Every
    regular block has sigma_min >= 1e-4 here, far above the threshold, so
    the determinant bound clears all of them and the SVD sees exactly the
    singular ones, the 91 blocks of the duplicate (1, 8) among them."""
    mat = ptdf(fixture10)
    strat = DeltaStrategy("const", 100.0)
    target_sets = np.array(list(itertools.combinations(range(len(mat.line_ids)), 2)))
    blocks = np.concatenate([np.column_stack([cv(mat, 1, 8).values, vec])[target_sets]
                             for vec in cv_matrix(mat, node_pairs(mat.bus_ids))])
    sigma = np.linalg.svd(blocks, compute_uv=False)
    singular = int((sigma[:, -1] <= PIVOT_TOL * np.maximum(sigma[:, 0], 1.0)).sum())
    handed = []
    real_svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        handed.append(len(a))
        return real_svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", spy)
        ranked = place_lp_next(fixture10, mat, [(1, 8)], strat)
    assert sum(handed) == singular >= 91
    assert _bits(ranked) == _bits(_reference_place_lp_next(fixture10, mat, [(1, 8)], strat))


@settings(max_examples=60, deadline=None)
@given(net=multigraphs(n_bus=(2, 7)), data=st.data())
def test_place_lp_next_matches_reference_bits(net, data):
    """Same pairs, counts and effort bits as the per-candidate reference for
    k = 1..3 on drawn grids (parallel lines and repeated controllers give
    singular blocks), with the default chunk and with chunks of a few
    blocks."""
    pairs = node_pairs(net.bus_ids)
    existing = data.draw(st.lists(st.sampled_from(pairs), max_size=2), label="existing")
    strategy = data.draw(st.sampled_from([DeltaStrategy("const", 100.0),
                                          DeltaStrategy("reactance", 1000.0)]))
    p_dc_max = data.draw(st.one_of(st.sampled_from([math.inf, 50.0, 300.0, 2000.0]),
                                   st.floats(0.0, 1e4)), label="p_dc_max")
    chunk = data.draw(st.sampled_from([place_lp._EFFORT_CHUNK, 1, 3, 40]), label="chunk")
    mat = ptdf(net)
    with pytest.MonkeyPatch.context() as mp:
        # bits of drawn, possibly ill-conditioned grids: not HiGHS material
        mp.setattr(place_lp, "solve_lp", simplex.solve_lp)
        want = _outcome(lambda: _bits(_reference_place_lp_next(
            net, mat, existing, strategy, p_dc_max)))
        mp.setattr(place_lp, "_EFFORT_CHUNK", chunk)
        got = _outcome(lambda: _bits(place_lp_next(net, mat, existing, strategy, p_dc_max)))
    assert got == want


# ---------------------------------------------------------------------------
# every effort LP above, replayed on HiGHS


def test_effort_lps_agree_with_highs(wheatstone, effort_lps):
    """Same status, and the objective within 1e-7 (1 + |obj|), on every
    effort LP this module built; the singular Wheatstone block at three caps
    makes sure both statuses are among them when this test runs alone."""
    mat = ptdf(wheatstone)
    for cap in (math.inf, 150.0, 99.0):
        control_effort(mat, [(1, 3), (1, 3)], [1, 3], DeltaStrategy("const", 100.0),
                       p_dc_max=cap, net=wheatstone)
    statuses = set()
    for problem, res in effort_lps:
        highs = linprog(problem.c, A_eq=problem.a_eq, b_eq=problem.b_eq,
                        bounds=list(zip(problem.lower, problem.upper)), method="highs")
        status = {0: "optimal", 2: "infeasible"}[highs.status]
        assert res.status == status
        if status == "optimal":
            assert abs(res.objective - highs.fun) <= 1e-7 * (1.0 + abs(highs.fun))
        statuses.add(status)
    assert statuses == {"optimal", "infeasible"}
