"""Economic dispatch, security constraints, and the cost-of-security curve."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import angle_flows, unit_pair, without_line
from gridctrl.cases import load_case
from gridctrl.dcsens import ptdf
from gridctrl.netmodel import Bus, Generator, Line, Load, Network
from gridctrl.opf import (
    CosReport,
    InfeasibleError,
    cos_curve,
    cost_of_security,
    dc_opf,
    default_contingencies,
    sc_opf,
)
from gridctrl.place_cv import run_cv_placement
from test_dcsens import multigraphs


def brute_force_dispatch(net, contingencies=(), grid=121):
    """Cheapest feasible dispatch by scanning a dispatch lattice.

    Enumerates generator outputs on a regular grid (last generator takes
    the remaining load), keeps points whose base and post-outage flows fit
    the limits, and returns the best exact-quadratic cost.  Oracle-grade
    only: exponential in the generator count.
    """
    gens = net.generators
    load = sum(net.load_vector)
    lines = net.lines_in_service
    ids = [ln.id for ln in lines]
    best = None
    axes = [np.linspace(g.p_min, g.p_max, grid) for g in gens[:-1]]
    last = gens[-1]
    for combo in itertools.product(*axes):
        p_last = load - sum(combo)
        if not (last.p_min - 1e-12 <= p_last <= last.p_max + 1e-12):
            continue
        point = list(combo) + [p_last]
        inj = -np.array(net.load_vector)
        for g, p in zip(gens, point):
            inj[net.bus_index[g.bus]] += p
        flows = angle_flows(net, inj)
        if any(abs(f) > ln.limit + 1e-9 for f, ln in zip(flows, lines)):
            continue
        ok = True
        for cid in contingencies:
            reduced = Network(
                buses=net.buses,
                lines=tuple(ln for ln in net.lines if ln.id != cid),
                generators=net.generators, loads=net.loads,
                base_mva=net.base_mva)
            rflows = angle_flows(reduced, inj)
            rlines = reduced.lines_in_service
            if any(abs(f) > ln.limit + 1e-9 for f, ln in zip(rflows, rlines)):
                ok = False
                break
        if not ok:
            continue
        cost = sum(g.cost_at(p) for g, p in zip(gens, point))
        if best is None or cost < best:
            best = cost
    return best


# ---------------------------------------------------------------------------
# base OPF


def test_single_bus_trivial():
    net = Network(
        buses=(Bus(1, True), Bus(2)),
        lines=(Line(1, 1, 2, 0.1),),
        generators=(Generator(1, 0.0, 200.0, cost=(0.0, 10.0, 0.0)),),
        loads=(Load(2, 120.0),),
    )
    sol = dc_opf(net)
    assert sol.status == "optimal"
    assert sol.p_gen == (pytest.approx(120.0),)
    assert sol.flows == (pytest.approx(120.0),)
    assert sol.cost == pytest.approx(1200.0)


def test_congestion_forces_expensive_unit(congested3):
    """Hand-derived optimum: the 70 MW limit keeps the cheap unit at 60."""
    sol = dc_opf(congested3)
    assert sol.status == "optimal"
    assert sol.cost == pytest.approx(3300.0, rel=1e-9)
    assert sol.p_gen == pytest.approx((60.0, 90.0))
    assert sol.flows == pytest.approx((70.0, -80.0, -10.0))


def test_congested3_matches_brute_force(congested3):
    best = brute_force_dispatch(congested3, grid=601)
    sol = dc_opf(congested3)
    assert sol.cost == pytest.approx(best, rel=1e-4)


def test_fixture10_merit_order(fixture10):
    sol = dc_opf(fixture10)
    assert sol.status == "optimal"
    assert sol.cost == pytest.approx(8550.0, rel=1e-9)
    assert sol.p_gen == pytest.approx((400.0, 150.0, 0.0))


def test_flows_are_physical(fixture10):
    sol = dc_opf(fixture10)
    inj = -np.array(fixture10.load_vector)
    for g, p in zip(fixture10.generators, sol.p_gen):
        inj[fixture10.bus_index[g.bus]] += p
    oracle = angle_flows(fixture10, inj)
    np.testing.assert_allclose(sol.flows, oracle, atol=1e-6)
    limits = [ln.limit for ln in fixture10.lines_in_service]
    assert all(abs(f) <= lim + 1e-6 for f, lim in zip(sol.flows, limits))


def test_quadratic_costs_near_equal_marginal(case14):
    """Piecewise linearization must land close to the smooth optimum."""
    sol = dc_opf(case14)
    assert sol.status == "optimal"
    # unconstrained equal-marginal split of 259 MW between the two
    # quadratic units (third unit's 40 $/MWh floor stays out of merit)
    p1 = 0.5 / (0.5 + 2 * 430.293 / 1e4) * 2.59 * 100
    smooth = (2000 * 2.59
              + 430.293 * (p1 / 100) ** 2 + 2500 * ((2.59 - p1 / 100)) ** 2)
    assert sol.cost == pytest.approx(smooth, rel=3e-3)
    assert sol.cost >= smooth - 1e-9
    assert sum(sol.p_gen) == pytest.approx(259.0)


def test_more_segments_never_cost_more(case14):
    coarse = dc_opf(case14, n_segments=4).cost
    fine = dc_opf(case14, n_segments=40).cost
    assert fine <= coarse + 1e-9


def test_infeasible_when_generation_short():
    net = Network(
        buses=(Bus(1, True), Bus(2)),
        lines=(Line(1, 1, 2, 0.1),),
        generators=(Generator(1, 0.0, 0.5),),
        loads=(Load(2, 1.0),),
    )
    sol = dc_opf(net)
    assert sol.status == "infeasible"
    assert sol.cost is None and sol.p_gen is None
    assert sol.line_ids == (1,)


def test_hvdc_relieves_congestion(congested3):
    """A controller between the limited corridor's ends restores merit order."""
    relieved = dc_opf(congested3, placements=[(1, 2)])
    assert relieved.cost == pytest.approx(1500.0, rel=1e-9)
    assert relieved.p_gen == pytest.approx((150.0, 0.0))


def test_hvdc_never_hurts(fixture10, congested3):
    for net in (fixture10, congested3):
        plain = dc_opf(net).cost
        placed = dc_opf(net, placements=[(1, 3)]).cost
        assert placed <= plain + 1e-6


def test_hvdc_cap_limits_relief(congested3):
    capped = dc_opf(congested3, placements=[(1, 2)], p_dc_max=10.0)
    assert capped.status == "optimal"
    assert len(capped.hvdc_base) == 1
    assert abs(capped.hvdc_base[0]) <= 10.0 + 1e-9
    # 10 MW against a 2/3 shift factor frees 6.67 MW on the corridor
    assert capped.cost == pytest.approx(2900.0, rel=1e-9)
    assert dc_opf(congested3).cost > capped.cost > 1500.0


# ---------------------------------------------------------------------------
# security-constrained OPF


def test_default_contingencies(fixture10, case14):
    assert default_contingencies(fixture10) == list(range(1, 15))
    assert default_contingencies(case14) == [lid for lid in range(1, 21)
                                             if lid != 14]


def test_sc_opf_rejects_bad_contingencies(fixture10, case14):
    with pytest.raises(ValueError, match="unknown"):
        sc_opf(fixture10, contingencies=[99])
    with pytest.raises(ValueError, match="distinct"):
        sc_opf(fixture10, contingencies=[1, 1])
    with pytest.raises(ValueError, match="island"):
        sc_opf(case14, contingencies=[14])
    with pytest.raises(ValueError, match="mode"):
        sc_opf(fixture10, mode="urgent")


def test_sc_opf_empty_contingency_set_is_plain_opf(fixture10):
    assert sc_opf(fixture10, contingencies=[]).cost == pytest.approx(
        dc_opf(fixture10).cost)


def test_preventive_dispatch_survives_every_outage(fixture10):
    """Oracle check: re-solve each outage network at the returned dispatch."""
    sol = sc_opf(fixture10, mode="preventive")
    assert sol.status == "optimal"
    inj = -np.array(fixture10.load_vector)
    for g, p in zip(fixture10.generators, sol.p_gen):
        inj[fixture10.bus_index[g.bus]] += p
    for cid in default_contingencies(fixture10):
        reduced = Network(
            buses=fixture10.buses,
            lines=tuple(ln for ln in fixture10.lines if ln.id != cid),
            generators=fixture10.generators, loads=fixture10.loads,
            base_mva=fixture10.base_mva)
        flows = angle_flows(reduced, inj)
        for f, ln in zip(flows, reduced.lines_in_service):
            assert abs(f) <= ln.limit + 1e-6, f"outage {cid} line {ln.id}"


def test_preventive_cost_frozen(fixture10):
    sol = sc_opf(fixture10, mode="preventive")
    assert sol.cost == pytest.approx(12510.0445106166, rel=1e-9)


def test_mode_ordering(fixture10):
    """Recourse can only help: opf <= corrective <= preventive."""
    plain = dc_opf(fixture10).cost
    corrective = sc_opf(fixture10, mode="corrective").cost
    preventive = sc_opf(fixture10, mode="preventive").cost
    assert plain <= corrective + 1e-7
    assert corrective <= preventive + 1e-7


def test_corrective_equals_preventive_without_recourse(fixture10):
    """With no controllers there is nothing to re-dispatch after an outage."""
    prev = sc_opf(fixture10, mode="preventive").cost
    corr = sc_opf(fixture10, mode="corrective").cost
    assert corr == pytest.approx(prev, rel=1e-9)


def test_sc_opf_small_brute_force():
    """Triangle economy where security constraints bind: a tight third leg
    caps the cheap remote unit once any outage is considered."""
    net = Network(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1, limit=0.8), Line(2, 2, 3, 0.1, limit=0.8),
               Line(3, 1, 3, 0.1, limit=0.3)),
        generators=(Generator(1, 0.0, 2.0, cost=(0.0, 2500.0, 0.0)),
                    Generator(3, 0.0, 2.0, cost=(0.0, 1000.0, 0.0))),
        loads=(Load(2, 0.6),),
    )
    assert dc_opf(net).cost == pytest.approx(600.0)
    conts = default_contingencies(net)
    sol = sc_opf(net, mode="preventive")
    best = brute_force_dispatch(net, contingencies=conts, grid=2001)
    assert sol.status == "optimal"
    assert sol.cost == pytest.approx(1050.0, rel=1e-9)
    assert sol.cost == pytest.approx(best, abs=1.0)


def test_corrective_recourse_beats_preventive(fixture10):
    """An HVDC that may move after the outage saves real money."""
    prev = sc_opf(fixture10, [(1, 8)], mode="preventive")
    corr = sc_opf(fixture10, [(1, 8)], mode="corrective")
    assert prev.status == "optimal" and corr.status == "optimal"
    assert prev.cost == pytest.approx(9482.376976999709, rel=1e-6)
    assert corr.cost == pytest.approx(8699.61768104776, rel=1e-6)
    assert corr.cost < prev.cost - 1e-6
    assert sorted(corr.hvdc_contingency) == list(range(1, 15))


def test_congested3_sc_opf_infeasible(congested3):
    assert sc_opf(congested3, mode="preventive").status == "infeasible"
    assert sc_opf(congested3, mode="corrective").status == "infeasible"


# ---------------------------------------------------------------------------
# cost of security


def test_cos_report_fixture10(fixture10):
    rep = cost_of_security(fixture10, mode="preventive")
    assert isinstance(rep, CosReport)
    assert rep.c_opf == pytest.approx(8550.0)
    assert rep.c_scopf == pytest.approx(12510.0445106166, rel=1e-9)
    assert rep.cos_abs == pytest.approx(3960.0445106166, rel=1e-9)
    assert rep.cos_percent == pytest.approx(46.3163100657, rel=1e-8)


def test_cos_raises_when_base_infeasible(congested3):
    with pytest.raises(InfeasibleError, match="sc-opf"):
        cost_of_security(congested3, mode="preventive")


def cv_placements(net, count):
    return run_cv_placement(ptdf(net), count)[0]


def test_cos_curve_reaches_zero_and_stays(fixture10):
    curve = cos_curve(fixture10, cv_placements(fixture10, 3), mode="corrective")
    points = curve
    assert [pt.count for pt in points] == [0, 1, 2, 3]
    assert points[0].pair is None
    assert points[0].cos_percent == pytest.approx(46.3163100657, rel=1e-8)
    assert points[1].pair == (1, 8)
    assert points[1].cos_percent == pytest.approx(1.7499143982, rel=1e-6)
    # the two optima differ only by roundoff here, which reads as exactly 0
    assert points[2].cos_abs == points[2].cos_percent == 0.0
    assert points[3].cos_abs == points[3].cos_percent == 0.0


def test_cos_curve_is_monotone(fixture10):
    curve = cos_curve(fixture10, cv_placements(fixture10, 4), mode="corrective")
    vals = [pt.cos_abs for pt in curve]
    for earlier, later in zip(vals, vals[1:]):
        assert later <= earlier + 1e-6


# ---------------------------------------------------------------------------
# LP oracle: HiGHS on a formulation built from the case data alone

PLACEMENTS = {"triangle3": [(1, 3), (2, 3)], "congested3": [(1, 2), (2, 3)],
              "fixture10": [(1, 8), (2, 6)], "case14": [(1, 8), (2, 6)]}


def _states(net, contingencies):
    """(network, line limits, flow per unit injection at each bus) for the
    intact grid and then each outage, from direct angle solves (MW)."""
    for state in [net] + [without_line(net, cid) for cid in contingencies]:
        by_bus = np.column_stack([angle_flows(state, np.eye(net.n_bus)[k])
                                  for k in range(net.n_bus)])
        yield state, np.array([ln.limit for ln in state.lines_in_service]), by_bus


def highs_opf(net, placements, p_dc_max, contingencies, corrective):
    """(status, cost) of the DC OPF or SC-OPF by HiGHS.

    Costs are the same piecewise-linear segments as ``opf`` (10 per quadratic
    unit, one per linear unit).  Each limited flow, base and post-outage, is
    two inequality rows, +flow <= limit and -flow <= limit.  A corrective
    outage reads its own HVDC block, every other state the base block.
    """
    gens = net.generators
    widths, slopes, seg_bus = [], [], []
    for g in gens:
        if g.p_max - g.p_min <= 1e-12:
            continue
        points = (np.array([g.p_min, g.p_max]) if g.cost[2] == 0.0
                  else np.linspace(g.p_min, g.p_max, 11))
        costs = np.array([g.cost_at(p) for p in points])
        widths += list(np.diff(points))
        slopes += list(np.diff(costs) / np.diff(points))
        seg_bus += [net.bus_index[g.bus]] * (len(points) - 1)
    n_seg, n_dc = len(widths), len(placements)
    n_blocks = 1 + len(contingencies) if corrective else 1
    n = n_seg + n_dc * n_blocks
    fixed = -np.array(net.load_vector)
    for g in gens:
        fixed[net.bus_index[g.bus]] += g.p_min
    rows, rhs = [], []
    for s, (state, limits, by_bus) in enumerate(_states(net, contingencies)):
        coef = np.zeros((len(limits), n))
        coef[:, :n_seg] = by_bus[:, seg_bus]
        dc = n_seg + n_dc * (s if corrective else 0)
        for j, (m, k) in enumerate(placements):
            coef[:, dc + j] = angle_flows(state, unit_pair(net, m, k))
        off = by_bus @ fixed
        finite = np.isfinite(limits)
        rows += [coef[finite], -coef[finite]]
        rhs += [limits[finite] - off[finite], limits[finite] + off[finite]]
    cap = p_dc_max
    if n == 0:                        # nothing to dispatch: balanced and within limits?
        ok = abs(sum(net.load_vector) - sum(g.p_min for g in gens)) <= 1e-9 and all(
            np.all(r >= 0.0) for r in rhs)
        return ("optimal", sum(g.cost_at(g.p_min) for g in gens)) if ok else ("infeasible", None)
    res = linprog(
        np.concatenate([slopes, np.zeros(n - n_seg)]),
        A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
        A_eq=np.concatenate([np.ones(n_seg), np.zeros(n - n_seg)])[None, :],
        b_eq=[sum(net.load_vector) - sum(g.p_min for g in gens)],
        bounds=[(0.0, w) for w in widths] + [(-cap, cap)] * (n - n_seg),
        method="highs")
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return "infeasible", None
    return "optimal", res.fun + sum(g.cost_at(g.p_min) for g in gens)


def assert_point_feasible(net, sol, p_dc_max, contingencies, placements):
    """The printed dispatch and setpoints keep every flow within its limit."""
    tol = 1e-6
    p_gen = np.array(sol.p_gen)
    for g, p in zip(net.generators, p_gen):
        assert g.p_min - tol <= p <= g.p_max + tol
    assert p_gen.sum() == pytest.approx(sum(net.load_vector), abs=tol)
    inj = -np.array(net.load_vector)
    for g, p in zip(net.generators, p_gen):
        inj[net.bus_index[g.bus]] += p
    blocks = [sol.hvdc_base] + [(sol.hvdc_contingency or {}).get(cid, sol.hvdc_base)
                                for cid in contingencies]
    for block in blocks:
        assert len(block) == len(placements)
        assert all(abs(p) <= p_dc_max * (1 + tol) for p in block)
    for s, (state, limits, _by_bus) in enumerate(_states(net, contingencies)):
        flow_inj = inj + sum((p * unit_pair(net, m, k)
                              for p, (m, k) in zip(blocks[s], placements)),
                             np.zeros(net.n_bus))
        flows = angle_flows(state, flow_inj)
        if s == 0:
            np.testing.assert_allclose(sol.flows, flows, atol=tol)
        assert np.all(np.abs(flows) <= limits + tol), f"state {s}"


@pytest.mark.parametrize("flip", [False, True], ids=["as-is", "flipped"])
@pytest.mark.parametrize("mode", ["opf", "preventive", "corrective"])
@pytest.mark.parametrize("name", sorted(PLACEMENTS))
def test_opf_agrees_with_highs(name, mode, flip):
    """Status and cost match HiGHS on an independently built LP, and the
    printed point is feasible, for 0-2 controllers, uncapped and at 50 MW.
    Flipping every line's ends negates every flow, so a limit that binds
    in one direction is checked in the other too."""
    net = load_case(name)
    if flip:
        net = replace(net, lines=tuple(replace(ln, from_bus=ln.to_bus, to_bus=ln.from_bus)
                                       for ln in net.lines))
    conts = [] if mode == "opf" else default_contingencies(net)
    for count in range(3):
        placements = PLACEMENTS[name][:count]
        for cap in (math.inf, 50.0):
            if mode == "opf":
                sol = dc_opf(net, placements, p_dc_max=cap)
            else:
                sol = sc_opf(net, placements, mode=mode, p_dc_max=cap)
            status, cost = highs_opf(net, placements, cap, conts, mode == "corrective")
            assert sol.status == status, (placements, cap)
            if status == "optimal":
                assert abs(sol.cost - cost) <= 1e-7 * (1 + abs(cost)), (placements, cap)
                assert_point_feasible(net, sol, cap, conts, placements)


@st.composite
def opf_instances(draw):
    """(network, placements, cap, contingencies, mode) on a drawn connected
    grid of 3-12 buses whose reactances span 1e4, so some lines are
    near-bridges.  Degenerate on purpose: generators share marginal costs,
    and some limits sit exactly at the flow of the optimum without limits.
    At most four outages keep each LP small."""
    grid = draw(multigraphs(log_x=(-2.0, 2.0), n_bus=(3, 12)))
    buses = st.integers(1, grid.n_bus)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        p_max = draw(st.floats(20.0, 400.0))
        p_min = draw(st.sampled_from([0.0, 0.0, 0.25 * p_max]))
        c1 = draw(st.sampled_from([10.0, 20.0, 20.0, 35.0]))
        c2 = draw(st.sampled_from([0.0, 0.0, 0.02, 0.1]))
        gens.append(Generator(draw(buses), p_min, p_max, cost=(0.0, c1, c2)))
    lo, hi = sum(g.p_min for g in gens), sum(g.p_max for g in gens)
    shares = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    total = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    loads = tuple(Load(draw(buses), total * w / sum(shares)) for w in shares)
    net = replace(grid, generators=tuple(gens), loads=loads,
                  base_mva=draw(st.sampled_from([1.0, 100.0, 137.0, 1e4])))
    free = dc_opf(net)
    flows = dict(zip(free.line_ids, free.flows))
    lines = []
    for ln in net.lines:
        kind = draw(st.sampled_from(["unlimited", "drawn", "at-optimum"]))
        limit = math.inf
        if kind == "drawn":
            limit = draw(st.floats(0.1, 1.0)) * total
        elif kind == "at-optimum" and abs(flows.get(ln.id, 0.0)) > 1e-6:
            limit = abs(flows[ln.id])
        lines.append(replace(ln, limit=limit))
    net = replace(net, lines=tuple(lines))
    pairs = [(m, k) for m in range(1, net.n_bus + 1) for k in range(m + 1, net.n_bus + 1)]
    count = draw(st.integers(0, 2))
    placements = draw(st.lists(st.sampled_from(pairs), min_size=count, max_size=count,
                               unique=True))
    cap = draw(st.sampled_from([math.inf, 0.05, 0.2])) * total
    mode = draw(st.sampled_from(["opf", "preventive", "corrective"]))
    outages = default_contingencies(net)
    conts = [] if mode == "opf" else draw(
        st.lists(st.sampled_from(outages), min_size=1, max_size=4, unique=True)
        if outages else st.just([]))
    return net, placements, cap, conts, mode


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=opf_instances())
def test_opf_agrees_with_highs_on_drawn_grids(instance):
    """Status, cost and a feasible printed point, as on the bundled cases,
    for hypothesis-drawn grids in all three modes."""
    net, placements, cap, conts, mode = instance
    if mode == "opf":
        sol = dc_opf(net, placements, p_dc_max=cap)
    else:
        sol = sc_opf(net, placements, contingencies=conts, mode=mode, p_dc_max=cap)
    status, cost = highs_opf(net, placements, cap, conts, mode == "corrective")
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.cost - cost) <= 1e-7 * (1 + abs(cost))
        assert_point_feasible(net, sol, cap, conts, placements)


@st.composite
def recourse_instances(draw):
    """(network, placements, cap, saving) on a drawn grid where corrective
    recourse pays ``saving`` $/h.

    Two units at buses A and B, both at c $/h per MW, feed a hub H over two
    corridor lines of one reactance, and a tie line A-B carries at most
    ``tie`` MW.  Losing A-H leaves A radial on the tie, so its flow is
    p_A - s with s the A->B setpoint; losing B-H gives p_B + s the other
    way.  One setpoint s for both outages allows
    p_A + p_B <= |p_A - s| + |p_B + s| <= 2 tie, and recourse (+k after one
    outage, -k after the other, |k| <= cap) allows 2 (tie + k).  The load
    is 2 (tie + need): what the cheap units cannot carry comes from a dearer
    unit at H.  So corrective saves 2 min(cap, need) MW at the difference in
    price.  Pendant load buses hang off H on unlimited lines; those are
    bridges, so no outage of them is secured against.
    """
    n_pendant = draw(st.integers(0, 2))
    ids = draw(st.permutations(range(1, 4 + n_pendant)))
    a, b, hub, pendants = ids[0], ids[1], ids[2], ids[3:]
    tie = draw(st.floats(20.0, 200.0))
    need = draw(st.floats(5.0, 100.0))
    cap = need * draw(st.sampled_from([1.0, 1.0, 0.3, 0.9, 1.5]))
    total = 2.0 * (tie + need)
    corridor = draw(st.sampled_from([math.inf, 1.1, 2.0])) * (total + 2.0 * cap)
    x_corridor = 10.0 ** draw(st.floats(-2.0, 1.0))
    ends = [(a, hub, x_corridor, corridor), (b, hub, x_corridor, corridor),
            (a, b, 10.0 ** draw(st.floats(-2.0, 1.0)), tie)]
    ends += [(hub, p, 10.0 ** draw(st.floats(-2.0, 1.0)), math.inf) for p in pendants]
    lines = []
    for i, (f, t, x, limit) in enumerate(ends, start=1):
        if draw(st.booleans()):
            f, t = t, f
        lines.append(Line(i, f, t, x, limit))
    shares = [draw(st.floats(0.1, 1.0)) for _ in range(1 + n_pendant)]
    c, dear = draw(st.floats(5.0, 20.0)), draw(st.floats(30.0, 80.0))
    p_max = tie + need + draw(st.floats(0.0, 50.0))
    slack = draw(st.sampled_from(ids))
    net = Network(
        buses=tuple(Bus(k, k == slack) for k in sorted(ids)),
        lines=tuple(lines),
        generators=(Generator(a, 0.0, p_max, cost=(draw(st.floats(0.0, 100.0)), c, 0.0)),
                    Generator(b, 0.0, p_max, cost=(0.0, c, 0.0)),
                    Generator(hub, 0.0, total, cost=(0.0, dear, 0.0))),
        loads=tuple(Load(bus, total * w / sum(shares))
                    for bus, w in zip([hub, *pendants], shares)),
        base_mva=draw(st.sampled_from([1.0, 100.0, 1e4])))
    placements = [(a, b) if draw(st.booleans()) else (b, a)]
    return net, placements, cap, 2.0 * min(cap, need) * (dear - c)


@settings(max_examples=60, deadline=None)
@given(instance=recourse_instances())
def test_corrective_recourse_pays_on_drawn_grids(instance):
    """Both modes equal HiGHS and print a feasible point, and corrective is
    cheaper than preventive by the saving the construction predicts."""
    net, placements, cap, saving = instance
    conts = default_contingencies(net)
    assert len(conts) == 3
    costs = {}
    for mode in ("preventive", "corrective"):
        sol = sc_opf(net, placements, mode=mode, p_dc_max=cap)
        status, cost = highs_opf(net, placements, cap, conts, mode == "corrective")
        assert sol.status == status == "optimal", mode
        assert abs(sol.cost - cost) <= 1e-7 * (1 + abs(cost)), mode
        assert_point_feasible(net, sol, cap, conts, placements)
        costs[mode] = sol.cost
    gap = costs["preventive"] - costs["corrective"]
    assert gap > 1e-7 * (1 + costs["preventive"])
    assert gap == pytest.approx(saving, rel=1e-7)
