"""Controller-count bounds and the pinned-flow incidence system."""

import numpy as np
import pytest

from conftest import angle_flows
from gridctrl.bounds import (
    BoundsReport,
    bounds,
    controllability_rank,
    matrix_rank,
    solve_fixed_flows,
)
from gridctrl.dcsens import InjectionProfile, incidence, ptdf
from gridctrl.netmodel import Bus, InputError, Line, Network


def test_matrix_rank_basics():
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(4)) == 4
    assert matrix_rank(np.outer([1.0, 2.0], [3.0, 4.0, 5.0])) == 1
    nearly = np.diag([1.0, 1e-7, 1e-9])
    assert matrix_rank(nearly) == 2


def test_incidence_triangle(triangle3):
    a = incidence(triangle3).T
    np.testing.assert_array_equal(a, [
        [1.0, 0.0, 1.0],
        [-1.0, 1.0, 0.0],
        [0.0, -1.0, -1.0],
    ])


def test_bounds_fixture10(fixture10):
    assert bounds(fixture10) == BoundsReport(
        series_bound=5, parallel_bound=9, ptdf_rank=9)


def test_bounds_triangle(triangle3):
    assert bounds(triangle3) == BoundsReport(
        series_bound=1, parallel_bound=2, ptdf_rank=2)


def test_bounds_case14(case14):
    assert bounds(case14) == BoundsReport(
        series_bound=7, parallel_bound=13, ptdf_rank=13)


def test_bounds_tree_has_no_series_slot():
    net = Network(
        buses=(Bus(1, True), Bus(2), Bus(3), Bus(4)),
        lines=(Line(1, 1, 2, 0.1), Line(2, 2, 3, 0.1), Line(3, 3, 4, 0.1)),
    )
    rep = bounds(net)
    assert rep.series_bound == 0
    assert rep.parallel_bound == 3 and rep.ptdf_rank == 3


def test_bounds_reject_disconnected():
    net = Network(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1),),
    )
    with pytest.raises(ValueError, match="connected"):
        bounds(net)


# ---------------------------------------------------------------------------
# pinned flows


def test_fixed_flows_underdetermined(triangle3, fixture10):
    zero3 = InjectionProfile(np.zeros(3))
    res = solve_fixed_flows(triangle3, zero3, {})
    assert (res.status, res.freedom) == ("underdetermined", 1)
    zero10 = InjectionProfile(np.zeros(10))
    res = solve_fixed_flows(fixture10, zero10, {})
    assert (res.status, res.freedom) == ("underdetermined", 5)


def test_fixed_flows_unique_matches_physics(triangle3):
    """Pinning one flow at its physical value must reproduce all of them."""
    inj = InjectionProfile(np.array([0.9, -0.3, -0.6]))
    physical = angle_flows(triangle3, inj.p)
    res = solve_fixed_flows(triangle3, inj, {1: float(physical[0])})
    assert res.status == "unique"
    np.testing.assert_allclose(res.flows, physical, atol=1e-12)


def test_fixed_flows_unique_on_tree():
    net = Network(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1), Line(2, 2, 3, 0.2)),
    )
    inj = InjectionProfile(np.array([1.0, -0.25, -0.75]))
    res = solve_fixed_flows(net, inj, {})
    assert res.status == "unique"
    np.testing.assert_allclose(res.flows, [1.0, 0.75], atol=1e-12)


def test_fixed_flows_inconsistent(triangle3):
    inj = InjectionProfile(np.zeros(3))
    res = solve_fixed_flows(triangle3, inj, {1: 1.0, 2: 0.0})
    assert res.status == "inconsistent"
    assert res.flows is None


def test_fixed_flows_balance_residual_is_zero(fixture10):
    """Any unique solution must satisfy every nodal balance exactly."""
    inj = InjectionProfile.from_pairs(fixture10, {1: 2.0, 6: -1.2, 9: -0.8})
    pins = {1: 0.4, 3: -0.2, 5: 0.1, 12: 0.0, 14: 0.3}
    res = solve_fixed_flows(fixture10, inj, pins)
    assert res.status == "unique"
    a = incidence(fixture10).T
    np.testing.assert_allclose(a @ res.flows, inj.p, atol=1e-9)
    ids = [ln.id for ln in fixture10.lines_in_service]
    for lid, val in pins.items():
        assert res.flows[ids.index(lid)] == pytest.approx(val)


def test_fixed_flows_unknown_line(triangle3):
    with pytest.raises(InputError, match="no in-service line"):
        solve_fixed_flows(triangle3, InjectionProfile(np.zeros(3)), {9: 0.0})


def test_fixed_flows_injection_length(triangle3):
    with pytest.raises(ValueError, match="injection length 2 != n_bus 3"):
        solve_fixed_flows(triangle3, InjectionProfile(np.zeros(2)), {})


# ---------------------------------------------------------------------------
# controllability rank


def test_controllability_rank_empty(fixture10):
    assert controllability_rank([], ptdf(fixture10)) == 0


def test_controllability_rank_duplicates_do_not_add(fixture10):
    mat = ptdf(fixture10)
    assert controllability_rank([(1, 8)], mat) == 1
    assert controllability_rank([(1, 8), (1, 8)], mat) == 1
    assert controllability_rank([(1, 8), (8, 1)], mat) == 1


def test_controllability_rank_caps_at_parallel_bound(fixture10):
    mat = ptdf(fixture10)
    ids = fixture10.bus_ids
    every_pair = [(m, n) for i, m in enumerate(ids) for n in ids[i + 1:]]
    assert controllability_rank(every_pair, mat) == 9


def test_controllability_rank_chain_is_dependent(fixture10):
    """(a,b), (b,c) and (a,c) vectors close a cycle: rank 2, not 3."""
    mat = ptdf(fixture10)
    assert controllability_rank([(1, 4), (4, 7), (1, 7)], mat) == 2
