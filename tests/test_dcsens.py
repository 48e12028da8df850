"""Incidence, PTDF, CV, HVDC superposition, TCSC derivative, LODF.

Every numerical claim is checked against the angle-solve oracle in
conftest.py or against a perturbed re-solve, not against the code under
test.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import angle_flows, unit_pair, without_line
from gridctrl.dcsens import (
    BALANCE_TOL,
    DisconnectedNetworkError,
    InjectionProfile,
    _frozen,
    _reduced_inverse,
    _require_connected,
    bridges,
    cv,
    cv_matrix,
    incidence,
    lodf,
    node_pairs,
    ptdf,
    remove_line,
    tcsc_sensitivity,
)
from gridctrl.netmodel import Bus, InputError, Line, Network, connected_components


def balanced_profiles(net, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.normal(size=net.n_bus)
        p -= p.mean()
        yield InjectionProfile(p)


# ---------------------------------------------------------------------------
# incidence


def test_incidence_exact(triangle3, fixture10):
    """+1 at the from-bus, -1 at the to-bus, exact zeros elsewhere, one row
    per in-service line in file order."""
    np.testing.assert_array_equal(incidence(triangle3), [
        [1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, -1.0]])
    net = remove_line(fixture10, 3)
    inc = incidence(net)
    assert inc.shape == (13, 10)
    for row, ln in zip(inc, net.lines_in_service):
        want = np.zeros(10)
        want[net.bus_index[ln.from_bus]] = 1.0
        want[net.bus_index[ln.to_bus]] = -1.0
        assert row.tobytes() == want.tobytes()
    assert incidence(Network(buses=(Bus(1, True),), lines=())).shape == (0, 1)


# ---------------------------------------------------------------------------
# reference: the susceptance builder, PTDF and bridge test that built B_line
# by a Python loop and took the incidence as its sign pattern, verbatim; the
# new code must give the same bits


@dataclass(frozen=True, eq=False)
class _ReferenceSusceptance:
    b_line: np.ndarray          # (n_L, n_B): row l = (1/x_l)(e_from - e_to)
    b_bus: np.ndarray           # (n_B, n_B): weighted graph Laplacian
    slack_index: int
    bus_ids: tuple[int, ...]
    line_ids: tuple[int, ...]


def _reference_susceptance(net):
    lines = net.lines_in_service
    n_b, n_l = net.n_bus, len(lines)
    b_line = np.zeros((n_l, n_b))
    for k, ln in enumerate(lines):
        b = 1.0 / ln.reactance
        b_line[k, net.bus_index[ln.from_bus]] = b
        b_line[k, net.bus_index[ln.to_bus]] = -b
    incidence = np.sign(b_line)
    b_bus = incidence.T @ b_line
    return _ReferenceSusceptance(
        b_line=_frozen(b_line), b_bus=_frozen(b_bus),
        slack_index=net.slack_index, bus_ids=net.bus_ids,
        line_ids=tuple(ln.id for ln in lines),
    )


def _reference_ptdf(net):
    _require_connected(net)
    sus = _reference_susceptance(net)
    values = sus.b_line @ _reduced_inverse(sus.b_bus, sus.slack_index)
    values[:, sus.slack_index] = 0.0
    return values


def _reference_bridges(net):
    _require_connected(net)
    sus = _reference_susceptance(net)
    inc = np.sign(sus.b_line)
    h = ((inc @ _reduced_inverse(inc.T @ inc, sus.slack_index)) * inc).sum(axis=1)
    return frozenset(lid for lid, hk in zip(sus.line_ids, h) if hk > 1.0 - 0.5 / net.n_bus)


def _outcome(fn, net):
    try:
        return fn(net)
    except DisconnectedNetworkError as exc:
        return f"DisconnectedNetworkError: {exc}"


def assert_same_bits_as_reference(net):
    assert (_outcome(lambda n: ptdf(n).values.tobytes(), net)
            == _outcome(lambda n: _reference_ptdf(n).tobytes(), net))
    assert _outcome(bridges, net) == _outcome(_reference_bridges, net)


def test_ptdf_and_bridges_match_reference_bits(triangle3, fixture10, case14, congested3):
    for net in (triangle3, fixture10, case14, congested3):
        assert_same_bits_as_reference(net)


# ---------------------------------------------------------------------------
# PTDF


def test_ptdf_triangle_frozen(triangle3):
    mat = ptdf(triangle3)
    third = 1.0 / 3.0
    expect = np.array([
        [0.0, -2 * third, -third],
        [0.0, third, -third],
        [0.0, -third, -2 * third],
    ])
    np.testing.assert_allclose(mat.values, expect, atol=1e-12)


def test_ptdf_slack_column_zero(triangle3, fixture10, case14, congested3):
    for net in (triangle3, fixture10, case14, congested3):
        mat = ptdf(net)
        np.testing.assert_array_equal(mat.values[:, mat.slack_index], 0.0)


def test_ptdf_columns_are_pair_responses(triangle3, fixture10, case14, congested3):
    """Column m must equal the flows of 1 p.u. in at m, out at the slack."""
    for net in (triangle3, fixture10, case14, congested3):
        mat = ptdf(net)
        for b in net.bus_ids:
            if b == net.slack_id:
                continue
            oracle = angle_flows(net, unit_pair(net, b, net.slack_id))
            np.testing.assert_allclose(
                mat.values[:, net.bus_index[b]], oracle, atol=1e-12)


def test_ptdf_readonly(fixture10):
    mat = ptdf(fixture10)
    with pytest.raises(ValueError):
        mat.values[0, 0] = 1.0


def test_ptdf_disconnected_raises():
    net = Network(
        buses=(Bus(1, True), Bus(2), Bus(3)),
        lines=(Line(1, 1, 2, 0.1),),
    )
    with pytest.raises(DisconnectedNetworkError):
        ptdf(net)


# ---------------------------------------------------------------------------
# injections and flows


def test_injection_must_balance():
    with pytest.raises(ValueError, match="balance"):
        InjectionProfile(np.array([1.0, 0.0, -0.5]))


def test_injection_balance_is_relative_to_its_magnitude():
    """Roundoff in a profile of 1e9 MW injections balances; a real unbalance,
    at that scale or at 1 MW, does not."""
    p = np.random.default_rng(5).normal(size=10) * 1e9
    p -= p.mean()
    assert abs(p.sum()) > BALANCE_TOL           # an absolute bound would refuse it
    assert InjectionProfile(p).p.sum() == p.sum()
    for unbalanced in (p + np.eye(10)[3] * 1e-6 * np.abs(p).sum(),
                       np.array([3e-9, 0.0, 0.0])):
        with pytest.raises(InputError, match="injections must balance"):
            InjectionProfile(unbalanced)


def test_injection_from_pairs(fixture10):
    inj = InjectionProfile.from_pairs(fixture10, {4: 0.75, 8: -0.5, 9: -0.25})
    assert inj.p[fixture10.bus_index[4]] == 0.75
    assert inj.p.sum() == pytest.approx(0.0)


def test_injection_from_pairs_unknown_bus(fixture10):
    with pytest.raises(InputError, match="^no bus with id 99$"):
        InjectionProfile.from_pairs(fixture10, {99: 1.0, 1: -1.0})


# the DC line flows of an injection are ptdf(net).values @ p


def test_dc_flow_zero(fixture10):
    flows = ptdf(fixture10).values @ InjectionProfile(np.zeros(10)).p
    np.testing.assert_array_equal(flows, 0.0)


def test_dc_flow_matches_oracle(fixture10, case14):
    for net in (fixture10, case14):
        for inj in balanced_profiles(net, 5, seed=11):
            np.testing.assert_allclose(
                ptdf(net).values @ inj.p, angle_flows(net, inj.p), atol=1e-10)


def test_dc_flow_superposition(fixture10):
    a, b = list(balanced_profiles(fixture10, 2, seed=3))
    values = ptdf(fixture10).values
    np.testing.assert_allclose(
        values @ (a.p + b.p), values @ a.p + values @ b.p, atol=1e-12)


def test_dc_flow_length_check(fixture10):
    """tcsc_sensitivity refuses an injection of the wrong length."""
    with pytest.raises(InputError, match="^injection length 4 != n_bus 10$"):
        tcsc_sensitivity(fixture10, InjectionProfile(np.zeros(4)), 1)


# ---------------------------------------------------------------------------
# controllability vectors


def test_cv_is_pair_response(fixture10):
    mat = ptdf(fixture10)
    ids = fixture10.bus_ids
    for m in ids:
        for n in ids:
            if m >= n:
                continue
            oracle = angle_flows(fixture10, unit_pair(fixture10, m, n))
            np.testing.assert_allclose(cv(mat, m, n).values, oracle, atol=1e-12)


def test_cv_antisymmetry(fixture10):
    mat = ptdf(fixture10)
    np.testing.assert_allclose(
        cv(mat, 3, 7).values, -cv(mat, 7, 3).values, atol=1e-15)


def test_cv_against_slack_is_ptdf_column(fixture10):
    mat = ptdf(fixture10)
    np.testing.assert_allclose(
        cv(mat, 5, fixture10.slack_id).values,
        mat.values[:, fixture10.bus_index[5]], atol=1e-15)


def test_cv_same_bus_rejected(fixture10):
    with pytest.raises(ValueError, match="distinct"):
        cv(ptdf(fixture10), 2, 2)


def test_node_pairs_sorted_and_unordered():
    assert node_pairs((3, 1, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert node_pairs((7,)) == []


def test_cv_matrix_rows_are_cv_bitwise(triangle3, congested3, fixture10, case14):
    for net in (triangle3, congested3, fixture10, case14):
        mat = ptdf(net)
        pairs = node_pairs(net.bus_ids)
        rows = cv_matrix(mat, pairs)
        assert rows.shape == (len(pairs), len(mat.line_ids))
        for row, (m, n) in zip(rows, pairs):
            assert np.array_equal(row, cv(mat, m, n).values)
            assert np.array_equal(row, mat.values[:, net.bus_index[m]]
                                  - mat.values[:, net.bus_index[n]])


def test_cv_matrix_errors(fixture10):
    mat = ptdf(fixture10)
    assert cv_matrix(mat, []).shape == (0, len(mat.line_ids))
    with pytest.raises(InputError, match="no bus with id 99"):
        cv_matrix(mat, [(1, 2), (99, 2)])
    with pytest.raises(ValueError, match="distinct"):
        cv_matrix(mat, [(1, 2), (4, 4)])


# the AC flow change of HVDC setpoints p_dc on node pairs is
# p_dc @ cv_matrix(mat, pairs)


def test_apply_hvdc_zero(fixture10):
    mat = ptdf(fixture10)
    np.testing.assert_array_equal(np.zeros(2) @ cv_matrix(mat, [(1, 8), (3, 6)]), 0.0)


def test_apply_hvdc_single_unit(fixture10):
    mat = ptdf(fixture10)
    np.testing.assert_allclose(
        np.array([1.0]) @ cv_matrix(mat, [(2, 9)]),
        angle_flows(fixture10, unit_pair(fixture10, 2, 9)), atol=1e-12)


def test_apply_hvdc_superposes(fixture10):
    """0.7 MW from 1 to 8 and -1.2 MW from 3 to 6 move the flows as the
    angle solve of those four injections does."""
    got = np.array([0.7, -1.2]) @ cv_matrix(ptdf(fixture10), [(1, 8), (3, 6)])
    want = angle_flows(fixture10, 0.7 * unit_pair(fixture10, 1, 8)
                       - 1.2 * unit_pair(fixture10, 3, 6))
    np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# TCSC sensitivity


def fd_sensitivity(net, inj, line_id, step=1e-6):
    """Central finite difference of all flows w.r.t. one line's reactance."""
    ln = net.line_by_id(line_id)

    def flows_at(x):
        bumped = replace(net, lines=tuple(
            l if l.id != line_id else replace(l, reactance=x) for l in net.lines))
        return angle_flows(bumped, inj.p)

    return (flows_at(ln.reactance + step) - flows_at(ln.reactance - step)) / (2 * step)


def test_tcsc_zero_injection(triangle3):
    inj = InjectionProfile(np.zeros(3))
    np.testing.assert_array_equal(tcsc_sensitivity(triangle3, inj, 2), 0.0)


def test_tcsc_matches_finite_difference(fixture10):
    inj = next(balanced_profiles(fixture10, 1, seed=21))
    for ln in fixture10.lines_in_service:
        got = tcsc_sensitivity(fixture10, inj, ln.id)
        want = fd_sensitivity(fixture10, inj, ln.id)
        scale = max(np.abs(want).max(), 1e-9)
        np.testing.assert_allclose(got, want, atol=1e-4 * scale)


def test_tcsc_bridge_line_cannot_move_its_own_flow(case14):
    """A radial feeder's flow is set by the injection, not the reactance."""
    inj = next(balanced_profiles(case14, 1, seed=5))
    sens = tcsc_sensitivity(case14, inj, 14)
    row = [k for k, ln in enumerate(case14.lines_in_service) if ln.id == 14][0]
    assert abs(sens[row]) < 1e-12


def test_tcsc_unknown_line(fixture10):
    inj = InjectionProfile(np.zeros(10))
    with pytest.raises(InputError, match="no in-service line"):
        tcsc_sensitivity(fixture10, inj, 77)


def test_tcsc_injection_length(fixture10):
    with pytest.raises(InputError, match="^injection length 3 != n_bus 10$"):
        tcsc_sensitivity(fixture10, InjectionProfile([1.0, -1.0, 0.0]), 1)


# ---------------------------------------------------------------------------
# line removal and LODF


def test_remove_line(fixture10):
    out = remove_line(fixture10, 3)
    assert not out.line_by_id(3).in_service
    assert out.n_line == 13
    assert fixture10.line_by_id(3).in_service


def test_remove_line_unknown(fixture10):
    with pytest.raises(InputError):
        remove_line(fixture10, 99)


def test_bridges(case14, fixture10):
    assert bridges(case14) == {14}
    assert bridges(fixture10) == frozenset()


def test_bridges_disconnected_raises():
    net = Network(buses=(Bus(1, True), Bus(2), Bus(3)), lines=(Line(1, 1, 2, 0.1),))
    with pytest.raises(DisconnectedNetworkError):
        bridges(net)


@st.composite
def multigraphs(draw, log_x=(-6.0, 4.0), n_bus=(2, 9)):
    """A connected multigraph of n_bus[0] to n_bus[1] buses: a random
    spanning tree in random orientation, extra lines that may run parallel to
    others, some extra lines out of service, reactances from 10**log_x[0] to
    10**log_x[1] and a random slack bus."""
    n = draw(st.integers(*n_bus))
    slack = draw(st.integers(1, n))
    ends = [(draw(st.integers(1, b - 1)), b) for b in range(2, n + 1)]
    ends += draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    lines = []
    for i, (f, t) in enumerate(ends, start=1):
        if draw(st.booleans()):
            f, t = t, f
        x = 10.0 ** draw(st.floats(*log_x))
        in_service = i < n or draw(st.integers(0, 3)) > 0
        lines.append(Line(i, f, t, x, in_service=in_service))
    return Network(buses=tuple(Bus(b, b == slack) for b in range(1, n + 1)),
                   lines=tuple(lines))


@settings(max_examples=200, deadline=None)
@given(net=multigraphs())
def test_ptdf_and_bridges_match_reference_bits_on_multigraphs(net):
    assert_same_bits_as_reference(net)


@settings(max_examples=200, deadline=None)
@given(net=multigraphs())
def test_bridges_match_outage_components(net):
    """Brute force: a line is a bridge iff its outage leaves more than one
    component."""
    oracle = {ln.id for ln in net.lines_in_service
              if len(connected_components(remove_line(net, ln.id))) > 1}
    assert bridges(net) == oracle


@settings(max_examples=200, deadline=None)
@given(net=multigraphs(log_x=(-1.0, 1.0)))
def test_outage_ptdf_is_rank_one_update(net):
    """The outaged network's PTDF is the intact one plus the LODF column
    times line k's PTDF row, without row k (Guler, Gross & Liu 2007).
    Reactances within a decade of 1 keep every outage denominator far from
    0, so no line is a near-bridge.  A bridge's outage has no PTDF."""
    p = ptdf(net).values
    dist = lodf(net)
    for k, ln in enumerate(net.lines_in_service):
        if ln.id in dist.islanded:
            with pytest.raises(DisconnectedNetworkError):
                ptdf(remove_line(net, ln.id))
            continue
        updated = np.delete(p + np.outer(dist.values[:, k], p[k]), k, axis=0)
        np.testing.assert_allclose(ptdf(remove_line(net, ln.id)).values, updated,
                                   rtol=0, atol=1e-9)


def test_lodf_diagonal(fixture10):
    dist = lodf(fixture10)
    np.testing.assert_allclose(np.diag(dist.values), -1.0)
    assert dist.islanded == ()


def test_lodf_parallel_twin_takes_everything():
    net = Network(
        buses=(Bus(1, is_slack=True), Bus(2)),
        lines=(Line(1, 1, 2, 0.4), Line(2, 1, 2, 0.4)),
    )
    dist = lodf(net)
    assert dist.values[1, 0] == pytest.approx(1.0)
    assert dist.values[0, 1] == pytest.approx(1.0)


def test_lodf_matches_outage_resolve(triangle3, fixture10, case14):
    """Post-outage flows = base + LODF column * pre-outage flow."""
    for net, seed in ((triangle3, 2), (fixture10, 7), (case14, 9)):
        dist = lodf(net)
        inj = next(balanced_profiles(net, 1, seed=seed))
        base = angle_flows(net, inj.p)
        for k, ln in enumerate(net.lines_in_service):
            if ln.id in dist.islanded:
                continue
            reduced = without_line(net, ln.id)
            after = angle_flows(reduced, inj.p)
            predicted = base + dist.values[:, k] * base[k]
            kept = [i for i in range(net.n_line) if i != k]
            np.testing.assert_allclose(predicted[kept], after, atol=1e-8)


def test_lodf_islanding_column(case14):
    dist = lodf(case14)
    assert dist.islanded == (14,)
    col = dist.values[:, dist.line_ids.index(14)]
    assert np.isnan(col).all()
    others = np.delete(dist.values, dist.line_ids.index(14), axis=1)
    assert np.isfinite(others).all()
