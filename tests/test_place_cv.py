"""Conical-volume scoring, orthant aggregation, and greedy CV placement."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.stats import spearmanr

from gridctrl.dcsens import cv, cv_matrix, node_pairs, ptdf
from gridctrl.netmodel import Bus, Line, Network
from gridctrl.place_cv import (
    VOLUME_EPS,
    CandidateRow,
    VolumeScore,
    conical_log_volume,
    first_placement,
    initial_state,
    metric_report,
    orthant_volume_sum,
    orthogonality,
    place_next,
    rank_by_norm1,
    run_cv_placement,
    spearman,
)


def hull_log_volume(v: np.ndarray) -> float:
    """log(n! * volume of conv{0, |v_1| e_1, ..., |v_n| e_n}) via qhull."""
    n = v.shape[0]
    pts = np.vstack([np.zeros(n), np.diag(np.abs(v))])
    return math.log(ConvexHull(pts).volume) + math.log(math.factorial(n))


# ---------------------------------------------------------------------------
# single-vector score


def test_volume_matches_hull_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            v = rng.uniform(0.2, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            score = conical_log_volume(v)
            assert score.dimension == n
            assert score.log_volume == pytest.approx(hull_log_volume(v), abs=1e-9)


def test_volume_all_ones():
    score = conical_log_volume(np.ones(6))
    assert score == VolumeScore(log_volume=0.0, dimension=6)


def test_volume_zero_entry_drops_dimension():
    v = np.array([2.0, 0.0, 1.0])
    score = conical_log_volume(v)
    assert score.dimension == 2
    assert score.log_volume == pytest.approx(math.log(2.0) + math.log(VOLUME_EPS))


def test_volume_sign_invariant():
    v = np.array([0.5, -1.5, 2.5])
    assert conical_log_volume(v) == conical_log_volume(-v)
    assert conical_log_volume(v) == conical_log_volume(np.abs(v))


def test_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        conical_log_volume(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        conical_log_volume(np.array([]))


def test_score_orders_dimension_first():
    big_vol = VolumeScore(log_volume=10.0, dimension=2)
    small_vol = VolumeScore(log_volume=-10.0, dimension=3)
    assert small_vol > big_vol
    assert sorted([big_vol, small_vol])[-1] is small_vol
    assert VolumeScore(1.0, 3) > VolumeScore(0.5, 3)


# ---------------------------------------------------------------------------
# first placement


def test_first_placement_is_exhaustive_argmax(fixture10, case14):
    for net in (fixture10, case14):
        mat = ptdf(net)
        ranked = first_placement(mat)
        ids = sorted(mat.bus_ids)
        pairs = [(m, n) for i, m in enumerate(ids) for n in ids[i + 1:]]
        assert len(ranked) == len(pairs)
        rescored = {p: conical_log_volume(cv(mat, *p).values) for p in pairs}
        best = max(pairs, key=lambda p: (rescored[p].dimension,
                                         rescored[p].log_volume,
                                         tuple(-c for c in p)))
        assert ranked[0][0] == best
        keys = [(-s.dimension, -s.log_volume, p) for p, s in ranked]
        assert keys == sorted(keys)


def test_first_placement_single_pair():
    net = Network(buses=(Bus(1, True), Bus(2)), lines=(Line(1, 1, 2, 0.25),))
    ranked = first_placement(ptdf(net))
    assert [p for p, _ in ranked] == [(1, 2)]


def test_fixture10_first_pick(fixture10):
    assert first_placement(ptdf(fixture10))[0][0] == (1, 8)


# ---------------------------------------------------------------------------
# orthogonality filter


def test_orthogonality_axes():
    basis = np.array([[1.0], [0.0], [0.0]])
    cos = orthogonality(basis, np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0],
                                         [1.0, 1.0, 0.0]]))
    assert cos == pytest.approx([1.0, 0.0, 1.0 / math.sqrt(2.0)])


def test_orthogonality_two_column_basis():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    v = np.array([1.0, 1.0, math.sqrt(2.0)])
    assert orthogonality(basis, [v]) == pytest.approx([1.0 / math.sqrt(2.0)])


def test_orthogonality_rejects_rank_deficient_basis():
    basis = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="rank deficient"):
        orthogonality(basis, np.array([[1.0, 0.0, 0.0]]))


def test_orthogonality_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        orthogonality(np.eye(2), np.zeros((1, 2)))


@st.composite
def connected_grids(draw):
    """A random spanning tree plus chords, reactances in [0.05, 1]."""
    n = draw(st.integers(3, 9))
    edges = {(draw(st.integers(1, b - 1)), b) for b in range(2, n + 1)}
    edges |= set(draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                               .filter(lambda e: e[0] < e[1]), max_size=n)))
    xs = draw(st.lists(st.floats(0.05, 1.0), min_size=len(edges), max_size=len(edges)))
    return Network(buses=tuple(Bus(b, b == 1) for b in range(1, n + 1)),
                   lines=tuple(Line(i, f, t, x) for i, ((f, t), x)
                               in enumerate(zip(sorted(edges), xs), start=1)))


@settings(max_examples=60, deadline=None)
@given(net=connected_grids(), data=st.data())
def test_orthogonality_matches_least_squares(net, data):
    mat = ptdf(net)
    pairs = node_pairs(net.bus_ids)
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    basis = cv_matrix(mat, chosen).T
    assume(np.linalg.cond(basis) < 1e3)
    vectors = cv_matrix(mat, pairs)
    cos = orthogonality(basis, vectors)
    for v, c in zip(vectors, cos):
        coef, *_ = np.linalg.lstsq(basis, v, rcond=None)
        oracle = np.linalg.norm(basis @ coef) / np.linalg.norm(v)
        assert 0.0 <= c <= 1.0
        assert abs(c - oracle) <= 1e-12


# ---------------------------------------------------------------------------
# orthant aggregation


def test_orthant_two_axes_by_hand():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    score = orthant_volume_sum([e1], e2)
    assert score.dimension == 2
    assert score.log_volume == pytest.approx(math.log(4.0))


def test_orthant_skewed_pair_by_hand():
    """Eight combos of (2,0) and (1,1) bin into four orthants: 3+1+2+3."""
    score = orthant_volume_sum([np.array([2.0, 0.0])], np.array([1.0, 1.0]))
    assert score.dimension == 2
    assert score.log_volume == pytest.approx(math.log(9.0))


def test_orthant_duplicate_candidate_changes_nothing(fixture10):
    mat = ptdf(fixture10)
    v = cv(mat, 1, 8).values
    w = cv(mat, 3, 6).values
    joint = orthant_volume_sum([v], w)
    assert orthant_volume_sum([v, w], w) == joint
    assert orthant_volume_sum([v, w], -w) == joint


def test_orthant_negated_candidate_same_score(fixture10):
    mat = ptdf(fixture10)
    v = cv(mat, 1, 8).values
    c = cv(mat, 4, 9).values
    assert orthant_volume_sum([v], c) == orthant_volume_sum([v], -c)


def test_orthant_never_below_single_direction(fixture10):
    mat = ptdf(fixture10)
    v = cv(mat, 1, 8).values
    single = conical_log_volume(v)
    for pair in [(2, 3), (5, 6), (4, 10), (7, 9)]:
        joint = orthant_volume_sum([v], cv(mat, *pair).values)
        assert joint >= single


def test_orthant_all_cancelling_rejected():
    zero = np.zeros(2)
    with pytest.raises(ValueError, match="cancel"):
        orthant_volume_sum([zero], zero)


# ---------------------------------------------------------------------------
# greedy placement


def test_place_next_is_filtered_argmax(fixture10):
    mat = ptdf(fixture10)
    state = initial_state(mat)
    pair, _state2, rows = place_next(state, mat)

    ids = sorted(mat.bus_ids)
    pairs = [(m, n) for i, m in enumerate(ids) for n in ids[i + 1:]
             if (m, n) not in set(state.selected)]
    cos = dict(zip(pairs, orthogonality(state.basis,
                                        [cv(mat, *p).values for p in pairs])))
    qualifying = sorted((p for p in pairs if cos[p] <= 0.2),
                        key=lambda p: (cos[p], p))[:10]
    assert {r.pair for r in rows} == set(qualifying)
    scores = {p: orthant_volume_sum([state.basis[:, 0]], cv(mat, *p).values)
              for p in qualifying}
    best = max(qualifying, key=lambda p: (scores[p], tuple(-c for c in p)))
    assert pair == best


def test_place_next_excludes_selected(fixture10):
    mat = ptdf(fixture10)
    state = initial_state(mat)
    seen = set(state.selected)
    for _ in range(6):
        pair, state, rows = place_next(state, mat)
        assert pair not in seen
        assert not any(r.pair in seen for r in rows)
        seen.add(pair)


def test_place_next_fallback_keeps_best_of_correlated(triangle3):
    """No pair passes the 0.2 filter on the triangle; the fallback must
    still pick the most voluminous of the correlated leftovers."""
    mat = ptdf(triangle3)
    placements, tables = run_cv_placement(mat, 2)
    assert len(placements) == 2
    step2 = tables[1]
    assert all(r.cos_phi is not None and r.cos_phi > 0.2 for r in step2)
    assert sum(r.selected for r in step2) == 1


def test_placement_stops_when_span_is_exhausted(triangle3):
    mat = ptdf(triangle3)
    with pytest.raises(ValueError, match="span"):
        run_cv_placement(mat, 3)


def test_run_cv_placement_fixture10_sequence(fixture10):
    placements, tables = run_cv_placement(ptdf(fixture10), 9)
    assert placements == [(1, 8), (3, 6), (4, 9), (7, 10), (5, 7),
                          (2, 7), (1, 6), (1, 9), (1, 5)]
    assert len(tables) == 9
    assert all(r.cos_phi is None for r in tables[0])
    assert len(tables[0]) == 45
    for step, rows in zip(placements, tables):
        chosen = [r.pair for r in rows if r.selected]
        assert chosen == [step]
    for rows in tables[1:]:
        assert len(rows) <= 10


def test_run_cv_placement_count_validation(fixture10):
    with pytest.raises(ValueError, match="count"):
        run_cv_placement(ptdf(fixture10), 0)


def test_candidate_rows_are_frozen(fixture10):
    _placements, tables = run_cv_placement(ptdf(fixture10), 1)
    row = tables[0][0]
    assert isinstance(row, CandidateRow)
    with pytest.raises(AttributeError):
        row.pair = (9, 9)


# ---------------------------------------------------------------------------
# metric comparison


def test_spearman_extremes():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = rng.normal(size=20).tolist()
        b = rng.normal(size=20).tolist()
        assert spearman(a, b) == pytest.approx(
            spearmanr(a, b).statistic, abs=1e-12)


def test_spearman_handles_ties_like_scipy():
    a = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]
    b = [2.0, 1.0, 1.0, 3.0, 4.0, 4.0]
    assert spearman(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)


def test_spearman_rejects_degenerate():
    with pytest.raises(ValueError):
        spearman([1.0], [1.0])
    with pytest.raises(ValueError):
        spearman([1.0, 1.0], [1.0, 2.0])


def test_rank_by_norm1_is_descending(fixture10):
    mat = ptdf(fixture10)
    ranked = rank_by_norm1(mat)
    norms = [s for _, s in ranked]
    assert norms == sorted(norms, reverse=True)
    top_pair, top_norm = ranked[0]
    assert top_norm == pytest.approx(np.abs(cv(mat, *top_pair).values).sum())


def test_metric_report_tied_ranks_have_no_rho(triangle3):
    rows, rho = metric_report(ptdf(triangle3))
    assert rho is None
    assert len(rows) == 3
    assert {r.rank_norm1 for r in rows} == {2}
    with pytest.raises(ValueError, match="constant ranks"):
        spearman([r.norm1 for r in rows], [r.score.log_volume for r in rows])


def test_metric_report_fixture10(fixture10):
    rows, rho = metric_report(ptdf(fixture10))
    assert len(rows) == 45
    assert rho == pytest.approx(0.8632411067193676, abs=1e-12)
    assert sorted(r.rank_norm1 for r in rows) == list(range(1, 46))
    assert sorted(r.rank_volume for r in rows) == list(range(1, 46))
    # both rankings agree on scipy's rank correlation of the raw metrics
    norms = [r.norm1 for r in rows]
    vols = [(r.score.dimension, r.score.log_volume) for r in rows]
    keyed = [v[0] * 1000 + v[1] for v in vols]  # fixture CVs share dimension
    assert all(r.score.dimension == 14 for r in rows)
    assert rho == pytest.approx(spearmanr(norms, keyed).statistic, abs=1e-9)
