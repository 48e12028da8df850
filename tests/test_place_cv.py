"""Conical-volume scoring, orthant aggregation, and greedy CV placement."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.stats import rankdata, spearmanr

from gridctrl import netmodel, place_cv
from gridctrl.dcsens import PtdfMatrix, cv, cv_matrix, node_pairs, ptdf
from gridctrl.netmodel import Bus, InputError, Line, Network
from gridctrl.place_cv import (
    VOLUME_EPS,
    CandidateRow,
    VolumeScore,
    _dedupe_directions,
    _log_sum_exp,
    _sign_rows,
    check_orthant_size,
    metric_report,
    orthant_volume_sum,
    orthogonality,
    row_scores,
    run_cv_placement,
    spearman,
)


def hull_log_volume(v: np.ndarray) -> float:
    """log(n! * volume of conv{0, |v_1| e_1, ..., |v_n| e_n}) via qhull."""
    n = v.shape[0]
    pts = np.vstack([np.zeros(n), np.diag(np.abs(v))])
    return math.log(ConvexHull(pts).volume) + math.log(math.factorial(n))


# ---------------------------------------------------------------------------
# per-row score


def _oracle_score(v) -> tuple[int, float]:
    """(dimension, log_volume) of one vector, component by component."""
    mags = [abs(float(x)) for x in v]
    return (sum(m > VOLUME_EPS for m in mags),
            math.fsum(math.log(max(m, VOLUME_EPS)) for m in mags))


def test_volume_matches_hull_oracle():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 5):
        vs = rng.uniform(0.2, 3.0, size=(5, n)) * rng.choice([-1.0, 1.0], size=(5, n))
        _, dimension, log_volume = row_scores(vs)
        for v, dim, lv in zip(vs, dimension, log_volume):
            assert dim == n
            assert lv == pytest.approx(hull_log_volume(v), abs=1e-9)


def test_volume_all_ones():
    norm1, dimension, log_volume = row_scores(np.ones((1, 6)))
    assert (norm1.tolist(), dimension.tolist(), log_volume.tolist()) == ([6.0], [6], [0.0])


def test_volume_zero_entry_drops_dimension():
    _, dimension, log_volume = row_scores(np.array([[2.0, 0.0, 1.0]]))
    assert dimension[0] == 2
    assert log_volume[0] == pytest.approx(math.log(2.0) + math.log(VOLUME_EPS))


def test_volume_sign_invariant():
    v = np.array([0.5, -1.5, 2.5])
    for column in row_scores(np.array([v, -v, np.abs(v)])):
        assert column[0] == column[1] == column[2]


def test_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        row_scores(np.ones(3))
    with pytest.raises(ValueError):
        row_scores(np.zeros((2, 0)))
    assert [c.shape for c in row_scores(np.zeros((0, 0)))] == [(0,)] * 3


def test_row_scores_do_not_depend_on_the_row_blocks():
    """Rows scored in blocks equal rows scored one at a time, bit for bit."""
    vs = np.random.default_rng(3).normal(size=(600, 7))
    vs[::5, 2] = 0.0
    whole = row_scores(vs)
    for i in (0, 255, 256, 257, 599):
        single = row_scores(vs[i:i + 1])
        assert [c[i] for c in whole] == [c[0] for c in single]
        dim, lv = _oracle_score(vs[i])
        assert whole[1][i] == dim
        assert whole[2][i] == pytest.approx(lv, abs=1e-12)


def test_score_orders_dimension_first():
    """Step 1 ranks by dimension before volume: the full-dimension pair
    (1, 3) wins although both other pairs have a larger log volume."""
    cvs = np.array([[1e-3, 1e-3, 1e-2],        # CV(1, 3)
                    [1e-3, 1e12, 0.0]])         # CV(1, 2)
    values = np.column_stack([np.zeros(3), -cvs[1], -cvs[0]])
    mat = PtdfMatrix(values=values, slack_index=0, bus_ids=(1, 2, 3),
                     line_ids=(1, 2, 3))
    placements, tables = run_cv_placement(mat, 1)
    assert placements == [(1, 3)]
    ranked = tables[0]
    assert [r.pair for r in ranked] == [(1, 3), (2, 3), (1, 2)]
    assert [r.score.dimension for r in ranked] == [3, 2, 2]
    assert ranked[0].score.log_volume < min(r.score.log_volume for r in ranked[1:])


# ---------------------------------------------------------------------------
# first placement


def test_first_placement_is_exhaustive_argmax(fixture10, case14):
    for net in (fixture10, case14):
        mat = ptdf(net)
        placements, tables = run_cv_placement(mat, 1)
        ranked = tables[0]
        ids = sorted(mat.bus_ids)
        pairs = [(m, n) for i, m in enumerate(ids) for n in ids[i + 1:]]
        assert sorted(r.pair for r in ranked) == pairs
        rescored = {p: _oracle_score(cv(mat, *p).values) for p in pairs}
        for r in ranked:
            assert r.cos_phi is None
            assert r.score.dimension == rescored[r.pair][0]
            assert r.score.log_volume == pytest.approx(rescored[r.pair][1], abs=1e-12)
        best = max(pairs, key=lambda p: (*rescored[p], tuple(-c for c in p)))
        assert placements == [ranked[0].pair] == [best]
        assert [r.selected for r in ranked] == [True] + [False] * (len(pairs) - 1)
        keys = [(-r.score.dimension, -r.score.log_volume, r.pair) for r in ranked]
        assert keys == sorted(keys)


def test_first_placement_single_pair():
    net = Network(buses=(Bus(1, True), Bus(2)), lines=(Line(1, 1, 2, 0.25),))
    placements, tables = run_cv_placement(ptdf(net), 1)
    assert placements == [(1, 2)]
    assert [r.pair for r in tables[0]] == [(1, 2)]


def test_fixture10_first_pick(fixture10):
    assert run_cv_placement(ptdf(fixture10), 1)[0] == [(1, 8)]


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
    _, (dim,), (lv,) = row_scores(v[None, :])
    for pair in [(2, 3), (5, 6), (4, 10), (7, 9)]:
        joint = orthant_volume_sum([v], cv(mat, *pair).values)
        assert (joint.dimension, joint.log_volume) >= (dim, lv)


def test_orthant_all_cancelling_rejected():
    zero = np.zeros(2)
    with pytest.raises(ValueError, match="cancel"):
        orthant_volume_sum([zero], zero)


def test_orthant_size_limit():
    """(3^j - 1) x n_L float64 against DENSE_LIMIT_BYTES, in integers only:
    j = 10 fits on the 233 lines of a 118-bus lattice, j = 11 does not."""
    check_orthant_size(10, 233)
    with pytest.raises(InputError, match=r"^scoring 11 controllers on 233 lines takes "
                       r"3\^11 - 1 sign combinations: their matrix needs 314 MiB, "
                       r"over the 256 MiB limit$"):
        check_orthant_size(11, 233)
    with pytest.raises(InputError, match=r"3\^1000000000000 - 1 sign combinations: "
                       r"their matrix needs over \d+ MiB"):
        check_orthant_size(10**12, 1)
    check_orthant_size(10**12, 0)


def test_orthant_past_limit_is_refused_before_any_work(fixture10, monkeypatch):
    """A run is refused before its CV matrix is built, and a direct call
    before its sign combinations are."""
    monkeypatch.setattr(netmodel, "DENSE_LIMIT_BYTES", 2**9)
    calls = []
    monkeypatch.setattr(place_cv, "cv_matrix", lambda *a: calls.append(a))
    with pytest.raises(InputError, match=r"3\^3 - 1 sign combinations"):
        run_cv_placement(ptdf(fixture10), 3)
    assert calls == []
    with pytest.raises(InputError, match=r"3\^2 - 1 sign combinations"):
        orthant_volume_sum([np.ones(14)], np.arange(14.0))


# ---------------------------------------------------------------------------
# bitwise references: the one-row-at-a-time forms that the blocked code
# replaced, kept verbatim; the blocked code must match them bit for bit


def _orthogonality_per_row(basis, vectors):
    basis = np.asarray(basis, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if basis.ndim != 2 or vectors.ndim != 2 or basis.shape[0] != vectors.shape[1]:
        raise ValueError("basis must be (n, k) and vectors (c, n)")
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= 1e-8 * max(diag.max(), 1.0):
        raise ValueError("basis columns are rank deficient")
    norms = [float(np.linalg.norm(v)) for v in vectors]
    if 0.0 in norms:
        raise ValueError("cannot score a zero vector")
    return [min(float(np.linalg.norm(q @ (q.T @ v))) / norm_v, 1.0)
            for v, norm_v in zip(vectors, norms)]


def _dedupe_directions_allclose(vectors):
    kept = []
    for v in vectors:
        scale = max(float(np.abs(v).max()), 1e-300)
        dup = any(
            np.allclose(v, u, rtol=0.0, atol=1e-9 * scale)
            or np.allclose(v, -u, rtol=0.0, atol=1e-9 * scale)
            for u in kept
        )
        if not dup:
            kept.append(np.asarray(v, dtype=float))
    return kept


def _signs_itertools(j):
    return np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=j)
                     if any(c != 0.0 for c in s)])


def _orthant_volume_sum_reference(selected, candidate, eps=VOLUME_EPS):
    check_orthant_size(len(selected) + 1, len(candidate))
    dirs = _dedupe_directions_allclose([np.asarray(v, dtype=float) for v in selected]
                                       + [np.asarray(candidate, dtype=float)])
    base = np.column_stack(dirs)
    j = base.shape[1]
    signs = _signs_itertools(j)
    combos = base @ signs.T
    scale = max(float(np.abs(combos).max()), 1e-300)
    keep = np.abs(combos).max(axis=0) > 1e-12 * scale
    combos = combos[:, keep]
    if combos.shape[1] == 0:
        raise ValueError("every sign combination cancels to zero")
    packed = np.packbits(combos >= 0.0, axis=0)
    _, group = np.unique(packed.T, axis=0, return_inverse=True)
    mags = np.abs(combos)
    extremes = np.zeros((int(group.max()) + 1, combos.shape[0]))
    np.maximum.at(extremes, group, mags.T)
    clamped = np.maximum(extremes, eps)
    logs = np.log(clamped).sum(axis=1)
    dims = (extremes > eps).sum(axis=1)
    return VolumeScore(log_volume=_log_sum_exp(list(logs)),
                       dimension=int(dims.max()))


def _placement_with_references(mat, count, **kwargs):
    """run_cv_placement with the reference cos-phi and orthant scores."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(place_cv, "orthogonality",
                   lambda b, v: np.array(_orthogonality_per_row(b, v)))
        mp.setattr(place_cv, "orthant_volume_sum", _orthant_volume_sum_reference)
        return run_cv_placement(mat, count, **kwargs)


def _assert_orthogonality_bitwise(basis, vectors):
    assert np.array_equal(orthogonality(basis, vectors),
                          np.array(_orthogonality_per_row(basis, vectors)))


@pytest.mark.parametrize("chunk", [1, 7, place_cv._CV_CHUNK])
@pytest.mark.parametrize("name", ["triangle3", "congested3", "fixture10", "case14"])
def test_blocked_scores_match_per_row_references_on_bundled_cases(
        request, monkeypatch, name, chunk):
    monkeypatch.setattr(place_cv, "_CV_CHUNK", chunk)
    mat = ptdf(request.getfixturevalue(name))
    vectors = cv_matrix(mat, node_pairs(mat.bus_ids))
    count = min(6, len(mat.bus_ids) - 1)
    for kwargs in ({}, {"cos_threshold": 1.0, "candidate_cap": 3}):
        placements, tables = run_cv_placement(mat, count, **kwargs)
        assert (placements, tables) == _placement_with_references(mat, count, **kwargs)
    index = {p: i for i, p in enumerate(node_pairs(mat.bus_ids))}
    for k in range(1, count + 1):
        _assert_orthogonality_bitwise(vectors[[index[p] for p in placements[:k]]].T,
                                      vectors)


@settings(max_examples=40, deadline=None)
@given(net=connected_grids(), data=st.data())
def test_blocked_scores_match_per_row_references_on_drawn_grids(net, data):
    mat = ptdf(net)
    pairs = node_pairs(net.bus_ids)
    vectors = cv_matrix(mat, pairs)
    chosen = data.draw(st.lists(st.sampled_from(range(len(pairs))), min_size=1,
                                max_size=min(4, len(net.bus_ids) - 1), unique=True))
    count = data.draw(st.integers(1, min(5, len(net.bus_ids) - 1)))
    for chunk in (1, 7, place_cv._CV_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(place_cv, "_CV_CHUNK", chunk)
            try:
                want = _orthogonality_per_row(vectors[chosen].T, vectors)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    orthogonality(vectors[chosen].T, vectors)
            else:
                assert np.array_equal(orthogonality(vectors[chosen].T, vectors),
                                      np.array(want))
            try:
                want = _placement_with_references(mat, count)
            except ValueError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    run_cv_placement(mat, count)
            else:
                assert run_cv_placement(mat, count) == want


@pytest.mark.parametrize("chunk,zero_row", [(1, 0), (7, 15), (7, 19),
                                            (place_cv._CV_CHUNK, 500)])
def test_orthogonality_zero_vector_in_a_later_block(monkeypatch, chunk, zero_row):
    monkeypatch.setattr(place_cv, "_CV_CHUNK", chunk)
    rng = np.random.default_rng(11)
    basis = rng.normal(size=(9, 3))
    vectors = rng.normal(size=(max(20, zero_row + 1), 9))
    _assert_orthogonality_bitwise(basis, vectors)
    vectors[zero_row] = 0.0
    for scorer in (orthogonality, _orthogonality_per_row):
        with pytest.raises(ValueError, match="^cannot score a zero vector$"):
            scorer(basis, vectors)


@pytest.mark.parametrize("chunk", [1, 7, place_cv._CV_CHUNK])
def test_orthogonality_matches_per_row_on_random_bases(monkeypatch, chunk):
    monkeypatch.setattr(place_cv, "_CV_CHUNK", chunk)
    rng = np.random.default_rng(5)
    for n, k, c in ((9, 1, 500), (9, 4, 500), (233, 3, 40), (5, 5, 9)):
        _assert_orthogonality_bitwise(rng.normal(size=(n, k)), rng.normal(size=(c, n)))


@pytest.mark.parametrize("j", range(1, 7))
def test_sign_rows_match_itertools(j):
    signs = _sign_rows(j)
    assert np.array_equal(signs, _signs_itertools(j))
    assert signs.flags.c_contiguous


@pytest.mark.parametrize("j", range(1, 7))
def test_orthant_volume_sum_matches_reference(fixture10, j):
    mat = ptdf(fixture10)
    vectors = cv_matrix(mat, node_pairs(mat.bus_ids))
    rng = np.random.default_rng(j)
    drawn = [vectors[i] for i in rng.choice(len(vectors), size=j, replace=False)]
    random = list(rng.normal(size=(j, 14)))
    for selected in (drawn[:-1], random[:-1]):
        v = selected[0] if selected else drawn[-1]
        for candidate in (drawn[-1], random[-1], v, -v, v * (1 + 1e-12), 2.0 * v):
            for basis in (selected, selected[::-1], [*selected, -v][:j - 1]):
                assert (orthant_volume_sum(basis, candidate)
                        == _orthant_volume_sum_reference(basis, candidate))


def test_dedupe_directions_matches_allclose():
    rng = np.random.default_rng(2)
    v, w = rng.normal(size=(2, 6))
    tiny = np.full(6, 1e-300)
    # |v - edge| is exactly the tolerance, 1e-9 * max|v|, in its last component
    axis, edge = np.eye(6)[0], np.eye(6)[0] - 1e-9 * np.eye(6)[5]
    for vectors in ([v], [v, v], [v, -v], [v, w, -v, w], [v, v + 1e-10 * np.abs(v).max()],
                    [v, v + 2e-9 * np.abs(v).max()], [np.zeros(6), np.zeros(6), v],
                    [tiny, -tiny, 3 * tiny], [w, v, -w, 2 * w, v * (1 - 1e-12)],
                    [edge, axis], [-edge, axis], [edge, 0.5 * axis]):
        got, want = _dedupe_directions(vectors), _dedupe_directions_allclose(vectors)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(_dedupe_directions([edge, axis])) == len(_dedupe_directions([-edge, axis])) == 1
    assert len(_dedupe_directions([edge, 0.5 * axis])) == 2


# ---------------------------------------------------------------------------
# greedy placement


def test_place_next_is_filtered_argmax(fixture10):
    mat = ptdf(fixture10)
    placements, tables = run_cv_placement(mat, 2)
    first = placements[0]

    ids = sorted(mat.bus_ids)
    pairs = [(m, n) for i, m in enumerate(ids) for n in ids[i + 1:] if (m, n) != first]
    basis = cv(mat, *first).values[:, None]
    cos = dict(zip(pairs, orthogonality(basis, [cv(mat, *p).values for p in pairs])))
    qualifying = sorted((p for p in pairs if cos[p] <= 0.2),
                        key=lambda p: (cos[p], p))[:10]
    rows = tables[1]
    assert [r.pair for r in rows] == qualifying
    assert [r.cos_phi for r in rows] == [cos[p] for p in qualifying]
    scores = {p: orthant_volume_sum([basis[:, 0]], cv(mat, *p).values)
              for p in qualifying}
    assert [r.score for r in rows] == [scores[p] for p in qualifying]
    best = max(qualifying, key=lambda p: (scores[p].dimension, scores[p].log_volume,
                                          tuple(-c for c in p)))
    assert placements[1] == best
    assert [r.pair for r in rows if r.selected] == [best]


def test_place_next_excludes_selected(fixture10):
    placements, tables = run_cv_placement(ptdf(fixture10), 7)
    assert len(set(placements)) == 7
    for step, rows in enumerate(tables[1:], start=1):
        assert not any(r.pair in placements[:step] for r in rows)


def test_cv_matrix_is_built_once_per_run(fixture10, monkeypatch):
    calls = []

    def spy(mat, pairs):
        calls.append(list(pairs))
        return cv_matrix(mat, pairs)

    monkeypatch.setattr(place_cv, "cv_matrix", spy)
    mat = ptdf(fixture10)
    placements, _tables = run_cv_placement(mat, 4)
    assert len(placements) == 4
    assert calls == [node_pairs(mat.bus_ids)]


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
    with pytest.raises(ValueError, match="candidate_cap"):
        run_cv_placement(ptdf(fixture10), 2, candidate_cap=0)


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 30))
def test_spearman_matches_scipy_on_tie_heavy_samples(data, n):
    sample = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    a, b = data.draw(sample), data.draw(sample)
    if len(set(a)) < 2 or len(set(b)) < 2:
        with pytest.raises(ValueError, match="constant ranks"):
            spearman(a, b)
        return
    assert spearman(a, b) == pytest.approx(spearmanr(a, b).statistic, abs=1e-12)


def test_rank_by_norm1_is_descending(fixture10):
    mat = ptdf(fixture10)
    rows, _rho = metric_report(mat)
    by_rank = sorted(rows, key=lambda r: r.rank_norm1)
    norms = [r.norm1 for r in by_rank]
    assert norms == sorted(norms, reverse=True)
    top = by_rank[0]
    assert top.norm1 == pytest.approx(np.abs(cv(mat, *top.pair).values).sum())


@pytest.mark.parametrize("name", ["fixture10", "case14", "triangle3"])
def test_metric_report_ranks_match_scipy(request, name):
    rows, rho = metric_report(ptdf(request.getfixturevalue(name)))
    norms = [r.norm1 for r in rows]
    # dense integer code of (dimension, log_volume): the same order and ties
    keys = [(r.score.dimension, r.score.log_volume) for r in rows]
    code = [sorted(set(keys)).index(k) for k in keys]
    want_n = rankdata([-x for x in norms], method="average")
    want_v = rankdata([-c for c in code], method="average")
    assert [r.rank_norm1 for r in rows] == [round(x) for x in want_n]
    assert [r.rank_volume for r in rows] == [round(x) for x in want_v]
    if rho is None:
        assert len(set(want_n)) < 2 or len(set(want_v)) < 2
    else:
        assert rho == pytest.approx(spearmanr(norms, code).statistic, abs=1e-12)


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
