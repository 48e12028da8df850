"""Greedy node-pair placement by conical-hull volume.

A controllability vector spans, together with its negation, a cone of
reachable flow changes.  Its size is scored by the volume of the simplex on
the diagonal points diag(|v|), kept in log space: log_volume is the sum of
log(max(|v_i|, eps)) and dimension counts the components above eps.  The
constant -log(n_L!) is the same for every candidate and is omitted.  Scores
compare lexicographically by (dimension, log_volume).  Every ranking by
score here puts the largest first and breaks ties by node pair.

Follow-up placements score the joint reach of the already-selected vectors
plus one candidate: all nonzero {-1, 0, +1} combinations are formed (after
collapsing inputs that duplicate each other up to sign), binned by sign
orthant (zeros count as positive), reduced to componentwise extreme
magnitudes per orthant, and the per-orthant volumes are summed in linear
space via log-sum-exp.  Candidates are pre-filtered by how orthogonal their
vector is to the span of the selected ones (cos-phi of the projection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netmodel
from .dcsens import _CV_CHUNK, PtdfMatrix, cv_matrix, node_pairs
from .netmodel import InputError

VOLUME_EPS = 1e-9
COS_THRESHOLD = 0.2
CANDIDATE_CAP = 10
_SPAN_COS = 1.0 - 1e-9      # candidates at/above this lie in the basis span


@dataclass(frozen=True)
class VolumeScore:
    log_volume: float
    dimension: int


def row_scores(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """||v||_1, dimension and log_volume of every row v of ``vectors``; see
    module docstring.  Rows go in blocks, which bounds the temporaries."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or (len(vectors) and vectors.shape[1] == 0):
        raise ValueError("need a 2-D array of nonempty rows")
    n = len(vectors)
    norm1, log_volume = np.empty(n), np.empty(n)
    dimension = np.empty(n, dtype=np.intp)
    for s in range(0, n, _CV_CHUNK):
        block = slice(s, s + _CV_CHUNK)
        mags = np.abs(vectors[block])
        norm1[block] = mags.sum(axis=1)
        dimension[block] = (mags > VOLUME_EPS).sum(axis=1)
        log_volume[block] = np.log(np.maximum(mags, VOLUME_EPS, out=mags), out=mags).sum(axis=1)
    return norm1, dimension, log_volume


def _best_first(*keys) -> np.ndarray:
    """Indices by ``keys`` descending, the last key primary; ties by index."""
    return np.lexsort([-np.asarray(k) for k in keys])


def _average_ranks(*keys) -> np.ndarray:
    """Ranks 1..n by ``keys`` as in ``_best_first``; ties share the average."""
    order = _best_first(*keys)
    ordered = [np.asarray(k)[order] for k in keys]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in ordered])
    first = np.flatnonzero(starts)
    last = np.append(first[1:], len(order)) - 1
    ranks = np.empty(len(order))
    ranks[order] = ((first + last) / 2 + 1)[np.cumsum(starts) - 1]
    return ranks


def orthogonality(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """cos-phi of each row of ``vectors`` against span(basis columns):
    0 orthogonal, 1 inside.  The basis is factored once for all rows.

    Rows go in blocks of ``_CV_CHUNK``, which bounds the temporaries.  A
    block's norms and projections are stacked matmuls, and numpy's matmul
    gives each stack item the BLAS dot or gemv call that
    ``np.linalg.norm(v)`` and ``q @ (q.T @ v)`` make on the row alone, so
    cos-phi has the same bits whatever the blocks.
    """
    basis = np.asarray(basis, dtype=float)
    vectors = np.ascontiguousarray(vectors, dtype=float)
    if basis.ndim != 2 or vectors.ndim != 2 or basis.shape[0] != vectors.shape[1]:
        raise ValueError("basis must be (n, k) and vectors (c, n)")
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag.min() <= 1e-8 * max(diag.max(), 1.0):
        raise ValueError("basis columns are rank deficient")
    cos = np.empty(len(vectors))
    for s in range(0, len(vectors), _CV_CHUNK):
        rows = vectors[s:s + _CV_CHUNK, :, None]                  # (b, n, 1)
        norms = np.sqrt(np.matmul(rows.transpose(0, 2, 1), rows))
        if not norms.all():
            raise ValueError("cannot score a zero vector")
        proj = np.matmul(q, np.matmul(q.T, rows))
        reach = np.sqrt(np.matmul(proj.transpose(0, 2, 1), proj))
        cos[s:s + _CV_CHUNK] = np.minimum(reach / norms, 1.0)[:, 0, 0]
    return cos


def _dedupe_directions(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Drop vectors equal to an earlier one up to sign (relative 1e-9)."""
    kept: list[np.ndarray] = []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        atol = 1e-9 * max(float(np.abs(v).max()), 1e-300)
        if kept:
            stack = np.array(kept)
            if ((np.abs(v - stack).max(axis=1) <= atol).any()
                    or (np.abs(v + stack).max(axis=1) <= atol).any()):
                continue
        kept.append(v)
    return kept


def _log_sum_exp(values: list[float]) -> float:
    top = max(values)
    if math.isinf(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


def check_orthant_size(j: int, n_lines: int) -> None:
    """Refuse to score j controllers on n_lines lines when the matrix of
    their 3^j - 1 sign combinations would exceed ``DENSE_LIMIT_BYTES``.

    Scoring holds about five arrays of its size at once (lattice 118, 233
    lines: j = 10 takes 110 MiB and peaks near 610 MB, j = 11 would take
    314 MiB and peak near 1.7 GB)."""
    # past 3^40 combinations the size is only a lower bound, so a huge j
    # costs no huge power
    need = (3 ** min(j, 40) - 1) * n_lines * 8
    if need > netmodel.DENSE_LIMIT_BYTES:
        raise InputError(f"scoring {j} controllers on {n_lines} lines takes 3^{j} - 1 "
                         f"sign combinations: their matrix needs "
                         f"{'over ' if j > 40 else ''}{need >> 20} MiB, "
                         f"over the {netmodel.DENSE_LIMIT_BYTES >> 20} MiB limit")


def _sign_rows(j: int) -> np.ndarray:
    """The 3^j - 1 nonzero {-1, 0, +1} rows of length j, in
    ``itertools.product((-1, 0, 1), repeat=j)`` order.  They are C-ordered:
    the layout picks the dgemm call that combines them, and so the bits of
    every orthant volume."""
    signs = np.indices((3,) * j).reshape(j, -1).T - 1.0
    return np.ascontiguousarray(np.delete(signs, (3 ** j - 1) // 2, axis=0))


def orthant_volume_sum(selected: list[np.ndarray], candidate: np.ndarray) -> VolumeScore:
    """Joint score of selected CVs plus one candidate (steps 7-12)."""
    check_orthant_size(len(selected) + 1, len(candidate))
    dirs = _dedupe_directions([np.asarray(v, dtype=float) for v in selected]
                              + [np.asarray(candidate, dtype=float)])
    base = np.column_stack(dirs)                      # (n_L, j)
    j = base.shape[1]
    combos = base @ _sign_rows(j).T                   # (n_L, 3^j - 1)
    scale = max(float(np.abs(combos).max()), 1e-300)
    keep = np.abs(combos).max(axis=0) > 1e-12 * scale  # exact cancellations out
    combos = combos[:, keep]
    if combos.shape[1] == 0:
        raise ValueError("every sign combination cancels to zero")

    # bin columns by sign orthant (zeros count as positive), then take the
    # componentwise extreme magnitude within each orthant
    packed = np.packbits(combos >= 0.0, axis=0)
    _, group = np.unique(packed.T, axis=0, return_inverse=True)
    mags = np.abs(combos)
    extremes = np.zeros((int(group.max()) + 1, combos.shape[0]))
    np.maximum.at(extremes, group, mags.T)

    logs = np.log(np.maximum(extremes, VOLUME_EPS)).sum(axis=1)
    dims = (extremes > VOLUME_EPS).sum(axis=1)
    return VolumeScore(log_volume=_log_sum_exp(list(logs)),
                       dimension=int(dims.max()))


@dataclass(frozen=True)
class CandidateRow:
    pair: tuple[int, int]
    cos_phi: float | None
    score: VolumeScore
    selected: bool


def run_cv_placement(mat: PtdfMatrix, count: int,
                     cos_threshold: float = COS_THRESHOLD,
                     candidate_cap: int = CANDIDATE_CAP
                     ) -> tuple[list[tuple[int, int]], list[list[CandidateRow]]]:
    """Place ``count`` controllers; returns placements and per-step tables.

    Step 1 ranks every pair by its own volume.  Each later step keeps the
    free pairs outside the placed ones' span with cos-phi <= ``cos_threshold``
    (all of them when none is), takes the ``candidate_cap`` most orthogonal,
    and places the one with the largest joint orthant volume.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    if candidate_cap < 1:
        raise InputError("candidate_cap must be >= 1")
    if math.isnan(cos_threshold):
        raise InputError("cos_threshold must be a number, got nan")
    pairs = node_pairs(mat.bus_ids)
    if not pairs:
        raise InputError("case has no node pair to place")
    # the placed vectors are independent, so at most n_B - 1 get placed; a
    # larger count is refused with the error its step n_B would raise
    most = len(mat.bus_ids) - 1
    check_orthant_size(min(count, most), len(mat.line_ids))
    if count > most:
        raise InputError("all node pairs are already placed" if len(pairs) == 1
                         else "every remaining pair lies in the span of the basis")
    vectors = cv_matrix(mat, pairs)
    _, dimension, log_volume = row_scores(vectors)
    ranked = _best_first(log_volume, dimension).tolist()
    dims, logs = dimension.tolist(), log_volume.tolist()
    tables = [[CandidateRow(pair=pairs[i], cos_phi=None,
                            score=VolumeScore(logs[i], dims[i]), selected=(k == 0))
               for k, i in enumerate(ranked)]]
    chosen = ranked[:1]
    for _ in range(count - 1):
        free = np.ones(len(pairs), dtype=bool)
        free[chosen] = False
        cos = orthogonality(vectors[chosen].T, vectors)
        outside = free & (cos < _SPAN_COS)     # at most n_B - 1 pairs get placed
        if not outside.any():
            raise InputError("every remaining pair lies in the span of the basis")
        cand = np.flatnonzero(outside & (cos <= cos_threshold))
        if not cand.size:
            cand = np.flatnonzero(outside)     # the most orthogonal of the rest
        cand = cand[np.argsort(cos[cand], kind="stable")][:candidate_cap]
        basis = [vectors[i] for i in chosen]
        scores = [orthant_volume_sum(basis, vectors[i]) for i in cand]
        best = int(cand[_best_first([s.log_volume for s in scores],
                                    [s.dimension for s in scores])[0]])
        tables.append([CandidateRow(pair=pairs[i], cos_phi=float(cos[i]), score=s,
                                    selected=(i == best))
                       for i, s in zip(cand.tolist(), scores)])
        chosen.append(best)
    return [pairs[i] for i in chosen], tables


@dataclass(frozen=True)
class MetricRow:
    pair: tuple[int, int]
    norm1: float
    score: VolumeScore
    rank_norm1: int
    rank_volume: int


def _rank_correlation(xa: np.ndarray, xb: np.ndarray) -> float:
    xa = xa - xa.mean()
    xb = xb - xb.mean()
    denom = math.sqrt(float(xa @ xa) * float(xb @ xb))
    if denom == 0.0:
        raise ValueError("constant ranks have no correlation")
    return float(xa @ xb) / denom


def spearman(a, b) -> float:
    """Rank correlation between two numeric samples, average-rank ties."""
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two equally sized samples of length >= 2")
    return _rank_correlation(_average_ranks(a), _average_ranks(b))


def metric_report(mat: PtdfMatrix) -> tuple[list[MetricRow], float | None]:
    """Per-pair 1-norm vs conical volume, with ranks and their correlation.

    The correlation is None when either ranking is constant (every pair
    ties, or there are fewer than two pairs): it is undefined there.
    """
    pairs = node_pairs(mat.bus_ids)
    norm1, dimension, log_volume = row_scores(cv_matrix(mat, pairs))
    rank_n = _average_ranks(norm1)
    rank_v = _average_ranks(log_volume, dimension)
    rows = [MetricRow(pair=p, norm1=n1, score=VolumeScore(lv, dim),
                      rank_norm1=rn, rank_volume=rv)
            for p, n1, lv, dim, rn, rv in zip(
                pairs, norm1.tolist(), log_volume.tolist(), dimension.tolist(),
                np.rint(rank_n).astype(int).tolist(),
                np.rint(rank_v).astype(int).tolist())]
    if len(np.unique(rank_n)) < 2 or len(np.unique(rank_v)) < 2:
        return rows, None
    return rows, _rank_correlation(rank_n, rank_v)
