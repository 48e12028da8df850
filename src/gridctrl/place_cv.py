"""Greedy node-pair placement by conical-hull volume.

A controllability vector spans, together with its negation, a cone of
reachable flow changes.  Its size is scored by the volume of the simplex on
the diagonal points diag(|v|), kept in log space: log_volume is the sum of
log(max(|v_i|, eps)) and dimension counts the components above eps.  The
constant -log(n_L!) is the same for every candidate and is omitted.  Scores
compare lexicographically by (dimension, log_volume).

Follow-up placements score the joint reach of the already-selected vectors
plus one candidate: all nonzero {-1, 0, +1} combinations are formed (after
collapsing inputs that duplicate each other up to sign), binned by sign
orthant (zeros count as positive), reduced to componentwise extreme
magnitudes per orthant, and the per-orthant volumes are summed in linear
space via log-sum-exp.  Candidates are pre-filtered by how orthogonal their
vector is to the span of the selected ones (cos-phi of the projection).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dcsens import PtdfMatrix, cv_matrix, node_pairs

VOLUME_EPS = 1e-9
COS_THRESHOLD = 0.2
CANDIDATE_CAP = 10
_SPAN_COS = 1.0 - 1e-9      # candidates at/above this lie in the basis span


@functools.total_ordering
@dataclass(frozen=True)
class VolumeScore:
    log_volume: float
    dimension: int

    def __lt__(self, other: "VolumeScore") -> bool:
        return (self.dimension, self.log_volume) < (other.dimension, other.log_volume)


def conical_log_volume(v: np.ndarray, eps: float = VOLUME_EPS) -> VolumeScore:
    """Log-space simplex volume of diag(|v|); see module docstring."""
    mags = np.abs(np.asarray(v, dtype=float))
    if mags.ndim != 1 or mags.size == 0:
        raise ValueError("need a nonempty 1-D vector")
    dimension = int(np.sum(mags > eps))
    log_volume = float(np.sum(np.log(np.maximum(mags, eps))))
    return VolumeScore(log_volume=log_volume, dimension=dimension)


def first_placement(mat: PtdfMatrix) -> list[tuple[tuple[int, int], VolumeScore]]:
    """All node pairs ranked by conical volume, best first; ties by pair."""
    pairs = node_pairs(mat.bus_ids)
    if not pairs:
        raise ValueError("case has no node pair to place")
    scored = [(pair, conical_log_volume(vec))
              for pair, vec in zip(pairs, cv_matrix(mat, pairs))]
    scored.sort(key=lambda item: (-item[1].dimension, -item[1].log_volume, item[0]))
    return scored


def orthogonality(basis: np.ndarray, vectors: np.ndarray) -> list[float]:
    """cos-phi of each row of ``vectors`` against span(basis columns):
    0 orthogonal, 1 inside.  The basis is factored once for all rows."""
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


def _dedupe_directions(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Drop vectors equal to an earlier one up to sign (relative 1e-9)."""
    kept: list[np.ndarray] = []
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


def _log_sum_exp(values: list[float]) -> float:
    top = max(values)
    if math.isinf(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in values))


def orthant_volume_sum(selected: list[np.ndarray], candidate: np.ndarray,
                       eps: float = VOLUME_EPS) -> VolumeScore:
    """Joint score of selected CVs plus one candidate (steps 7-12)."""
    dirs = _dedupe_directions([np.asarray(v, dtype=float) for v in selected]
                              + [np.asarray(candidate, dtype=float)])
    base = np.column_stack(dirs)                      # (n_L, j)
    j = base.shape[1]
    signs = np.array([s for s in itertools.product((-1.0, 0.0, 1.0), repeat=j)
                      if any(c != 0.0 for c in s)])
    combos = base @ signs.T                           # (n_L, 3^j - 1)
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

    clamped = np.maximum(extremes, eps)
    logs = np.log(clamped).sum(axis=1)
    dims = (extremes > eps).sum(axis=1)
    return VolumeScore(log_volume=_log_sum_exp(list(logs)),
                       dimension=int(dims.max()))


@dataclass(frozen=True)
class PlacementState:
    selected: tuple[tuple[int, int], ...]
    basis: np.ndarray                   # (n_L, k) CV columns of selected pairs
    cos_threshold: float = COS_THRESHOLD
    candidate_cap: int = CANDIDATE_CAP


def initial_state(mat: PtdfMatrix, pair: tuple[int, int] | None = None,
                  cos_threshold: float = COS_THRESHOLD,
                  candidate_cap: int = CANDIDATE_CAP) -> PlacementState:
    """State after the first placement (default: the volume-ranked winner)."""
    if pair is None:
        pair = first_placement(mat)[0][0]
    return PlacementState(selected=(tuple(pair),),
                          basis=cv_matrix(mat, [pair]).T,
                          cos_threshold=cos_threshold, candidate_cap=candidate_cap)


@dataclass(frozen=True)
class CandidateRow:
    pair: tuple[int, int]
    cos_phi: float | None
    score: VolumeScore
    selected: bool


def place_next(state: PlacementState, mat: PtdfMatrix
               ) -> tuple[tuple[int, int], PlacementState, list[CandidateRow]]:
    """One greedy step: filter by cos-phi, score survivors, take the max."""
    taken = set(state.selected)
    pairs = node_pairs(mat.bus_ids)
    if taken.issuperset(pairs):
        raise ValueError("all node pairs are already placed")
    vectors = cv_matrix(mat, pairs)
    cos = orthogonality(state.basis, vectors)
    scored_cos = [(pair, j, cos[j]) for j, pair in enumerate(pairs) if pair not in taken]
    qualifying = [item for item in scored_cos if item[2] <= state.cos_threshold]
    if not qualifying:
        # fall back to the most orthogonal pairs; span members stay excluded
        qualifying = [item for item in scored_cos if item[2] < _SPAN_COS]
        if not qualifying:
            raise ValueError("every remaining pair lies in the span of the basis")
    qualifying.sort(key=lambda item: (item[2], item[0]))
    qualifying = qualifying[:state.candidate_cap]

    selected_vecs = [state.basis[:, k] for k in range(state.basis.shape[1])]
    scores = [orthant_volume_sum(selected_vecs, vectors[item[1]]) for item in qualifying]
    best = max(range(len(qualifying)),
               key=lambda i: (scores[i], tuple(-c for c in qualifying[i][0])))
    pair, row, _ = qualifying[best]

    rows = [CandidateRow(pair=item[0], cos_phi=item[2], score=scores[i],
                         selected=(i == best))
            for i, item in enumerate(qualifying)]
    new_state = PlacementState(
        selected=state.selected + (tuple(pair),),
        basis=np.column_stack([state.basis, vectors[row]]),
        cos_threshold=state.cos_threshold, candidate_cap=state.candidate_cap)
    return tuple(pair), new_state, rows


def run_cv_placement(mat: PtdfMatrix, count: int,
                     cos_threshold: float = COS_THRESHOLD,
                     candidate_cap: int = CANDIDATE_CAP
                     ) -> tuple[list[tuple[int, int]], list[list[CandidateRow]]]:
    """Place ``count`` controllers; returns placements and per-step tables."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ranked = first_placement(mat)
    tables = [[CandidateRow(pair=p, cos_phi=None, score=s, selected=(i == 0))
               for i, (p, s) in enumerate(ranked)]]
    state = initial_state(mat, ranked[0][0], cos_threshold, candidate_cap)
    placements = [ranked[0][0]]
    for _ in range(count - 1):
        pair, state, rows = place_next(state, mat)
        placements.append(pair)
        tables.append(rows)
    return placements, tables


def rank_by_norm1(mat: PtdfMatrix) -> list[tuple[tuple[int, int], float]]:
    """All pairs ranked by ||CV||_1 descending; ties by pair."""
    pairs = node_pairs(mat.bus_ids)
    scored = [(pair, float(np.abs(vec).sum()))
              for pair, vec in zip(pairs, cv_matrix(mat, pairs))]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


@dataclass(frozen=True)
class MetricRow:
    pair: tuple[int, int]
    norm1: float
    score: VolumeScore
    rank_norm1: int
    rank_volume: int


def _average_ranks(values: list) -> list[float]:
    """Ranks 1..n over comparable values; ties share the average rank.

    Rank 1 goes to the greatest value.
    """
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(a: list, b: list) -> float:
    """Rank correlation between two comparable samples, average-rank ties."""
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two equally sized samples of length >= 2")
    xa = np.array(_average_ranks(a))
    xb = np.array(_average_ranks(b))
    xa -= xa.mean()
    xb -= xb.mean()
    denom = math.sqrt(float(xa @ xa) * float(xb @ xb))
    if denom == 0.0:
        raise ValueError("constant ranks have no correlation")
    return float(xa @ xb) / denom


def metric_report(mat: PtdfMatrix) -> tuple[list[MetricRow], float | None]:
    """Per-pair 1-norm vs conical volume, with ranks and their correlation.

    The correlation is None when either ranking is constant (every pair
    ties, or there are fewer than two pairs): it is undefined there.
    """
    pairs = node_pairs(mat.bus_ids)
    vectors = cv_matrix(mat, pairs)
    norms = [float(np.abs(vec).sum()) for vec in vectors]
    scores = [conical_log_volume(vec) for vec in vectors]
    rank_n = _average_ranks(norms)
    rank_v = _average_ranks(scores)
    rows = [MetricRow(pair=pairs[i], norm1=norms[i], score=scores[i],
                      rank_norm1=int(round(rank_n[i])), rank_volume=int(round(rank_v[i])))
            for i in range(len(pairs))]
    if len(set(rank_n)) < 2 or len(set(rank_v)) < 2:
        return rows, None
    return rows, spearman(norms, scores)
