"""Node-pair placement by minimum LP control effort.

For a candidate set of HVDC node pairs, the effort to force a target set of
line-flow changes is min sum |P_DC| subject to CV * P_DC = delta on the
target lines and |P_DC| <= p_dc_max.  With k controllers and k target lines
that system is a square k x k block.  A greedy step stacks the blocks of
many candidates (every target set of each) into one array, at most
``_EFFORT_CHUNK`` blocks at a time, and ``_efforts`` scores a whole stack at
once:

* a regular block (smallest singular value above the simplex's pivot
  tolerance, relative to max(largest, 1)) has the single feasible point
  P_DC = CV^-1 delta, so its effort is the closed form sum |P_DC|, and it is
  infeasible when max |P_DC| exceeds p_dc_max by more than the simplex's
  bound tolerance.  A bound on the determinant clears almost every regular
  block; only the rest need an SVD;
* a singular block whose delta lies farther from its range than twice the
  simplex's phase-1 tolerance is infeasible without any LP;
* every other singular block reaches its target along a whole family of
  setpoints, so it goes to the effort LP.  Each setpoint is split into a
  nonnegative positive and negative part, so that problem lands directly in
  the bounded-variable equality form of the embedded solver with exactly
  one equality row per target line.

NumPy's stacked ``det``, ``svd`` and ``solve`` call LAPACK once per block, so
a block's numbers, and every output bit, do not depend on the chunk.

Deltas follow one of three strategies (fixed MW, fraction of the line limit,
scaled reactance) and always take the canonical positive sign; efforts and
bounds are handled in MW, which is self-consistent because the PTDF and CV
entries are dimensionless.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dcsens import PtdfMatrix, check_p_dc_max, cv_matrix, node_pairs
from .netmodel import InputError, Network
from .simplex import FEAS_TOL, PIVOT_TOL, LpProblem, SimplexNumericalError, solve_lp

_EFFORT_CHUNK = 1 << 11    # k x k blocks per _efforts call; bounds the stacked temporaries
# a larger effort table, node pairs x C(n_L, k) float64 at greedy step k, is
# refused, not built (lattice 118: 6,903 pairs on 233 lines need 1,423 MiB
# at k = 2)
EFFORT_LIMIT_BYTES = 256 * 2**20

CONSTANT_MW = "constant"
OF_LIMIT = "fraction-of-limit"
OF_REACTANCE = "scaled-reactance"


@dataclass(frozen=True)
class DeltaStrategy:
    """Target flow-change magnitude per line, in MW (always positive)."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in (CONSTANT_MW, OF_LIMIT, OF_REACTANCE):
            raise InputError(f"unknown delta strategy '{self.kind}'")
        if not self.param > 0.0:
            raise InputError(f"strategy parameter must be > 0, got {self.param}")
        if math.isinf(self.param):
            raise InputError(f"strategy parameter must be finite, got {self.param}")

    @classmethod
    def constant(cls, mw: float = 100.0) -> "DeltaStrategy":
        return cls(kind=CONSTANT_MW, param=mw)

    @classmethod
    def fraction_of_limit(cls, fraction: float = 0.1) -> "DeltaStrategy":
        return cls(kind=OF_LIMIT, param=fraction)

    @classmethod
    def scaled_reactance(cls, scale: float = 1000.0) -> "DeltaStrategy":
        return cls(kind=OF_REACTANCE, param=scale)

    def deltas(self, net: Network, line_ids: tuple[int, ...]) -> np.ndarray:
        """MW delta per requested line id."""
        out = np.empty(len(line_ids))
        for i, lid in enumerate(line_ids):
            ln = net.lines_in_service[net.line_row(lid)]
            if self.kind == CONSTANT_MW:
                out[i] = self.param
            elif self.kind == OF_LIMIT:
                if math.isinf(ln.limit):
                    raise InputError(
                        f"line {lid} has no limit; the {OF_LIMIT} strategy needs one")
                out[i] = self.param * ln.limit
            else:
                out[i] = self.param * ln.reactance
        return out


@dataclass(frozen=True)
class EffortResult:
    total_effort: float         # MW, summed over all feasible target sets
    infeasible_sets: int
    lp_count: int

    @property
    def all_infeasible(self) -> bool:
        return self.lp_count > 0 and self.infeasible_sets == self.lp_count


def check_effort_size(count: int, n_buses: int, n_lines: int) -> None:
    """Refuse ``count`` greedy steps on n_buses buses and n_lines lines when
    the largest step's effort table would exceed ``EFFORT_LIMIT_BYTES``."""
    k = min(count, n_lines // 2)      # C(n_L, k) peaks at k = n_L // 2
    pairs, sets = math.comb(n_buses, 2), math.comb(n_lines, k)
    need = pairs * sets * 8
    if need > EFFORT_LIMIT_BYTES:
        raise InputError(f"placing {count} controllers scores {pairs} node pairs on "
                         f"C({n_lines}, {k}) = {sets} target line sets: their effort "
                         f"table needs {need >> 20} MiB, over the "
                         f"{EFFORT_LIMIT_BYTES >> 20} MiB limit")


def _effort(cv_rows: np.ndarray, deltas: np.ndarray, p_dc_max: float) -> float | None:
    """min sum|P_DC| for CV_rows @ P_DC = deltas; None when infeasible."""
    k, n_dc = cv_rows.shape
    problem = LpProblem.build(
        c=np.ones(2 * n_dc),
        a_eq=np.hstack([cv_rows, -cv_rows]),
        b_eq=deltas,
        lower=np.zeros(2 * n_dc),
        upper=np.full(2 * n_dc, p_dc_max),
    )
    res = solve_lp(problem)
    if res.status == "infeasible":
        return None
    if res.status != "optimal":
        raise SimplexNumericalError(f"effort LP ended '{res.status}'")
    return float(res.objective)


def _efforts(blocks: np.ndarray, deltas: np.ndarray, p_dc_max: float) -> np.ndarray:
    """Effort per square block; NaN where the block cannot reach its delta.

    ``blocks`` is (s, k, k), the CV rows of k target lines for k controllers
    in each of s target sets, and ``deltas`` is (s, k).  A block is regular
    when its smallest singular value exceeds PIVOT_TOL * max(largest, 1).
    Most blocks clear that test without an SVD: every square block has
    sigma_min >= |det| / F^(k-1) and sigma_max <= F, with F its Frobenius
    norm, so |det| / F^(k-1) > 2 * PIVOT_TOL * max(F, 1) implies it, with a
    margin far wider than the roundoff of the LU determinant and of the
    singular values.  Only the blocks left over (an all-zero block gives NaN
    and is one of them) are classified by their singular values.

    A regular block is solved in closed form.  Both paths share one rule at
    the cap: setpoints are within it when max |P_DC| <= p_dc_max + FEAS_TOL
    * (1 + max |P_DC|), the bound test the simplex certifies every effort LP
    point with.  So a setpoint that meets the cap up to roundoff counts as
    feasible, as the effort LP counts it.  A singular block is infeasible when
    the 2-norm of its delta's component off the block's range exceeds
    2 * FEAS_TOL * (1 + max |delta|): phase 1 of the LP minimises the 1-norm
    residual, which is no smaller, so the LP would report it infeasible too.
    The remaining singular blocks are handed to the effort LP.
    """
    check_p_dc_max(p_dc_max)
    k = blocks.shape[-1]
    efforts = np.full(blocks.shape[0], np.nan)
    frob = np.linalg.norm(blocks, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.abs(np.linalg.det(blocks)) / frob ** (k - 1)
    regular = bound > 2.0 * PIVOT_TOL * np.maximum(frob, 1.0)
    unclear = np.flatnonzero(~regular)
    u, sigma = np.linalg.svd(blocks[unclear])[:2]
    small = sigma <= PIVOT_TOL * np.maximum(sigma[:, :1], 1.0)
    regular[unclear] = ~small[:, -1]
    if regular.any():
        x = np.abs(np.linalg.solve(blocks[regular], deltas[regular][..., None])[..., 0])
        peak = x.max(axis=1)
        within = peak <= p_dc_max + FEAS_TOL * (1.0 + peak)
        efforts[regular] = np.where(within, x.sum(axis=1), np.nan)
    rest = deltas[unclear]
    off_range = np.sqrt((np.einsum("sji,sj->si", u, rest) ** 2 * small).sum(axis=1))
    reachable = off_range <= 2.0 * FEAS_TOL * (1.0 + np.abs(rest).max(axis=1))
    for i in unclear[small[:, -1] & reachable]:
        effort = _effort(blocks[i], deltas[i], p_dc_max)
        if effort is not None:
            efforts[i] = effort
    return efforts


def control_effort(mat: PtdfMatrix, placements: list[tuple[int, int]],
                   targets: list[int], strategy: DeltaStrategy,
                   p_dc_max: float = math.inf, *, net: Network
                   ) -> float | None:
    """Minimum total |P_DC| in MW to realize the strategy's deltas on
    ``targets``; None when infeasible.  Requires |targets| == |placements|."""
    if len(targets) != len(placements):
        raise InputError(
            f"need as many targets as controllers: {len(targets)} vs {len(placements)}")
    if len(set(targets)) != len(targets):
        raise InputError("target line ids must be distinct")
    rows = [net.line_row(lid) for lid in targets]
    cols = cv_matrix(mat, placements).T
    deltas = strategy.deltas(net, tuple(targets))
    effort = _efforts(cols[rows, :][None], deltas[None], p_dc_max)[0]
    return None if np.isnan(effort) else float(effort)


def place_lp_next(net: Network, mat: PtdfMatrix,
                  existing: list[tuple[int, int]], strategy: DeltaStrategy,
                  p_dc_max: float = math.inf
                  ) -> list[tuple[tuple[int, int], EffortResult]]:
    """Rank every node pair (placed ones included) as the next controller.

    Each candidate is scored by the summed effort over every
    C(n_L, k) target set with k = len(existing) + 1; infeasible sets are
    counted, and a candidate with no feasible set at all ranks last.  The
    blocks of several candidates go to ``_efforts`` as one stack, the
    existing controllers' columns first and the candidate's last; each
    candidate's feasible efforts are summed in target-set order.
    """
    pairs = node_pairs(mat.bus_ids)
    if not pairs:
        raise InputError("case has no node pair to place")
    k = len(existing) + 1
    line_ids = mat.line_ids
    target_sets = np.array(list(itertools.combinations(range(len(line_ids)), k)),
                           dtype=int).reshape(-1, k)
    n_sets = len(target_sets)
    deltas = strategy.deltas(net, line_ids)[target_sets]
    fixed = cv_matrix(mat, existing).T[target_sets]       # (sets, k, k - 1)
    candidates = cv_matrix(mat, pairs)
    efforts = np.empty((len(pairs), n_sets))
    step = max(1, _EFFORT_CHUNK // max(n_sets, 1))
    for lo in range(0, len(pairs), step):
        last = candidates[lo:lo + step, target_sets, None]   # (chunk, sets, k, 1)
        blocks = np.concatenate(
            [np.broadcast_to(fixed, last.shape[:2] + fixed.shape[1:]), last], axis=-1)
        chunk = _efforts(blocks.reshape(-1, k, k),
                         np.broadcast_to(deltas, last.shape[:3]).reshape(-1, k), p_dc_max)
        efforts[lo:lo + step] = chunk.reshape(len(last), n_sets)

    results = []
    for row in efforts:
        feasible = row[~np.isnan(row)]
        # np.cumsum adds in target-set order, one float addition at a time
        total = float(np.cumsum(feasible)[-1]) if feasible.size else 0.0
        results.append(EffortResult(total_effort=total,
                                    infeasible_sets=n_sets - feasible.size,
                                    lp_count=n_sets))
    ranked = sorted(zip(pairs, results),
                    key=lambda item: (item[1].all_infeasible, item[1].total_effort, item[0]))
    return ranked


def run_lp_placement(net: Network, mat: PtdfMatrix, count: int,
                     strategy: DeltaStrategy, p_dc_max: float = math.inf
                     ) -> tuple[list[tuple[int, int]],
                                list[list[tuple[tuple[int, int], EffortResult]]]]:
    """Place ``count`` controllers greedily; returns placements and tables."""
    if count < 1:
        raise InputError("count must be >= 1")
    # a case without lines has no pair either, which place_lp_next reports
    if mat.line_ids and count > len(mat.line_ids):
        raise InputError(f"count {count} exceeds the {len(mat.line_ids)} in-service "
                         "lines: there is no set of that many target lines")
    check_effort_size(count, len(mat.bus_ids), len(mat.line_ids))
    placements: list[tuple[int, int]] = []
    tables = []
    for _ in range(count):
        ranked = place_lp_next(net, mat, placements, strategy, p_dc_max)
        tables.append(ranked)
        placements.append(ranked[0][0])
    return placements, tables


@dataclass(frozen=True)
class ComparisonRow:
    step: int
    cv_pair: tuple[int, int]
    lp_pair: tuple[int, int]
    agree: bool


def compare_placements(cv_placements: list[tuple[int, int]],
                       lp_placements: list[tuple[int, int]]) -> list[ComparisonRow]:
    """Step-by-step agreement table of the two algorithms' choices."""
    if len(cv_placements) != len(lp_placements):
        raise ValueError("placement sequences must have the same length")
    return [ComparisonRow(step=i + 1, cv_pair=tuple(a), lp_pair=tuple(b),
                          agree=tuple(a) == tuple(b))
            for i, (a, b) in enumerate(zip(cv_placements, lp_placements))]
