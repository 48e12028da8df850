"""Controller-count bounds and the node-balance system P_B = A @ P_L.

``A`` is the signed bus/line incidence: +1 where a line leaves its from-bus,
-1 where it enters its to-bus, so a positive flow means from->to transport.
Series controllers can pin at most n_L - n_B + 1 flows (the cycle space);
parallel controllers can steer at most n_B - 1 independent directions
(the rank of the PTDF).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcsens import InjectionProfile, PtdfMatrix, cv_matrix, incidence, ptdf
from .netmodel import InputError, Network

RANK_REL_TOL = 1e-8


def matrix_rank(a: np.ndarray) -> int:
    """Rank via singular values with a relative 1e-8 threshold."""
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_REL_TOL * s[0]))


@dataclass(frozen=True)
class BoundsReport:
    series_bound: int           # sup count of series (flow-pinning) devices
    parallel_bound: int         # sup count of independent node-pair controllers
    ptdf_rank: int


def bounds(net: Network) -> BoundsReport:
    """Series and parallel bounds.  Requires a connected network (see ptdf)."""
    n_b, n_l = net.n_bus, net.n_line
    return BoundsReport(
        series_bound=n_l - n_b + 1,
        parallel_bound=n_b - 1,
        ptdf_rank=matrix_rank(ptdf(net).values),
    )


@dataclass(frozen=True, eq=False)
class FixedFlowResult:
    status: str                             # unique | underdetermined | inconsistent
    flows: np.ndarray | None = None         # full in-service-line vector when unique
    freedom: int | None = None              # remaining degrees of freedom


def solve_fixed_flows(net: Network, inj: InjectionProfile,
                      fixed: dict[int, float]) -> FixedFlowResult:
    """Classify the node-balance system once ``fixed`` line flows are pinned.

    ``fixed`` maps line id -> flow (MW, from->to sign).  Unknown ids raise.
    """
    if inj.p.shape != (net.n_bus,):
        raise InputError(f"injection length {inj.p.shape[0]} != n_bus {net.n_bus}")
    a = incidence(net).T
    fixed_cols = [net.line_row(lid) for lid in fixed]
    fixed_vals = np.array([fixed[lid] for lid in fixed], dtype=float)
    free_cols = [k for k in range(a.shape[1]) if k not in set(fixed_cols)]

    rhs = inj.p - (a[:, fixed_cols] @ fixed_vals if fixed_cols else 0.0)
    a_free = a[:, free_cols]
    r = matrix_rank(a_free)
    # rhs in units of the largest injection or pin (at least 1 MW): the rank
    # test is relative to the largest singular value, which the rhs of a
    # large case would set
    scale = max(1.0, np.abs(inj.p).max(initial=0.0), np.abs(fixed_vals).max(initial=0.0))
    r_aug = matrix_rank(np.column_stack([a_free, rhs / scale]))
    if r_aug > r:
        return FixedFlowResult(status="inconsistent")
    if r < len(free_cols):
        return FixedFlowResult(status="underdetermined", freedom=len(free_cols) - r)
    flows = np.empty(a.shape[1])
    flows[fixed_cols] = fixed_vals
    if free_cols:
        sol, *_ = np.linalg.lstsq(a_free, rhs, rcond=None)
        flows[free_cols] = sol
    return FixedFlowResult(status="unique", flows=flows)


def controllability_rank(placements: list[tuple[int, int]], mat: PtdfMatrix) -> int:
    """Rank of the stacked CV columns, capped by n_B - 1."""
    if not placements:
        return 0
    return min(matrix_rank(cv_matrix(mat, placements).T), len(mat.bus_ids) - 1)
