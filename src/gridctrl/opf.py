"""DC OPF, security-constrained OPF, and the cost-of-security curve.

Everything is one LP over segment variables (piecewise-linearized generator
costs, exact for linear ones), HVDC setpoints, and one ranged row per limited
flow, whose slack is boxed in [0, 2 limit]:

* network states: the intact grid and, for SC-OPF, one outaged copy per
  contingency.  Each state's flows come from its own PTDF plus CV columns,
  so a post-contingency flow is computed on the outaged topology;
* preventive mode: one dispatch and one HVDC setpoint vector must satisfy
  every state's flow limits;
* corrective mode: the dispatch is shared but each contingency gets its own
  HVDC setpoint vector, which only that state's rows read.

The reported cost is the optimized objective plus the constant cost of every
generator sitting at p_min; for linear cost polynomials this equals the
polynomial evaluated at the dispatch.  Cost of security is
C_SCOPF - C_OPF >= 0 for the same controller set; a difference within
1e-9 * (1 + C_OPF) is roundoff between two LPs' optima and reads as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcsens import bridges, check_p_dc_max, cv_matrix, ptdf, remove_line
from .netmodel import InputError, Network
from .simplex import FEAS_TOL, LpProblem, SimplexNumericalError, check_tableau_size, solve_lp

PREVENTIVE = "preventive"
CORRECTIVE = "corrective"
DEFAULT_SEGMENTS = 10
# N equal pieces miss a quadratic cost by at most c2 (span / N)^2 / 4, which is
# below FEAS_TOL c2 span^2 from this N on: more pieces buy nothing (1,582)
MAX_SEGMENTS = math.ceil(0.5 / math.sqrt(FEAS_TOL))


class InfeasibleError(RuntimeError):
    """The grid admits no solution to a required solve (CLI exit 1)."""


@dataclass(frozen=True)
class OpfSolution:
    status: str                         # optimal | infeasible
    cost: float | None = None           # $/h
    p_gen: tuple[float, ...] | None = None  # MW, generator file order
    flows: tuple[float, ...] = ()       # MW, base case, in-service line order
    line_ids: tuple[int, ...] = ()
    hvdc_base: tuple[float, ...] = ()   # MW
    hvdc_contingency: dict[int, tuple[float, ...]] | None = None


def _segment_count(gen, n_segments: int) -> int:
    """How many pieces ``_gen_segments`` gives ``gen``."""
    if gen.p_max - gen.p_min <= 1e-12:
        return 0
    return 1 if gen.cost[2] == 0.0 else n_segments


def _gen_segments(gen, n_segments: int) -> list[tuple[float, float]]:
    """(width, slope) pieces covering [p_min, p_max], slopes nondecreasing."""
    count = _segment_count(gen, n_segments)
    if count == 0 or gen.cost[2] == 0.0:
        return [(gen.p_max - gen.p_min, gen.cost[1])] * count
    points = np.linspace(gen.p_min, gen.p_max, count + 1)
    costs = np.array([gen.cost_at(p) for p in points])
    widths = np.diff(points)
    return list(zip(widths, np.diff(costs) / widths))


def default_contingencies(net: Network) -> list[int]:
    """All in-service lines whose outage keeps the network connected."""
    islanding = bridges(net)
    return [ln.id for ln in net.lines_in_service if ln.id not in islanding]


def check_contingencies(net: Network, contingencies: list[int] | None) -> list[int]:
    """The checked contingency line ids; ``None`` stands for the default set."""
    if contingencies is None:
        return default_contingencies(net)
    pos = {ln.id for ln in net.lines_in_service}
    unknown = [cid for cid in contingencies if cid not in pos]
    if unknown:
        raise InputError(f"unknown or out-of-service contingency line ids: {unknown}")
    if len(set(contingencies)) != len(contingencies):
        raise InputError("contingency line ids must be distinct")
    islanded = bridges(net)
    islanding = [cid for cid in contingencies if cid in islanded]
    if islanding:
        raise InputError("these contingencies would island the network: "
                         + ", ".join(map(str, islanding)))
    return list(contingencies)


def _solve(net: Network, placements: list[tuple[int, int]], p_dc_max: float,
           contingencies: list[int], mode: str, n_segments: int) -> OpfSolution:
    check_p_dc_max(p_dc_max)
    if n_segments < 1:
        raise InputError(f"n_segments must be >= 1, got {n_segments}")
    line_ids = tuple(ln.id for ln in net.lines_in_service)
    load = np.array(net.load_vector)
    gens = net.generators

    # One network state per block of limit rows, the intact grid first.  Each
    # state's rows read the HVDC block that recourse allows: the base block
    # in preventive mode, the state's own block in corrective mode.
    states = [net] + [remove_line(net, cid) for cid in contingencies]
    lims = np.array([ln.limit for state in states for ln in state.lines_in_service])
    keep = np.isfinite(lims)
    n_seg = sum(_segment_count(g, n_segments) for g in gens)
    n_dc = len(placements)
    dc_starts = [n_seg + n_dc * (i if mode == CORRECTIVE else 0) for i in range(len(states))]
    n_core = dc_starts[-1] + n_dc

    # the size is known before anything that size is built
    n_vars = n_core + int(keep.sum())
    m = 1 + int(keep.sum())
    check_tableau_size(m, n_vars)
    if n_segments > MAX_SEGMENTS:
        raise InputError(f"n_segments must be <= {MAX_SEGMENTS}, got {n_segments}")

    seg_slots = [(gi, width, slope)                   # (gen index, width, slope)
                 for gi, g in enumerate(gens) for width, slope in _gen_segments(g, n_segments)]
    seg_cols = [net.bus_index[gens[gi].bus] for gi, _w, _sl in seg_slots]
    inj_fixed = -load.copy()
    for g in gens:
        inj_fixed[net.bus_index[g.bus]] += g.p_min
    coefs, offsets = [], []
    for state, dc in zip(states, dc_starts):
        mat = ptdf(state)
        coef = np.zeros((len(mat.line_ids), n_core))
        coef[:, :n_seg] = mat.values[:, seg_cols]
        coef[:, dc:dc + n_dc] = cv_matrix(mat, placements).T
        coefs.append(coef)
        offsets.append(mat.values @ inj_fixed)
    vecs, offs, lims = np.concatenate(coefs)[keep], np.concatenate(offsets)[keep], lims[keep]
    a = np.zeros((m, n_vars))
    b = np.zeros(m)
    a[0, :n_seg] = 1.0
    b[0] = float(load.sum()) - sum(g.p_min for g in gens)
    # one ranged row per limited flow: flow + slack = limit - off, with the
    # slack in [0, 2 limit], keeps -limit <= flow + off <= limit
    a[1:, :n_core] = vecs
    b[1:] = lims - offs
    np.fill_diagonal(a[1:, n_core:], 1.0)

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    cost = np.zeros(n_vars)
    upper[:n_seg] = [width for _gi, width, _sl in seg_slots]
    cost[:n_seg] = [slope for _gi, _w, slope in seg_slots]
    lower[n_seg:n_core] = -p_dc_max
    upper[n_seg:n_core] = p_dc_max
    upper[n_core:] = 2.0 * lims

    res = solve_lp(LpProblem.build(cost, a, b, lower, upper))
    if res.status == "infeasible":
        return OpfSolution(status="infeasible", line_ids=line_ids)
    if res.status != "optimal":
        raise SimplexNumericalError(f"OPF solve ended '{res.status}'")

    x = res.x
    p_gen = [g.p_min for g in gens]
    for s, (gi, _w, _sl) in enumerate(seg_slots):
        p_gen[gi] += x[s]
    flows = coefs[0] @ x[:n_core] + offsets[0]
    total_cost = float(res.objective) + sum(g.cost_at(g.p_min) for g in gens)
    setpoints = [tuple(x[dc:dc + n_dc]) for dc in dc_starts]
    return OpfSolution(
        status="optimal",
        cost=total_cost,
        p_gen=tuple(p_gen),
        flows=tuple(flows),
        line_ids=line_ids,
        hvdc_base=setpoints[0],
        hvdc_contingency=(dict(zip(contingencies, setpoints[1:]))
                          if mode == CORRECTIVE and contingencies else None),
    )


def dc_opf(net: Network, placements: list[tuple[int, int]] | None = None,
           p_dc_max: float = math.inf,
           n_segments: int = DEFAULT_SEGMENTS) -> OpfSolution:
    """Minimum-cost dispatch under base-case line limits.  MW in and out."""
    return _solve(net, list(placements or []), p_dc_max, [], PREVENTIVE, n_segments)


def sc_opf(net: Network, placements: list[tuple[int, int]] | None = None,
           contingencies: list[int] | None = None, mode: str = PREVENTIVE,
           p_dc_max: float = math.inf,
           n_segments: int = DEFAULT_SEGMENTS) -> OpfSolution:
    """Security-constrained OPF; ``contingencies`` defaults to every
    non-islanding line outage."""
    if mode not in (PREVENTIVE, CORRECTIVE):
        raise InputError(f"mode must be {PREVENTIVE} or {CORRECTIVE}, got '{mode}'")
    conts = check_contingencies(net, contingencies)
    return _solve(net, list(placements or []), p_dc_max, conts, mode, n_segments)


@dataclass(frozen=True)
class CosReport:
    c_opf: float
    c_scopf: float
    cos_abs: float
    cos_percent: float


def cost_of_security(net: Network, placements: list[tuple[int, int]] | None = None,
                     contingencies: list[int] | None = None,
                     mode: str = PREVENTIVE, p_dc_max: float = math.inf,
                     n_segments: int = DEFAULT_SEGMENTS) -> CosReport:
    """CoS = C_SCOPF - C_OPF with the same controllers on both sides."""
    opt = dc_opf(net, placements, p_dc_max, n_segments)
    if opt.status != "optimal":
        raise InfeasibleError("opf is infeasible")
    sec = sc_opf(net, placements, contingencies, mode, p_dc_max, n_segments)
    if sec.status != "optimal":
        raise InfeasibleError(f"sc-opf {mode} is infeasible")
    cos_abs = sec.cost - opt.cost
    if abs(cos_abs) <= 1e-9 * (1.0 + abs(opt.cost)):
        cos_abs = 0.0
    if opt.cost > 0.0:
        cos_percent = 100.0 * cos_abs / opt.cost
    else:
        cos_percent = 0.0 if cos_abs == 0.0 else math.inf
    return CosReport(c_opf=opt.cost, c_scopf=sec.cost,
                     cos_abs=cos_abs, cos_percent=cos_percent)


@dataclass(frozen=True)
class CurvePoint:
    count: int
    pair: tuple[int, int] | None        # controller added at this count
    cos_abs: float
    cos_percent: float


def cos_curve(net: Network, placements: list[tuple[int, int]],
              contingencies: list[int] | None = None, mode: str = CORRECTIVE,
              p_dc_max: float = math.inf,
              n_segments: int = DEFAULT_SEGMENTS) -> tuple[CurvePoint, ...]:
    """CoS with each prefix of ``placements`` installed, the empty one first."""
    conts = check_contingencies(net, contingencies)
    points = []
    for k in range(len(placements) + 1):
        report = cost_of_security(net, placements[:k], conts, mode,
                                  p_dc_max, n_segments)
        points.append(CurvePoint(
            count=k, pair=placements[k - 1] if k else None,
            cos_abs=report.cos_abs, cos_percent=report.cos_percent))
    return tuple(points)
