"""DC OPF, security-constrained OPF, and the cost-of-security curve.

Everything is one LP over segment variables (piecewise-linearized generator
costs, exact for linear ones), HVDC setpoints, and one slack per flow bound:

* base case: flows from the intact-network PTDF plus CV columns;
* preventive mode: one dispatch and one HVDC setpoint vector must satisfy
  every post-contingency flow, obtained from the base flows through LODF
  redistribution (HVDC injections redistribute like any other injection);
* corrective mode: the dispatch is shared but each contingency gets its own
  HVDC setpoint vector, and post-contingency sensitivities are recomputed on
  the outaged topology.

The reported cost is the optimized objective plus the constant cost of every
generator sitting at p_min; for linear cost polynomials this equals the
polynomial evaluated at the dispatch.  Cost of security is
C_SCOPF - C_OPF >= 0 for the same controller set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcsens import PtdfMatrix, bridges, cv_matrix, lodf, ptdf, remove_line
from .netmodel import Network
from .place_cv import run_cv_placement
from .place_lp import DeltaStrategy, check_p_dc_max, run_lp_placement
from .simplex import LpProblem, SimplexNumericalError, solve_lp

PREVENTIVE = "preventive"
CORRECTIVE = "corrective"
DEFAULT_SEGMENTS = 10


class InfeasibleError(RuntimeError):
    """A solve required by a composite operation came back infeasible."""

    def __init__(self, which: str):
        self.which = which
        super().__init__(f"{which} is infeasible")


@dataclass(frozen=True)
class Dispatch:
    p_gen: tuple[float, ...]            # MW, generator file order


@dataclass(frozen=True)
class OpfSolution:
    status: str                         # optimal | infeasible
    cost: float | None = None           # $/h
    dispatch: Dispatch | None = None
    flows: tuple[float, ...] = ()       # MW, base case, in-service line order
    line_ids: tuple[int, ...] = ()
    hvdc_base: tuple[float, ...] = ()   # MW
    hvdc_contingency: dict[int, tuple[float, ...]] | None = None


def _gen_segments(gen, n_segments: int) -> list[tuple[float, float]]:
    """(width, slope) pieces covering [p_min, p_max], slopes nondecreasing."""
    span = gen.p_max - gen.p_min
    if span <= 1e-12:
        return []
    if gen.cost[2] == 0.0:
        return [(span, gen.cost[1])]
    points = np.linspace(gen.p_min, gen.p_max, n_segments + 1)
    costs = np.array([gen.cost_at(p) for p in points])
    widths = np.diff(points)
    slopes = np.diff(costs) / widths
    return list(zip(widths, slopes))


def default_contingencies(net: Network) -> list[int]:
    """All in-service lines whose outage keeps the network connected."""
    islanding = bridges(net)
    return [ln.id for ln in net.lines_in_service if ln.id not in islanding]


def _check_contingencies(net: Network, contingencies: list[int] | None) -> list[int]:
    if contingencies is None:
        return default_contingencies(net)
    pos = {ln.id for ln in net.lines_in_service}
    unknown = [cid for cid in contingencies if cid not in pos]
    if unknown:
        raise ValueError(f"unknown or out-of-service contingency line ids: {unknown}")
    if len(set(contingencies)) != len(contingencies):
        raise ValueError("contingency line ids must be distinct")
    islanded = bridges(net)
    islanding = [cid for cid in contingencies if cid in islanded]
    if islanding:
        raise ValueError(
            "these contingencies would island the network: "
            + ", ".join(str(c) for c in islanding))
    return list(contingencies)


def _solve(net: Network, placements: list[tuple[int, int]], p_dc_max: float,
           contingencies: list[int], mode: str, n_segments: int) -> OpfSolution:
    check_p_dc_max(p_dc_max)
    base = ptdf(net)
    lines = net.lines_in_service
    n_l = len(lines)
    line_pos = {ln.id: k for k, ln in enumerate(lines)}
    limits = np.array([ln.limit for ln in lines])
    load = np.array(net.load_vector)
    gens = net.generators
    dc_bound = p_dc_max / net.base_mva

    seg_slots: list[tuple[int, float, float]] = []   # (gen index, width, slope)
    for gi, g in enumerate(gens):
        for width, slope in _gen_segments(g, n_segments):
            seg_slots.append((gi, width, slope))
    n_seg = len(seg_slots)
    seg_cols = np.array([base.bus_column(gens[gi].bus) for gi, _w, _sl in seg_slots],
                        dtype=np.intp)
    n_dc = len(placements)
    dc0 = n_seg
    dcc_start = {}
    n_core = n_seg + n_dc
    if mode == CORRECTIVE:
        for c in contingencies:
            dcc_start[c] = n_core
            n_core += n_dc

    inj_fixed = -load.copy()
    for g in gens:
        inj_fixed[net.bus_index[g.bus]] += g.p_min

    def flow_terms(mat: PtdfMatrix, dc_offset: int) -> tuple[np.ndarray, np.ndarray]:
        """Core-variable coefficients and constant offset of the line flows."""
        coef = np.zeros((mat.values.shape[0], n_core))
        coef[:, :n_seg] = mat.values[:, seg_cols]
        coef[:, dc_offset:dc_offset + n_dc] = cv_matrix(mat, placements).T
        return coef, mat.values @ inj_fixed

    f_base, off_base = flow_terms(base, dc0)

    # One network state per block of limit rows, the intact grid first: flow
    # coefficients over the core variables (n_L, n_core), flow offsets
    # (n_L,), and the outaged line's index (-1 for none).
    states = [(f_base, off_base, -1)]
    if contingencies and mode == PREVENTIVE:
        dist = lodf(net).values
        for cid in contingencies:
            k = line_pos[cid]
            states.append((f_base + dist[:, [k]] * f_base[k],
                           off_base + dist[:, k] * off_base[k], k))
    elif mode == CORRECTIVE:
        # fresh outage PTDFs, padded back to n_L rows at the outaged line
        for cid in contingencies:
            k = line_pos[cid]
            coef, off = flow_terms(ptdf(remove_line(net, cid)), dcc_start[cid])
            states.append((np.insert(coef, k, 0.0, axis=0), np.insert(off, k, 0.0), k))
    coefs, offsets, outaged = (np.array(v) for v in zip(*states))
    keep = np.isfinite(limits) & (np.arange(n_l) != outaged[:, None])
    vecs, offs = coefs[keep], offsets[keep]
    lims = np.broadcast_to(limits, keep.shape)[keep]

    n_slack = 2 * len(vecs)
    n_vars = n_core + n_slack
    a = np.zeros((1 + n_slack, n_vars))
    b = np.zeros(1 + n_slack)
    a[0, :n_seg] = 1.0
    b[0] = float(load.sum()) - sum(g.p_min for g in gens)
    # limit rows alternate +flow <= limit - off and -flow <= limit + off
    a[1::2, :n_core] = vecs
    a[2::2, :n_core] = -vecs
    b[1::2] = lims - offs
    b[2::2] = lims + offs
    np.fill_diagonal(a[1:, n_core:], 1.0)

    lower = np.zeros(n_vars)
    upper = np.full(n_vars, np.inf)
    cost = np.zeros(n_vars)
    upper[:n_seg] = [width for _gi, width, _sl in seg_slots]
    cost[:n_seg] = [slope for _gi, _w, slope in seg_slots]
    lower[n_seg:n_core] = -dc_bound
    upper[n_seg:n_core] = dc_bound

    res = solve_lp(LpProblem.build(cost, a, b, lower, upper))
    if res.status == "infeasible":
        return OpfSolution(status="infeasible", line_ids=tuple(ln.id for ln in lines))
    if res.status != "optimal":
        raise SimplexNumericalError(f"OPF solve ended '{res.status}'")

    x = res.x
    p_gen = [g.p_min for g in gens]
    for s, (gi, _w, _sl) in enumerate(seg_slots):
        p_gen[gi] += x[s]
    flows = f_base @ x[:n_core] + off_base
    total_cost = float(res.objective) + sum(g.cost_at(g.p_min) for g in gens)
    scale = net.base_mva
    hvdc_cont = None
    if mode == CORRECTIVE and contingencies:
        hvdc_cont = {cid: tuple(x[dcc_start[cid] + j] * scale for j in range(n_dc))
                     for cid in contingencies}
    return OpfSolution(
        status="optimal",
        cost=total_cost,
        dispatch=Dispatch(p_gen=tuple(p * scale for p in p_gen)),
        flows=tuple(f * scale for f in flows),
        line_ids=tuple(ln.id for ln in lines),
        hvdc_base=tuple(x[dc0 + j] * scale for j in range(n_dc)),
        hvdc_contingency=hvdc_cont,
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
        raise ValueError(f"mode must be {PREVENTIVE} or {CORRECTIVE}, got '{mode}'")
    conts = _check_contingencies(net, contingencies)
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
        raise InfeasibleError("opf")
    sec = sc_opf(net, placements, contingencies, mode, p_dc_max, n_segments)
    if sec.status != "optimal":
        raise InfeasibleError(f"sc-opf {mode}")
    cos_abs = sec.cost - opt.cost
    if opt.cost > 0.0:
        cos_percent = 100.0 * cos_abs / opt.cost
    else:
        cos_percent = 0.0 if abs(cos_abs) <= 1e-9 else math.inf
    return CosReport(c_opf=opt.cost, c_scopf=sec.cost,
                     cos_abs=cos_abs, cos_percent=cos_percent)


@dataclass(frozen=True)
class CurvePoint:
    count: int
    pair: tuple[int, int] | None        # controller added at this count
    cos_abs: float
    cos_percent: float


@dataclass(frozen=True)
class CosCurve:
    points: tuple[CurvePoint, ...]


def cos_curve(net: Network, max_count: int, algorithm: str = "cv",
              contingencies: list[int] | None = None, mode: str = CORRECTIVE,
              strategy: DeltaStrategy | None = None, p_dc_max: float = math.inf,
              n_segments: int = DEFAULT_SEGMENTS) -> CosCurve:
    """CoS after each of 0..max_count greedily placed controllers."""
    if max_count < 0:
        raise ValueError("max_count must be >= 0")
    if algorithm not in ("cv", "lp"):
        raise ValueError(f"algorithm must be 'cv' or 'lp', got '{algorithm}'")
    conts = _check_contingencies(net, contingencies)
    placements: list[tuple[int, int]] = []
    if max_count > 0:
        mat = ptdf(net)
        if algorithm == "cv":
            placements, _tables = run_cv_placement(mat, max_count)
        else:
            placements, _tables = run_lp_placement(
                net, mat, max_count, strategy or DeltaStrategy.constant(), p_dc_max)
    points = []
    for k in range(max_count + 1):
        report = cost_of_security(net, placements[:k], conts, mode,
                                  p_dc_max, n_segments)
        points.append(CurvePoint(
            count=k, pair=placements[k - 1] if k else None,
            cos_abs=report.cos_abs, cos_percent=report.cos_percent))
    return CosCurve(points=tuple(points))
