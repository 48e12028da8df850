"""Reference computations that do not import ``gridctrl``.

Everything here works from the generator's case dicts in MW and per-unit
reactance, with numpy and ``scipy.optimize.linprog(method="highs")``:

* flows from angle solves on a Laplacian assembled line by line, on the
  intact grid and on each outaged grid;
* bridges by depth-first search;
* PTDF, controllability vectors and LODF from those angle solves;
* conical-volume and orthant-volume scores, cos-phi by least squares;
* control effort as ||A^-1 delta||_1 under the setpoint bound, with HiGHS
  for singular blocks;
* DC OPF and SC-OPF costs from an angle-based LP with one angle vector
  (and, in corrective mode, one HVDC setpoint vector) per outage.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

# The definitions' constants, as place_cv documents them (and place-cv defaults to).
VOLUME_EPS = 1e-9
COS_THRESHOLD = 0.2
CANDIDATE_CAP = 10
SPAN_COS = 1.0 - 1e-9


class Grid:
    """Index view of a case dict."""

    def __init__(self, case: dict):
        self.case = case
        self.bus_ids = list(case["buses"])
        self.idx = {b: i for i, b in enumerate(self.bus_ids)}
        self.slack = self.idx[case["slack"]]
        self.n_bus = len(self.bus_ids)
        self.line_ids = [ln[0] for ln in case["lines"]]
        self.n_line = len(self.line_ids)
        self.frm = np.array([self.idx[ln[1]] for ln in case["lines"]])
        self.to = np.array([self.idx[ln[2]] for ln in case["lines"]])
        self.x = np.array([ln[3] for ln in case["lines"]], dtype=float)
        self.limit = np.array([math.inf if ln[4] is None else ln[4]
                               for ln in case["lines"]], dtype=float)
        self.load = np.zeros(self.n_bus)
        for b, p in case["loads"]:
            self.load[self.idx[b]] += p
        self.pairs = [(m, n) for i, m in enumerate(sorted(self.bus_ids))
                      for n in sorted(self.bus_ids)[i + 1:]]

    def angle_flows(self, inj: np.ndarray, out: int | None = None) -> np.ndarray:
        """Line flows for injections ``inj`` (n_bus,) or (n_bus, k).

        The slack angle is pinned at zero; the outaged line (by index)
        carries zero flow.
        """
        b = np.zeros((self.n_bus, self.n_bus))
        for k in range(self.n_line):
            if k == out:
                continue
            i, j, w = self.frm[k], self.to[k], 1.0 / self.x[k]
            b[i, i] += w
            b[j, j] += w
            b[i, j] -= w
            b[j, i] -= w
        keep = [i for i in range(self.n_bus) if i != self.slack]
        inj = np.asarray(inj, dtype=float)
        theta = np.zeros(inj.shape)
        theta[keep] = np.linalg.solve(b[np.ix_(keep, keep)], inj[keep])
        flows = (theta[self.frm] - theta[self.to]) / (
            self.x if inj.ndim == 1 else self.x[:, None])
        if out is not None:
            flows[out] = 0.0
        return flows

    @cached_property
    def bridges(self) -> frozenset[int]:
        """Indices of lines whose removal disconnects the grid (DFS per line)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_bus)]
        for k in range(self.n_line):
            adj[self.frm[k]].append((self.to[k], k))
            adj[self.to[k]].append((self.frm[k], k))
        found = set()
        for k in range(self.n_line):
            seen = {int(self.frm[k])}
            stack = [int(self.frm[k])]
            while stack:
                u = stack.pop()
                for v, via in adj[u]:
                    if via != k and v not in seen:
                        seen.add(v)
                        stack.append(v)
            if int(self.to[k]) not in seen:
                found.add(k)
        return frozenset(found)

    @cached_property
    def ptdf(self) -> np.ndarray:
        """(n_line, n_bus): flow per unit injected at a bus and taken at the slack."""
        return self.angle_flows(np.eye(self.n_bus))

    @cached_property
    def cvs(self) -> np.ndarray:
        """(n_line, len(pairs)): controllability vector PTDF_m - PTDF_n per pair."""
        cols_m = [self.idx[m] for m, _ in self.pairs]
        cols_n = [self.idx[n] for _, n in self.pairs]
        return self.ptdf[:, cols_m] - self.ptdf[:, cols_n]

    @cached_property
    def lodf(self) -> np.ndarray:
        """LODF by re-solving each outaged grid; bridge columns are NaN."""
        bridges = self.bridges
        out = np.zeros((self.n_line, self.n_line))
        for k in range(self.n_line):
            if k in bridges:
                out[:, k] = np.nan
                continue
            inj = np.zeros(self.n_bus)
            inj[self.frm[k]] += 1.0
            inj[self.to[k]] -= 1.0
            pre = self.angle_flows(inj)
            post = self.angle_flows(inj, out=k)
            out[:, k] = (post - pre) / pre[k]
            out[k, k] = -1.0
        return out


# ---------------------------------------------------------------------------
# placement scores


def conical_scores(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dimension, log_volume) per column: the simplex on diag(|v|)."""
    mags = np.abs(vectors)
    dims = (mags > VOLUME_EPS).sum(axis=0)
    logs = np.log(np.maximum(mags, VOLUME_EPS)).sum(axis=0)
    return dims, logs


def cos_phi(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """cos of the angle between each column and span(basis), by least squares."""
    coef, *_ = np.linalg.lstsq(basis, vectors, rcond=None)
    proj = basis @ coef
    return np.minimum(np.linalg.norm(proj, axis=0) / np.linalg.norm(vectors, axis=0), 1.0)


def orthant_score(vectors: list[np.ndarray]) -> tuple[int, float]:
    """Joint reach of vectors: sum over sign orthants of the simplex volume on
    the componentwise largest |combination| in that orthant.

    Vectors equal up to sign count once; combinations that cancel (below
    1e-12 of the largest entry) are dropped; zero components count as
    positive.  Returns (dimension, log of the summed volume).
    """
    dirs: list[np.ndarray] = []
    for v in vectors:
        tol = 1e-9 * max(float(np.abs(v).max()), 1e-300)
        if not any(np.abs(v - u).max() <= tol or np.abs(v + u).max() <= tol for u in dirs):
            dirs.append(v)
    combos = []
    for signs in itertools.product((-1, 0, 1), repeat=len(dirs)):
        if any(signs):
            combo = np.zeros_like(dirs[0])
            for s, d in zip(signs, dirs):
                if s:
                    combo = combo + s * d
            combos.append(combo)
    scale = max(float(np.abs(c).max()) for c in combos)
    extremes: dict[bytes, np.ndarray] = {}
    for c in combos:
        if np.abs(c).max() <= 1e-12 * scale:
            continue
        key = (c >= 0.0).tobytes()
        prev = extremes.get(key)
        extremes[key] = np.abs(c) if prev is None else np.maximum(prev, np.abs(c))
    logs = [float(np.log(np.maximum(m, VOLUME_EPS)).sum()) for m in extremes.values()]
    dim = max(int((m > VOLUME_EPS).sum()) for m in extremes.values())
    top = max(logs)
    return dim, top + math.log(sum(math.exp(v - top) for v in logs))


# ---------------------------------------------------------------------------
# control effort


def _effort_lp(a: np.ndarray, delta: np.ndarray, p_max: float) -> float | None:
    """min sum|x| s.t. a x = delta, |x| <= p_max, by HiGHS."""
    k = a.shape[1]
    res = linprog(np.ones(2 * k), A_eq=np.hstack([a, -a]), b_eq=delta,
                  bounds=[(0.0, None if math.isinf(p_max) else p_max)] * (2 * k),
                  method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS effort LP ended with status {res.status}")
    return float(res.fun)


AMBIGUOUS_REL = 1e-7


def effort_sets(blocks: np.ndarray, delta: np.ndarray, p_max: float):
    """Effort per square block.

    ``blocks`` is (s, k, k): the CV rows of the k targets for s target sets;
    ``delta`` the (k,) target changes in MW.  Returns arrays ``effort`` (NaN
    when infeasible) and ``ambiguous`` (the setpoint bound is met within a
    relative 1e-7, so either verdict is acceptable; such a set carries the
    effort it has when counted feasible).
    """
    s, k, _ = blocks.shape
    effort = np.full(s, np.nan)
    ambiguous = np.zeros(s, dtype=bool)
    cond = np.linalg.cond(blocks)
    regular = np.isfinite(cond) & (cond < 1e10)
    if regular.any():
        rhs = np.broadcast_to(delta, (int(regular.sum()), k))[..., None]
        x = np.linalg.solve(blocks[regular], rhs)[..., 0]
        peak = np.abs(x).max(axis=1)
        amb = np.abs(peak - p_max) <= AMBIGUOUS_REL * p_max
        effort[regular] = np.where((peak <= p_max) | amb, np.abs(x).sum(axis=1), np.nan)
        ambiguous[regular] = amb
    for i in np.flatnonzero(~regular):
        a = blocks[i]
        sol, *_ = np.linalg.lstsq(a, delta, rcond=None)
        if np.abs(a @ sol - delta).max() > 1e-6 * np.abs(delta).max():
            continue                      # delta is outside the range of a
        e = _effort_lp(a, delta, p_max)
        effort[i] = np.nan if e is None else e
    return effort, ambiguous


def effort_table(cvs: np.ndarray, existing: list[int], delta_mw: float,
                 p_max: float) -> list[dict]:
    """Per candidate column of ``cvs``: effort summed over all C(n_L, k)
    target sets, k = len(existing) + 1, with the earlier picks ``existing``
    (column indices) first and a target change of ``delta_mw`` on every line.

    Each entry has ``lo_inf``/``hi_inf`` (the range of acceptable infeasible
    counts), ``total`` (effort of the certainly feasible sets) and ``amb``
    (effort of the ambiguous sets, which may or may not be counted).
    """
    k = len(existing) + 1
    sets = np.array(list(itertools.combinations(range(cvs.shape[0]), k)))
    delta = np.full(k, delta_mw)
    out = []
    for j in range(cvs.shape[1]):
        blocks = cvs[:, existing + [j]][sets]              # (s, k, k)
        effort, amb = effort_sets(blocks, delta, p_max)
        certain_inf = int(np.isnan(effort).sum())
        out.append({
            "lo_inf": certain_inf,
            "hi_inf": certain_inf + int(amb.sum()),
            "total": float(effort[~np.isnan(effort) & ~amb].sum()),
            "amb": float(effort[amb].sum()),
            "sets": len(sets),
        })
    return out


# ---------------------------------------------------------------------------
# DC OPF and SC-OPF


def opf_cost(grid: Grid, placements: list[tuple[int, int]], mode: str | None) -> float | None:
    """Least cost in $/h, or None when infeasible.

    ``mode`` None is the plain DC OPF; 'preventive' shares the dispatch and
    HVDC setpoints across every non-bridge outage; 'corrective' shares the
    dispatch only.  Variables per state: bus angles (slack pinned at 0) and,
    where the state owns them, unbounded HVDC setpoints; flows are angle
    differences over reactance, so no PTDF or LODF enters.
    """
    gens = grid.case["gens"]
    n_g, n_dc, n_b = len(gens), len(placements), grid.n_bus
    outages = [] if mode is None else sorted(set(range(grid.n_line)) - grid.bridges)
    states = [None] + outages
    own_dc = [True] + [mode == "corrective"] * len(outages)

    offsets, n_var = [], n_g
    dc_at = []
    for own in own_dc:
        if own:
            dc_at.append(n_var)
            n_var += n_dc
        else:
            dc_at.append(dc_at[0])
        offsets.append(n_var)
        n_var += n_b

    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for state, dc0, th0 in zip(states, dc_at, offsets):
        lap = np.zeros((n_b, n_var))
        for k in range(grid.n_line):
            if k == state:
                continue
            i, j, w = grid.frm[k], grid.to[k], 1.0 / grid.x[k]
            lap[i, th0 + i] += w
            lap[i, th0 + j] -= w
            lap[j, th0 + j] += w
            lap[j, th0 + i] -= w
            if math.isfinite(grid.limit[k]):
                row = np.zeros(n_var)
                row[th0 + i], row[th0 + j] = w, -w
                a_ub += [row, -row]
                b_ub += [grid.limit[k], grid.limit[k]]
        for g, (bus, *_rest) in enumerate(gens):
            lap[grid.idx[bus], g] -= 1.0
        for d, (m, n) in enumerate(placements):
            lap[grid.idx[m], dc0 + d] -= 1.0
            lap[grid.idx[n], dc0 + d] += 1.0
        a_eq.append(lap)
        b_eq.append(-grid.load)

    bounds = [(lo, hi) for _b, lo, hi, _c in gens]
    for own in own_dc:
        if own:
            bounds += [(None, None)] * n_dc
        bounds += [(0.0, 0.0) if i == grid.slack else (None, None) for i in range(n_b)]
    cost = np.zeros(n_var)
    cost[:n_g] = [c for *_rest, c in gens]
    res = linprog(cost, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.vstack(a_eq), b_eq=np.concatenate(b_eq),
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS OPF ended with status {res.status}")
    return float(res.fun)


def injections(grid: Grid, p_gen, placements, p_dc) -> np.ndarray:
    """Nodal MW injections of a dispatch plus HVDC setpoints, minus loads."""
    inj = -grid.load.copy()
    for (bus, *_rest), p in zip(grid.case["gens"], p_gen):
        inj[grid.idx[bus]] += p
    for (m, n), p in zip(placements, p_dc):
        inj[grid.idx[m]] += p
        inj[grid.idx[n]] -= p
    return inj
