"""Output checks: every file the program wrote, against the oracles.

Each ``check_*`` function takes the case dict a job ran on and the texts of
the job's output files, and returns a list of problems (empty when the
outputs are right).  Nothing is compared with a stored copy of earlier
output.  Where the program picks a best candidate, the pick only has to be
best within tolerance, and each greedy step is judged given the program's
own earlier picks.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy.stats import rankdata

import oracles
from oracles import Grid

MATRIX_TOL = 1e-9        # PTDF and CV entries, printed with 12 digits
LODF_TOL = 1e-8          # relative to 1 + |value|
SCORE_TOL = 1e-7         # log volumes and cos-phi, relative to 1 + |value|
RHO_TOL = 1e-6
EFFORT_RTOL = 1e-7
COST_RTOL = 1e-6         # OPF costs against HiGHS
FLOW_TOL = 1e-5          # MW, reported flows against angle flows
LIMIT_RTOL = 1e-6        # flows within their limits

EFFORT_DELTA_MW = 100.0  # the program's default 'const' strategy


def _csv_matrix(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Header, first column (ids) and the numeric body of a CSV matrix."""
    header, _, body = text.partition("\n")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return header.split(","), data[:, 0], data[:, 1:]


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# ---------------------------------------------------------------------------
# screen pass: validate, ptdf, lodf, bounds, cv --all, metrics, place-cv


def check_validate(grid: Grid, text: str) -> list[str]:
    return [] if json.loads(text) == [] else [f"validate reported {text.strip()}"]


def check_ptdf(grid: Grid, text: str) -> list[str]:
    header, ids, values = _csv_matrix(text)
    errs = []
    if header[1:] != [f"bus_{b}" for b in grid.bus_ids]:
        errs.append("ptdf: bus columns are not the case's buses in file order")
    if list(ids.astype(int)) != grid.line_ids:
        errs.append("ptdf: line rows are not the case's lines in file order")
    elif np.abs(values - grid.ptdf).max() > MATRIX_TOL:
        errs.append(f"ptdf: off the angle-solve PTDF by {np.abs(values - grid.ptdf).max():.3g}")
    return errs


def check_lodf(grid: Grid, text: str) -> list[str]:
    header, ids, values = _csv_matrix(text)
    expect = grid.lodf
    if header[1:] != [f"out_{lid}" for lid in grid.line_ids] or list(ids.astype(int)) != grid.line_ids:
        return ["lodf: rows or columns are not the case's lines in file order"]
    if not np.array_equal(np.isnan(values), np.isnan(expect)):
        return ["lodf: islanded (NaN) columns differ from the DFS bridges"]
    ok = np.isnan(expect) | (np.abs(values - expect) <= LODF_TOL * (1.0 + np.abs(expect)))
    return [] if ok.all() else [f"lodf: {int((~ok).sum())} entries off the outage re-solves"]


def check_bounds(grid: Grid, text: str) -> list[str]:
    got = json.loads(text)
    want = {"series_bound": grid.n_line - grid.n_bus + 1,
            "parallel_bound": grid.n_bus - 1,
            "ptdf_rank": int(np.linalg.matrix_rank(grid.ptdf))}
    return [] if got == want else [f"bounds: got {got}, want {want}"]


def check_cv_all(grid: Grid, text: str) -> list[str]:
    header, ids, values = _csv_matrix(text)
    if header[1:] != [f"cv_{m}_{n}" for m, n in grid.pairs] or list(ids.astype(int)) != grid.line_ids:
        return ["cv: columns are not every sorted bus pair, or rows not the lines"]
    err = np.abs(values - grid.cvs).max()
    return [] if err <= MATRIX_TOL else [f"cv: off PTDF_m - PTDF_n by {err:.3g}"]


def _ranks_ok(values: np.ndarray, ranks: np.ndarray, tol: float) -> bool:
    """Rank 1 = greatest; values within ``tol`` of each other may share or
    swap ranks."""
    order = np.sort(values)
    n = len(values)
    lo = 1 + n - np.searchsorted(order, values + tol, side="right")
    hi = n - np.searchsorted(order, values - tol, side="left")
    return bool(np.all((ranks >= lo) & (ranks <= hi)))


def _volume_key(dims, logs) -> np.ndarray:
    return np.asarray(dims, dtype=float) * 1e6 + np.asarray(logs, dtype=float)


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = rankdata(-a), rankdata(-b)
    ra, rb = ra - ra.mean(), rb - rb.mean()
    return float(ra @ rb / math.sqrt(float(ra @ ra) * float(rb @ rb)))


def check_metrics(grid: Grid, text: str) -> list[str]:
    lines = text.strip("\n").split("\n")
    if lines[0] != "pair,norm1,log_volume,dimension,rank_norm1,rank_volume":
        return ["metrics: unexpected header"]
    if not lines[-1].startswith("spearman_rho="):
        return ["metrics: missing spearman_rho line"]
    rows = [ln.split(",") for ln in lines[1:-1]]
    if [tuple(int(b) for b in r[0].split("-")) for r in rows] != grid.pairs:
        return ["metrics: rows are not every sorted bus pair"]
    norm1, lv, dim, rank_n, rank_v = (np.array([float(r[i]) for r in rows]) for i in range(1, 6))
    cvs = grid.cvs
    want_norm1 = np.abs(cvs).sum(axis=0)
    want_dim, want_lv = oracles.conical_scores(cvs)
    errs = []
    if np.abs(norm1 - want_norm1).max() > SCORE_TOL * (1 + want_norm1.max()):
        errs.append("metrics: norm1 off the oracle")
    if not np.array_equal(dim, want_dim):
        errs.append("metrics: dimensions off the oracle")
    if np.any(np.abs(lv - want_lv) > SCORE_TOL * (1 + np.abs(want_lv))):
        errs.append("metrics: log volumes off the oracle")
    if not _ranks_ok(want_norm1, rank_n, SCORE_TOL * (1 + want_norm1.max())):
        errs.append("metrics: 1-norm ranks do not order the 1-norms")
    vol_key = _volume_key(want_dim, want_lv)
    if not _ranks_ok(vol_key, rank_v, SCORE_TOL * (1 + np.abs(want_lv).max())):
        errs.append("metrics: volume ranks do not order the volumes")
    rho = float(lines[-1].split("=", 1)[1])
    want_rho = _spearman(want_norm1, vol_key)
    if abs(rho - want_rho) > RHO_TOL:
        errs.append(f"metrics: spearman_rho {rho} vs oracle {want_rho}")
    return errs


def _score_close(got: tuple[int, float], want: tuple[int, float]) -> bool:
    return got[0] == want[0] and _close(got[1], want[1], SCORE_TOL)


def _best_within_tol(score: tuple[int, float], others) -> bool:
    """``score`` is the lexicographic max of ``others`` up to SCORE_TOL."""
    top = max(others)
    return score[0] == top[0] and score[1] >= top[1] - SCORE_TOL * (1 + abs(top[1]))


def cv_step(grid: Grid, picks: list[tuple[int, int]],
            listed: list[tuple[tuple[int, int], float, tuple[int, float]]] | None,
            chosen: tuple[int, int]) -> list[str]:
    """Check one follow-up greedy step by conical volume.

    ``picks`` are the program's earlier picks, ``chosen`` its pick at this
    step, ``listed`` its candidate table as (pair, cos_phi, score) or None
    when the program printed no table (cos-curve).
    """
    cvs = grid.cvs
    col = {p: i for i, p in enumerate(grid.pairs)}
    basis = cvs[:, [col[p] for p in picks]]
    remaining = [p for p in grid.pairs if p not in set(picks)]
    cos = oracles.cos_phi(basis, cvs[:, [col[p] for p in remaining]])
    cos_of = dict(zip(remaining, cos))
    strict = [p for p in remaining if cos_of[p] <= oracles.COS_THRESHOLD]
    if not strict:
        strict = [p for p in remaining if cos_of[p] < oracles.SPAN_COS]
    strict = sorted(strict, key=lambda p: (cos_of[p], p))[:oracles.CANDIDATE_CAP]

    def score(p):
        return oracles.orthant_score([basis[:, i] for i in range(basis.shape[1])] + [cvs[:, col[p]]])

    errs = []
    if listed is None:
        limit = max(cos_of[p] for p in strict) + SCORE_TOL
        if chosen not in cos_of or cos_of[chosen] > limit:
            return [f"cv step {len(picks) + 1}: pick {chosen} is not a qualifying candidate"]
        if not _best_within_tol(score(chosen), [score(p) for p in strict]):
            errs.append(f"cv step {len(picks) + 1}: pick {chosen} is not the best volume")
        return errs

    pairs = [p for p, _c, _s in listed]
    if len(set(pairs)) != len(pairs) or any(p not in cos_of for p in pairs):
        return [f"cv step {len(picks) + 1}: candidates repeat or were already placed"]
    for p, c, _s in listed:
        if not _close(c, cos_of[p], SCORE_TOL):
            errs.append(f"cv step {len(picks) + 1}: cos_phi of {p} is {c}, oracle {cos_of[p]}")
    widest = max(cos_of[p] for p in pairs)
    missed = [p for p in remaining if p not in pairs
              and cos_of[p] < widest - SCORE_TOL and cos_of[p] <= oracles.COS_THRESHOLD - SCORE_TOL]
    if missed or len(pairs) != len(strict):
        errs.append(f"cv step {len(picks) + 1}: candidate set differs from the cos-phi filter")
    scores = {p: score(p) for p in pairs}
    for p, _c, s in listed:
        if not _score_close(s, scores[p]):
            errs.append(f"cv step {len(picks) + 1}: score of {p} is {s}, oracle {scores[p]}")
    if chosen not in scores or not _best_within_tol(scores[chosen], list(scores.values())):
        errs.append(f"cv step {len(picks) + 1}: pick {chosen} is not the best volume")
    return errs


def cv_first(grid: Grid, chosen, table=None) -> list[str]:
    """Check the first pick (largest conical volume) and, when given, the
    table of every pair's score."""
    dims, logs = oracles.conical_scores(grid.cvs)
    scores = {p: (int(d), float(v)) for p, d, v in zip(grid.pairs, dims, logs)}
    errs = []
    if table is not None:
        if sorted(p for p, _s in table) != grid.pairs:
            return ["cv step 1: table does not list every pair once"]
        bad = [p for p, s in table if not _score_close(s, scores[p])]
        if bad:
            errs.append(f"cv step 1: conical volumes off the oracle for {bad[:3]}")
    if chosen not in scores or not _best_within_tol(scores[chosen], list(scores.values())):
        errs.append(f"cv step 1: pick {chosen} is not the largest conical volume")
    return errs


def check_place_cv(grid: Grid, text: str) -> list[str]:
    head, _, table = text.partition("\n\n")
    hl = head.split("\n")
    if hl[0] != "placement,pair":
        return ["place-cv: unexpected layout"]
    picks = [tuple(int(b) for b in ln.split(",")[1].split("-")) for ln in hl[1:]]
    steps: dict[int, list] = {}
    chosen: dict[int, list] = {}
    for ln in table.strip("\n").split("\n")[1:]:
        step, pair, cos, dim, lv, sel = ln.split(",")
        p = tuple(int(b) for b in pair.split("-"))
        steps.setdefault(int(step), []).append(
            (p, None if cos == "" else float(cos), (int(dim), float(lv))))
        if sel == "1":
            chosen.setdefault(int(step), []).append(p)
    if sorted(steps) != list(range(1, len(picks) + 1)):
        return ["place-cv: steps do not match the placements"]
    errs = []
    for s in steps:
        if chosen.get(s) != [picks[s - 1]]:
            errs.append(f"place-cv: step {s} does not select exactly its placement")
    errs += cv_first(grid, picks[0], [(p, sc) for p, _c, sc in steps[1]])
    if steps[1][0][0] != picks[0]:
        errs.append("place-cv: step 1 table is not ranked best first")
    for s in range(2, len(picks) + 1):
        errs += cv_step(grid, picks[:s - 1], steps[s], picks[s - 1])
    return errs


SCREEN_CHECKS = {
    "validate": check_validate, "ptdf": check_ptdf, "lodf": check_lodf,
    "bounds": check_bounds, "cv": check_cv_all, "metrics": check_metrics,
    "place-cv": check_place_cv,
}


# ---------------------------------------------------------------------------
# effort: place-lp --count K --pdc-max P --output json


def check_place_lp(grid: Grid, text: str, count: int, p_dc_max: float) -> list[str]:
    doc = json.loads(text)
    picks = [tuple(p) for p in doc["placements"]]
    if len(picks) != count or len(doc["steps"]) != count:
        return [f"place-lp: expected {count} placements and steps"]
    cvs = grid.cvs
    col = {p: i for i, p in enumerate(grid.pairs)}
    errs = []
    for k, rows in enumerate(doc["steps"], start=1):
        n_sets = math.comb(grid.n_line, k)
        if sorted(tuple(r["pair"]) for r in rows) != grid.pairs:
            errs.append(f"place-lp: step {k} does not rank every pair once")
            continue
        if any(r["lp_count"] != n_sets for r in rows):
            errs.append(f"place-lp: step {k} lp_count is not C({grid.n_line},{k}) = {n_sets}")
        want = oracles.effort_table(cvs, [col[p] for p in picks[:k - 1]],
                                    EFFORT_DELTA_MW, p_dc_max)
        for r in rows:
            w = want[col[tuple(r["pair"])]]
            if not w["lo_inf"] <= r["infeasible_sets"] <= w["hi_inf"]:
                errs.append(f"place-lp: step {k} pair {r['pair']} infeasible_sets "
                            f"{r['infeasible_sets']}, oracle {w['lo_inf']}..{w['hi_inf']}")
            slack = EFFORT_RTOL * (1.0 + w["total"] + w["amb"])
            if not w["total"] - slack <= r["total_effort_mw"] <= w["total"] + w["amb"] + slack:
                errs.append(f"place-lp: step {k} pair {r['pair']} effort "
                            f"{r['total_effort_mw']}, oracle {w['total']}")
        keys = [(r["infeasible_sets"] == r["lp_count"], r["total_effort_mw"]) for r in rows]
        for a, b in zip(keys, keys[1:]):
            if a[0] > b[0] or (a[0] == b[0] and a[1] > b[1] * (1 + EFFORT_RTOL) + EFFORT_RTOL):
                errs.append(f"place-lp: step {k} is not ranked by effort")
                break
        if tuple(rows[0]["pair"]) != picks[k - 1]:
            errs.append(f"place-lp: step {k} placement is not its top-ranked pair")
        # the pick must have a feasible set if any pair has one, and then
        # the least summed effort
        some_feasible = [w for w in want if w["lo_inf"] < w["sets"]]
        w_pick = want[col[picks[k - 1]]]
        if some_feasible:
            least = min(w["total"] + w["amb"] for w in some_feasible)
            if w_pick["lo_inf"] == w_pick["sets"]:
                errs.append(f"place-lp: step {k} picked a pair with no feasible target set")
            elif w_pick["total"] > least * (1 + EFFORT_RTOL) + EFFORT_RTOL:
                errs.append(f"place-lp: step {k} pick {picks[k - 1]} does not have the least effort")
    if doc["lp_count"] != len(grid.pairs) * math.comb(grid.n_line, count):
        errs.append(f"place-lp: lp_count {doc['lp_count']} is not "
                    f"{len(grid.pairs)} x C({grid.n_line},{count})")
    return errs


# ---------------------------------------------------------------------------
# secure: cos-curve --mode corrective, then sc-opf --mode preventive


def _post_contingency_ok(grid: Grid, inj: np.ndarray) -> bool:
    for k in sorted(set(range(grid.n_line)) - grid.bridges):
        flows = grid.angle_flows(inj, out=k)
        if np.any(np.abs(flows) > grid.limit * (1 + LIMIT_RTOL) + LIMIT_RTOL):
            return False
    return True


def check_cos_curve(grid: Grid, text: str, count: int) -> tuple[list[str], list]:
    """Returns problems, and the curve's placements for the follow-up solve."""
    curve = json.loads(text)
    if [pt["count"] for pt in curve] != list(range(count + 1)) or curve[0]["pair"] is not None:
        return ["cos-curve: points are not counts 0..max"], []
    picks = [tuple(pt["pair"]) for pt in curve[1:]]
    errs = []
    if picks:
        errs += cv_first(grid, picks[0])
        for s in range(1, len(picks)):
            errs += cv_step(grid, picks[:s], None, picks[s])
    for pt in curve:
        placed = picks[:pt["count"]]
        c_opf = oracles.opf_cost(grid, placed, None)
        c_corr = oracles.opf_cost(grid, placed, "corrective")
        if c_opf is None or c_corr is None:
            errs.append(f"cos-curve: count {pt['count']} is infeasible for HiGHS")
            continue
        if not c_opf <= c_corr * (1 + COST_RTOL):
            errs.append(f"cos-curve: oracle C_OPF {c_opf} above C_corrective {c_corr}")
        if abs(pt["cos_abs"] - (c_corr - c_opf)) > COST_RTOL * c_opf:
            errs.append(f"cos-curve: count {pt['count']} cos_abs {pt['cos_abs']}, "
                        f"oracle {c_corr - c_opf}")
        if abs(pt["cos_percent"] - 100 * (c_corr - c_opf) / c_opf) > 100 * COST_RTOL:
            errs.append(f"cos-curve: count {pt['count']} cos_percent {pt['cos_percent']}, "
                        f"oracle {100 * (c_corr - c_opf) / c_opf}")
    return errs, picks


def check_sc_opf_preventive(grid: Grid, text: str, picks: list) -> list[str]:
    sol = json.loads(text)
    if sol.get("status") != "optimal":
        return [f"sc-opf: status {sol.get('status')}"]
    gens = grid.case["gens"]
    p_gen = [d["p_mw"] for d in sol["dispatch"]]
    p_dc = sol.get("hvdc_base_mw", [])
    errs = []
    if [d["bus"] for d in sol["dispatch"]] != [g[0] for g in gens] or len(p_dc) != len(picks):
        return ["sc-opf: dispatch or HVDC entries do not match the case and placements"]
    c_prev = oracles.opf_cost(grid, picks, "preventive")
    c_corr = oracles.opf_cost(grid, picks, "corrective")
    c_opf = oracles.opf_cost(grid, picks, None)
    if c_prev is None:
        return ["sc-opf: HiGHS finds the preventive problem infeasible"]
    if abs(sol["cost"] - c_prev) > COST_RTOL * c_prev:
        errs.append(f"sc-opf: cost {sol['cost']}, oracle {c_prev}")
    if c_opf is None or c_corr is None or not (
            c_opf <= c_corr * (1 + COST_RTOL) and c_corr <= sol["cost"] * (1 + COST_RTOL)):
        errs.append(f"sc-opf: C_OPF {c_opf} <= C_corrective {c_corr} <= C_preventive "
                    f"{sol['cost']} does not hold")
    dispatch_cost = sum(g[3] * p for g, p in zip(gens, p_gen))
    if abs(dispatch_cost - sol["cost"]) > COST_RTOL * c_prev:
        errs.append(f"sc-opf: cost {sol['cost']} is not the dispatch's cost {dispatch_cost}")
    if any(p < lo - FLOW_TOL or p > hi + FLOW_TOL for (_b, lo, hi, _c), p in zip(gens, p_gen)):
        errs.append("sc-opf: a generator is outside its bounds")
    inj = oracles.injections(grid, p_gen, picks, p_dc)
    if abs(inj.sum()) > FLOW_TOL * (1 + grid.load.sum()):
        errs.append(f"sc-opf: dispatch does not balance load (mismatch {inj.sum():.3g} MW)")
        return errs
    flows = np.array([f["flow_mw"] for f in sol["flows"]])
    if [f["line_id"] for f in sol["flows"]] != grid.line_ids:
        errs.append("sc-opf: flows are not listed per line in file order")
    elif np.abs(flows - grid.angle_flows(inj)).max() > FLOW_TOL:
        errs.append("sc-opf: flows are not the angle flows of the dispatch and HVDC setpoints")
    if np.any(np.abs(grid.angle_flows(inj)) > grid.limit * (1 + LIMIT_RTOL) + LIMIT_RTOL):
        errs.append("sc-opf: a base-case flow exceeds its limit")
    if not _post_contingency_ok(grid, inj):
        errs.append("sc-opf: a post-contingency flow exceeds its limit")
    return errs
