"""Command-line frontend.

Usage: gridctrl <subcommand> <case> [options]

Exit codes follow the exception class: 0 success, 1 opf.InfeasibleError,
2 netmodel.InputError or OSError, 3 any other (the LP solver gave up, or a
bug).  Every failure prints a single line to stderr starting with
"infeasible: " (exit 1), "error: " (exit 2) or "internal: " (exit 3).
Outputs are deterministic byte-for-byte: CSV uses 12 significant digits,
'.' decimals, ',' separators and LF endings; JSON uses Python's
shortest-round-trip float form and prints a NaN or infinite value as null.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import opf as opf_mod
from .bounds import bounds as bounds_op
from .bounds import solve_fixed_flows
from .dcsens import InjectionProfile, cv_matrix, lodf, node_pairs, ptdf
from .netmodel import InputError, Network, merge_parallel_lines, read_case, validate
from .place_cv import (
    CANDIDATE_CAP,
    COS_THRESHOLD,
    metric_report,
    run_cv_placement,
)
from .place_lp import DeltaStrategy, compare_placements, run_lp_placement

_STRATEGY_FLAGS = {"const": "constant", "limit": "fraction_of_limit",
                   "reactance": "scaled_reactance"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


# --------------------------------------------------------------------------
# output

# CSV float form, applied to x + 0.0 so that -0.0 prints as 0
_FLOAT = "%.12g"


def _cell(x) -> str:
    """CSV cell: a float in _FLOAT form, None empty, a node pair as M-N,
    anything else by str."""
    if isinstance(x, float):
        return _FLOAT % (x + 0.0)
    if x is None:
        return ""
    if isinstance(x, tuple):
        return f"{x[0]}-{x[1]}"
    return str(x)


def _matrix_rows(columns, line_ids, values: np.ndarray):
    """A line_id header over ``columns``, then each line's id and row of
    ``values``, the row formatted whole as one cell."""
    yield "line_id", ",".join(columns)
    fmt = ",".join([_FLOAT] * values.shape[1])
    for lid, row in zip(line_ids, values):
        yield lid, fmt % tuple((row + 0.0).tolist())


@contextlib.contextmanager
def _sink(path: str | None):
    """The file at ``path``, or stdout when no path is given.

    Commands open it only once they have their result, so an error raised
    before that leaves no output and no file behind.
    """
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_csv(path: str | None, rows) -> None:
    with _sink(path) as fh:
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def _write_json(path: str | None, obj, indent=2, separators=None) -> None:
    with _sink(path) as fh:
        json.dump(obj, fh, indent=indent, separators=separators, allow_nan=False)
        fh.write("\n")


def _write_json_matrix(path: str | None, head: dict, values: np.ndarray) -> None:
    """``_write_json(path, {**head, "values": values})``, NaN as null, written
    one row at a time so that the matrix is never held as Python lists."""
    text = json.dumps({**head, "values": []}, indent=2, allow_nan=False)
    with _sink(path) as fh:
        fh.write(text[:-len("[]\n}")])
        for i, row in enumerate(values):
            cells = row.tolist()
            if np.isnan(row).any():
                cells = [None if math.isnan(x) else x for x in cells]
            fh.write(("," if i else "[") + "\n    "
                     + json.dumps(cells, indent=2, allow_nan=False).replace("\n", "\n    "))
        fh.write("\n  ]\n}\n" if len(values) else "[]\n}\n")


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a pair 'M,N', got '{text}'")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"pair entries must be integers, got '{text}'") from None
    return m, n


def _parse_fix(text: str) -> tuple[int, float]:
    lhs, sep, rhs = text.partition("=")
    if not sep:
        raise InputError(f"expected 'LINE=MW', got '{text}'")
    try:
        lid, mw = int(lhs), float(rhs)
    except ValueError:
        raise InputError(f"expected integer line id and MW value, got '{text}'") from None
    if not math.isfinite(mw):
        raise InputError(f"MW value must be finite, got '{text}'")
    return lid, mw


def _load(args) -> Network:
    """The parsed case, rejected on any violation, parallel lines merged."""
    net = read_case(args.case)
    violations = validate(net)
    if violations:
        raise InputError(
            "case failed validation: "
            + "; ".join(f"[{v.code}] {v.message}" for v in violations))
    return merge_parallel_lines(net)


def _nominal_injection(net: Network) -> InjectionProfile:
    """Loads as given, generation at equal fractional output to match them."""
    total_load = sum(net.load_vector)
    p_min = sum(g.p_min for g in net.generators)
    p_max = sum(g.p_max for g in net.generators)
    if not net.generators:
        if abs(total_load) > 1e-12:
            raise InputError("case has loads but no generators to supply them")
        return InjectionProfile(np.zeros(net.n_bus))
    span = p_max - p_min
    t = 0.0 if span <= 0.0 else (total_load - p_min) / span
    if t < -1e-12 or t > 1.0 + 1e-12 or (span <= 0.0 and abs(total_load - p_min) > 1e-9):
        raise InputError(
            f"total load {total_load:g} MW is outside the "
            f"generation range [{p_min:g}, {p_max:g}] MW")
    p = -np.array(net.load_vector)
    for g in net.generators:
        p[net.bus_index[g.bus]] += g.p_min + t * (g.p_max - g.p_min)
    return InjectionProfile(p)


def _strategy(args) -> DeltaStrategy:
    ctor = getattr(DeltaStrategy, _STRATEGY_FLAGS[args.strategy])
    return ctor(args.param) if args.param is not None else ctor()


# --------------------------------------------------------------------------
# subcommand bodies


def _cmd_validate(args) -> None:
    violations = validate(read_case(args.case))
    if args.output == "json":
        _write_json(args.out, [{"code": v.code, "message": v.message}
                               for v in violations])
    else:
        _write_csv(args.out, [("code", "message")]
                   + [(v.code, f"\"{v.message}\"") for v in violations])
    if violations:
        raise InputError(f"case has {len(violations)} violation(s)")


def _cmd_ptdf(args) -> None:
    net = _load(args)
    mat = ptdf(net)
    if args.output == "json":
        _write_json_matrix(args.out, {
            "slack_bus": net.slack_id,
            "bus_ids": list(mat.bus_ids),
            "line_ids": list(mat.line_ids),
        }, mat.values)
        return
    _write_csv(args.out, _matrix_rows((f"bus_{b}" for b in mat.bus_ids),
                                      mat.line_ids, mat.values))


def _cmd_cv(args) -> None:
    # an option error shows whatever the case file holds, and no PTDF is built
    # for a pair that names an unknown bus
    if args.all == (args.pair is not None):
        raise InputError("choose exactly one of --pair M,N or --all")
    if args.pair is not None and args.pair[0] == args.pair[1]:
        raise InputError("pair buses must be distinct")
    net = _load(args)
    if args.pair is not None:
        m, n = args.pair
        if m not in net.bus_ids or n not in net.bus_ids:
            raise InputError(f"unknown bus in pair {m},{n}")
    mat = ptdf(net)
    pairs = node_pairs(mat.bus_ids) if args.all else [args.pair]
    vectors = cv_matrix(mat, pairs)
    if args.output == "json":
        _write_json_matrix(args.out, {
            "line_ids": list(mat.line_ids),
            "pairs": [list(p) for p in pairs],
        }, vectors)
        return
    _write_csv(args.out, _matrix_rows((f"cv_{m}_{n}" for m, n in pairs),
                                      mat.line_ids, vectors.T))


def _cmd_lodf(args) -> None:
    net = _load(args)
    dist = lodf(net)
    if args.output == "json":
        _write_json_matrix(args.out, {
            "line_ids": list(dist.line_ids),
            "islanded": list(dist.islanded),
        }, dist.values)
        return
    _write_csv(args.out, _matrix_rows((f"out_{lid}" for lid in dist.line_ids),
                                      dist.line_ids, dist.values))


def _cmd_bounds(args) -> None:
    net = _load(args)
    rep = bounds_op(net)
    payload = {"series_bound": rep.series_bound,
               "parallel_bound": rep.parallel_bound,
               "ptdf_rank": rep.ptdf_rank}
    if args.output == "csv":
        _write_csv(args.out, [payload.keys(), payload.values()])
    else:
        _write_json(args.out, payload, indent=None, separators=(",", ":"))


def _cmd_fix_flows(args) -> None:
    net = _load(args)
    inj = _nominal_injection(net)
    fixed_pairs = [_parse_fix(item) for item in args.fix or []]
    seen = set()
    for lid, _ in fixed_pairs:
        if lid in seen:
            raise InputError(f"line {lid} fixed more than once")
        seen.add(lid)
    res = solve_fixed_flows(net, inj, dict(fixed_pairs))
    flows = []
    if res.status == "unique":
        flows = [(ln.id, float(res.flows[k])) for k, ln in enumerate(net.lines_in_service)]
    if args.output == "json":
        payload: dict = {"status": res.status}
        if res.status == "unique":
            payload["flows"] = [{"line_id": lid, "flow_mw": mw} for lid, mw in flows]
        elif res.status == "underdetermined":
            payload["freedom"] = res.freedom
        _write_json(args.out, payload)
        return
    rows = [("status", res.status)]
    if res.status == "unique":
        rows += [("line_id", "flow_mw"), *flows]
    elif res.status == "underdetermined":
        rows.append(("freedom", res.freedom))
    _write_csv(args.out, rows)


def _cmd_place_cv(args) -> None:
    net = _load(args)
    mat = ptdf(net)
    placements, tables = run_cv_placement(
        mat, args.count, cos_threshold=args.cos_threshold,
        candidate_cap=args.candidate_cap)
    if args.output == "json":
        steps = []
        for si, rows in enumerate(tables, start=1):
            steps.append({"step": si, "candidates": [
                {"pair": list(r.pair), "cos_phi": r.cos_phi,
                 "dimension": r.score.dimension,
                 "log_volume": r.score.log_volume,
                 "selected": r.selected} for r in rows]})
        _write_json(args.out, {
            "placements": [list(p) for p in placements], "steps": steps})
        return
    _write_csv(args.out, [
        ("placement", "pair"),
        *enumerate(placements, start=1),
        (),
        ("step", "pair", "cos_phi", "dimension", "log_volume", "selected"),
        *((si, r.pair, r.cos_phi, r.score.dimension, r.score.log_volume,
           int(r.selected))
          for si, rows in enumerate(tables, start=1) for r in rows),
    ])


def _cmd_place_lp(args) -> None:
    net = _load(args)
    mat = ptdf(net)
    strategy = _strategy(args)
    placements, tables = run_lp_placement(net, mat, args.count, strategy,
                                          p_dc_max=args.pdc_max)
    final = tables[-1]
    worst = max((r.total_effort for _p, r in final if not r.all_infeasible),
                default=0.0)

    def rel(r) -> float | None:
        if r.all_infeasible or worst <= 0.0:
            return None
        return 100.0 * r.total_effort / worst

    lp_count = sum(r.lp_count for _p, r in final)
    if args.output == "json":
        steps = []
        for rows in tables:
            steps.append([
                {"pair": list(p), "total_effort_mw": r.total_effort,
                 "infeasible_sets": r.infeasible_sets, "lp_count": r.lp_count}
                for p, r in rows])
        _write_json(args.out, {
            "placements": [list(p) for p in placements],
            "steps": steps,
            "lp_count": lp_count,
        })
        return
    _write_csv(args.out, [
        ("placement", "pair"),
        *enumerate(placements, start=1),
        (),
        ("pair", "total_effort_mw", "relative_percent", "infeasible_sets", "lp_count"),
        *((p, r.total_effort, rel(r), r.infeasible_sets, r.lp_count) for p, r in final),
        (f"lp_count={lp_count}",),
    ])


def _cmd_compare(args) -> None:
    net = _load(args)
    mat = ptdf(net)
    cv_placements, _ = run_cv_placement(
        mat, args.count, cos_threshold=args.cos_threshold,
        candidate_cap=args.candidate_cap)
    lp_placements, _ = run_lp_placement(net, mat, args.count, _strategy(args),
                                        p_dc_max=args.pdc_max)
    rows = compare_placements(cv_placements, lp_placements)
    if args.output == "json":
        _write_json(args.out, [
            {"step": r.step, "cv_pair": list(r.cv_pair),
             "lp_pair": list(r.lp_pair), "agree": r.agree} for r in rows])
        return
    _write_csv(args.out, [("step", "cv_pair", "lp_pair", "agree")]
               + [(r.step, r.cv_pair, r.lp_pair, int(r.agree)) for r in rows])


def _solution_payload(net: Network, sol) -> dict:
    payload: dict = {"status": sol.status}
    if sol.status != "optimal":
        return payload
    payload["cost"] = sol.cost
    payload["dispatch"] = [
        {"bus": g.bus, "p_mw": float(p)}
        for g, p in zip(net.generators, sol.p_gen)]
    payload["flows"] = [
        {"line_id": lid, "flow_mw": float(f)}
        for lid, f in zip(sol.line_ids, sol.flows)]
    if sol.hvdc_base:
        payload["hvdc_base_mw"] = [float(x) for x in sol.hvdc_base]
    if sol.hvdc_contingency:
        payload["hvdc_contingency_mw"] = [
            {"contingency": cid, "p_mw": [float(x) for x in vec]}
            for cid, vec in sorted(sol.hvdc_contingency.items())]
    return payload


def _solution_rows(payload: dict):
    """The CSV form of ``_solution_payload``: blocks split by blank rows."""
    yield "status", payload["status"]
    if payload["status"] != "optimal":
        return
    yield "cost", payload["cost"]
    yield ()
    yield "gen", "bus", "p_mw"
    for i, d in enumerate(payload["dispatch"], start=1):
        yield i, d["bus"], d["p_mw"]
    yield ()
    yield "line_id", "flow_mw"
    for f in payload["flows"]:
        yield f["line_id"], f["flow_mw"]
    base = payload.get("hvdc_base_mw", [])
    if base:
        yield ()
        yield "hvdc", "p_mw"
        yield from enumerate(base, start=1)
    if "hvdc_contingency_mw" in payload:
        # one cell after the id, so rows keep their ',' with no HVDC columns
        yield ()
        yield "contingency", ",".join(f"hvdc_{j}" for j in range(1, len(base) + 1))
        for c in payload["hvdc_contingency_mw"]:
            yield c["contingency"], ",".join(map(_cell, c["p_mw"]))


def _write_solution(args, net: Network, sol) -> None:
    payload = _solution_payload(net, sol)
    if args.output == "json":
        _write_json(args.out, payload)
    else:
        _write_csv(args.out, _solution_rows(payload))
    if sol.status != "optimal":
        raise opf_mod.InfeasibleError("no dispatch satisfies the constraints")


def _cmd_opf(args) -> None:
    net = _load(args)
    placements = [tuple(p) for p in args.place or []]
    sol = opf_mod.dc_opf(net, placements, p_dc_max=args.pdc_max,
                         n_segments=args.segments)
    _write_solution(args, net, sol)


def _cmd_sc_opf(args) -> None:
    net = _load(args)
    placements = [tuple(p) for p in args.place or []]
    conts = args.contingency if args.contingency else None
    sol = opf_mod.sc_opf(net, placements, contingencies=conts,
                         mode=args.mode, p_dc_max=args.pdc_max,
                         n_segments=args.segments)
    _write_solution(args, net, sol)


def _cmd_cos_curve(args) -> None:
    net = _load(args)
    strategy = _strategy(args)
    if args.max < 0:
        raise InputError("max_count must be >= 0")
    conts = opf_mod.check_contingencies(net, args.contingency or None)
    placements: list[tuple[int, int]] = []
    if args.max > 0:
        mat = ptdf(net)
        if args.algorithm == "cv":
            placements, _ = run_cv_placement(mat, args.max)
        else:
            placements, _ = run_lp_placement(net, mat, args.max, strategy,
                                             p_dc_max=args.pdc_max)
    points = opf_mod.cos_curve(net, placements, conts, args.mode,
                               args.pdc_max, args.segments)
    if args.dat:
        _write_csv(args.dat, [("# controllers cos_percent",)]
                   + [(f"{pt.count} {_cell(pt.cos_percent)}",) for pt in points])
    if args.output == "json":
        _write_json(args.out, [
            {"count": pt.count,
             "pair": list(pt.pair) if pt.pair else None,
             # inf when C_OPF <= 0 and the CoS is not: JSON has no inf
             "cos_percent": pt.cos_percent if math.isfinite(pt.cos_percent) else None,
             "cos_abs": pt.cos_abs}
            for pt in points])
        return
    _write_csv(args.out, [("count", "pair_m", "pair_n", "cos_percent", "cos_abs")]
               + [(pt.count, *(pt.pair or ("", "")), pt.cos_percent, pt.cos_abs)
                  for pt in points])


def _cmd_metrics(args) -> None:
    net = _load(args)
    rows, rho = metric_report(ptdf(net))
    if args.output == "json":
        _write_json(args.out, {
            "spearman_rho": rho,
            "rows": [{"pair": list(r.pair), "norm1": r.norm1,
                      "log_volume": r.score.log_volume,
                      "dimension": r.score.dimension,
                      "rank_norm1": r.rank_norm1,
                      "rank_volume": r.rank_volume} for r in rows]})
        return
    _write_csv(args.out, [
        ("pair", "norm1", "log_volume", "dimension", "rank_norm1", "rank_volume"),
        *((r.pair, r.norm1, r.score.log_volume, r.score.dimension, r.rank_norm1,
           r.rank_volume) for r in rows),
        (f"spearman_rho={'undefined' if rho is None else _cell(rho)}",),
    ])


# --------------------------------------------------------------------------
# argument grammar


def _subcommand(subs, name: str, fn, default_output: str, help: str):
    """A subparser for ``name`` with the case argument, the output options and
    its handler ``fn``."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("case", help="case file: MATPOWER subset if it ends in .m, else native JSON")
    sub.add_argument("--output", choices=["csv", "json"], default=default_output)
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write output to FILE instead of stdout")
    sub.set_defaults(fn=fn)
    return sub


def _placement_opts(sub, cv: bool, lp: bool) -> None:
    """--count, then the options of placement by conical volume and by LP effort."""
    sub.add_argument("--count", type=int, required=True)
    if cv:
        sub.add_argument("--cos-threshold", type=float, default=COS_THRESHOLD)
        sub.add_argument("--candidate-cap", type=int, default=CANDIDATE_CAP)
    if lp:
        _lp_opts(sub)


def _lp_opts(sub) -> None:
    sub.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS),
                     default="const", help="target flow-change strategy")
    sub.add_argument("--param", type=float, default=None,
                     help="strategy parameter (MW, fraction, or scale)")
    _pdc_max(sub)


def _pdc_max(sub) -> None:
    sub.add_argument("--pdc-max", type=float, default=math.inf,
                     help="controller setpoint bound in MW (default unbounded)")


def _segments(sub) -> None:
    sub.add_argument("--segments", type=int, default=opf_mod.DEFAULT_SEGMENTS)


def _opf_opts(sub) -> None:
    sub.add_argument("--place", type=_parse_pair, action="append", metavar="M,N",
                     help="HVDC node pair (repeatable)")
    _pdc_max(sub)
    _segments(sub)


def _security_opts(sub, mode: str) -> None:
    sub.add_argument("--mode", choices=[opf_mod.PREVENTIVE, opf_mod.CORRECTIVE],
                     default=mode)
    sub.add_argument("--contingency", type=int, action="append", metavar="LINE",
                     help="line outage to secure against (default: all non-bridges)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridctrl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    _subcommand(subs, "validate", _cmd_validate, "json", "report structural violations")
    _subcommand(subs, "ptdf", _cmd_ptdf, "csv", "dump the PTDF matrix")
    s = _subcommand(subs, "cv", _cmd_cv, "csv", "dump controllability vectors")
    s.add_argument("--pair", type=_parse_pair, metavar="M,N", default=None)
    s.add_argument("--all", action="store_true", help="every node pair")
    _subcommand(subs, "lodf", _cmd_lodf, "csv", "dump the line outage distribution matrix")
    _subcommand(subs, "bounds", _cmd_bounds, "json", "controller-count bounds")
    s = _subcommand(subs, "fix-flows", _cmd_fix_flows, "json",
                    "classify the flow system with lines pinned")
    s.add_argument("--fix", action="append", metavar="LINE=MW",
                   help="pin one line's flow (repeatable)")
    s = _subcommand(subs, "place-cv", _cmd_place_cv, "csv", "greedy placement by conical volume")
    _placement_opts(s, cv=True, lp=False)
    s = _subcommand(subs, "place-lp", _cmd_place_lp, "csv",
                    "greedy placement by LP control effort")
    _placement_opts(s, cv=False, lp=True)
    s = _subcommand(subs, "compare-placements", _cmd_compare, "csv",
                    "run both placement algorithms and diff them")
    _placement_opts(s, cv=True, lp=True)
    _opf_opts(_subcommand(subs, "opf", _cmd_opf, "json", "DC optimal power flow"))
    s = _subcommand(subs, "sc-opf", _cmd_sc_opf, "json", "security-constrained DC OPF")
    _security_opts(s, opf_mod.PREVENTIVE)
    _opf_opts(s)
    s = _subcommand(subs, "cos-curve", _cmd_cos_curve, "csv",
                    "cost of security vs controller count")
    s.add_argument("--max", type=int, required=True,
                   help="largest controller count on the curve")
    s.add_argument("--algorithm", choices=["cv", "lp"], default="cv")
    _security_opts(s, opf_mod.CORRECTIVE)
    _segments(s)
    s.add_argument("--dat", metavar="FILE", default=None,
                   help="also write a gnuplot-ready two-column data file")
    _lp_opts(s)
    _subcommand(subs, "metrics", _cmd_metrics, "csv",
                "1-norm vs conical-volume comparison table")
    return parser


@functools.cache
def _grammar() -> argparse.ArgumentParser:
    """The process's one grammar, built on the first ``run``: parsing leaves
    no state in it, so every call parses as a fresh one would."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _grammar().parse_args(argv)
        args.fn(args)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except opf_mod.InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a solver failure or a bug, never an input error or infeasibility
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
