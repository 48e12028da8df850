"""Outside-in span tracer for the traced benchmark run.

``install`` wraps every public function of the loaded ``gridctrl`` modules
and rebinds each wrapper in every ``gridctrl`` module namespace that holds
the original (so ``from .dcsens import cv`` in place_lp is wrapped too).
Spans are (name, start, end, parent, job, extra) records kept in memory and
written out once, at the end of the run.  The untraced run never imports
this module, and the program's source is not touched.

Calls that never pass through a module namespace (a private helper calling
another private helper, a closure) are not spans of their own; their time is
the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time


def _solve_lp_extra(args, kwargs, result):
    """m, n, pivots, infeasible flag and binding slack rows of one LP.

    The binding count assumes opf's layout (row 0 the power balance, row r
    >= 1 a flow-limit row whose slack is column n - m + r); it is only read
    for LPs that opf hands over.
    """
    problem = args[0] if args else kwargs["problem"]
    m, n = problem.b_eq.shape[0], problem.c.shape[0]
    binding = 0
    if result.x is not None and m > 1:
        slack = result.x[n - m + 1:]
        binding = int((slack <= 1e-9 * (1.0 + abs(problem.b_eq[1:]))).sum())
    return [m, n, result.iterations, result.status == "infeasible", binding]


def _target_sets_extra(args, kwargs, result):
    return sum(r.lp_count for _pair, r in result)


def _worker_count_extra(args, kwargs, result):
    return result


EXTRAS = {
    "simplex.solve_lp": _solve_lp_extra,
    "place_lp.place_lp_next": _target_sets_extra,
    "_parallel.worker_count": _worker_count_extra,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.job = -1
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        extra = EXTRAS.get(name)
        if name == "opf.sc_opf":
            sig = inspect.signature(fn)

            def extra(args, kwargs, result):
                return sig.bind(*args, **kwargs).arguments.get("mode", "preventive")
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def install() -> Tracer:
    """Wrap the public functions of every loaded gridctrl module."""
    tracer = Tracer()
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "gridctrl" or name.startswith("gridctrl."))}
    wrapped = {}
    for name, mod in modules.items():
        layer = name.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == name):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics from a span dump


def layer_metrics(doc: dict, n_jobs: int, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-job layer metrics: {name: (value, unit)}."""
    names, spans = doc["names"], doc["spans"]
    layer = [n.split(".", 1)[0] for n in names]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def name_of(i):
        return names[spans[i][0]]

    def layer_of(i):
        return layer[spans[i][0]]

    def ancestor_in(i, lay):
        p = spans[i][3]
        while p >= 0:
            if layer_of(p) == lay:
                return True
            p = spans[p][3]
        return False

    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    rows_max = 0
    workers = 1
    opf_rows = opf_flow_rows = opf_binding = 0
    lp_in_place_lp = 0
    for i, s in enumerate(spans):
        if s[4] < 0:
            continue                      # warm-up calls before the first job
        nm, lay = name_of(i), layer_of(i)
        add(f"self:{lay}", dur[i] - child[i])
        add(f"calls:{nm}", 1)
        add(f"time:{nm}", dur[i])
        if lay == "bounds" and (s[3] < 0 or layer_of(s[3]) != "bounds"):
            add("bounds.s", dur[i])
        if nm == "simplex.solve_lp":
            m, n, iters, infeasible, binding = s[5]
            add("simplex.pivots", iters)
            add("simplex.lps_infeasible", int(infeasible))
            add("simplex.tableau_work", iters * m * (n + m))
            rows_max = max(rows_max, m)
            if s[3] >= 0 and layer_of(s[3]) == "opf":
                opf_rows += m
                opf_flow_rows += m - 1
                opf_binding += binding
            if ancestor_in(i, "place_lp"):
                lp_in_place_lp += 1
        elif nm == "place_lp.place_lp_next":
            add("place_lp.target_sets", s[5])
        elif nm == "opf.sc_opf":
            add(f"opf.sc_{s[5]}_s", dur[i])
        elif nm == "_parallel.worker_count":
            workers = max(workers, s[5])

    def get(key):
        return acc.get(key, 0.0)

    per_job = {
        "netmodel.parse_s": (get("time:netmodel.parse_case"), "s"),
        "netmodel.validate_s": (get("time:netmodel.validate"), "s"),
        "dcsens.ptdf_calls": (get("calls:dcsens.ptdf"), "count"),
        "dcsens.ptdf_s": (get("time:dcsens.ptdf"), "s"),
        "dcsens.lodf_s": (get("time:dcsens.lodf"), "s"),
        "dcsens.is_bridge_calls": (get("calls:dcsens.is_bridge"), "count"),
        "dcsens.is_bridge_s": (get("time:dcsens.is_bridge"), "s"),
        "dcsens.cv_calls": (get("calls:dcsens.cv"), "count"),
        "dcsens.cv_s": (get("time:dcsens.cv"), "s"),
        "bounds.s": (get("bounds.s"), "s"),
        "simplex.lps": (get("calls:simplex.solve_lp"), "count"),
        "simplex.lps_infeasible": (get("simplex.lps_infeasible"), "count"),
        "simplex.solve_s": (get("time:simplex.solve_lp"), "s"),
        "simplex.pivots": (get("simplex.pivots"), "count"),
        "simplex.tableau_work": (get("simplex.tableau_work"), "computed-cells"),
        "place_lp.target_sets": (get("place_lp.target_sets"), "count"),
        "place_lp.self_s": (get("self:place_lp"), "s"),
        "place_cv.orthogonality_calls": (get("calls:place_cv.orthogonality"), "count"),
        "place_cv.orthant_calls": (get("calls:place_cv.orthant_volume_sum"), "count"),
        "place_cv.orthant_s": (get("time:place_cv.orthant_volume_sum"), "s"),
        "place_cv.self_s": (get("self:place_cv"), "s"),
        "opf.dc_s": (get("time:opf.dc_opf"), "s"),
        "opf.sc_corrective_s": (get("opf.sc_corrective_s"), "s"),
        "opf.sc_preventive_s": (get("opf.sc_preventive_s"), "s"),
        "opf.assembly_s": (get("self:opf"), "s"),
        "opf.lp_rows": (opf_rows, "count"),
        "cli.self_s": (get("self:cli"), "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
    }
    out = {k: (v / n_jobs, unit) for k, (v, unit) in per_job.items()}
    target_sets = get("place_lp.target_sets")
    out["simplex.rows_max"] = (rows_max, "count")
    out["place_lp.lps_per_set"] = (lp_in_place_lp / target_sets if target_sets else 0.0, "ratio")
    out["opf.binding_row_share"] = (opf_binding / opf_flow_rows if opf_flow_rows else 0.0, "ratio")
    out["parallel.workers"] = (workers, "count")
    return out
