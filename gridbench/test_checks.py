"""The benchmark's own checks accept the program's outputs and reject
corrupted ones.

    python3 -m pytest gridbench/test_checks.py -q

One job per workload (the 30-bus screen pass, one effort job, one secure
study with three controllers) runs twice through the real worker, which
must write the same bytes both times; each test then corrupts one output
file in a way a broken program could, and the check must report it.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("bench")
    picked = {
        "screen": workloads.JOB_LISTS["screen"](SEED, 1, run_dir)[0],
        "effort": workloads.JOB_LISTS["effort"](SEED, 1, run_dir)[0],
        "secure": workloads.JOB_LISTS["secure"](SEED, 1, run_dir)[0],
    }
    result = run.run_jobs(list(picked.values()), run_dir, None, 2, 0,
                          time.perf_counter() + run.DEADLINE_S)
    assert all(code == 0 for p in result["passes"] for r in p["jobs"] for code in r["codes"])
    assert not result["unstable"]
    return picked


def _corrupt(job: dict, kind: str, edit) -> list[str]:
    """Check the job with one output edited, then restore the file."""
    path = Path(next(c["out"] for c in job["calls"] if c["kind"] == kind))
    original = path.read_text()
    edited = edit(original)
    assert edited != original, "the corruption did not change the output"
    path.write_text(edited)
    try:
        return workloads.check_job(job)
    finally:
        path.write_text(original)


def _edit_number(text: str, pattern: str, fn) -> str:
    """Replace the first number matched by group 1 of ``pattern`` by fn(number)."""
    m = re.search(pattern, text, flags=re.M)
    return text[:m.start(1)] + repr(fn(float(m.group(1)))) + text[m.end(1):]


def _rel(x: float) -> float:
    return x * (1 + 1e-4)


def _json_edit(fn):
    def edit(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc, indent=2) + "\n"
    return edit


@pytest.mark.parametrize("workload", ["screen", "effort", "secure"])
def test_program_outputs_pass(jobs, workload):
    assert workloads.check_job(jobs[workload]) == []


def _swap_first_placements(text: str) -> str:
    lines = text.split("\n")
    lines[1], lines[2] = ("1," + lines[2].split(",", 1)[1], "2," + lines[1].split(",", 1)[1])
    return "\n".join(lines)


def _swap_metric_ranks(text: str) -> str:
    rows = text.split("\n")
    a, b = rows[1].split(","), rows[2].split(",")
    if a[4] == b[4]:
        b[4] = str(int(b[4]) + 7)
    a[4], b[4] = b[4], a[4]
    rows[1], rows[2] = ",".join(a), ",".join(b)
    return "\n".join(rows)


FIRST_ROW_2ND = r"^\d+,[^,\n]+,([^,\n]+)"
SCREEN_CORRUPTIONS = {
    "ptdf entry off by 1e-6": ("ptdf", lambda t: _edit_number(t, FIRST_ROW_2ND, lambda x: x + 1e-6)),
    "lodf entry off by 1e-4 relative": ("lodf", lambda t: _edit_number(t, FIRST_ROW_2ND, _rel)),
    "wrong ptdf rank": ("bounds", lambda t: _edit_number(t, r'"ptdf_rank":(\d+)', lambda x: int(x) - 1)),
    "cv entry off by 1e-4 relative": ("cv", lambda t: _edit_number(t, r"^\d+,([^,\n]+)", _rel)),
    "swapped 1-norm ranks": ("metrics", _swap_metric_ranks),
    "spearman rho off by 1e-4 relative": ("metrics", lambda t: _edit_number(t, r"^spearman_rho=(.+)$", _rel)),
    "swapped placement": ("place-cv", _swap_first_placements),
    "log volume off by 1e-4 relative": (
        "place-cv", lambda t: _edit_number(t, r"^2,\d+-\d+,[^,]+,\d+,([^,]+),", _rel)),
    "validate reports a violation": ("validate", lambda t: '[{"code": "x", "message": "y"}]\n'),
}


@pytest.mark.parametrize("name", sorted(SCREEN_CORRUPTIONS))
def test_screen_check_rejects(jobs, name):
    kind, edit = SCREEN_CORRUPTIONS[name]
    assert _corrupt(jobs["screen"], kind, edit)


def _effort_scale_top(doc):
    doc["steps"][1][0]["total_effort_mw"] *= 1 + 1e-4


def _effort_swap_placements(doc):
    doc["placements"].reverse()


def _effort_wrong_lp_count(doc):
    doc["lp_count"] += 1


def _effort_wrong_row_lp_count(doc):
    doc["steps"][0][3]["lp_count"] -= 1


def _effort_infeasible_count(doc):
    doc["steps"][1][5]["infeasible_sets"] += 1


def _effort_reorder(doc):
    rows = doc["steps"][1]
    rows[1], rows[-1] = rows[-1], rows[1]


EFFORT_CORRUPTIONS = {
    "effort off by 1e-4 relative": _effort_scale_top,
    "swapped placement": _effort_swap_placements,
    "wrong lp_count": _effort_wrong_lp_count,
    "wrong per-pair lp_count": _effort_wrong_row_lp_count,
    "one infeasible set too many": _effort_infeasible_count,
    "ranking out of order": _effort_reorder,
}


@pytest.mark.parametrize("name", sorted(EFFORT_CORRUPTIONS))
def test_effort_check_rejects(jobs, name):
    assert _corrupt(jobs["effort"], "place-lp", _json_edit(EFFORT_CORRUPTIONS[name]))


def _cos_scale(doc):
    doc[0]["cos_abs"] *= 1 + 1e-4


def _cos_percent(doc):
    doc[0]["cos_percent"] *= 1 + 1e-4


def _cos_swap(doc):
    doc[1]["pair"], doc[2]["pair"] = doc[2]["pair"], doc[1]["pair"]


def _cos_other_pair(doc):
    doc[1]["pair"] = [2, 3] if doc[1]["pair"] != [2, 3] else [2, 4]


def _scopf_cost(doc):
    doc["cost"] *= 1 + 1e-4


def _scopf_flow(doc):
    doc["flows"][3]["flow_mw"] += 1e-3


def _scopf_dispatch(doc):
    doc["dispatch"][0]["p_mw"] += 0.01
    doc["dispatch"][1]["p_mw"] -= 0.01


SECURE_CORRUPTIONS = {
    "cos_abs off by 1e-4 relative": ("cos-curve", _cos_scale),
    "cos_percent off by 1e-4 relative": ("cos-curve", _cos_percent),
    "swapped placement": ("cos-curve", _cos_swap),
    "placement not the volume pick": ("cos-curve", _cos_other_pair),
    "preventive cost off by 1e-4 relative": ("sc-opf", _scopf_cost),
    "flow not the dispatch's angle flow": ("sc-opf", _scopf_flow),
    "dispatch moved off the optimum": ("sc-opf", _scopf_dispatch),
}


@pytest.mark.parametrize("name", sorted(SECURE_CORRUPTIONS))
def test_secure_check_rejects(jobs, name):
    kind, fn = SECURE_CORRUPTIONS[name]
    assert _corrupt(jobs["secure"], kind, _json_edit(fn))
