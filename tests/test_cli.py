"""End-to-end checks of the command-line frontend.

Most tests drive `run()` in process and inspect stdout/stderr through
capsys; one shells out to verify byte determinism across BLAS thread counts.
"""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from gridctrl import cli as cli_module
from gridctrl.cases import case_names, case_path, load_case
from gridctrl.cli import _cell, run
from gridctrl.netmodel import MATPOWER_SUBSET, serialize_case
from gridctrl.simplex import SimplexStallError
from test_netmodel import mutated_cases

FIXTURE10 = str(case_path("fixture10"))
CASE14 = str(case_path("case14"))
TRIANGLE3 = str(case_path("triangle3"))
CONGESTED3 = str(case_path("congested3"))


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def native_doc(buses, lines, gens=(), loads=()):
    return json.dumps({
        "base_mva": 100.0,
        "buses": [{"id": b, "is_slack": b == 1} for b in buses],
        "lines": [{"id": i, "from_bus": f, "to_bus": t, "reactance": x,
                   "limit": lim, "in_service": True}
                  for i, f, t, x, lim in lines],
        "generators": [{"bus": b, "p_min": lo, "p_max": hi, "cost": list(c)}
                       for b, lo, hi, c in gens],
        "loads": [{"bus": b, "p": p} for b, p in loads],
    })


@pytest.fixture
def disconnected_case(tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(native_doc([1, 2, 3], [(1, 1, 2, 0.1, "unlimited")]))
    return str(path)


@pytest.fixture
def short_case(tmp_path):
    """Structurally valid but generation cannot cover the load."""
    path = tmp_path / "short.json"
    path.write_text(native_doc(
        [1, 2], [(1, 1, 2, 0.1, "unlimited")],
        gens=[(1, 0.0, 50.0, (0.0, 10.0))], loads=[(2, 100.0)]))
    return str(path)


# ---------------------------------------------------------------------------
# loading and validation


def test_validate_clean_case(capsys):
    code, out, err = cli(capsys, "validate", FIXTURE10)
    assert code == 0
    assert json.loads(out) == []
    assert err == ""


def test_validate_reports_violations(capsys, disconnected_case):
    code, out, err = cli(capsys, "validate", disconnected_case)
    assert code == 2
    report = json.loads(out)
    assert [v["code"] for v in report] == ["disconnected"]
    assert err.startswith("error: case has 1 violation(s)")


def test_validate_csv_output(capsys, disconnected_case):
    code, out, _err = cli(capsys, "validate", disconnected_case,
                          "--output", "csv")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "code,message"
    assert lines[1].startswith("disconnected,")


LINE = (1, 1, 2, 0.1, "unlimited")
# one case file per validate code: (buses, lines, generators, loads)
VIOLATIONS = {
    "duplicate-bus-id": ([1, 2, 2], [LINE], (), ()),
    "slack-count": ([2, 3], [(1, 2, 3, 0.1, "unlimited")], (), ()),
    "duplicate-line-id": ([1, 2], [LINE, (1, 1, 2, 0.2, "unlimited")], (), ()),
    "dangling-bus": ([1, 2], [LINE, (2, 2, 7, 0.1, "unlimited")], (), ()),
    "self-loop": ([1, 2], [LINE, (2, 2, 2, 0.1, "unlimited")], (), ()),
    "bad-reactance": ([1, 2], [(1, 1, 2, -0.1, "unlimited")], (), ()),
    "bad-limit": ([1, 2], [(1, 1, 2, 0.1, -5.0)], (), ()),
    "gen-bounds": ([1, 2], [LINE], [(1, 50.0, 10.0, ())], ()),
    "nonconvex-cost": ([1, 2], [LINE], [(1, 0.0, 100.0, (0.0, 10.0, -1.0))], ()),
    "negative-load": ([1, 2], [LINE], (), [(2, -5.0)]),
    "disconnected": ([1, 2, 3], [LINE], (), ()),
}


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("code", sorted(VIOLATIONS))
def test_validate_lists_each_code_from_a_file(capsys, tmp_path, code, output):
    path = tmp_path / "case.json"
    path.write_text(native_doc(*VIOLATIONS[code]))
    exit_code, out, err = cli(capsys, "validate", str(path), "--output", output)
    assert exit_code == 2
    if output == "json":
        codes = [v["code"] for v in json.loads(out)]
    else:
        codes = [row.split(",", 1)[0] for row in out.splitlines()[1:]]
    assert code in codes
    assert err == f"error: case has {len(codes)} violation(s)\n"


def test_validate_lists_every_violation_in_mw(capsys, tmp_path):
    """All of a file's faults, not the first one, with powers in MW."""
    path = tmp_path / "case.json"
    path.write_text(native_doc([1, 2, 2], [(1, 1, 2, -0.1, -5.0), (1, 1, 2, 0.1, 20.0)],
                               loads=[(2, -2.5)]))
    exit_code, out, _err = cli(capsys, "validate", str(path))
    assert exit_code == 2
    assert [(v["code"], v["message"]) for v in json.loads(out)] == [
        ("duplicate-bus-id", "bus id 2 appears more than once"),
        ("bad-reactance", "line 1 reactance must be > 0, got -0.1"),
        ("bad-limit", "line 1 limit must be > 0 or unlimited, got -5 MW"),
        ("duplicate-line-id", "line id 1 appears more than once"),
        ("negative-load", "load 0 has negative demand -2.5 MW"),
    ]
    code, out, err = cli(capsys, "bounds", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: case failed validation: [duplicate-bus-id] ")


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=200, deadline=None)
@given(case=mutated_cases(), command=st.sampled_from(["validate", "bounds", "ptdf"]),
       output=st.sampled_from(["csv", "json"]))
def test_mutated_case_file_is_never_internal(case_dir, case, command, output):
    """Whatever a case file holds, the answer is a result or an input error."""
    fmt, text = case
    path = case_dir / ("case.m" if fmt == MATPOWER_SUBSET else "case.json")
    path.write_text(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([command, str(path), "--output", output])
    assert code in (0, 2), stderr.getvalue()


def test_missing_file_is_input_error(capsys, tmp_path):
    code, out, err = cli(capsys, "bounds", str(tmp_path / "nope.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read case file")
    assert err.count("\n") == 1


def test_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _out, err = cli(capsys, "bounds", str(path))
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("bus_id", ["inf", "nan"])
def test_non_finite_matpower_bus_id_is_input_error(capsys, tmp_path, bus_id):
    path = tmp_path / "bad.m"
    path.write_text(case_path("case14").read_text().replace("  1   3  ", f"  {bus_id}   3  ", 1))
    code, out, err = cli(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert re.fullmatch(rf"error: line \d+, col \d+: not a finite number: '{bus_id}'\n", err)


def test_non_utf8_case_is_input_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = cli(capsys, "ptdf", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: case file {path} is not UTF-8 text\n"


@pytest.mark.parametrize("argv", [
    ["place-cv", "--count", "1"], ["place-lp", "--count", "1"],
    ["compare-placements", "--count", "1"], ["cos-curve", "--max", "1"]])
def test_one_bus_case_has_no_pair_to_place(capsys, tmp_path, argv):
    path = tmp_path / "one.json"
    path.write_text(native_doc([1], []))
    code, out, err = cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: case has no node pair to place\n"


@pytest.fixture
def near_bridge_case(tmp_path):
    """Line 1-2 carries almost all of a 1->2 transfer, so its outage
    denominator 1 - PTDF is about 5e-12, although the triangle has no bridge."""
    path = tmp_path / "near_bridge.json"
    path.write_text(native_doc(
        [1, 2, 3], [(1, 1, 2, 1e-7, 100.0), (2, 2, 3, 1e4, 100.0), (3, 1, 3, 1e4, 100.0)],
        gens=[(1, 0.0, 200.0, (0.0, 10.0))], loads=[(3, 50.0)]))
    return str(path)


@pytest.mark.parametrize("command", ["lodf"])
def test_near_bridge_outage_is_input_error(capsys, near_bridge_case, command):
    """The LODF cannot divide by the near-bridge's outage denominator."""
    code, out, err = cli(capsys, command, near_bridge_case)
    assert (code, out) == (2, "")
    assert err == "error: line 1: outage denominator 5.000e-12 is numerically singular\n"


@pytest.mark.parametrize("mode", ["preventive", "corrective"])
def test_near_bridge_outage_solves(capsys, near_bridge_case, mode):
    """A near-bridge is no structural bridge, so SC-OPF keeps its outage as a
    contingency and solves it on the outaged topology, in either mode."""
    code, out, err = cli(capsys, "sc-opf", near_bridge_case, "--mode", mode,
                         "--output", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["status,optimal", "cost,500"]


def _secure_variant_case(tmp_path):
    """gridbench's first `secure` study at seed 1 (its third draw is the
    first feasible one)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "gridbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    case = gen.secure_variant(gen.rng_for(1, gen.STREAM_SECURE, 2), "sec0")
    return str(gen.write_case(case, tmp_path, "json"))


@pytest.mark.parametrize("case", case_names() + ["gridbench-secure"])
def test_sc_opf_modes_agree_without_controllers(capsys, tmp_path, case):
    """With nothing to re-dispatch, corrective recourse is empty and both
    modes solve one LP: equal payloads, bit for bit, infeasible ones too."""
    path = _secure_variant_case(tmp_path) if case == "gridbench-secure" else str(case_path(case))
    runs = [cli(capsys, "sc-opf", path, "--mode", mode, "--output", "json")
            for mode in ("preventive", "corrective")]
    (p_code, p_out, p_err), (c_code, c_out, c_err) = runs
    assert (p_code, p_err) == (c_code, c_err)
    if p_code:
        assert p_out == c_out
        return
    preventive, corrective = json.loads(p_out), json.loads(c_out)
    recourse = corrective.pop("hvdc_contingency_mw")
    assert recourse and all(block["p_mw"] == [] for block in recourse)
    assert preventive == corrective


@pytest.mark.parametrize("cap", ["-5", "nan"])
@pytest.mark.parametrize("argv", [
    ["opf", "--place", "1,8"], ["sc-opf", "--place", "1,8"],
    ["sc-opf", "--mode", "corrective", "--place", "1,8"], ["cos-curve", "--max", "1"]])
def test_bad_pdc_max_is_input_error(capsys, argv, cap):
    code, out, err = cli(capsys, argv[0], FIXTURE10, *argv[1:], "--pdc-max", cap)
    assert (code, out) == (2, "")
    assert err == f"error: setpoint cap p_dc_max must be >= 0 MW, got {float(cap)}\n"


@pytest.mark.parametrize("command,cap", [
    ("sc-opf congested3 --mode corrective --place 1,2", "1e12"),
    ("opf fixture10 --place 1,8", "1e15"),
    ("opf fixture10 --place 1,8", "1e20"),
    # past about 9e307 the width 2 * cap overflows, and still no warning is written
    ("opf fixture10 --place 1,8", "1e308"),
    ("sc-opf fixture10 --place 1,8", "1e308"),
    ("sc-opf congested3 --mode corrective --place 1,2", "1e308")])
def test_huge_pdc_max_solves_as_uncapped(capsys, command, cap):
    """A finite cap far past any useful setpoint prints what no cap prints."""
    name, case, *rest = command.split()
    argv = [name, str(case_path(case)), *rest, "--output", "json", "--pdc-max"]
    code, out, err = cli(capsys, *argv, cap)
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "optimal"
    assert out == cli(capsys, *argv, "inf")[1]


_SPAN = "every remaining pair lies in the span of the basis"
_NO_TARGETS = "count 4 exceeds the 3 in-service lines: there is no set of that many target lines"
# refused from the generators' segment counts, before any segment is built
_SEGMENTS_PAST_LIMIT = ("the LP has 1 rows and 5000000000 columns: its simplex tableau needs "
                        "38147 MiB, over the 256 MiB limit")
OUT_OF_DOMAIN = [
    # past the parallel bound n_B - 1: 2 on triangle3, 9 on fixture10, 13 on
    # case14; refused before step 1 is scored
    ("place-cv triangle3 --count 3 --cos-threshold 1.5", _SPAN),
    ("place-cv fixture10 --count 10 --cos-threshold 1.5", _SPAN),
    ("cos-curve case14 --max 99 --algorithm cv", _SPAN),
    ("place-cv fixture10 --count 2 --cos-threshold nan", "cos_threshold must be a number, got nan"),
    ("place-lp triangle3 --count 4", _NO_TARGETS),
    ("cos-curve triangle3 --max 4 --algorithm lp", _NO_TARGETS),
    ("place-lp triangle3 --count 1 --param inf", "strategy parameter must be finite, got inf"),
    # 1e308 x a 190 MW limit is inf; 1e308 MW flat is scored
    ("place-lp fixture10 --count 2 --strategy limit --param 1e308",
     "line 1: strategy parameter 1e+308 gives a delta past the float range"),
    ("opf case14 --segments 0", "n_segments must be >= 1, got 0"),
    ("opf case14 --segments -1", "n_segments must be >= 1, got -1"),
    ("cos-curve case14 --max 1 --segments 0", "n_segments must be >= 1, got 0"),
    ("opf case14 --segments 1000000000", _SEGMENTS_PAST_LIMIT),
    ("cos-curve case14 --max 1 --segments 1000000000", _SEGMENTS_PAST_LIMIT),
    # the tableau fits, but past 1,582 pieces a quadratic cost gains nothing
    ("opf case14 --segments 2000000", "n_segments must be <= 1582, got 2000000"),
    ("opf case14 --segments 200000", "n_segments must be <= 1582, got 200000"),
    ("fix-flows fixture10 --fix 1=inf", "MW value must be finite, got '1=inf'"),
    ("fix-flows fixture10 --fix 1=nan", "MW value must be finite, got '1=nan'"),
]


@pytest.mark.parametrize("command,message", OUT_OF_DOMAIN,
                         ids=[command for command, _ in OUT_OF_DOMAIN])
def test_out_of_domain_value_is_input_error(capsys, tmp_path, command, message):
    name, case, *rest = command.split()
    target = tmp_path / "out"
    code, out, err = cli(capsys, name, str(case_path(case)), *rest, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not target.exists()


def test_tableau_past_limit_is_input_error(capsys, tmp_path, monkeypatch):
    """The SC-OPF LP is refused before its tableau is allocated."""
    monkeypatch.setattr("gridctrl.netmodel.DENSE_LIMIT_BYTES", 2**20)
    net = load_case("case14")                   # every line limited to 200 MW
    case = tmp_path / "case14_limited.json"
    case.write_text(serialize_case(replace(net, lines=tuple(
        replace(ln, limit=2.0) for ln in net.lines))))
    target = tmp_path / "sc.json"
    code, out, err = cli(capsys, "sc-opf", str(case), "--mode", "corrective",
                         "--out", str(target))
    assert (code, out) == (2, "")
    assert err == ("error: the LP has 382 rows and 431 columns: its simplex tableau "
                   "needs 2 MiB, over the 1 MiB limit\n")
    assert not target.exists()


def test_orthant_past_limit_is_input_error(capsys, tmp_path, monkeypatch):
    """place-cv is refused before its sign-combination matrix is built."""
    monkeypatch.setattr("gridctrl.netmodel.DENSE_LIMIT_BYTES", 2**20)
    target = tmp_path / "place.json"
    code, out, err = cli(capsys, "place-cv", FIXTURE10, "--count", "9",
                         "--out", str(target))
    assert (code, out) == (2, "")
    assert err == ("error: scoring 9 controllers on 14 lines takes 3^9 - 1 sign "
                   "combinations: their matrix needs 2 MiB, over the 1 MiB limit\n")
    assert not target.exists()


def test_effort_table_past_limit_is_input_error(capsys, tmp_path, monkeypatch):
    """place-lp is refused before its largest step's effort table is built."""
    monkeypatch.setattr("gridctrl.netmodel.DENSE_LIMIT_BYTES", 2**20)
    target = tmp_path / "place.json"
    code, out, err = cli(capsys, "place-lp", str(case_path("case14")), "--count", "4",
                         "--out", str(target))
    assert (code, out) == (2, "")
    assert err == ("error: placing 4 controllers scores 91 node pairs on C(20, 4) = 4845 "
                   "target line sets: their effort table needs 3 MiB, over the 1 MiB limit\n")
    assert not target.exists()
    assert cli(capsys, "place-lp", str(case_path("case14")), "--count", "3")[0] == 0


def test_analysis_gate_rejects_invalid_case(capsys, disconnected_case):
    """Every analysis subcommand refuses a case that fails validation."""
    code, _out, err = cli(capsys, "ptdf", disconnected_case)
    assert code == 2
    assert err.startswith("error: case failed validation")
    assert "[disconnected]" in err


def test_unknown_subcommand(capsys):
    code, _out, err = cli(capsys, "frobnicate", FIXTURE10)
    assert code == 2
    assert err.startswith("error: ")


def test_missing_required_option(capsys):
    code, _out, err = cli(capsys, "place-cv", FIXTURE10)
    assert code == 2
    assert err.startswith("error: ")


# results, argparse errors, input errors, and repeated options followed by
# the same subcommand without them
GRAMMAR_SEQUENCE = [
    ["bounds", FIXTURE10],
    ["place-cv", FIXTURE10],
    ["cv", FIXTURE10, "--pair", "1-2"],
    ["place-lp", TRIANGLE3, "--count", "1", "--strategy", "best"],
    ["sc-opf", FIXTURE10, "--mode", "corrective", "--place", "1,8", "--place", "2,6",
     "--contingency", "1", "--contingency", "5", "--output", "csv"],
    ["sc-opf", FIXTURE10, "--place", "1,8"],
    ["opf", CONGESTED3, "--place", "1,2", "--place", "2,3", "--pdc-max", "5"],
    ["opf", CONGESTED3],
    ["fix-flows", FIXTURE10, "--fix", "1=40", "--fix", "3=-20"],
    ["fix-flows", FIXTURE10],
    ["sc-opf", CONGESTED3],
    ["cos-curve", FIXTURE10, "--max", "1", "--contingency", "1", "--contingency", "5",
     "--output", "json"],
    ["cos-curve", TRIANGLE3, "--max", "1"],
    ["place-lp", TRIANGLE3, "--count", "1"],
    ["cv", TRIANGLE3, "--pair", "1,3"],
    *([name, str(case_path(case)), *rest]
      for name, case, *rest in (command.split() for command, _ in OUT_OF_DOMAIN)),
]


def test_one_grammar_parses_like_a_fresh_one(capsys, tmp_path, monkeypatch):
    """A sequence of argvs through the process's one grammar gives the exit
    code, stdout, stderr and --out bytes of a freshly built grammar per argv,
    and builds the grammar once."""
    builds = []
    build = cli_module.build_parser
    monkeypatch.setattr(cli_module, "build_parser", lambda: builds.append(1) or build())
    target = tmp_path / "out"

    def results():
        for argv in GRAMMAR_SEQUENCE:
            for out in ([], ["--out", str(target)]):
                yield cli(capsys, *argv, *out), target.read_bytes() if target.exists() else None
                target.unlink(missing_ok=True)

    fresh = []
    cli_module._grammar.cache_clear()
    for result in results():
        fresh.append(result)
        cli_module._grammar.cache_clear()
    assert len(builds) == 2 * len(GRAMMAR_SEQUENCE)
    builds.clear()
    assert list(results()) == fresh
    assert len(builds) == 1
    assert {code for (code, _out, _err), _file in fresh} == {0, 1, 2}


# ---------------------------------------------------------------------------
# matrix dumps


def test_ptdf_csv_shape(capsys):
    code, out, _err = cli(capsys, "ptdf", FIXTURE10)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    assert lines[0].startswith("line_id,bus_1,bus_2")
    # slack column is identically zero
    assert all(row.split(",")[1] == "0" for row in lines[1:])


def test_ptdf_json_shape(capsys):
    code, out, _err = cli(capsys, "ptdf", FIXTURE10, "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["slack_bus"] == 1
    assert len(doc["bus_ids"]) == 10
    assert len(doc["line_ids"]) == 14
    assert len(doc["values"]) == 14
    assert all(len(row) == 10 for row in doc["values"])


def test_cv_single_pair(capsys):
    code, out, _err = cli(capsys, "cv", FIXTURE10, "--pair", "1,8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "line_id,cv_1_8"
    assert len(lines) == 15


def test_cv_all_pairs(capsys):
    code, out, _err = cli(capsys, "cv", TRIANGLE3, "--all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "line_id,cv_1_2,cv_1_3,cv_2_3"
    assert len(lines) == 4


def test_cv_needs_exactly_one_selector(capsys):
    for extra in ([], ["--pair", "1,8", "--all"]):
        code, _out, err = cli(capsys, "cv", FIXTURE10, *extra)
        assert code == 2
        assert "choose exactly one" in err


def test_cv_checks_its_options_before_reading_the_case(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = cli(capsys, "cv", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: choose exactly one of --pair M,N or --all\n"
    code, out, err = cli(capsys, "cv", str(tmp_path / "missing.json"), "--pair", "1,1")
    assert (code, out) == (2, "")
    assert err == "error: pair buses must be distinct\n"


def test_cv_checks_the_pair_before_ptdf(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("gridctrl.cli.ptdf", lambda net: calls.append(net))
    code, _out, err = cli(capsys, "cv", FIXTURE10, "--pair", "1,99")
    assert (code, err) == (2, "error: unknown bus in pair 1,99\n")
    assert calls == []


def test_cv_rejects_bad_pairs(capsys):
    code, _out, err = cli(capsys, "cv", FIXTURE10, "--pair", "1,99")
    assert code == 2 and "unknown bus" in err
    code, _out, err = cli(capsys, "cv", FIXTURE10, "--pair", "3,3")
    assert code == 2 and "distinct" in err
    code, _out, err = cli(capsys, "cv", FIXTURE10, "--pair", "3")
    assert code == 2 and "expected a pair" in err
    code, _out, err = cli(capsys, "cv", FIXTURE10, "--pair", "a,b")
    assert code == 2 and "integers" in err


def test_lodf_marks_islanding_outages(capsys):
    code, out, _err = cli(capsys, "lodf", CASE14, "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["islanded"] == [14]
    col = doc["line_ids"].index(14)
    assert all(row[col] is None for row in doc["values"])
    other = doc["line_ids"].index(1)
    assert all(row[other] is not None for row in doc["values"])


def test_lodf_csv_uses_nan(capsys):
    code, out, _err = cli(capsys, "lodf", CASE14)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("line_id,out_1,")
    assert ",nan" in lines[1]


# ---------------------------------------------------------------------------
# bounds and fixed flows


def test_bounds_exact_bytes(capsys):
    code, out, _err = cli(capsys, "bounds", FIXTURE10)
    assert code == 0
    assert out == '{"series_bound":5,"parallel_bound":9,"ptdf_rank":9}\n'


def test_bounds_csv(capsys):
    code, out, _err = cli(capsys, "bounds", CASE14, "--output", "csv")
    assert code == 0
    assert out == "series_bound,parallel_bound,ptdf_rank\n7,13,13\n"


def test_fix_flows_underdetermined_by_default(capsys):
    code, out, _err = cli(capsys, "fix-flows", FIXTURE10)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"status": "underdetermined", "freedom": 5}


def test_fix_flows_unique_with_spanning_pins(capsys):
    code, out, _err = cli(capsys, "fix-flows", FIXTURE10,
                          "--fix", "1=40", "--fix", "3=-20", "--fix", "5=10",
                          "--fix", "12=0", "--fix", "14=30")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "unique"
    flows = {row["line_id"]: row["flow_mw"] for row in doc["flows"]}
    assert len(flows) == 14
    assert flows[1] == pytest.approx(40.0)
    assert flows[14] == pytest.approx(30.0)


def test_fix_flows_inconsistent(capsys):
    code, out, _err = cli(capsys, "fix-flows", CONGESTED3,
                          "--fix", "1=0", "--fix", "2=0")
    assert code == 0
    assert json.loads(out) == {"status": "inconsistent"}


def test_fix_flows_rejects_bad_pins(capsys):
    code, _out, err = cli(capsys, "fix-flows", FIXTURE10,
                          "--fix", "1=40", "--fix", "1=50")
    assert code == 2 and "more than once" in err
    code, _out, err = cli(capsys, "fix-flows", FIXTURE10, "--fix", "1:40")
    assert code == 2 and "expected 'LINE=MW'" in err
    code, _out, err = cli(capsys, "fix-flows", FIXTURE10, "--fix", "99=0")
    assert code == 2 and "99" in err


def test_fix_flows_load_outside_generation_range(capsys, short_case):
    code, _out, err = cli(capsys, "fix-flows", short_case)
    assert code == 2
    assert "outside the generation range" in err


def _scaled_case(tmp_path, name, scale):
    """A bundled case with every MW value (loads, generator bounds, limits)
    times ``scale``; costs as they are."""
    net = load_case(name)
    path = tmp_path / f"{name}_x{scale:g}.json"
    path.write_text(serialize_case(replace(
        net,
        lines=tuple(replace(ln, limit=ln.limit * scale) for ln in net.lines),
        generators=tuple(replace(g, p_min=g.p_min * scale, p_max=g.p_max * scale)
                         for g in net.generators),
        loads=tuple(replace(ld, p=ld.p * scale) for ld in net.loads))))
    return str(path)


def _spanning_pins(scale):
    pins = {1: 40.0, 3: -20.0, 5: 10.0, 12: 0.0, 14: 30.0}
    return [arg for lid, mw in pins.items() for arg in ("--fix", f"{lid}={mw * scale!r}")]


@pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
def test_fix_flows_balances_a_case_of_any_scale(capsys, tmp_path, scale):
    """Roundoff in the injections of a large case is not an unbalance: the
    flows scale with the case."""
    path = _scaled_case(tmp_path, "fixture10", scale)
    code, out, err = cli(capsys, "fix-flows", path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"status": "underdetermined", "freedom": 5}
    code, out, err = cli(capsys, "fix-flows", path, *_spanning_pins(scale))
    assert (code, err) == (0, "")
    flows = [row["flow_mw"] for row in json.loads(out)["flows"]]
    _code, out, _err = cli(capsys, "fix-flows", FIXTURE10, *_spanning_pins(1.0))
    unit = [row["flow_mw"] * scale for row in json.loads(out)["flows"]]
    np.testing.assert_allclose(flows, unit, rtol=1e-9, atol=1e-9 * scale)


@pytest.mark.parametrize("scale", [1e6, 1e9, 1e12])
def test_fix_flows_inconsistent_at_any_scale(capsys, tmp_path, scale):
    """Pins that break node balance are inconsistent however large the case."""
    code, out, _err = cli(capsys, "fix-flows", _scaled_case(tmp_path, "congested3", scale),
                          "--fix", "1=0", "--fix", "2=0")
    assert code == 0
    assert json.loads(out) == {"status": "inconsistent"}


def _at_base(tmp_path, name, base, bad_limit=False):
    """A bundled case file with ``base_mva`` set to ``base``; case14 gets a
    100 MW limit on every line so that its LPs have limit rows.  With
    ``bad_limit`` the first line's limit is -5 MW."""
    limit = -5.0 if bad_limit else 100.0     # the first line's
    text = case_path(name).read_text()
    if name == "fixture10":
        doc = json.loads(text)
        doc["base_mva"] = base
        if bad_limit:
            doc["lines"][0]["limit"] = limit
        text = json.dumps(doc)
    else:
        rows, branch = [], False
        for row in text.splitlines():
            if row.startswith("mpc.baseMVA"):
                row = f"mpc.baseMVA = {base!r};"
            elif row.startswith(("mpc.branch", "]")):
                branch = row.startswith("mpc.branch")
            elif branch:                        # rate_a is the sixth column
                cells = row.split()
                cells[5] = repr(limit)
                row = "  ".join(cells)
                limit = 100.0
            rows.append(row)
        text = "\n".join(rows) + "\n"
    path = tmp_path / f"{base!r}_{bad_limit}_{case_path(name).name}"
    path.write_text(text)
    return str(path)


BASE_INVARIANT = [("opf",), ("sc-opf", "--place", "1,8"),
                  ("sc-opf", "--mode", "corrective", "--place", "1,8"),
                  ("cos-curve", "--max", "1", "--output", "json"),
                  ("place-lp", "--count", "2", "--strategy", "limit", "--output", "json")]


@pytest.mark.parametrize("name", ["fixture10", "case14"])
def test_base_mva_changes_no_byte(capsys, tmp_path, name):
    """base_mva only names the per-unit system of the reactances: every
    output byte is the same at any base."""
    runs = {}
    for base in (1.0, 100.0, 137.0, 1e4):
        runs[base] = [cli(capsys, argv[0], _at_base(tmp_path, name, base), *argv[1:])
                      for argv in BASE_INVARIANT]
        runs[base].append(cli(capsys, "validate", _at_base(tmp_path, name, base, True)))
    assert all(code == 0 for code, _out, _err in runs[1.0][:-1])
    assert runs[1.0][-1][0] == 2 and "got -5 MW" in runs[1.0][-1][1]
    for base, got in runs.items():
        assert got == runs[1.0], base


# ---------------------------------------------------------------------------
# placement


def test_place_cv_table(capsys):
    code, out, _err = cli(capsys, "place-cv", FIXTURE10, "--count", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "placement,pair"
    assert lines[1] == "1,1-8"
    assert lines[2] == "2,3-6"
    assert lines[3] == ""
    assert lines[4] == "step,pair,cos_phi,dimension,log_volume,selected"
    step1 = [ln for ln in lines[5:] if ln.startswith("1,")]
    assert len(step1) == 45
    assert sum(ln.endswith(",1") for ln in step1) == 1


def test_place_cv_json(capsys):
    code, out, _err = cli(capsys, "place-cv", FIXTURE10, "--count", "1",
                          "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["placements"] == [[1, 8]]
    step = doc["steps"][0]
    assert step["step"] == 1
    assert len(step["candidates"]) == 45
    assert all(c["cos_phi"] is None for c in step["candidates"])


def test_place_lp_table_and_footer(capsys):
    code, out, _err = cli(capsys, "place-lp", FIXTURE10, "--count", "1",
                          "--strategy", "limit")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1,1-8"
    assert lines[-1] == "lp_count=630"
    table = lines[4:-1]
    assert len(table) == 45
    winner = next(ln for ln in table if ln.startswith("1-8,"))
    fields = winner.split(",")
    assert float(fields[1]) == pytest.approx(757.895770356, rel=1e-9)
    assert float(fields[2]) == pytest.approx(1.59020375183, rel=1e-9)
    worst = next(ln for ln in table if ln.split(",")[2] == "100")
    assert worst.startswith("1-3,")


def test_place_lp_rejects_limit_strategy_without_limits(capsys):
    code, _out, err = cli(capsys, "place-lp", TRIANGLE3, "--count", "1",
                          "--strategy", "limit")
    assert code == 2
    assert err.startswith("error: ")


def test_compare_placements_agree(capsys):
    code, out, _err = cli(capsys, "compare-placements", FIXTURE10,
                          "--count", "1", "--strategy", "limit")
    assert code == 0
    assert out.splitlines() == ["step,cv_pair,lp_pair,agree", "1,1-8,1-8,1"]


def test_compare_placements_flags(capsys):
    """One row per step: each algorithm's pair and whether the two agree."""
    code, out, err = cli(capsys, "compare-placements", FIXTURE10, "--count", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["step,cv_pair,lp_pair,agree", "1,1-8,1-8,1", "2,3-6,5-9,0"]
    code, out, err = cli(capsys, "compare-placements", FIXTURE10, "--count", "2",
                         "--output", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == [
        {"step": 1, "cv_pair": [1, 8], "lp_pair": [1, 8], "agree": True},
        {"step": 2, "cv_pair": [3, 6], "lp_pair": [5, 9], "agree": False}]


@pytest.mark.parametrize("argv", [
    ["cos-curve", CASE14, "--max", "99", "--algorithm", "cv"],
    ["place-cv", FIXTURE10, "--count", "10", "--cos-threshold", "1.5"],
    ["compare-placements", FIXTURE10, "--count", "10"]])
def test_cv_count_past_the_parallel_bound_is_refused_unscored(capsys, monkeypatch, argv):
    """A count past n_B - 1 gets the error its step n_B would raise, before
    any step is scored."""
    calls = []
    monkeypatch.setattr("gridctrl.place_cv.orthant_volume_sum", lambda *a: calls.append(a))
    code, out, err = cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {_SPAN}\n")
    assert calls == []


def test_cv_count_past_the_one_pair_of_two_buses(capsys, tmp_path):
    path = tmp_path / "two.json"
    path.write_text(native_doc([1, 2], [(1, 1, 2, 0.1, "unlimited")]))
    code, out, err = cli(capsys, "place-cv", str(path), "--count", "2")
    assert (code, out, err) == (2, "", "error: all node pairs are already placed\n")
    code, out, err = cli(capsys, "place-cv", str(path), "--count", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["placement,pair", "1,1-2"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["place-lp", FIXTURE10, "--count", "2"],
    ["place-lp", CASE14, "--count", "2"],
    ["place-lp", TRIANGLE3, "--count", "2"],
    ["place-lp", CONGESTED3, "--count", "2"],
    ["place-lp", FIXTURE10, "--count", "2", "--strategy", "reactance"],
    ["cos-curve", TRIANGLE3, "--max", "2", "--algorithm", "lp"]])
def test_huge_param_runs_without_warnings(capsys, argv, output):
    """Efforts past the float range sum to inf, which JSON prints as null;
    no step of the scoring overflows on the way (a warning here is an error)."""
    code, out, err = cli(capsys, *argv, "--param", "1e308", "--output", output)
    assert (code, err) == (0, "")
    if argv[0] == "place-lp" and output == "json":
        efforts = [c["total_effort_mw"] for step in json.loads(out)["steps"] for c in step]
        assert None in efforts
        assert all(e is None or math.isfinite(e) for e in efforts)


def test_efforts_past_the_float_range_are_over_a_finite_cap(capsys):
    """Every setpoint of case14 at --param 1.7e308 overflows, so under a
    300 MW cap every target set is infeasible and no share prints as nan."""
    code, out, err = cli(capsys, "place-lp", CASE14, "--count", "1", "--param", "1.7e308",
                         "--pdc-max", "300")
    assert (code, err) == (0, "")
    table = out.split("\n\n")[1].splitlines()
    assert table[0] == "pair,total_effort_mw,relative_percent,infeasible_sets,lp_count"
    assert len(table) == 1 + 91 + 1
    assert all(row.split(",")[1:] == ["0", "", "20", "20"] for row in table[1:-1])


def test_metrics_footer(capsys):
    code, out, _err = cli(capsys, "metrics", FIXTURE10)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair,norm1,log_volume,dimension,rank_norm1,rank_volume"
    assert len(lines) == 47
    assert lines[-1] == "spearman_rho=0.863241106719"


@pytest.mark.parametrize("case", [TRIANGLE3, CONGESTED3])
def test_metrics_with_tied_ranks_prints_table(capsys, case):
    """Every pair ties on one metric, so the rank correlation is undefined."""
    code, out, err = cli(capsys, "metrics", case)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[-1] == "spearman_rho=undefined"
    code, out, err = cli(capsys, "metrics", case, "--output", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["spearman_rho"] is None
    assert [r["pair"] for r in doc["rows"]] == [[1, 2], [1, 3], [2, 3]]


# ---------------------------------------------------------------------------
# dispatch


def test_opf_json(capsys):
    code, out, _err = cli(capsys, "opf", CONGESTED3)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["cost"] == pytest.approx(3300.0)
    assert [g["p_mw"] for g in doc["dispatch"]] == pytest.approx([60.0, 90.0])
    assert [f["flow_mw"] for f in doc["flows"]] == pytest.approx(
        [70.0, -80.0, -10.0])


def test_opf_csv(capsys):
    code, out, _err = cli(capsys, "opf", CONGESTED3, "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status,optimal"
    assert lines[1] == "cost,3300"
    assert "gen,bus,p_mw" in lines
    assert "1,70" in lines


def test_opf_with_capped_controller(capsys):
    code, out, _err = cli(capsys, "opf", CONGESTED3, "--place", "1,2",
                          "--pdc-max", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["cost"] == pytest.approx(2900.0)
    assert doc["hvdc_base_mw"] == pytest.approx([-10.0])


def test_opf_infeasible_exit_code(capsys, short_case):
    code, out, err = cli(capsys, "opf", short_case)
    assert code == 1
    assert json.loads(out) == {"status": "infeasible"}
    assert err == "infeasible: no dispatch satisfies the constraints\n"


OPF_COMMANDS = [["opf"], ["sc-opf"], ["sc-opf", "--mode", "corrective"]]


@pytest.mark.parametrize("argv", OPF_COMMANDS, ids=" ".join)
def test_case_without_generator_or_load_costs_nothing(capsys, argv):
    """triangle3 has no generator, so its LP has no variable at all."""
    code, out, err = cli(capsys, argv[0], TRIANGLE3, *argv[1:], "--output", "csv")
    assert (code, err) == (0, "")
    assert out.startswith("status,optimal\ncost,0\n")


@pytest.mark.parametrize("argv", OPF_COMMANDS, ids=" ".join)
def test_load_without_generator_is_infeasible(capsys, tmp_path, argv):
    path = tmp_path / "no_gen.json"
    path.write_text(native_doc(
        [1, 2, 3], [(1, 1, 2, 0.1, 100.0), (2, 2, 3, 0.1, 100.0), (3, 1, 3, 0.1, 100.0)],
        loads=[(2, 50.0)]))
    code, out, err = cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert json.loads(out) == {"status": "infeasible"}
    assert err == "infeasible: no dispatch satisfies the constraints\n"


def test_sc_opf_cost(capsys):
    code, out, _err = cli(capsys, "sc-opf", FIXTURE10)
    assert code == 0
    doc = json.loads(out)
    assert doc["cost"] == pytest.approx(12510.0445106166, rel=1e-9)


def test_sc_opf_infeasible(capsys):
    code, out, err = cli(capsys, "sc-opf", CONGESTED3)
    assert code == 1
    assert json.loads(out) == {"status": "infeasible"}
    assert err.startswith("infeasible: ")


def test_sc_opf_bad_contingency(capsys):
    code, _out, err = cli(capsys, "sc-opf", FIXTURE10, "--contingency", "99")
    assert code == 2
    assert err.startswith("error: ")


def test_sc_opf_corrective_with_recourse(capsys):
    code, out, _err = cli(capsys, "sc-opf", FIXTURE10, "--mode", "corrective",
                          "--place", "1,8")
    assert code == 0
    doc = json.loads(out)
    assert doc["cost"] == pytest.approx(8699.61768104776, rel=1e-6)
    assert len(doc["hvdc_contingency_mw"]) == 14
    assert doc["hvdc_contingency_mw"][0]["contingency"] == 1


# ---------------------------------------------------------------------------
# cost-of-security curve


def test_cos_curve_csv_and_dat(capsys, tmp_path):
    dat = tmp_path / "curve.dat"
    code, out, _err = cli(capsys, "cos-curve", FIXTURE10, "--max", "1",
                          "--dat", str(dat))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count,pair_m,pair_n,cos_percent,cos_abs"
    first = lines[1].split(",")
    assert first[:3] == ["0", "", ""]
    assert float(first[3]) == pytest.approx(46.3163100657, rel=1e-8)
    second = lines[2].split(",")
    assert second[:3] == ["1", "1", "8"]
    assert float(second[3]) == pytest.approx(1.7499143982, rel=1e-6)
    dat_lines = dat.read_text().splitlines()
    assert dat_lines[0] == "# controllers cos_percent"
    assert dat_lines[1].startswith("0 46.316")
    assert dat_lines[2].startswith("1 1.7499")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cos_curve_json_has_no_infinity(capsys, tmp_path):
    """With C_OPF <= 0 a nonzero CoS has no finite percentage: JSON prints
    null, the CSV inf."""
    net = load_case("fixture10")
    path = tmp_path / "negative_c0.json"
    path.write_text(serialize_case(replace(net, generators=tuple(
        replace(g, cost=(-1e6, *g.cost[1:])) for g in net.generators))))
    code, out, err = cli(capsys, "cos-curve", str(path), "--max", "1", "--output", "json")
    assert (code, err) == (0, "")
    points = json.loads(out, parse_constant=_no_constant)
    assert [pt["cos_percent"] for pt in points] == [None, None]
    assert all(pt["cos_abs"] > 0.0 for pt in points)
    code, out, _err = cli(capsys, "cos-curve", str(path), "--max", "1")
    assert code == 0
    assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["inf", "inf"]


def test_cos_curve_infeasible_case(capsys):
    code, _out, err = cli(capsys, "cos-curve", CONGESTED3, "--max", "1")
    assert code == 1
    assert err.startswith("infeasible: ")


def test_cos_curve_refuses_a_negative_max_and_an_unknown_algorithm(capsys):
    """Both are refused before any placement or OPF runs."""
    code, out, err = cli(capsys, "cos-curve", FIXTURE10, "--max", "-1")
    assert (code, out, err) == (2, "", "error: max_count must be >= 0\n")
    code, out, err = cli(capsys, "cos-curve", FIXTURE10, "--max", "1", "--algorithm", "best")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --algorithm: invalid choice: 'best'")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# output redirection and determinism


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "bounds.json"
    code, out, _err = cli(capsys, "bounds", FIXTURE10, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == \
        '{"series_bound":5,"parallel_bound":9,"ptdf_rank":9}\n'


def _run_cli_subprocess(argv, threads):
    return subprocess.run(
        [sys.executable, "-m", "gridctrl.cli", *argv],
        capture_output=True, env=child_env(OPENBLAS_NUM_THREADS=str(threads)), check=False)


def test_threaded_runs_are_byte_identical():
    for argv in (["place-lp", FIXTURE10, "--count", "1", "--strategy", "limit"],
                 ["place-cv", FIXTURE10, "--count", "2"],
                 ["sc-opf", FIXTURE10, "--place", "1,8", "--output", "json"],
                 ["sc-opf", FIXTURE10, "--mode", "corrective", "--place", "1,8",
                  "--output", "json"],
                 ["cos-curve", FIXTURE10, "--max", "3", "--output", "json"],
                 ["place-cv", CASE14, "--count", "6", "--output", "json"]):
        first = _run_cli_subprocess(argv, threads=2)
        second = _run_cli_subprocess(argv, threads=2)
        sequential = _run_cli_subprocess(argv, threads=1)
        assert first.returncode == 0
        assert first.stdout == second.stdout == sequential.stdout


def test_input_error_writes_no_output(capsys, tmp_path):
    target = tmp_path / "cv.csv"
    code, out, err = cli(capsys, "cv", FIXTURE10, "--pair", "1,1",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == "error: pair buses must be distinct\n"
    assert not target.exists()


@pytest.mark.parametrize("exc", [SimplexStallError("no optimum after 9 iterations"),
                                 ZeroDivisionError("float division by zero"),
                                 np.linalg.LinAlgError("Singular matrix"),
                                 KeyError("n_seg"),
                                 ValueError("operands could not be broadcast")])
def test_solver_failure_or_bug_is_internal(capsys, tmp_path, monkeypatch, exc):
    def broken(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr("gridctrl.opf.solve_lp", broken)
    target = tmp_path / "opf.csv"
    code, out, err = cli(capsys, "opf", FIXTURE10, "--out", str(target))
    assert code == 3
    assert out == ""
    assert err == f"internal: {type(exc).__name__}: {exc}\n"
    assert not target.exists()


def test_singular_reduced_matrix_is_an_input_error(capsys, monkeypatch):
    """dcsens turns its own LinAlgError into DisconnectedNetworkError, which
    stays an input error although LinAlgError itself is internal."""
    def singular(_a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("gridctrl.dcsens.np.linalg.inv", singular)
    code, out, err = cli(capsys, "ptdf", FIXTURE10)
    assert (code, out) == (2, "")
    assert err == "error: reduced susceptance matrix is singular\n"


COUNTS = st.sampled_from(["-1", "0", "1", "2", "3", "4"])
FLOATS = st.sampled_from(["0", "0.5", "1", "50", "300", "1e12", "1e15", "1e20", "1e308",
                          "-5", "nan", "inf", "-inf"])
# fixture10 only where every drawn count still runs in milliseconds
FIXTURE10_COMMANDS = ("opf", "sc-opf", "fix-flows", "place-cv")


@st.composite
def command_lines(draw):
    """A subcommand on a bundled case with drawn option values."""
    name = draw(st.sampled_from(["opf", "sc-opf", "cos-curve", "place-cv",
                                 "place-lp", "fix-flows", "cv"]))
    cases = ["triangle3", "congested3"] + (["fixture10"] if name in FIXTURE10_COMMANDS else [])
    argv = [name, str(case_path(draw(st.sampled_from(cases)))),
            "--output", draw(st.sampled_from(["csv", "json"]))]

    def option(flag, values, required=False, repeat=1):
        for _ in range(draw(st.integers(1 if required else 0, repeat))):
            argv.extend([flag, draw(values)])

    pair = st.builds("{},{}".format, COUNTS, COUNTS)
    modes = st.sampled_from(["preventive", "corrective"])
    strategies = st.sampled_from(["const", "limit", "reactance"])
    if name == "cv":
        option("--pair", pair)
        if draw(st.booleans()):
            argv.append("--all")
    if name == "fix-flows":
        option("--fix", st.builds("{}={}".format, COUNTS, FLOATS), repeat=2)
    if name in ("opf", "sc-opf"):
        option("--place", pair, repeat=2)
    if name in ("sc-opf", "cos-curve"):
        option("--mode", modes)
        option("--contingency", COUNTS, repeat=2)
    if name in ("place-cv", "place-lp"):
        option("--count", COUNTS, required=True)
    if name == "place-cv":
        option("--cos-threshold", FLOATS)
        option("--candidate-cap", COUNTS)
    if name == "cos-curve":
        option("--max", COUNTS, required=True)
        option("--algorithm", st.sampled_from(["cv", "lp"]))
    if name in ("place-lp", "cos-curve"):
        option("--strategy", strategies)
        option("--param", FLOATS)
    if name in ("opf", "sc-opf", "cos-curve", "place-lp"):
        option("--pdc-max", FLOATS)
    if name in ("opf", "sc-opf", "cos-curve"):
        option("--segments", COUNTS)
    return argv


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "out"


@settings(max_examples=250, deadline=None)
@given(argv=command_lines())
def test_no_command_line_on_a_bundled_case_is_internal(out_path, argv):
    """Whatever the option values, the answer is a result, an infeasibility or
    an input error: one stderr line with its prefix, and no file on exit 2."""
    out_path.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run([*argv, "--out", str(out_path)])
    err = stderr.getvalue()
    assert code in (0, 1, 2), err
    if code:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith({1: "infeasible: ", 2: "error: "}[code])
    if code == 2:
        assert not out_path.exists()


@pytest.mark.parametrize("x", [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16,
    0.1 + 0.2, 1 / 3, np.float64(-0.0), np.float64(-2.5e-7), 0, 7, -3])
def test_cell_is_twelve_digit_float_form(x):
    expected = format(abs(float(x)) if x == 0 else float(x), ".12g")
    assert _cell(x) == expected


def test_cell_blank_pair_and_text():
    assert _cell(None) == ""
    assert _cell((3, 8)) == "3-8"
    assert _cell("status") == "status"


# ---------------------------------------------------------------------------
# golden CSV and JSON bytes of every subcommand on the bundled cases

# Each "### ARGV" header is followed by the bytes the CLI printed for ARGV, with
# bundled case names standing for their files.  A diff here is a change in
# the CLI's output bytes.
GOLDEN = Path(__file__).with_name("cli_golden.txt")


def _golden():
    parts = re.split(r"^### (.*)\n", GOLDEN.read_text(), flags=re.M)
    return list(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("command,expected", _golden(),
                         ids=[command for command, _ in _golden()])
def test_csv_matches_golden(capsys, command, expected):
    name, case, *rest = command.split()
    code, out, err = cli(capsys, name, str(case_path(case)), *rest)
    assert (code, err) == (0, "")
    assert out == expected
