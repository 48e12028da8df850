"""Case parsing, validation, and parallel-line merging."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import angle_flows
from gridctrl.cases import case_names, case_path
from gridctrl.netmodel import (
    MATPOWER_SUBSET,
    NATIVE_JSON,
    Bus,
    CaseFormatError,
    Generator,
    InputError,
    Line,
    Load,
    Network,
    connected_components,
    merge_parallel_lines,
    parse_case,
    serialize_case,
    validate,
)

MINIMAL = {
    "base_mva": 100.0,
    "buses": [{"id": 1, "is_slack": True}, {"id": 2}],
    "lines": [{"id": 1, "from_bus": 1, "to_bus": 2, "reactance": 0.1}],
}


def native(doc) -> Network:
    return parse_case(json.dumps(doc))


# ---------------------------------------------------------------------------
# native JSON


def test_bundled_counts(triangle3, fixture10, case14, congested3):
    assert (triangle3.n_bus, triangle3.n_line, triangle3.slack_id) == (3, 3, 1)
    assert (fixture10.n_bus, fixture10.n_line, fixture10.slack_id) == (10, 14, 1)
    assert (case14.n_bus, case14.n_line, case14.slack_id) == (14, 20, 1)
    assert (congested3.n_bus, congested3.n_line) == (3, 3)
    assert len(fixture10.generators) == 3
    assert sum(fixture10.load_vector) == pytest.approx(550.0)


def test_native_defaults():
    net = native(MINIMAL)
    ln = net.lines[0]
    assert math.isinf(ln.limit) and ln.in_service
    assert net.generators == () and net.loads == ()


def test_native_mw_scaling():
    """MW and $/h values are stored as read, whatever base_mva says."""
    doc = dict(MINIMAL, base_mva=137.0)
    doc["lines"] = [{"id": 1, "from_bus": 1, "to_bus": 2,
                     "reactance": 0.1, "limit": 190.0}]
    doc["generators"] = [{"bus": 1, "p_min": 0.0, "p_max": 400.0,
                          "cost": [5.0, 12.0, 0.1]}]
    doc["loads"] = [{"bus": 2, "p": 60.0}]
    net = native(doc)
    assert net.lines[0].limit == 190.0
    assert net.lines[0].reactance == 0.1
    g = net.generators[0]
    assert (g.p_min, g.p_max) == (0.0, 400.0)
    assert g.cost == (5.0, 12.0, 0.1)
    assert g.cost_at(400.0) == pytest.approx(5.0 + 12.0 * 400 + 0.1 * 400**2)
    assert net.loads[0].p == 60.0
    assert net.base_mva == 137.0


def test_native_short_cost_forms():
    doc = dict(MINIMAL)
    doc["generators"] = [{"bus": 1, "p_min": 0.0, "p_max": 100.0, "cost": [7.0]},
                         {"bus": 2, "p_min": 0.0, "p_max": 100.0, "cost": [0.0, 30.0]}]
    net = native(doc)
    assert net.generators[0].cost == (7.0, 0.0, 0.0)
    assert net.generators[1].cost == (0.0, 30.0, 0.0)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("base_mva"), "missing required key 'base_mva'"),
    (lambda d: d.update(base_mva=0.0), "base_mva must be > 0"),
    (lambda d: d.update(extras=[]), "unknown top-level key"),
    (lambda d: d["lines"][0].pop("reactance"), "missing required key 'reactance'"),
    (lambda d: d["lines"][0].update(limit="lots"), 'must be a number or "unlimited"'),
    (lambda d: d["buses"][0].update(id=True), "must be an integer"),
    (lambda d: d.update(generators=[{"bus": 1, "p_min": 0.0, "p_max": 1.0,
                                     "cost": [1, 2, 3, 4]}]), "cost must be"),
    (lambda d: d.update(base_mva=math.nan), "line 1, col 14: non-finite number NaN"),
    (lambda d: d.update(loads=[{"bus": 2, "p": math.inf}]), "non-finite number Infinity"),
    (lambda d: d["lines"][0].update(limit=-math.inf), "non-finite number -Infinity"),
    (lambda d: d.update(base_mva=10 ** 400), "case: key 'base_mva' must be a finite number"),
    (lambda d: d["lines"][0].update(limit=10 ** 400), "lines[0]: limit must be a finite number"),
    (lambda d: d.update(generators=[{"bus": 1, "p_min": 0.0, "p_max": 1.0,
                                     "cost": [0, -10 ** 400]}]),
     "generators[0]: cost[1] must be a finite number"),
    (lambda d: d["buses"][1].update(is_slack="no"),
     "buses[1]: key 'is_slack' must be true or false, got str"),
    (lambda d: d["buses"][0].update(is_slack=1),
     "buses[0]: key 'is_slack' must be true or false, got int"),
    (lambda d: d["lines"][0].update(in_service="false"),
     "lines[0]: key 'in_service' must be true or false, got str"),
    (lambda d: d["lines"][0].update(in_service=None),
     "lines[0]: key 'in_service' must be true or false, got NoneType"),
])
def test_native_rejects(mutate, fragment):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(CaseFormatError, match=re.escape(fragment)):
        native(doc)


@pytest.mark.parametrize("mutate,get,value", [
    (lambda d: (d.update(base_mva=1e-300), d["lines"][0].update(limit=1e10)),
     lambda net: net.lines[0].limit, 1e10),
    (lambda d: d.update(base_mva=1e300, generators=[{"bus": 1, "p_min": 0.0, "p_max": 1.0,
                                                     "cost": [0, 0, 1.0]}]),
     lambda net: net.generators[0].cost, (0.0, 0.0, 1.0)),
    (lambda d: d.update(base_mva=1e-300, loads=[{"bus": 2, "p": 1e10}]),
     lambda net: net.loads[0].p, 1e10),
    (lambda d: d.update(base_mva=1e-300, generators=[{"bus": 1, "p_min": 0.0, "p_max": 1e10}]),
     lambda net: net.generators[0].p_max, 1e10),
], ids=["limit-at-base-1e-300", "cost-at-base-1e300", "load-at-base-1e-300",
        "p_max-at-base-1e-300"])
def test_native_keeps_mw_at_extreme_base(mutate, get, value):
    """A base_mva far from the MW values scales nothing, so nothing overflows."""
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    net = native(doc)
    assert get(net) == value
    assert parse_case(serialize_case(net)) == net


@pytest.mark.parametrize("text,fragment,col", [
    ('{\n  "base_mva": 1e400\n}', "case: key 'base_mva' must be a finite number", None),
    ('{\n  "name": "NaN \\" -Infinity", "base_mva": -Infinity\n}',
     "line 2, col 43: non-finite number -Infinity", 43),
])
def test_native_non_finite_text(text, fragment, col):
    """An overflowing literal is named by its key; a constant by its place,
    which a string holding the same word does not shift."""
    with pytest.raises(CaseFormatError, match=re.escape(fragment)) as info:
        parse_case(text)
    assert info.value.col == col


def test_native_syntax_error_position():
    with pytest.raises(CaseFormatError) as info:
        parse_case('{\n  "base_mva": 100,,\n}')
    assert info.value.line == 2
    assert info.value.col is not None
    assert "line 2" in str(info.value)


@pytest.mark.parametrize("doc,code", [
    ({**MINIMAL, "buses": [{"id": 1}, {"id": 2}]}, "slack-count"),
    ({**MINIMAL, "buses": [{"id": 1, "is_slack": True},
                           {"id": 2, "is_slack": True}]}, "slack-count"),
    ({**MINIMAL, "buses": [{"id": 1, "is_slack": True}, {"id": 1}]},
     "duplicate-bus-id"),
    ({**MINIMAL, "lines": MINIMAL["lines"] * 2}, "duplicate-line-id"),
    ({**MINIMAL, "lines": [{"id": 1, "from_bus": 1, "to_bus": 2,
                            "reactance": 0.0}]}, "bad-reactance"),
], ids=["no-slack", "two-slacks", "duplicate-bus", "duplicate-line", "zero-reactance"])
def test_parser_leaves_structure_to_validate(doc, code):
    """The parser reads a structurally broken case; validate names the fault."""
    assert code in {v.code for v in validate(native(doc))}


@pytest.mark.parametrize("slack", [False, True])
def test_slack_id_needs_exactly_one_slack_bus(slack):
    net = native({**MINIMAL, "buses": [{"id": 1, "is_slack": slack}, {"id": 2, "is_slack": slack}]})
    with pytest.raises(InputError, match=f"network has {2 * slack} slack buses"):
        net.slack_id


def test_roundtrip_exact(triangle3, fixture10, congested3):
    for net in (triangle3, fixture10, congested3):
        assert parse_case(serialize_case(net)) == net


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def parsed_networks(draw):
    """A network parsed from a native document with arbitrary finite values:
    multigraph lines, any base_mva and cost, limits or "unlimited"."""
    n = draw(st.integers(1, 5))
    bus = st.integers(1, n)
    doc = {
        "base_mva": draw(st.floats(min_value=5e-324, allow_infinity=False)),
        "buses": [{"id": b, "is_slack": b == 1} for b in range(1, n + 1)],
        "lines": [{"id": i, "from_bus": draw(bus), "to_bus": draw(bus),
                   "reactance": draw(st.floats(min_value=5e-324, allow_infinity=False)),
                   "limit": draw(_FINITE | st.just("unlimited")),
                   "in_service": draw(st.booleans())}
                  for i in range(1, draw(st.integers(0, 6)) + 1)],
        "generators": [{"bus": draw(bus), "p_min": draw(_FINITE), "p_max": draw(_FINITE),
                        "cost": draw(st.lists(_FINITE, max_size=3))}
                       for _ in range(draw(st.integers(0, 3)))],
        "loads": [{"bus": draw(bus), "p": draw(_FINITE)} for _ in range(draw(st.integers(0, 3)))],
    }
    try:
        return parse_case(json.dumps(doc))
    except CaseFormatError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(net=parsed_networks())
def test_roundtrip_generated(net):
    """Bit-exact for any finite numbers and any base_mva."""
    assert parse_case(serialize_case(net)) == net


_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
_TOKENS = ["NaN", "nan", "inf", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400",
           "9" * 400, "1e308", "1e-308", "0", "-0", "-1", "0.5", "2", "true", "null",
           '"unlimited"', '""', "[]", "{}", "[", "]", "{", "}", ",", ":", ";", "%", "\n",
           '"', "mpc.bus = [", "mpc.baseMVA = 0;", "function"]


@st.composite
def mutated_cases(draw):
    """A bundled case text with one to four edits: a number or a random span
    replaced by a grammar token or by a few random characters."""
    name = draw(st.sampled_from(case_names()))
    text = case_path(name).read_text()
    for _ in range(draw(st.integers(1, 4))):
        token = draw(st.sampled_from(_TOKENS) | st.text(max_size=4))
        spans = [m.span() for m in _NUMBER.finditer(text)]
        if spans and draw(st.booleans()):
            start, end = draw(st.sampled_from(spans))
        else:
            start = draw(st.integers(0, len(text)))
            end = start + draw(st.integers(0, 8))
        text = text[:start] + token + text[end:]
    return (MATPOWER_SUBSET if name.endswith(".m") else NATIVE_JSON), text


@settings(max_examples=400, deadline=None)
@given(case=mutated_cases())
def test_parsers_raise_only_case_format_errors(case):
    """Only CaseFormatError escapes parse_case, and what parses round-trips."""
    fmt, text = case
    try:
        net = parse_case(text, fmt)
    except CaseFormatError:
        return
    assert parse_case(serialize_case(net)) == net


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown case format"):
        parse_case("{}", "csv")


# ---------------------------------------------------------------------------
# validate()


def test_validate_bundled_clean(triangle3, fixture10, case14, congested3):
    for net in (triangle3, fixture10, case14, congested3):
        assert validate(net) == []


def _two_bus(**kwargs) -> Network:
    base = dict(
        buses=(Bus(1, is_slack=True), Bus(2)),
        lines=(Line(1, 1, 2, 0.1),),
    )
    base.update(kwargs)
    return Network(**base)


@pytest.mark.parametrize("net,code", [
    (_two_bus(buses=(Bus(1, True), Bus(1))), "duplicate-bus-id"),
    (_two_bus(buses=(Bus(1), Bus(2))), "slack-count"),
    (_two_bus(lines=(Line(1, 1, 2, 0.1), Line(1, 1, 2, 0.2))), "duplicate-line-id"),
    (_two_bus(lines=(Line(1, 1, 7, 0.1),)), "dangling-bus"),
    (_two_bus(lines=(Line(1, 1, 2, 0.1), Line(2, 2, 2, 0.1))), "self-loop"),
    (_two_bus(lines=(Line(1, 1, 2, -0.1),)), "bad-reactance"),
    (_two_bus(lines=(Line(1, 1, 2, 0.1, limit=0.0),)), "bad-limit"),
    (_two_bus(generators=(Generator(1, 2.0, 1.0),)), "gen-bounds"),
    (_two_bus(generators=(Generator(1, 0.0, 1.0, cost=(0, 0, -1.0)),)),
     "nonconvex-cost"),
    (_two_bus(loads=(Load(2, -0.5),)), "negative-load"),
    (_two_bus(lines=(Line(1, 1, 2, 0.1, in_service=False),)), "disconnected"),
])
def test_validate_codes(net, code):
    assert code in {v.code for v in validate(net)}


def test_validate_reports_every_issue():
    net = Network(
        buses=(Bus(1), Bus(2)),
        lines=(Line(1, 1, 2, -0.1, limit=0.0),),
    )
    codes = {v.code for v in validate(net)}
    assert {"slack-count", "bad-reactance", "bad-limit"} <= codes


def test_connected_components():
    net = Network(
        buses=(Bus(1, True), Bus(2), Bus(3), Bus(4)),
        lines=(Line(1, 1, 2, 0.1), Line(2, 3, 4, 0.1)),
    )
    comps = connected_components(net)
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3, 4]]
    assert {v.code for v in validate(net)} == {"disconnected"}


def test_line_lookup_by_id():
    """line_by_id reads every line, out-of-service ones included; an unknown
    id is an input error there as in line_row."""
    net = Network(
        buses=(Bus(1, True), Bus(2)),
        lines=(Line(1, 1, 2, 0.2), Line(2, 1, 2, 0.3, in_service=False)),
    )
    assert net.line_by_id(2).reactance == 0.3 and not net.line_by_id(2).in_service
    with pytest.raises(InputError, match="^no line with id 99$"):
        net.line_by_id(99)
    with pytest.raises(InputError, match="^no in-service line with id 2$"):
        net.line_row(2)


# ---------------------------------------------------------------------------
# merge_parallel_lines


def _parallel_net(x_a=0.2, x_b=0.2) -> Network:
    return Network(
        buses=(Bus(1, is_slack=True), Bus(2), Bus(3)),
        lines=(
            Line(4, 1, 2, x_a, limit=1.0),
            Line(7, 2, 1, x_b, limit=0.5),
            Line(9, 2, 3, 0.1, limit=2.0),
        ),
    )


def test_merge_equal_reactances():
    merged = merge_parallel_lines(_parallel_net(0.2, 0.2))
    assert [ln.id for ln in merged.lines] == [4, 9]
    eq = merged.line_by_id(4)
    assert eq.reactance == pytest.approx(0.1)
    assert eq.limit == pytest.approx(1.5)
    assert (eq.from_bus, eq.to_bus) == (1, 2)


def test_merge_unequal_reactances():
    merged = merge_parallel_lines(_parallel_net(0.1, 0.3))
    assert merged.line_by_id(4).reactance == pytest.approx(0.075)


def test_merge_idempotent():
    once = merge_parallel_lines(_parallel_net())
    assert merge_parallel_lines(once) == once


def test_merge_no_op_returns_same(fixture10):
    assert merge_parallel_lines(fixture10) is fixture10


def test_merge_skips_out_of_service():
    net = Network(
        buses=(Bus(1, is_slack=True), Bus(2)),
        lines=(Line(1, 1, 2, 0.2), Line(2, 1, 2, 0.2, in_service=False),
               Line(3, 1, 2, 0.2)),
    )
    merged = merge_parallel_lines(net)
    assert [ln.id for ln in merged.lines] == [1, 2]
    assert merged.line_by_id(1).reactance == pytest.approx(0.1)
    assert not merged.line_by_id(2).in_service


def test_merge_preserves_physics():
    """The merged branch must carry the group's total flow, split 1/x."""
    net = _parallel_net(0.1, 0.3)
    merged = merge_parallel_lines(net)
    p = np.array([1.0, 0.5, -1.5])
    before = angle_flows(net, p)
    after = angle_flows(merged, p)
    # line 7 is written 2->1, so its from->to flow enters the group negated
    group_total = before[0] - before[1]
    assert after[0] == pytest.approx(group_total, abs=1e-12)
    assert after[1] == pytest.approx(before[2], abs=1e-12)
    # flow divides in proportion to susceptance
    assert before[0] * 0.1 == pytest.approx(-before[1] * 0.3, abs=1e-12)


# ---------------------------------------------------------------------------
# MATPOWER subset

MP_OK = """\
function mpc = two_bus
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
  1 3 0    0 0 0 1 1.0 0 345 1 1.1 0.9;
  2 1 40.5 0 0 0 1 1.0 0 345 1 1.1 0.9;
];
mpc.branch = [
  1 2 0.01 0.05 0.0 250 0 0 0 0 1 -360 360;
];
mpc.gen = [
  1 0 0 999 -999 1.0 100 1 120 10;
];
mpc.gencost = [
  2 0 0 3 0.02 14 600;
];
"""


def test_matpower_basics():
    net = parse_case(MP_OK, MATPOWER_SUBSET)
    assert net.base_mva == 100.0
    assert net.bus_ids == (1, 2)
    assert net.slack_id == 1
    ln = net.lines[0]
    assert (ln.from_bus, ln.to_bus, ln.id) == (1, 2, 1)
    assert ln.reactance == pytest.approx(0.05)
    assert ln.limit == 250.0
    assert net.loads == (Load(bus=2, p=40.5),)
    g = net.generators[0]
    assert (g.p_min, g.p_max) == (10.0, 120.0)
    assert g.cost == (600.0, 14.0, 0.02)
    assert g.cost_at(120.0) == pytest.approx(600 + 14 * 120 + 0.02 * 120**2)


def test_matpower_zero_rate_is_unlimited():
    text = MP_OK.replace("0.05 0.0 250", "0.05 0.0 0")
    net = parse_case(text, MATPOWER_SUBSET)
    assert math.isinf(net.lines[0].limit)


def test_matpower_offline_gen_skipped():
    text = MP_OK.replace("100 1 120 10", "100 0 120 10")
    net = parse_case(text, MATPOWER_SUBSET)
    assert net.generators == ()


def test_matpower_out_of_service_branch():
    text = MP_OK.replace("0 0 0 1 -360", "0 0 0 0 -360")
    net = parse_case(text, MATPOWER_SUBSET)
    assert not net.lines[0].in_service
    assert net.n_line == 0


def test_matpower_comments_and_inline_rows():
    text = ("mpc.baseMVA = 50; % system base\n"
            "mpc.bus = [ 1 3 0 0 0 0 1 1 0 0 1 1.1 0.9; "
            "2 1 0 0 0 0 1 1 0 0 1 1.1 0.9 ];\n"
            "% nothing here\n"
            "mpc.branch = [ 1 2 0 0.2 0 0 0 0 0 0 1 ];\n")
    net = parse_case(text, MATPOWER_SUBSET)
    assert net.base_mva == 50.0
    assert net.n_bus == 2 and net.n_line == 1


@pytest.mark.parametrize("mutate,fragment,lineno", [
    (lambda t: t.replace("0.05", "abc"), "not a number: 'abc'", 9),
    (lambda t: t.replace(" 0 0 0 1 -360 360", " 0 0.9 0 1 -360 360"),
     "off-nominal tap", None),
    (lambda t: t.replace(" 0 0 0 1 -360 360", " 0 0 30 1 -360 360"),
     "phase shift", None),
    (lambda t: t.replace("1 3 0    0 0 0", "1 3 0    0 5 0"),
     "shunt elements", None),
    (lambda t: t.replace("mpc.gencost", "mpc.storage"), "unsupported matpower block", 14),
    (lambda t: t + "mpc.bus = [\n];\n", "duplicate block 'mpc.bus'", None),
    (lambda t: t.replace("mpc.baseMVA = 100;\n", ""), "missing mpc.baseMVA", None),
    (lambda t: t.replace("2 0 0 3 0.02 14 600", "1 0 0 3 0.02 14 600"),
     "cost model 2", None),
    (lambda t: t.replace("2 0 0 3 0.02 14 600", "2 0 0 2 0.02 14 600"),
     "matching NCOST", None),
    (lambda t: t.replace("  2 0 0 3 0.02 14 600;\n];\n",
                         "  2 0 0 3 0.02 14 600;\n"), "not closed", None),
    (lambda t: t.replace("mpc.bus", "mpc.buses", 1), "unsupported matpower block", None),
    (lambda t: t.replace("  1 3 0 ", "  inf 3 0 "), "not a finite number: 'inf'", 5),
    (lambda t: t.replace("  1 3 0 ", "  nan 3 0 "), "not a finite number: 'nan'", 5),
    (lambda t: t.replace("0.05", "1e400"), "not a finite number: '1e400'", 9),
    (lambda t: t.replace("0.05", "-Infinity"), "not a finite number: '-Infinity'", 9),
    (lambda t: t.replace("baseMVA = 100", "baseMVA = NaN"), "baseMVA must be a finite number", 3),
    (lambda t: t.replace("baseMVA = 100", "baseMVA = 1e999"), "got '1e999'", 3),
    (lambda t: t.replace("  1 3 0 ", "  1.5 3 0 "), "bus row 1: bus id must be an integer, got 1.5",
     None),
    (lambda t: t.replace("  2 1 40.5", "  2 1.5 40.5"),
     "bus row 2: bus type must be an integer, got 1.5", None),
    (lambda t: t.replace("  1 2 0.01", "  1.5 2 0.01"),
     "branch row 1: from bus must be an integer, got 1.5", None),
    (lambda t: t.replace("  1 2 0.01", "  1 2.5 0.01"),
     "branch row 1: to bus must be an integer, got 2.5", None),
    (lambda t: t.replace("  1 0 0 999", "  1.25 0 0 999"),
     "gen row 1: bus must be an integer, got 1.25", None),
    (lambda t: t.replace("2 0 0 3 0.02 14 600", "2.5 0 0 3 0.02 14 600"),
     "gencost row 1: model must be an integer, got 2.5", None),
    (lambda t: t.replace("2 0 0 3 0.02 14 600", "2 0 0 2.5 0.02 14 600"),
     "gencost row 1: NCOST must be an integer, got 2.5", None),
    (lambda t: t.replace("  2 1 40.5", "  2 1 xx"), r"line 6, col 7: not a number: 'xx'", 6),
    (lambda t: t.replace("  1 3 0    0 0 0", "\t1 3 5e+1 e+1 0 0"),
     r"line 5, col 11: not a number: 'e\+1'", 5),
    (lambda t: t.replace("mpc.bus = [\n", "  mpc.bus = [ 1 3 0 0 0 0 1 1 0 0 1 1 1 zz;\n"),
     r"line 4, col 41: not a number: 'zz'", 4),
])
def test_matpower_rejects(mutate, fragment, lineno):
    with pytest.raises(CaseFormatError, match=fragment) as info:
        parse_case(mutate(MP_OK), MATPOWER_SUBSET)
    if lineno is not None:
        assert info.value.line == lineno


@pytest.mark.parametrize("mutate,get,value", [
    (lambda t: t.replace("baseMVA = 100", "baseMVA = 1e-300").replace(" 250 ", " 1e10 "),
     lambda net: net.lines[0].limit, 1e10),
    (lambda t: t.replace("baseMVA = 100", "baseMVA = 1e-300").replace(" 40.5 ", " 1e10 "),
     lambda net: net.loads[0].p, 1e10),
    (lambda t: t.replace("baseMVA = 100", "baseMVA = 1e300"),
     lambda net: net.generators[0].cost, (600.0, 14.0, 0.02)),
], ids=["limit-at-base-1e-300", "load-at-base-1e-300", "cost-at-base-1e300"])
def test_matpower_keeps_mw_at_extreme_base(mutate, get, value):
    net = parse_case(mutate(MP_OK), MATPOWER_SUBSET)
    assert get(net) == value
    assert parse_case(serialize_case(net)) == net


def test_matpower_gencost_row_mismatch():
    text = MP_OK + "\n"
    text = text.replace("mpc.gencost = [\n  2 0 0 3 0.02 14 600;\n];",
                        "mpc.gencost = [\n  2 0 0 3 0.02 14 600;"
                        "\n  2 0 0 3 0.02 14 600;\n];")
    with pytest.raises(CaseFormatError, match="1 generators"):
        parse_case(text, MATPOWER_SUBSET)


def test_case14_gen_and_cost(case14):
    g = case14.generators[0]
    assert g.bus == 1
    assert g.p_max == 332.4
    assert g.cost == (0.0, 20.0, 0.0430293)
    assert len(case14.generators) == 5
    assert sum(case14.load_vector) == pytest.approx(259.0)
