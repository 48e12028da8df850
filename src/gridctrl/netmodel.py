"""Network data model: case-file ingestion, validation, canonicalization.

A :class:`Network` holds the case file's numbers as they are: line limits,
loads and generator bounds in MW, generator costs in $/h for a dispatch in
MW, reactances in per unit.  ``base_mva`` is read, checked and written back
but enters no computation: PTDF, LODF and CV are dimensionless, and
reactances enter them only as ratios.

The parsers check syntax, types and numbers only; :func:`validate` alone
judges a case's structure.  :func:`read_case` picks the format by file name.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

UNLIMITED = math.inf

NATIVE_JSON = "native-json"
MATPOWER_SUBSET = "matpower-subset"


class InputError(ValueError):
    """A case, option or argument failed a deliberate check (CLI exit 2)."""


class CaseFormatError(InputError):
    """Malformed case file.  Carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, col {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Bus:
    id: int
    is_slack: bool = False


@dataclass(frozen=True)
class Line:
    """AC line. ``reactance`` in p.u., ``limit`` in MW (inf = unlimited)."""

    id: int
    from_bus: int
    to_bus: int
    reactance: float
    limit: float = UNLIMITED
    in_service: bool = True


@dataclass(frozen=True)
class Generator:
    """``p_min``/``p_max`` in MW; ``cost`` = (c0, c1, c2) with p in MW, $/h out."""

    bus: int
    p_min: float
    p_max: float
    cost: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def cost_at(self, p: float) -> float:
        c0, c1, c2 = self.cost
        return c0 + c1 * p + c2 * p * p


@dataclass(frozen=True)
class Load:
    """Constant-power demand, ``p`` in MW."""

    bus: int
    p: float


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...] = ()
    loads: tuple[Load, ...] = ()
    base_mva: float = 100.0

    @cached_property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def lines_in_service(self) -> tuple[Line, ...]:
        return tuple(ln for ln in self.lines if ln.in_service)

    @cached_property
    def _line_rows(self) -> dict[int, int]:
        return {ln.id: k for k, ln in enumerate(self.lines_in_service)}

    def line_row(self, line_id: int) -> int:
        """Row of in-service line ``line_id`` in every per-line matrix and vector."""
        try:
            return self._line_rows[line_id]
        except KeyError:
            raise InputError(f"no in-service line with id {line_id}") from None

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_line(self) -> int:
        """Number of in-service lines (the n_L used by every matrix)."""
        return len(self.lines_in_service)

    @cached_property
    def slack_id(self) -> int:
        slacks = [b.id for b in self.buses if b.is_slack]
        if len(slacks) != 1:
            raise InputError(f"network has {len(slacks)} slack buses, need exactly 1")
        return slacks[0]

    @property
    def slack_index(self) -> int:
        return self.bus_index[self.slack_id]

    def line_by_id(self, line_id: int) -> Line:
        """Line ``line_id``, in service or not."""
        for ln in self.lines:
            if ln.id == line_id:
                return ln
        raise InputError(f"no line with id {line_id}")

    @cached_property
    def load_vector(self) -> tuple[float, ...]:
        """Per-bus demand in MW, in bus order."""
        acc = [0.0] * self.n_bus
        for ld in self.loads:
            acc[self.bus_index[ld.bus]] += ld.p
        return tuple(acc)


def connected_components(net: Network) -> list[set[int]]:
    """Connected components (sets of bus ids) over in-service lines."""
    adj: dict[int, set[int]] = {b.id: set() for b in net.buses}
    for ln in net.lines_in_service:
        if ln.from_bus in adj and ln.to_bus in adj:
            adj[ln.from_bus].add(ln.to_bus)
            adj[ln.to_bus].add(ln.from_bus)
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def validate(net: Network) -> list[Violation]:
    """All structural checks on a case.  Returns a report; an empty list means valid."""
    out: list[Violation] = []
    seen_bus: set[int] = set()
    for b in net.buses:
        if b.id in seen_bus:
            out.append(Violation("duplicate-bus-id", f"bus id {b.id} appears more than once"))
        seen_bus.add(b.id)
    slacks = [b.id for b in net.buses if b.is_slack]
    if len(slacks) != 1:
        out.append(Violation("slack-count", f"expected exactly 1 slack bus, found {len(slacks)}"))
    seen_line: set[int] = set()
    for ln in net.lines:
        if ln.id in seen_line:
            out.append(Violation("duplicate-line-id", f"line id {ln.id} appears more than once"))
        seen_line.add(ln.id)
        for end in (ln.from_bus, ln.to_bus):
            if end not in seen_bus:
                out.append(Violation("dangling-bus", f"line {ln.id} references missing bus {end}"))
        if ln.from_bus == ln.to_bus:
            out.append(Violation("self-loop", f"line {ln.id} connects bus {ln.from_bus} to itself"))
        if not ln.reactance > 0.0:
            out.append(Violation("bad-reactance", f"line {ln.id} reactance must be > 0, got {ln.reactance}"))
        if not ln.limit > 0.0:
            out.append(Violation("bad-limit", f"line {ln.id} limit must be > 0 or unlimited, "
                                              f"got {ln.limit:.12g} MW"))
    for i, g in enumerate(net.generators):
        if g.bus not in seen_bus:
            out.append(Violation("dangling-bus", f"generator {i} references missing bus {g.bus}"))
        if g.p_min > g.p_max:
            out.append(Violation("gen-bounds", f"generator {i} has p_min {g.p_min:.12g} MW "
                                               f"> p_max {g.p_max:.12g} MW"))
        if g.cost[2] < 0.0:
            out.append(Violation("nonconvex-cost", f"generator {i} has negative quadratic cost coefficient"))
    for i, ld in enumerate(net.loads):
        if ld.bus not in seen_bus:
            out.append(Violation("dangling-bus", f"load {i} references missing bus {ld.bus}"))
        if ld.p < 0.0:
            out.append(Violation("negative-load", f"load {i} has negative demand {ld.p:.12g} MW"))
    if net.buses and not any(v.code == "dangling-bus" for v in out):
        comps = connected_components(net)
        if len(comps) > 1:
            anchor = slacks[0] if len(slacks) == 1 else net.buses[0].id
            main = next(c for c in comps if anchor in c)
            stranded = sorted(set(net.bus_ids) - main)
            out.append(Violation(
                "disconnected",
                "network is not connected; buses unreachable from bus "
                f"{anchor}: {', '.join(str(b) for b in stranded)}",
            ))
    return out


def merge_parallel_lines(net: Network) -> Network:
    """Collapse each group of in-service parallel lines into one equivalent.

    The equivalent keeps the smallest line id of the group, takes
    1 / sum(1/x_i) as reactance and the sum of limits.  Out-of-service lines
    pass through untouched.  Idempotent.
    """
    groups: dict[tuple[int, int], list[Line]] = {}
    for ln in net.lines_in_service:
        groups.setdefault((min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus)), []).append(ln)
    merged: dict[int, Line] = {}
    dropped: set[int] = set()
    for members in groups.values():
        if len(members) > 1:
            keep = min(members, key=lambda ln: ln.id)
            merged[keep.id] = replace(keep, reactance=1.0 / sum(1.0 / ln.reactance for ln in members),
                                      limit=sum(ln.limit for ln in members))
            dropped.update(ln.id for ln in members if ln is not keep)
    if not merged:
        return net
    return replace(net, lines=tuple(merged.get(ln.id, ln) for ln in net.lines if ln.id not in dropped))


# ---------------------------------------------------------------------------
# native JSON format

def _finite(val, what: str) -> float:
    """A case-file number as a finite float; ``what`` names it in the error."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise CaseFormatError(f"{what} must be a number, got {type(val).__name__}")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise CaseFormatError(f"{what} must be a finite number")
    return out


def _req(doc: dict, key: str, kind: type, where: str):
    """``doc[key]`` as a finite float (``kind`` float) or an integer (``kind`` int)."""
    if key not in doc:
        raise CaseFormatError(f"{where}: missing required key '{key}'")
    val = doc[key]
    if kind is float:
        return _finite(val, f"{where}: key '{key}'")
    if isinstance(val, bool) or not isinstance(val, int):
        raise CaseFormatError(f"{where}: key '{key}' must be an integer, got {type(val).__name__}")
    return val


def _flag(doc: dict, key: str, default: bool, where: str) -> bool:
    """``doc[key]`` as a JSON true or false; ``default`` when the key is absent."""
    val = doc.get(key, default)
    if not isinstance(val, bool):
        raise CaseFormatError(
            f"{where}: key '{key}' must be true or false, got {type(val).__name__}")
    return val


# a JSON string, or one of the three constants json.loads accepts beyond the standard
_JSON_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN')


def _reject_constant(text: str, name: str):
    """json.loads hook for NaN and +-Infinity.  Every string before the first
    constant is well formed, so the first match outside a string is that one."""
    pos = next(m.start() for m in _JSON_STRING_OR_CONSTANT.finditer(text) if m.group()[0] != '"')
    raise CaseFormatError(f"non-finite number {name} is not allowed",
                          line=text.count("\n", 0, pos) + 1, col=pos - text.rfind("\n", 0, pos))


def _entries(doc: dict, key: str):
    """(where, entry) for each entry of the top-level array ``key``."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise CaseFormatError(f"key '{key}' must be an array")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CaseFormatError(f"{key}[{i}]: must be an object")
        yield f"{key}[{i}]", entry


def _parse_native(text: str) -> Network:
    try:
        doc = json.loads(text, parse_constant=lambda name: _reject_constant(text, name))
    except json.JSONDecodeError as exc:
        raise CaseFormatError(exc.msg, line=exc.lineno, col=exc.colno) from exc
    if not isinstance(doc, dict):
        raise CaseFormatError("top level must be a JSON object")
    base = _req(doc, "base_mva", float, "case")
    if base <= 0.0:
        raise CaseFormatError("base_mva must be > 0")
    known = {"base_mva", "buses", "lines", "generators", "loads", "name"}
    for key in doc:
        if key not in known:
            raise CaseFormatError(f"unknown top-level key '{key}'")

    buses = [Bus(id=_req(b, "id", int, where), is_slack=_flag(b, "is_slack", False, where))
             for where, b in _entries(doc, "buses")]

    lines = []
    for where, l in _entries(doc, "lines"):
        raw_limit = l.get("limit", "unlimited")
        if raw_limit == "unlimited":
            limit = UNLIMITED
        elif isinstance(raw_limit, (int, float)) and not isinstance(raw_limit, bool):
            limit = _finite(raw_limit, f"{where}: limit")
        else:
            raise CaseFormatError(f"{where}: limit must be a number or \"unlimited\"")
        lines.append(Line(
            id=_req(l, "id", int, where),
            from_bus=_req(l, "from_bus", int, where),
            to_bus=_req(l, "to_bus", int, where),
            reactance=_req(l, "reactance", float, where),
            limit=limit,
            in_service=_flag(l, "in_service", True, where),
        ))

    gens = []
    for where, g in _entries(doc, "generators"):
        cost_raw = g.get("cost", [0.0, 0.0, 0.0])
        if (not isinstance(cost_raw, list) or len(cost_raw) > 3
                or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in cost_raw)):
            raise CaseFormatError(f"{where}: cost must be [c0], [c0,c1] or [c0,c1,c2]")
        c = [_finite(v, f"{where}: cost[{j}]") for j, v in enumerate(cost_raw)]
        c += [0.0] * (3 - len(c))
        gens.append(Generator(
            bus=_req(g, "bus", int, where),
            p_min=_req(g, "p_min", float, where),
            p_max=_req(g, "p_max", float, where),
            cost=tuple(c),
        ))

    loads = [Load(bus=_req(d, "bus", int, where), p=_req(d, "p", float, where))
             for where, d in _entries(doc, "loads")]
    return Network(buses=tuple(buses), lines=tuple(lines),
                   generators=tuple(gens), loads=tuple(loads), base_mva=base)


def serialize_case(net: Network) -> str:
    """Emit the native JSON format, LF line endings.  :func:`parse_case`
    reads it back as the same network, bit for bit."""
    doc: dict = {
        "base_mva": net.base_mva,
        "buses": [
            {"id": b.id, "is_slack": b.is_slack} for b in net.buses
        ],
        "lines": [
            {
                "id": ln.id, "from_bus": ln.from_bus, "to_bus": ln.to_bus,
                "reactance": ln.reactance,
                "limit": "unlimited" if math.isinf(ln.limit) else ln.limit,
                "in_service": ln.in_service,
            }
            for ln in net.lines
        ],
        "generators": [
            {"bus": g.bus, "p_min": g.p_min, "p_max": g.p_max, "cost": list(g.cost)}
            for g in net.generators
        ],
        "loads": [{"bus": d.bus, "p": d.p} for d in net.loads],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# MATPOWER subset: mpc.bus / mpc.branch / mpc.gen / mpc.gencost only

_MATPOWER_BLOCKS = ("bus", "branch", "gen", "gencost")


def _parse_matpower_tables(text: str) -> tuple[dict[str, list[list[float]]], float]:
    tables: dict[str, list[list[float]]] = {}
    base_mva: float | None = None
    current: str | None = None

    def consume_rows(fragment: str, lineno: int, offset: int) -> bool:
        """Parse rows inside an open block; True when the block closed.
        ``fragment`` starts at 0-based column ``offset`` of its file line."""
        closed = False
        end = fragment.find("]")
        if end >= 0:
            body, tail = fragment[:end], fragment[end + 1:].strip()
            if tail not in ("", ";"):
                raise CaseFormatError("unexpected content after ']'", line=lineno)
            closed = True
        else:
            body = fragment
        start = offset  # file-line column of the current chunk
        for chunk in body.split(";"):
            row = []
            for k, tok in enumerate(chunk.split()):
                try:
                    val = float(tok)
                except ValueError:
                    val = None
                if val is None or not math.isfinite(val):
                    what = "not a number" if val is None else "not a finite number"
                    at = [m.start() for m in re.finditer(r"\S+", chunk)][k]
                    raise CaseFormatError(f"{what}: '{tok}'", line=lineno, col=start + at + 1)
                row.append(val)
            if row:
                tables[current].append(row)
            start += len(chunk) + 1
        return closed

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("%", 1)[0]
        line = code.strip()
        if not line:
            continue
        offset = len(code) - len(code.lstrip())
        if current is not None:
            if consume_rows(line, lineno, offset):
                current = None
            continue
        if line.startswith("function"):
            continue
        m = re.match(r"mpc\.(\w+)\s*=\s*\[", line)
        if m:
            name = m.group(1)
            if name not in _MATPOWER_BLOCKS:
                raise CaseFormatError(f"unsupported matpower block 'mpc.{name}'",
                                      line=lineno, col=offset + 1)
            if name in tables:
                raise CaseFormatError(f"duplicate block 'mpc.{name}'", line=lineno, col=offset + 1)
            tables[name] = []
            current = name
            if consume_rows(line[m.end():], lineno, offset + m.end()):
                current = None
            continue
        m = re.fullmatch(r"mpc\.(\w+)\s*=\s*([^;]+);?", line)
        if m:
            name, value = m.group(1), m.group(2).strip()
            if name == "baseMVA":
                try:
                    base_mva = float(value)
                except ValueError:
                    base_mva = math.nan
                if not math.isfinite(base_mva):
                    raise CaseFormatError(f"baseMVA must be a finite number, got '{value}'", line=lineno)
            elif name == "version":
                pass
            else:
                raise CaseFormatError(f"unsupported matpower assignment 'mpc.{name}'",
                                      line=lineno, col=offset + 1)
            continue
        raise CaseFormatError(f"unrecognized statement: '{line}'", line=lineno, col=offset + 1)

    if current is not None:
        raise CaseFormatError(f"block 'mpc.{current}' not closed with ']'")
    if base_mva is None:
        raise CaseFormatError("missing mpc.baseMVA")
    if base_mva <= 0.0:
        raise CaseFormatError("mpc.baseMVA must be > 0")
    return tables, base_mva


def _whole(val: float, table: str, i: int, name: str) -> int:
    """Entry ``name`` of row ``i`` of a MATPOWER table, which must be
    integral (a bus id, say), as an int."""
    if not val.is_integer():
        raise CaseFormatError(f"{table} row {i + 1}: {name} must be an integer, got {val!r}")
    return int(val)


def _parse_matpower(text: str) -> Network:
    tables, base = _parse_matpower_tables(text)
    for required in ("bus", "branch"):
        if required not in tables:
            raise CaseFormatError(f"missing block 'mpc.{required}'")

    buses: list[Bus] = []
    loads: list[Load] = []
    for i, row in enumerate(tables["bus"]):
        if len(row) < 13:
            raise CaseFormatError(f"bus row {i + 1}: expected >= 13 columns, got {len(row)}")
        bus_id = _whole(row[0], "bus", i, "bus id")
        bus_type, pd = _whole(row[1], "bus", i, "bus type"), row[2]
        if row[4] != 0.0 or row[5] != 0.0:
            raise CaseFormatError(f"bus row {i + 1}: shunt elements (GS/BS) are not supported")
        if bus_type not in (1, 2, 3):
            raise CaseFormatError(f"bus row {i + 1}: unsupported bus type {bus_type}")
        buses.append(Bus(id=bus_id, is_slack=bus_type == 3))
        if pd != 0.0:
            loads.append(Load(bus=bus_id, p=pd))

    lines: list[Line] = []
    for i, row in enumerate(tables["branch"]):
        if len(row) < 11:
            raise CaseFormatError(f"branch row {i + 1}: expected >= 11 columns, got {len(row)}")
        tap, shift = row[8], (row[9] if len(row) > 9 else 0.0)
        if tap not in (0.0, 1.0):
            raise CaseFormatError(f"branch row {i + 1}: off-nominal tap {tap} is not supported")
        if shift != 0.0:
            raise CaseFormatError(f"branch row {i + 1}: phase shift {shift} is not supported")
        rate_a = row[5]
        lines.append(Line(
            id=i + 1,
            from_bus=_whole(row[0], "branch", i, "from bus"),
            to_bus=_whole(row[1], "branch", i, "to bus"),
            reactance=row[3],
            limit=UNLIMITED if rate_a == 0.0 else rate_a,
            in_service=row[10] != 0.0,
        ))

    gen_rows = tables.get("gen", [])
    cost_rows = tables.get("gencost", [])
    if cost_rows and len(cost_rows) != len(gen_rows):
        raise CaseFormatError(
            f"mpc.gencost has {len(cost_rows)} rows for {len(gen_rows)} generators")
    gens: list[Generator] = []
    for i, row in enumerate(gen_rows):
        if len(row) < 10:
            raise CaseFormatError(f"gen row {i + 1}: expected >= 10 columns, got {len(row)}")
        c2 = c1 = c0 = 0.0
        if cost_rows:
            crow = cost_rows[i]
            if len(crow) < 4:
                raise CaseFormatError(f"gencost row {i + 1}: expected >= 4 columns")
            model = _whole(crow[0], "gencost", i, "model")
            ncost = _whole(crow[3], "gencost", i, "NCOST")
            if model != 2:
                raise CaseFormatError(
                    f"gencost row {i + 1}: only polynomial cost model 2 is supported, got {model}")
            if ncost > 3 or ncost < 1 or len(crow) != 4 + ncost:
                raise CaseFormatError(
                    f"gencost row {i + 1}: expected 1..3 polynomial coefficients matching NCOST")
            c2, c1, c0 = [0.0] * (3 - ncost) + crow[4:]  # highest order first
        if row[7] == 0.0:  # out of service
            continue
        gens.append(Generator(
            bus=_whole(row[0], "gen", i, "bus"),
            p_min=row[9],
            p_max=row[8],
            cost=(c0, c1, c2),
        ))

    return Network(buses=tuple(buses), lines=tuple(lines),
                   generators=tuple(gens), loads=tuple(loads), base_mva=base)


def parse_case(text: str, fmt: str = NATIVE_JSON) -> Network:
    """Parse a case file body.  ``fmt`` is 'native-json' or 'matpower-subset'.

    Checks syntax, types and numbers only; see :func:`validate` for structure.
    """
    if fmt == NATIVE_JSON:
        return _parse_native(text)
    if fmt == MATPOWER_SUBSET:
        return _parse_matpower(text)
    raise InputError(f"unknown case format '{fmt}'")


def read_case(path: str | Path) -> Network:
    """Read and parse a case file: a ``.m`` file as the MATPOWER subset, any
    other as native JSON.  An unreadable file is an :class:`InputError`."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read case file: {exc}") from exc
    except UnicodeDecodeError:
        raise InputError(f"case file {path} is not UTF-8 text") from None
    return parse_case(text, MATPOWER_SUBSET if path.suffix == ".m" else NATIVE_JSON)
