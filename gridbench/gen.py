"""Seeded case generator for the benchmark.

Builds plain-dict cases from a seed and writes them in the two case formats
the program reads (native JSON and the MATPOWER subset).  Nothing here
imports ``gridctrl``: the program only ever sees the files written here.

A case dict holds MW quantities and per-unit reactances:

    {"name", "base_mva", "slack", "buses": [id, ...],
     "lines": [(id, from, to, x_pu, limit_mw or None), ...],
     "gens": [(bus, p_min_mw, p_max_mw, c1_per_mwh), ...],
     "loads": [(bus, p_mw), ...]}

Line ids run 1..n_L in file order, so the MATPOWER reader (which numbers
branches by row) sees the same ids as the JSON reader.  Generator costs are
linear, so the program's piecewise-linear OPF is exact on them.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# The bundled 10-bus/14-line fixture, copied so that benchmark inputs do not
# move when the package's own data files change.
FIXTURE10 = {
    "name": "fixture10",
    "base_mva": 100.0,
    "slack": 1,
    "buses": list(range(1, 11)),
    "lines": [
        (1, 1, 2, 0.06, 190.0), (2, 2, 3, 0.09, 80.0), (3, 3, 4, 0.07, 130.0),
        (4, 4, 5, 0.12, 115.0), (5, 5, 6, 0.08, 100.0), (6, 7, 6, 0.11, 110.0),
        (7, 7, 8, 0.05, 130.0), (8, 8, 9, 0.1, 90.0), (9, 9, 10, 0.13, 110.0),
        (10, 1, 10, 0.14, 145.0), (11, 1, 5, 0.2, 105.0), (12, 2, 7, 0.24, 55.0),
        (13, 3, 9, 0.18, 75.0), (14, 4, 8, 0.22, 75.0),
    ],
    "gens": [(1, 0.0, 400.0, 12.0), (4, 0.0, 300.0, 25.0), (7, 0.0, 300.0, 40.0)],
    "loads": [(2, 60.0), (3, 85.0), (5, 70.0), (6, 95.0), (8, 80.0),
              (9, 55.0), (10, 105.0)],
}

# Stream ids keep the draws of different workloads and purposes apart.
STREAM_LATTICE, STREAM_EFFORT, STREAM_SECURE = 1, 2, 3


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, stream, index])


def lattice_case(n_bus: int, rng: np.random.Generator, name: str) -> dict:
    """Lattice with chords, ``n_bus`` buses, no bridge and no cut vertex.

    The lattice fills rows of ceil(sqrt(n)) buses; every bus links to its
    right and lower neighbour (a lone bus in the last row also links
    diagonally), so the grid is 2-connected.  About one chord per six buses
    joins two non-adjacent buses.  No two lines share a bus pair.

    Radial parts are left out on purpose: a radial line carries a PTDF row
    of +-1e-16 roundoff for every bus pair on the meshed side, and
    place_cv's orthant binning reads the sign of those entries, so its
    scores there depend on roundoff that no independent oracle reproduces.
    """
    cols = math.ceil(math.sqrt(n_bus))
    edges: list[tuple[int, int]] = []
    for i in range(n_bus):
        if (i + 1) % cols and i + 1 < n_bus:
            edges.append((i, i + 1))
        if i + cols < n_bus:
            edges.append((i, i + cols))
    if n_bus % cols == 1:
        edges.append((n_bus - cols, n_bus - 1))
    taken = {frozenset(e) for e in edges}
    n_chords = n_bus // 6
    while n_chords:
        u, v = (int(a) for a in rng.choice(n_bus, size=2, replace=False))
        if frozenset((u, v)) in taken:
            continue
        taken.add(frozenset((u, v)))
        edges.append((u, v))
        n_chords -= 1

    lines = []
    for k, (u, v) in enumerate(edges, start=1):
        x = float(rng.uniform(0.02, 0.25))
        limit = None if rng.random() < 0.1 else float(rng.uniform(80.0, 250.0))
        lines.append((k, u + 1, v + 1, x, limit))
    gen_buses = sorted(int(b) + 1 for b in rng.choice(n_bus, size=max(2, n_bus // 6),
                                                       replace=False))
    gens = [(b, 0.0, float(rng.uniform(100.0, 400.0)), float(rng.uniform(10.0, 50.0)))
            for b in gen_buses]
    loads = [(b, float(rng.uniform(10.0, 60.0)))
             for b in range(1, n_bus + 1) if rng.random() < 0.6]
    return {"name": name, "base_mva": 100.0, "slack": 1,
            "buses": list(range(1, n_bus + 1)), "lines": lines,
            "gens": gens, "loads": loads}


def effort_variant(rng: np.random.Generator, name: str) -> dict:
    """fixture10 with every reactance scaled by an independent U(0.8, 1.25)."""
    lines = [(lid, f, t, x * float(rng.uniform(0.8, 1.25)), lim)
             for lid, f, t, x, lim in FIXTURE10["lines"]]
    return dict(FIXTURE10, name=name, lines=lines)


def secure_variant(rng: np.random.Generator, name: str) -> dict:
    """fixture10 with loads scaled by U(0.85, 1.05) and limits by U(0.9, 1.2).

    The caller checks feasibility and draws again when needed.
    """
    lines = [(lid, f, t, x, lim * float(rng.uniform(0.9, 1.2)))
             for lid, f, t, x, lim in FIXTURE10["lines"]]
    loads = [(b, p * float(rng.uniform(0.85, 1.05))) for b, p in FIXTURE10["loads"]]
    return dict(FIXTURE10, name=name, lines=lines, loads=loads)


def native_json(case: dict) -> str:
    doc = {
        "base_mva": case["base_mva"],
        "buses": [{"id": b, "is_slack": b == case["slack"]} for b in case["buses"]],
        "lines": [{"id": lid, "from_bus": f, "to_bus": t, "reactance": x,
                   "limit": "unlimited" if lim is None else lim}
                  for lid, f, t, x, lim in case["lines"]],
        "generators": [{"bus": b, "p_min": lo, "p_max": hi, "cost": [0.0, c1]}
                       for b, lo, hi, c1 in case["gens"]],
        "loads": [{"bus": b, "p": p} for b, p in case["loads"]],
    }
    return json.dumps(doc, indent=1) + "\n"


def matpower(case: dict) -> str:
    pd = {b: 0.0 for b in case["buses"]}
    for b, p in case["loads"]:
        pd[b] += p
    gen_buses = {g[0] for g in case["gens"]}
    out = ["function mpc = " + case["name"], "mpc.version = '2';",
           f"mpc.baseMVA = {case['base_mva']!r};", "mpc.bus = ["]
    for b in case["buses"]:
        kind = 3 if b == case["slack"] else (2 if b in gen_buses else 1)
        out.append(f"\t{b}\t{kind}\t{pd[b]!r}\t0\t0\t0\t1\t1\t0\t230\t1\t1.1\t0.9;")
    out += ["];", "mpc.gen = ["]
    for b, lo, hi, _c1 in case["gens"]:
        out.append(f"\t{b}\t0\t0\t0\t0\t1\t100\t1\t{hi!r}\t{lo!r};")
    out += ["];", "mpc.branch = ["]
    for _lid, f, t, x, lim in case["lines"]:
        rate = 0.0 if lim is None else lim
        out.append(f"\t{f}\t{t}\t0\t{x!r}\t0\t{rate!r}\t0\t0\t0\t0\t1;")
    out += ["];", "mpc.gencost = ["]
    for _b, _lo, _hi, c1 in case["gens"]:
        out.append(f"\t2\t0\t0\t2\t{c1!r}\t0;")
    out.append("];")
    return "\n".join(out) + "\n"


def write_case(case: dict, directory: Path, fmt: str) -> Path:
    """Write ``case`` as ``<name>.json`` (fmt 'json') or ``<name>.m``."""
    if fmt == "json":
        path = directory / f"{case['name']}.json"
        path.write_text(native_json(case))
    else:
        path = directory / f"{case['name']}.m"
        path.write_text(matpower(case))
    return path
