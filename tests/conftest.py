"""Shared fixtures, independent numerical oracles, and the acceptance
summary hook that prints one PASS/FAIL line per criterion."""

from __future__ import annotations

import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gridctrl
from gridctrl.cases import load_case
from gridctrl.netmodel import Network


def child_env(**overrides) -> dict:
    """The environment for a child ``python -m gridctrl.cli``: this one, with
    the source root of the gridctrl imported here first on PYTHONPATH, so the
    child runs the same code whether or not PYTHONPATH was set."""
    root = str(Path(gridctrl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def angle_flows(net: Network, p) -> np.ndarray:
    """Branch flows (MW for injections ``p`` in MW) from a direct angle solve.

    Assembles the weighted Laplacian entry by entry, pins the slack angle
    at zero, solves for the remaining angles and differences across each
    in-service line.  Kept free of gridctrl's own matrix code so it can
    serve as an oracle for it.
    """
    idx = net.bus_index
    n = net.n_bus
    b = np.zeros((n, n))
    for ln in net.lines_in_service:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        w = 1.0 / ln.reactance
        b[i, i] += w
        b[j, j] += w
        b[i, j] -= w
        b[j, i] -= w
    keep = [k for k in range(n) if k != net.slack_index]
    theta = np.zeros(n)
    rhs = np.asarray(p, dtype=float)[keep]
    theta[keep] = np.linalg.solve(b[np.ix_(keep, keep)], rhs)
    return np.array([
        (theta[idx[ln.from_bus]] - theta[idx[ln.to_bus]]) / ln.reactance
        for ln in net.lines_in_service])


def unit_pair(net: Network, m: int, n: int) -> np.ndarray:
    """Injection vector: +1 MW in at bus m, -1 MW out at bus n."""
    p = np.zeros(net.n_bus)
    p[net.bus_index[m]] += 1.0
    p[net.bus_index[n]] -= 1.0
    return p


def without_line(net: Network, line_id: int) -> Network:
    """Copy of the network with one line dropped entirely."""
    return replace(net, lines=tuple(ln for ln in net.lines if ln.id != line_id))


@pytest.fixture(scope="session")
def triangle3() -> Network:
    return load_case("triangle3")


@pytest.fixture(scope="session")
def fixture10() -> Network:
    return load_case("fixture10")


@pytest.fixture(scope="session")
def case14() -> Network:
    return load_case("case14")


@pytest.fixture(scope="session")
def congested3() -> Network:
    return load_case("congested3")


# ---------------------------------------------------------------------------
# acceptance summary

CRITERIA = {
    1: "controller-count bounds on the 10-bus fixture are 5 series / 9 parallel",
    2: "PTDF rank equals n_bus - 1 on every bundled case",
    3: "controllability vectors match +-1 MW re-solve deltas to 1e-9 MW",
    4: "series-device sensitivities match finite differences to 1e-4 relative",
    5: "LP placement solves exactly C(45,1)*C(14,k) programs within the time box",
    6: "a duplicated controller pair makes every two-target program infeasible",
    7: "corrective redispatch never costs more than preventive, which caps the base",
    8: "security premium falls to zero within nine controllers and stays there",
    9: "conical volumes match hull-volume oracles and pick the exhaustive argmax",
    10: "volume ranking correlates with the 1-norm ranking above rho = 0.5",
    11: "every CLI subcommand is byte-identical across repeated runs",
}

_outcomes: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    m = re.search(r"test_acceptance\.py::test_c(\d+)", report.nodeid)
    if m is None:
        return
    num = int(m.group(1))
    if report.when == "call":
        _outcomes[num] = _outcomes.get(num, True) and report.passed
    elif report.failed:
        _outcomes[num] = False


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in _outcomes:
            verdict = "PASS" if _outcomes[num] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"criterion {num:2d}: {verdict} - {CRITERIA[num]}")
