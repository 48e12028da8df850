"""Release gate: one test per acceptance criterion.

Each test states its tolerance and wall-clock budget inline; the conftest
hook prints a PASS/FAIL line per criterion after the run.  Numbering here
must stay in step with ``conftest.CRITERIA``.
"""

import itertools
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import angle_flows, child_env, unit_pair
from test_place_cv import hull_log_volume

from gridctrl.bounds import bounds, matrix_rank
from gridctrl.cases import case_path, load_case
from gridctrl.dcsens import InjectionProfile, cv, ptdf, tcsc_sensitivity
from gridctrl.opf import cos_curve, dc_opf, sc_opf
from gridctrl.place_cv import metric_report, row_scores, run_cv_placement
from gridctrl.place_lp import DeltaStrategy, place_lp_next, run_lp_placement

ALL_CASES = ("triangle3", "congested3", "fixture10", "case14")


def _pairs(bus_ids):
    order = sorted(bus_ids)
    return [(m, n) for i, m in enumerate(order) for n in order[i + 1:]]


def test_c01_bounds_exactness(fixture10):
    t0 = time.perf_counter()
    rep = bounds(fixture10)
    assert rep.series_bound == 5
    assert rep.parallel_bound == 9
    assert time.perf_counter() - t0 < 1.0


def test_c02_ptdf_rank(triangle3, fixture10, case14):
    t0 = time.perf_counter()
    for net in (triangle3, fixture10, case14):
        mat = ptdf(net)
        assert matrix_rank(np.asarray(mat.values)) == net.n_bus - 1, net.n_bus
    assert time.perf_counter() - t0 < 1.0


def test_c03_cv_superposition_oracle():
    """CV times 1 MW vs a +-1 MW re-solve, every pair of every case."""
    t0 = time.perf_counter()
    for name in ALL_CASES:
        net = load_case(name)
        mat = ptdf(net)
        for m, n in _pairs(mat.bus_ids):
            predicted = cv(mat, m, n).values
            resolved = angle_flows(net, unit_pair(net, m, n))
            assert np.max(np.abs(predicted - resolved)) <= 1e-9, (name, m, n)
    assert time.perf_counter() - t0 < 5.0


def test_c04_tcsc_sensitivity_vs_finite_differences(fixture10):
    """Analytic reactance derivatives vs central differences (step 1e-6)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    h = 1e-6

    def perturbed(line_id, x):
        lines = tuple(replace(ln, reactance=x) if ln.id == line_id else ln
                      for ln in fixture10.lines)
        return replace(fixture10, lines=lines)

    for _ in range(20):
        p = rng.normal(size=fixture10.n_bus)
        p -= p.mean()
        inj = InjectionProfile(p)
        for ln in fixture10.lines_in_service:
            analytic = tcsc_sensitivity(fixture10, inj, ln.id)
            hi = angle_flows(perturbed(ln.id, ln.reactance + h), p)
            lo = angle_flows(perturbed(ln.id, ln.reactance - h), p)
            fd = (hi - lo) / (2 * h)
            err = np.max(np.abs(analytic - fd))
            assert err <= 1e-4 * max(np.max(np.abs(fd)), 1e-6), ln.id
    assert time.perf_counter() - t0 < 10.0


def test_c05_lp_enumeration_counts(fixture10):
    t0 = time.perf_counter()
    mat = ptdf(fixture10)
    _placements, tables = run_lp_placement(
        fixture10, mat, 3, DeltaStrategy("limit"))
    sums = [sum(r.lp_count for _p, r in table) for table in tables]
    assert sums == [45 * 14, 45 * 91, 45 * 364]
    assert sums[1] == 4095 and sums[2] == 16380
    assert time.perf_counter() - t0 <= 60.0


def test_c06_duplicate_pair_is_always_infeasible(fixture10):
    """Doubling up on a placed pair: all C(14,2) two-target programs fail."""
    mat = ptdf(fixture10)
    ranked = place_lp_next(fixture10, mat, [(1, 8)],
                           DeltaStrategy("limit"))
    dup = dict(ranked)[(1, 8)]
    assert dup.lp_count == math.comb(14, 2) == 91
    assert dup.infeasible_sets == dup.lp_count
    assert dup.all_infeasible


def test_c07_security_cost_ordering(fixture10):
    """preventive >= corrective >= plain on 25 congested perturbations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    kept = 0
    tried = 0
    while kept < 25:
        tried += 1
        assert tried <= 80, "perturbation acceptance rate collapsed"
        lines = tuple(
            replace(ln, limit=ln.limit * rng.uniform(0.95, 1.15))
            if np.isfinite(ln.limit) else ln
            for ln in fixture10.lines)
        loads = tuple(replace(ld, p=ld.p * rng.uniform(0.9, 1.05))
                      for ld in fixture10.loads)
        net = replace(fixture10, lines=lines, loads=loads)
        plain = dc_opf(net, [(1, 8)])
        if plain.status != "optimal":
            continue
        corr = sc_opf(net, [(1, 8)], mode="corrective")
        prev = sc_opf(net, [(1, 8)], mode="preventive")
        if corr.status != "optimal" or prev.status != "optimal":
            continue
        if prev.cost <= plain.cost + 1e-6:
            continue                      # not congested, resample
        kept += 1
        scale = max(1.0, abs(corr.cost))
        assert plain.cost <= corr.cost + 1e-6 * scale, tried
        assert corr.cost <= prev.cost + 1e-6 * scale, tried
    assert time.perf_counter() - t0 < 60.0


def test_c08_cos_plateau(fixture10):
    """Unbounded corrective controllers drive the premium to zero for good."""
    t0 = time.perf_counter()
    placements, _ = run_cv_placement(ptdf(fixture10), fixture10.n_bus - 1)
    curve = cos_curve(fixture10, placements, mode="corrective")
    tol = 1e-4
    zero_from = next((pt.count for pt in curve if abs(pt.cos_abs) <= tol),
                     None)
    assert zero_from is not None and zero_from <= fixture10.n_bus - 1
    for pt in curve:
        if pt.count >= zero_from:
            assert abs(pt.cos_abs) <= tol, pt.count
    assert time.perf_counter() - t0 < 120.0


def test_c09_volume_oracle_and_first_pick(triangle3, congested3):
    t0 = time.perf_counter()
    # 3-line systems: log volumes against qhull, absolute, ratio, and order
    for net in (triangle3, congested3):
        mat = ptdf(net)
        pairs = _pairs(mat.bus_ids)
        ours = row_scores([cv(mat, *p).values for p in pairs])[2].tolist()
        oracle = [hull_log_volume(cv(mat, *p).values) for p in pairs]
        for a, b in zip(ours, oracle):
            assert abs(a - b) <= 1e-9
        for (a1, b1), (a2, b2) in itertools.combinations(zip(ours, oracle), 2):
            assert abs((a1 - a2) - (b1 - b2)) <= 1e-9      # log-space ratios
            if b1 > b2 + 1e-9:                             # strict order kept
                assert a1 > a2
            elif b2 > b1 + 1e-9:
                assert a2 > a1
    # greedy first pick == exhaustive scan argmax on every case
    for name in ALL_CASES:
        net = load_case(name)
        mat = ptdf(net)
        scored = []
        for pair in _pairs(mat.bus_ids):
            _, (dimension,), (log_volume,) = row_scores([cv(mat, *pair).values])
            scored.append(((-dimension, -log_volume, pair), pair))
        exhaustive = min(scored)[1]
        placements, _tables = run_cv_placement(mat, 1)
        assert placements[0] == exhaustive, name
    assert time.perf_counter() - t0 < 5.0


def test_c10_metric_correlation(fixture10):
    t0 = time.perf_counter()
    rows, rho = metric_report(ptdf(fixture10))
    assert len(rows) == 45
    assert rho > 0.5
    assert rho == pytest.approx(0.8632411067193676, abs=1e-12)
    assert time.perf_counter() - t0 < 5.0


def test_c11_cli_determinism():
    """Every subcommand, run twice: identical bytes."""
    fixture10 = str(case_path("fixture10"))
    case14 = str(case_path("case14"))
    congested3 = str(case_path("congested3"))
    commands = [
        ["validate", fixture10],
        ["ptdf", fixture10],
        ["cv", fixture10, "--all"],
        ["lodf", case14],
        ["bounds", fixture10],
        ["fix-flows", fixture10, "--fix", "1=40", "--fix", "3=-20",
         "--fix", "5=10", "--fix", "12=0", "--fix", "14=30"],
        ["place-cv", fixture10, "--count", "2"],
        ["place-lp", fixture10, "--count", "1", "--strategy", "limit"],
        ["compare-placements", fixture10, "--count", "1", "--strategy", "limit"],
        ["opf", congested3],
        ["sc-opf", fixture10],
        ["cos-curve", fixture10, "--max", "1"],
        ["metrics", fixture10],
    ]
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "gridctrl.cli", *argv],
                               capture_output=True, env=child_env(), check=False)
                for _ in range(2)]
        assert runs[0].returncode == 0, (argv, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stderr == runs[1].stderr, argv
