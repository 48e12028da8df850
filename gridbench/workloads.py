"""The three workloads: seeded inputs, fixed job lists, and per-job checks.

A run executes whole rounds of jobs, ``PASSES[workload]`` times over.  The
number of rounds follows from ``--seconds`` and a fixed nominal round
length, never from the clock, so a given (workload, seed, seconds) always
runs the same jobs, on every commit.

* screen: analysis passes over lattice-with-chords grids of 30, 60 and 118
  buses; the two case formats alternate from grid to grid, so a round holds
  both.  A pass (one job) runs validate, ptdf, lodf, bounds, cv --all,
  metrics and place-cv --count 4.  No LP is solved.
* effort: one place-lp --count 2 job per reactance variant of fixture10,
  4,725 effort LPs each; --pdc-max 2000 MW leaves some target sets
  infeasible, so both simplex exits run.
* secure: one cost-of-security study per limit/load variant of fixture10:
  cos-curve --mode corrective for 0..3 controllers, then sc-opf --mode
  preventive with the curve's three placements.
"""

from __future__ import annotations

from pathlib import Path

import checks
import gen
import oracles

# Nominal seconds per round on a 2-CPU x86-64 machine; they only turn
# --seconds into a round count.
ROUND_SECONDS = {"screen": 4.5, "effort": 2.2, "secure": 2.8}
# Times a run executes its job list; a call counts at its fastest pass.  Few
# distinct jobs with many repeats each: see "Why each call counts at its
# fastest pass" in README.md.
PASSES = {"screen": 6, "effort": 10, "secure": 8}

SCREEN_SIZES = (30, 60, 118)
SCREEN_COMMANDS = (("validate",), ("ptdf",), ("lodf",), ("bounds",), ("cv", "--all"),
                   ("metrics",), ("place-cv", "--count", "4"))
EFFORT_COUNT = 2
EFFORT_PDC_MAX = 2000.0
SECURE_CONTROLLERS = 3
SECURE_LIMIT_MARGIN = 0.98   # instances stay feasible with 2 % tighter limits
SECURE_DRAWS = 50


def rounds(workload: str, seconds: int) -> int:
    return max(1, round(seconds / (PASSES[workload] * ROUND_SECONDS[workload])))


def _screen(seed: int, n_rounds: int, run_dir: Path) -> list[dict]:
    jobs = []
    for r in range(n_rounds):
        for n in SCREEN_SIZES:
            case = gen.lattice_case(n, gen.rng_for(seed, gen.STREAM_LATTICE, r * 1000 + n),
                                    f"lat{n}_r{r}")
            path = gen.write_case(case, run_dir, ("json", "m")[len(jobs) % 2])
            calls = []
            for cmd in SCREEN_COMMANDS:
                out = run_dir / f"{path.name}.{cmd[0]}.out"
                calls.append({"argv": [cmd[0], str(path), *cmd[1:], "--out", str(out)],
                              "kind": cmd[0], "out": str(out)})
            jobs.append({"kind": "screen", "grid": oracles.Grid(case), "path": str(path),
                         "calls": calls})
    return jobs


def _effort(seed: int, n_rounds: int, run_dir: Path) -> list[dict]:
    jobs = []
    for i in range(n_rounds):
        case = gen.effort_variant(gen.rng_for(seed, gen.STREAM_EFFORT, i), f"eff{i}")
        path = gen.write_case(case, run_dir, "json")
        out = run_dir / f"{path.name}.place-lp.out"
        argv = ["place-lp", str(path), "--count", str(EFFORT_COUNT),
                "--pdc-max", repr(EFFORT_PDC_MAX), "--output", "json", "--out", str(out)]
        jobs.append({"kind": "effort", "grid": oracles.Grid(case), "path": str(path),
                     "calls": [{"argv": argv, "kind": "place-lp", "out": str(out)}]})
    return jobs


def _feasible_secure_case(seed: int, index: int) -> dict:
    """First draw whose preventive SC-OPF without controllers is feasible
    with every limit 2 % tighter; then every solve of the study is feasible,
    since unbounded controllers only widen the feasible set."""
    for draw in range(SECURE_DRAWS):
        case = gen.secure_variant(gen.rng_for(seed, gen.STREAM_SECURE, index * 1000 + draw),
                                  f"sec{index}")
        tight = dict(case, lines=[(lid, f, t, x, lim * SECURE_LIMIT_MARGIN)
                                  for lid, f, t, x, lim in case["lines"]])
        if oracles.opf_cost(oracles.Grid(tight), [], "preventive") is not None:
            return case
    raise RuntimeError(f"no feasible secure variant in {SECURE_DRAWS} draws")


def _secure(seed: int, n_rounds: int, run_dir: Path) -> list[dict]:
    jobs = []
    for index in range(n_rounds):
        case = _feasible_secure_case(seed, index)
        path = gen.write_case(case, run_dir, "json")
        curve = run_dir / f"{path.name}.cos-curve.out"
        scopf = run_dir / f"{path.name}.sc-opf.out"
        calls = [
            {"argv": ["cos-curve", str(path), "--mode", "corrective",
                      "--max", str(SECURE_CONTROLLERS), "--output", "json", "--out", str(curve)],
             "kind": "cos-curve", "out": str(curve)},
            {"argv": ["sc-opf", str(path), "--mode", "preventive", "--output", "json",
                      "--out", str(scopf)],
             "place_from": str(curve), "kind": "sc-opf", "out": str(scopf)},
        ]
        jobs.append({"kind": "secure", "grid": oracles.Grid(case), "path": str(path),
                     "calls": calls})
    return jobs


JOB_LISTS = {"screen": _screen, "effort": _effort, "secure": _secure}


def build(workload: str, seed: int, seconds: int, run_dir: Path) -> list[dict]:
    return JOB_LISTS[workload](seed, rounds(workload, seconds), run_dir)


def warmup(jobs: list[dict], run_dir: Path) -> list[dict]:
    """Untimed calls that touch parsing and dense linear algebra once."""
    path = jobs[0]["path"]
    return [{"argv": [cmd, path, "--out", str(run_dir / f"warmup.{cmd}.out")]}
            for cmd in ("validate", "bounds")]


def check_job(job: dict) -> list[str]:
    """Problems with one job's outputs; the job's calls all exited 0."""
    grid = job["grid"]
    texts = {c["kind"]: Path(c["out"]).read_text() for c in job["calls"]}
    where = Path(job["path"]).name
    if job["kind"] == "screen":
        errs = [e for kind, fn in checks.SCREEN_CHECKS.items() for e in fn(grid, texts[kind])]
    elif job["kind"] == "effort":
        errs = checks.check_place_lp(grid, texts["place-lp"], EFFORT_COUNT, EFFORT_PDC_MAX)
    else:
        errs, picks = checks.check_cos_curve(grid, texts["cos-curve"], SECURE_CONTROLLERS)
        if not errs:
            errs = checks.check_sc_opf_preventive(grid, texts["sc-opf"], picks)
    return [f"{where}: {e}" for e in errs]


def out_bytes(job: dict) -> int:
    return sum(Path(c["out"]).stat().st_size for c in job["calls"])

