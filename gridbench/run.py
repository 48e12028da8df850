"""gridctrl benchmark: drive the CLI from one worker process and check it.

    python3 gridbench/run.py --workload {screen,effort,secure} [--seed N] \
        [--seconds S] [--trace {0,1}]

The seed defaults to 1, the run length to 24 seconds, tracing to off.

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates its inputs from the seed into a new directory
under ``gridbench/runs/``, starts one worker and runs the fixed job list in
it several times (``workloads.PASSES``), checks that every pass wrote the
same bytes and every output against the oracles, and prints one JSON object
as the last line of stdout.  Each call is timed by its fastest pass.
Between passes fresh worker processes are started and stopped to time
set-up.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run of one pass.  A passing
run deletes its directory; a failing one keeps it for inspection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread for the worker (inherited) and for the oracles: the program's
# output bytes depend on the thread count (see README), and a second thread
# would compete with the worker on a 2-CPU machine.  Set before numpy loads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("GRIDCTRL_THREADS", None)

import workloads  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6      # set-up samples besides the worker's own start
DEADLINE_S = 170.0


class Workers:
    """The worker processes of one run; every one is stopped and waited for
    on leaving the ``with`` block, however it is left."""

    def __init__(self, job_file: Path, deadline: float):
        self.job_file, self.deadline = job_file, deadline
        self.procs: list[subprocess.Popen] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

    def start(self, span_file: Path | None = None):
        """Start a worker and wait for its 'ready'; returns (process, seconds)."""
        cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), str(self.job_file)]
        if span_file is not None:
            cmd.append(str(span_file))
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, cwd=ROOT)
        self.procs.append(proc)
        if self.read(proc) != "ready":
            raise RuntimeError("worker did not start")
        return proc, time.perf_counter() - t0

    def read(self, proc):
        """The worker's next answer, within the run's deadline."""
        left = self.deadline - time.perf_counter()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise RuntimeError("worker ran past the deadline")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {proc.wait()}")
        return json.loads(line)

    def ask(self, proc, command: str):
        proc.stdin.write(command + "\n")
        proc.stdin.flush()
        return self.read(proc)

    def probe(self) -> float:
        """Seconds from starting a fresh worker until it is ready."""
        proc, seconds = self.start()
        proc.stdin.write("quit\n")
        proc.stdin.close()
        proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        return seconds


def _digests(jobs: list[dict]) -> dict[str, str | None]:
    """SHA-256 of every output file; None for one a failed call did not write."""
    return {c["out"]: hashlib.sha256(Path(c["out"]).read_bytes()).hexdigest()
            if Path(c["out"]).is_file() else None
            for job in jobs for c in job["calls"]}


def run_jobs(jobs: list[dict], run_dir: Path, span_file: Path | None, passes: int,
             probes: int, deadline: float) -> dict:
    """Run the jobs ``passes`` times in one worker, with ``probes`` set-up
    probes spread evenly before the passes.  Returns the passes' answers,
    the peak RSS, the set-up seconds (the worker's own start first) and the
    outputs whose bytes differed from the first pass."""
    job_file = run_dir / "jobs.json"
    job_file.write_text(json.dumps({
        "cases": sorted({job["path"] for job in jobs}),
        "warmup": workloads.warmup(jobs, run_dir),
        "jobs": [{"calls": [{k: c[k] for k in ("argv", "place_from") if k in c}
                            for c in job["calls"]]} for job in jobs],
    }))
    result = {"passes": [], "unstable": set()}
    with Workers(job_file, deadline) as workers:
        worker, seconds = workers.start(span_file)
        result["setup"] = [seconds]
        if workers.ask(worker, "warmup") != "ok":
            raise RuntimeError("worker failed its warm-up")
        first = None
        for i in range(passes):
            due = (i + 1) * probes // passes - i * probes // passes
            result["setup"] += [workers.probe() for _ in range(due)]
            result["passes"].append(workers.ask(worker, "pass"))
            digests = _digests(jobs)
            first = first or digests
            result["unstable"] |= {out for out, d in digests.items() if d != first[out]}
        result["peak_rss_kb"] = workers.ask(worker, "end")["peak_rss_kb"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.JOB_LISTS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # a terminated run still stops its workers (Workers.__exit__)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "gridctrl" / "cli.py").is_file():
        print(f"run: no program source at {SRC}", file=sys.stderr)
        return 2
    runs = HERE / "runs"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=runs))
    jobs = workloads.build(args.workload, args.seed, args.seconds, run_dir)
    span_file = run_dir / "spans.json" if args.trace else None
    passes = 1 if args.trace else workloads.PASSES[args.workload]
    result = run_jobs(jobs, run_dir, span_file, passes,
                      0 if args.trace else SETUP_PROBES, deadline)

    codes = [[r["codes"] for r in p["jobs"]] for p in result["passes"]]
    attempted = sum(len(c) for p in codes for c in p)
    failed = sum(code != 0 for p in codes for c in p for code in c)
    problems = [f"{Path(out).name}: bytes differ between passes"
                for out in sorted(result["unstable"])]
    for i, job in enumerate(jobs):
        if all(code == 0 for p in codes for code in p[i]):
            problems += workloads.check_job(job)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    # each call at its fastest pass, a job as the sum of its calls: the host
    # changes speed every few seconds, and the passes spread a call's repeats
    # over the run (README.md, "Why each call counts at its fastest pass")
    def best(key: str, i: int) -> float:
        repeats = [p["jobs"][i][key] for p in result["passes"]]
        return sum(min(times) for times in zip(*repeats))

    walls = [best("wall", i) for i in range(len(jobs))]
    cpus = [best("cpu", i) for i in range(len(jobs))]
    end_to_end = {
        "jobs_per_s": (len(jobs) / sum(walls), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(result["setup"]), "s"),
    }
    if args.trace:
        import tracer
        metrics = tracer.layer_metrics(json.loads(span_file.read_text()), len(jobs),
                                       sum(workloads.out_bytes(job) for job in jobs))
        shown = dict(end_to_end)
        del shown["setup_s"]
    else:
        metrics = end_to_end
        shown = {}
    for name, (value, unit) in {**shown, **metrics}.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    elapsed = [round(p["elapsed"], 2) for p in result["passes"]]
    print(f"{len(jobs)} jobs x {passes} passes (seconds {elapsed}), {attempted} calls, "
          f"{failed} failed, {len(problems)} check problems, run dir {run_dir}",
          file=sys.stderr)

    if not problems:
        shutil.rmtree(run_dir)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
