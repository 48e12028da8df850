"""Benchmark worker: one process, one client, a closed loop of CLI jobs.

    python3 worker.py SRC_DIR JOB_FILE [SPAN_FILE]

The worker imports ``gridctrl.cli`` from SRC_DIR, reads every case file the
job file names and prints ``ready``.  It then answers one command per line
on stdin, each with one JSON line on stdout:

* ``warmup`` runs the untimed warm-up calls;
* ``pass`` runs every job once, back to back, through
  ``gridctrl.cli.run(argv)`` and answers with the wall and CPU seconds and
  the exit code of every call of every job;
* ``end`` answers with the peak RSS, writes the spans (with SPAN_FILE) and
  exits.

``quit`` in place of the first command ends a set-up probe.  With SPAN_FILE
the tracer wraps the program's public functions before the warm-up.  While
the program runs, its stdout goes to stderr, so that stdout carries only the
answers.

The parent pins BLAS to one thread before this process starts; the worker
refuses to run otherwise.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _call(cli, call: dict) -> int:
    argv = list(call["argv"])
    if "place_from" in call:
        # placements of a preceding cos-curve call, read as part of the job
        for point in json.loads(Path(call["place_from"]).read_text()):
            if point["pair"] is not None:
                argv += ["--place", f"{point['pair'][0]},{point['pair'][1]}"]
    try:
        return cli.run(argv)
    except Exception:                     # a crash is a failed call, not a dead run
        traceback.print_exc()
        return -1


def _run_pass(cli, jobs: list[dict], tracer) -> dict:
    results = []
    t_start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        res = {"wall": [], "cpu": [], "codes": []}
        for call in job["calls"]:
            w0, c0 = time.perf_counter(), time.process_time()
            res["codes"].append(_call(cli, call))
            res["wall"].append(time.perf_counter() - w0)
            res["cpu"].append(time.process_time() - c0)
        results.append(res)
    return {"jobs": results, "elapsed": time.perf_counter() - t_start}


def main(argv: list[str]) -> int:
    src, job_file = Path(argv[1]), Path(argv[2])
    span_file = Path(argv[3]) if len(argv) > 3 else None
    if any(os.environ.get(var) != "1" for var in PINNED) or "GRIDCTRL_THREADS" in os.environ:
        print("worker: BLAS threads must be pinned to 1 and GRIDCTRL_THREADS unset",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from gridctrl import cli
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"worker: imported gridctrl from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads(job_file.read_text())
    for case in spec["cases"]:
        Path(case).read_bytes()
    answers, sys.stdout = sys.stdout, sys.stderr

    def answer(obj) -> None:
        answers.write(json.dumps(obj) + "\n")
        answers.flush()

    answer("ready")
    tracer = None
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            return 0
        if command == "warmup":
            if span_file is not None and tracer is None:
                import tracer as tracing
                tracer = tracing.install()
            for call in spec["warmup"]:
                _call(cli, call)
            answer("ok")
        elif command == "pass":
            answer(_run_pass(cli, spec["jobs"], tracer))
        elif command == "end":
            if tracer is not None:
                tracer.dump(span_file)
            answer({"peak_rss_kb": _peak_rss_kb()})
            return 0
        else:
            print(f"worker: unknown command {command!r}", file=sys.stderr)
            return 2
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
