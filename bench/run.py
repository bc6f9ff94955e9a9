"""shlinear benchmark: runs `shlinear` command lines in one process and
checks every answer.

    python3 bench/run.py --workload {search,certify,query} --seed N --seconds S --trace {0,1}

Each job calls `shlinear.cli.main(argv)` with stdout and stderr captured; one
client, closed loop, no threads or subprocesses. Set-up (a fresh import of
the package, the field tables, generating and writing the inputs) runs
SETUP_REPEATS times and reports its median. The first pass runs every job;
later passes run each job that is expected to finish within --seconds, until
none is. With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of traced passes, alternated
with untraced passes to measure the tracing overhead. Details of every job go
to the lines before it and to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Job, Outcome, defect_probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 5.0
RUN_LIMIT_S = 150.0  # jobs not started by then count as failed; the run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class JobTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so the package cannot catch it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_cli(cli, argv, timeout: float):
    """One `shlinear` invocation: (outcome, seconds spent inside main)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SystemExit as exc:  # argparse reports usage errors this way
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except JobTimeout:
        error = f"timeout after {timeout:.0f} s"
    except Exception as exc:
        error = f"escaped {type(exc).__name__}: {exc}"
    return Outcome(rc, out.getvalue(), err.getvalue(), error), elapsed


def import_package():
    """Import shlinear from this checkout's src/ afresh: every set-up pays the
    import, as a command-line user does."""
    for name in [m for m in sys.modules if m == "shlinear" or m.startswith("shlinear.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {"shlinear." + name: importlib.import_module("shlinear." + name) for name in LAYERS}
    modules["shlinear.fixtures"] = importlib.import_module("shlinear.fixtures")
    package = sys.modules["shlinear"]
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"shlinear was imported from {package.__file__}, not from {SRC}")
    modules["shlinear"] = package
    return modules


def set_up(workload: str, seed: int, workdir: Path, tracer: Tracer | None):
    """Run set-up SETUP_REPEATS times; the last one is kept (and traced)."""
    build_jobs, fields = WORKLOADS[workload]
    times = []
    for repeat in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        last = repeat == SETUP_REPEATS - 1
        gc.collect()  # drop the previous import before timing the next one
        start = time.perf_counter()
        modules = import_package()
        if tracer is not None and last:
            tracer.wrap_package(modules)
            tracer.install()
            tracer.recording = True
        lib = SimpleNamespace(**{name.rpartition(".")[2]: m for name, m in modules.items()})
        for q in fields:
            lib.gf.field_of_order(q)
        jobs = build_jobs(lib, random.Random(seed), workdir)
        times.append(time.perf_counter() - start)
        if tracer is not None and last:
            tracer.recording = False
            tracer.uninstall()
    gc.collect()
    return lib, jobs, times


class Runner:
    """Runs jobs, checks each distinct answer once and keeps every timing."""

    def __init__(self, lib, jobs, run_deadline: float):
        self.lib = lib
        self.jobs = jobs
        self.run_deadline = run_deadline
        self.times = [[] for _ in jobs]
        self.verdicts = [None] * len(jobs)  # first failure reason per job
        self.attempted = 0
        self.failed = 0
        self._checked = {}

    def run(self, i: int, tracer: Tracer | None = None) -> float:
        job = self.jobs[i]
        if job.out is not None:
            job.out.unlink(missing_ok=True)
        remaining = self.run_deadline - time.perf_counter()
        elapsed = 0.0
        if remaining <= 0:
            outcome = Outcome(None, "", "", "not started: the run's time limit was reached")
        else:
            if tracer is not None:
                tracer.job, tracer.recording = i, True
            outcome, elapsed = run_cli(self.lib.cli, job.argv, min(JOB_TIMEOUT_S, remaining))
            if tracer is not None:
                tracer.recording = False
            self.times[i].append(elapsed)
        reason = self._check(job, i, outcome)
        self.attempted += 1
        if reason:
            self.failed += 1
            self.verdicts[i] = self.verdicts[i] or reason
        return elapsed

    def _check(self, job: Job, i: int, outcome: Outcome):
        if outcome.error:
            return outcome.error
        written = job.out.read_bytes() if job.out is not None and job.out.exists() else None
        key = (i, outcome.rc, outcome.stdout, outcome.stderr, written)
        if key not in self._checked:
            try:
                self._checked[key] = job.check(outcome)
            except Exception as exc:  # a malformed answer can break its check
                self._checked[key] = f"check failed: {type(exc).__name__}: {exc}"
        return self._checked[key]

    def full_pass(self, tracer: Tracer | None = None) -> float:
        return sum(self.run(i, tracer) for i in range(len(self.jobs)))

    def repeat_until(self, deadline: float) -> None:
        """Cycle through the jobs, running each that is expected to end in
        time, until none is."""
        ran = True
        while ran:
            ran = False
            for i, times in enumerate(self.times):
                if times and time.perf_counter() + statistics.median(times) <= deadline:
                    self.run(i)
                    ran = True

    def medians(self):
        return [statistics.median(t) for t in self.times if t]


def end_to_end(runner: Runner, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(runner.medians()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def job_percentiles(runner: Runner) -> dict:
    """p50 and p90 of the per-job median times, in ms. Printed, not gated:
    see bench/README.md."""
    ms = sorted(1000.0 * t for t in runner.medians())
    return {
        "query_p50_ms": statistics.median(ms),
        "query_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def per_layer(runner: Runner, tracer: Tracer, setup_spans: int, deadline: float):
    """Alternate untraced and traced passes (at least one of each) and report
    the median of each per-layer metric over the traced passes."""
    plain, traced, layer_runs = [], [], []
    while True:
        plain.append(runner.full_pass())
        tracer.install()
        lo = len(tracer.spans)
        traced.append(runner.full_pass(tracer))
        tracer.uninstall()
        layer_runs.append(tracer.pass_metrics(lo, len(tracer.spans)))
        if len(layer_runs) > 1:  # keep the spans of set-up and the first traced pass
            tracer.truncate(lo)
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    metrics = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics.update(tracer.setup_metrics(0, setup_spans))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "B" if name == "fileio.bytes" else "count"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = time.perf_counter()
    env = environment(args)
    if not (SRC / "shlinear").is_dir():
        print(f"error: no shlinear sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        lib, jobs, setup_times = set_up(args.workload, args.seed, workdir, tracer)
        setup_spans = len(tracer.spans) if tracer else 0
        runner = Runner(lib, jobs, began + RUN_LIMIT_S)
        deadline = time.perf_counter() + args.seconds
        if tracer is None:
            runner.full_pass()
            runner.repeat_until(deadline)
            metrics = end_to_end(runner, setup_times)
            info = job_percentiles(runner)
            units = END_TO_END_UNITS
        else:
            metrics = per_layer(runner, tracer, setup_spans, deadline)
            info = {}
            units = {name: layer_unit(name) for name in metrics}
        probes = []
        for probe in defect_probes(workdir):
            outcome, _ = run_cli(lib.cli, probe.argv, PROBE_TIMEOUT_S)
            probes.append((probe.name, outcome.error or probe.check(outcome)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    job_rows = []
    for job, times, verdict in zip(jobs, runner.times, runner.verdicts):
        median_ms = 1000.0 * statistics.median(times) if times else None
        job_rows.append({"job": job.name, "argv": job.argv, "verdict": verdict or "ok",
                         "median_ms": median_ms, "runs_ms": [1000.0 * t for t in times]})
        shown = f"{median_ms:.3f}" if median_ms is not None else "-"
        print(f"job runs={len(times)} median_ms={shown} verdict={verdict or 'ok'} :: {job.name}")
    for name, why in probes:
        print(f"known_defect verdict={'FAIL: ' + why if why else 'ok'} :: {name}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_frac={runner.failed / runner.attempted} ({runner.failed} of {runner.attempted} job runs)")
    for name, value in info.items():
        print(f"info {name}={value} ms")
    for name, value in metrics.items():
        print(f"metric {name}={value} {units[name]}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    known_defects = [{"job": n, "verdict": w or "ok"} for n, w in probes]
    record = dict(result, info=info, env=env, jobs=job_rows, known_defects=known_defects)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = dict(tracer.dump(), jobs=[job.name for job in jobs])
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
