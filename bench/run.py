"""Report-latency benchmark of posgen.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it measures the ``posgen`` package in
``src/``.  Set-up writes the workload's generator files from ``--seed`` into
``.bench_work/`` and removes them at the end.

``--trace 0`` measures what users wait for.  After a warm-up, one client in
one process calls the public CLI entry point ``posgen.cli.main(["report",
FILE])`` in a closed loop, timing every call from outside, in windows of
about ``WINDOW_S``.  Between the windows, spread over ``--seconds`` seconds
in all, ``SETUP_SAMPLES`` fresh processes each repeat the set-up
(``setup_s``) and ``COLD_SAMPLES`` fresh ``python -m posgen report FILE``
processes give the cold latency a shell user pays (``cold_report_s``).  All
figures are medians, or totals for the throughput, scaled to a host of
reference speed by a fixed computation timed alongside them (``hostprobe.py``),
so that the slow spells of a shared host do not read as regressions.  The
detail line holds them unscaled too, with ``report_p90_s`` and
``failed_frac``, which are recorded but not gated.

``--trace 1`` instead alternates an untraced and a traced pass over a fixed
list of files (see ``tracer.py``) for ``--seconds`` seconds and reports
per-layer work and time per report.

Every report is checked (``Workload.check``) and its output hashed.  The
second-to-last line of stdout holds the environment, the output digests and
the sample counts; the last line is the result object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, SRC, use_checkout_sources

use_checkout_sources()

import numpy  # noqa: E402
import scipy  # noqa: E402

import hostprobe  # noqa: E402
from posgen import CONDITION_IDS, cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# the timed loop runs in windows of at least this length
WINDOW_S = 1.25
# fresh processes per run; a cold report varies by about 12 % from one to the
# next, and only the median of set-up is gated, not its spread
COLD_SAMPLES = 8
SETUP_SAMPLES = 5
# host probes after each window, of which the fastest counts: for about 0.1 s
# after a large matrix product the first probes run up to three times slower
PROBES = 4
# BLAS threads run several times slower for about a second after start-up;
# the warm-up outlasts that window
WARMUP_S = 3.0
# the workload digest covers the first files of the pool, which the warm-up
# always reports
DIGEST_FILES = 5
CHILD_TIMEOUT_S = 120
MAX_LISTED_FAILURES = 10


class Reports:
    """Runs reports on a pool of files, checks each one and hashes its output."""

    def __init__(self, workload, paths):
        self.workload = workload
        self.paths = paths
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}  # file name -> sha256 of its first report's output
        self.mismatched = 0  # reports whose output differs from the file's first
        self._next = 0

    def next_path(self) -> Path:
        path = self.paths[self._next % len(self.paths)]
        self._next += 1
        return path

    def _record(self, path: Path, exit_code, output: str, error: str | None = None):
        self.attempted += 1
        reason = error or self.workload.check(exit_code, output)
        if reason is not None:
            self.failed += 1
            if len(self.failures) < MAX_LISTED_FAILURES:
                self.failures.append(f"{path.name}: {reason}")
        digest = hashlib.sha256(output.encode()).hexdigest()
        if self.digests.setdefault(path.name, digest) != digest:
            self.mismatched += 1

    def warm(self, path: Path) -> float:
        """One in-process report; returns its wall time in seconds."""
        out = io.StringIO()
        error = code = None
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = cli.main(["report", str(path)])
            except Exception as exc:  # a crash is a failed operation, not a crashed run
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self._record(path, code, out.getvalue(), error)
        return elapsed

    def cold(self, path: Path) -> float:
        """One report in a fresh ``python -m posgen`` process; returns its wall time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "posgen", "report", str(path)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._record(path, None, "", f"no exit within {CHILD_TIMEOUT_S} s")
        else:
            self._record(path, proc.returncode, proc.stdout)
        return time.perf_counter() - start

    def warm_cycle(self) -> list:
        """Report on the next files until one cycle of the workload's dims is done."""
        return [self.warm(self.next_path()) for _ in self.workload.dims]

    def warm_up(self, seconds: float) -> int:
        """Report until ``seconds`` have passed and the digest files are done."""
        start = time.perf_counter()
        count = 0
        while count < DIGEST_FILES or time.perf_counter() - start < seconds:
            count += len(self.warm_cycle())
        return count

    def workload_digest(self) -> str:
        lines = "".join(f"{name} {self.digests[name]}\n"
                        for name in sorted(self.digests)[:DIGEST_FILES])
        return hashlib.sha256(lines.encode()).hexdigest()


def timed_setup(workload, seed: int, directory: Path) -> float:
    """Seconds from starting a fresh process to posgen imported and files written."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload.name,
             str(seed), str(directory)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode} without 'ready'")
    shutil.rmtree(directory)
    return elapsed


def fresh_probe() -> float:
    """Seconds for a fresh process to import numpy and scipy and probe once."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "hostprobe.py")], cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "threads_env": {k: os.environ.get(k)
                        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _latency(latencies, wall) -> dict:
    return {"report_p50_s": statistics.median(latencies),
            "report_p90_s": statistics.quantiles(latencies, n=10)[8],
            "reports_per_s": len(latencies) / wall}


def _measure(workload, seed, seconds, work, window_s, cold_n, setup_n, warmup_s):
    reports = Reports(workload, workload.generate(seed, work / "inputs"))
    warmup = reports.warm_up(warmup_s)
    # cold reports all read files of one dimension, so that their median
    # does not depend on which dimensions the samples happen to hit
    cold_paths = reports.paths[::len(workload.dims)]

    # For ``seconds`` in all, windows of warm reports alternate with fresh
    # processes spread evenly over the run: cold_n cold reports, each followed
    # by a fresh-process probe, with a set-up sample before setup_n of them.
    # Each window ends with PROBES host probes, not starts: right after a
    # fresh process the probe runs slow for reasons the reports do not share.
    setups, cold, fresh_probes, windows = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(windows) < 2
           or len(cold) < cold_n):
        slot = len(cold)
        if slot < cold_n and time.perf_counter() - start >= slot * seconds / cold_n:
            if len(setups) * cold_n <= slot * setup_n:
                setups.append(timed_setup(workload, seed, work / f"setup-{len(setups)}"))
            cold.append(reports.cold(cold_paths[slot % len(cold_paths)]))
            fresh_probes.append(fresh_probe())
        latencies = []
        window_start = time.perf_counter()
        while len(latencies) < 2 or time.perf_counter() - window_start < window_s:
            latencies += reports.warm_cycle()
        wall = time.perf_counter() - window_start
        probe_s = min(hostprobe.probe() for _ in range(PROBES))
        windows.append((latencies, wall, hostprobe.REFERENCE_S / probe_s))

    # Every time is scaled to a host as fast as the probes' reference
    # (hostprobe.py).  The host's speed changes within a run, so each
    # window's latencies and wall time are scaled by the probe that ended it.
    # Set-up and cold times are scaled by the median fresh-process probe,
    # since start-up costs follow it and not the in-process probe.
    def warm(scaled: bool) -> dict:
        return _latency([x * k if scaled else x for lat, _, k in windows for x in lat],
                        sum(w * k if scaled else w for _, w, k in windows))

    fresh = hostprobe.FRESH_REFERENCE_S / statistics.median(fresh_probes)
    measured = {**warm(False),
                "setup_s": statistics.median(setups),
                "cold_report_s": statistics.median(cold)}
    scaled = {**warm(True),
              "setup_s": measured["setup_s"] * fresh,
              "cold_report_s": measured["cold_report_s"] * fresh}
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "report_p50_s": (scaled["report_p50_s"], "s"),
        "reports_per_s": (scaled["reports_per_s"], "1/s"),
        "cold_report_s": (scaled["cold_report_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"windows": len(windows), "warmup_reports": warmup,
               "timed_reports": sum(len(lat) for lat, _, _ in windows),
               "timed_wall_s": sum(w for _, w, _ in windows),
               "setup_samples_s": setups, "cold_samples_s": cold,
               "fresh_probe_samples_s": fresh_probes,
               "window_speeds": [k for _, _, k in windows], "fresh_speed": fresh,
               # not gated: pnotcp_mixing holds too few reports in a run for
               # ten samples beyond its p90
               "report_p90_s": scaled["report_p90_s"],
               "unscaled": measured}
    return reports, metrics, samples, True


def _per_layer(tracer, n: int, overhead: float) -> dict:
    total, self_time, calls, counts = (
        tracer.total, tracer.self_time, tracer.calls, tracer.counts)
    pc = "superop.positivity_check"
    m = {
        f"{pc}.calls": (calls[pc] / n, "count/report"),
        f"{pc}.self_s": (self_time[pc] / n, "s/report"),
        f"{pc}.samples": (counts[f"{pc}.samples"] / n, "count/report"),
        **{f"{pc}.{status}": (counts[f"{pc}.{status}"] / n, "count/report")
           for status in ("violated", "no_violation_found", "certified_positive")},
        "numpy.linalg.eigh.calls": (calls["numpy.linalg.eigh"] / n, "count/report"),
        "numpy.linalg.eigh.mats": (counts["numpy.linalg.eigh.mats"] / n, "count/report"),
    }
    for name in ("semigroup.evolve", "semigroup.resolvent"):
        m[f"{name}.calls"] = (calls[name] / n, "count/report")
        m[f"{name}.distinct_frac"] = (
            tracer.distinct(name) / calls[name] if calls[name] else 0.0, "frac")
        m[f"{name}.self_s"] = (self_time[name] / n, "s/report")
    for name in ("matrixcore.mat_exp", "superop.contraction_check", "superop.cp_check"):
        m[f"{name}.calls"] = (calls[name] / n, "count/report")
        m[f"{name}.self_s"] = (self_time[name] / n, "s/report")
    for name in ("semigroup.SemigroupHandle", "criteria.ProbeSet.build", "cli.main"):
        m[f"{name}.self_s"] = (self_time[name] / n, "s/report")
    for name in ("duality.trace_preservation_check", "criteria.theorem1_report",
                 "criteria.theorem2_check",
                 *(f"criteria.check_condition.{cid}" for cid in CONDITION_IDS)):
        m[f"{name}.s"] = (total[name] / n, "s/report")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def _trace(workload, seed, seconds, work, warmup_s):
    from tracer import Tracer, patched_names

    reports = Reports(workload, workload.generate(seed, work / "inputs"))
    warmup = reports.warm_up(warmup_s)
    files = reports.paths[:workload.trace_reports]
    tracer = Tracer()
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    # untraced and traced passes alternate so that drift hits both alike
    while passes == 0 or time.perf_counter() - start < seconds:
        if patched_names():
            raise RuntimeError(f"untraced pass would run patched code: {patched_names()}")
        t0 = time.perf_counter()
        for path in files:
            reports.warm(path)
        t1 = time.perf_counter()
        with tracer:
            for path in files:
                tracer.next_report()
                reports.warm(path)
        traced += time.perf_counter() - t1
        untraced += t1 - t0
        passes += 1
    n = passes * len(files)
    self_sum = tracer.self_sum()
    # every traced report repeats an untraced one, so a digest mismatch means
    # the tracer changed the output; self times nest inside the traced wall time
    correct = reports.mismatched == 0 and self_sum <= traced and not patched_names()
    samples = {"warmup_reports": warmup, "passes": passes, "reports_per_pass": len(files),
               "traced_wall_s": traced, "untraced_wall_s": untraced,
               "self_sum_s": self_sum}
    return reports, _per_layer(tracer, n, traced / untraced - 1.0), samples, correct


def run(workload, seed: int, seconds: float, trace: bool, *,
        window_s: float = WINDOW_S, cold_n: int = COLD_SAMPLES,
        setup_n: int = SETUP_SAMPLES, warmup_s: float = WARMUP_S):
    """Run one workload; return (result, detail) as printed by the command."""
    work = WORK / f"{workload.name}-{seed}-{int(trace)}-{os.getpid()}"
    try:
        if trace:
            reports, metrics, samples, ok = _trace(workload, seed, seconds, work, warmup_s)
        else:
            reports, metrics, samples, ok = _measure(
                workload, seed, seconds, work, window_s, cold_n, setup_n, warmup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    result = {
        "correct": ok and reports.failed == 0,
        "attempted": reports.attempted,
        "failed": reports.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    ungated = {"failed_frac": {"value": reports.failed / reports.attempted, "unit": "frac"}}
    if not trace:
        ungated["report_p90_s"] = {"value": samples["report_p90_s"], "unit": "s"}
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "ungated_metrics": ungated,
        "failures": reports.failures,
        "samples": samples,
        "digests": {"workload": reports.workload_digest(),
                    "files": reports.digests,
                    "mismatched_reports": reports.mismatched},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
