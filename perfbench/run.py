"""Benchmark of the limitcycle command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload circuit_newton --seed 1 \
        --seconds 30 --trace 0

Each job is one ``limitcycle.cli.main([...])`` call, in this process,
writing its CSV under ``.perfbench/``; jobs come from the seeded
generators in workloads.py and run in whole rounds until ``--seconds``
have passed.  Every job's output is checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the machine, the libraries, the
job counts and the tail percentile used; the same record is written to
``.perfbench/result-<workload>-trace<0|1>.json``.

``--trace 0`` reports the end-to-end metrics with tracing off:
  setup_s        median, over SETUP_PROBES fresh interpreters, of the time
                 from spawning ``python3`` to the end of a first trivial
                 CLI command (import limitcycle.cli, build the parser)
  job_s_p50      median time of one job
  job_s_tail     highest percentile of job time with >= 10 jobs beyond it
                 (the median when fewer than 20 jobs ran)
  solves_per_s   converged collocation solves (one per solve job, one per
                 branch point of a sweep) per second of summed job time,
                 the median over rounds
  ok_frac        1 - fail_frac: the share of jobs that exited 0, wrote
                 converged output and passed their output check (reported
                 this way round because it is never 0 when all is well)
  peak_rss_mb    peak resident memory of this process
  circuit_id_err, circuit_v0_err
                 max node gap of the default N=251 circuit solution to
                 the frozen criterion-5 oracle, over its peak-to-peak

The times in setup_s, job_s_p50, job_s_tail and solves_per_s are seconds
at reference host speed.  A shared host's speed drifts by up to 1.8x over
minutes, and one run sees only one or two of its phases.  So after every
job and every setup probe the runner times a fixed reference pass
(reference_pass: interpreted Python and numpy work, nothing of
limitcycle, no BLAS) for REFERENCE_SHARE of that job's time, and
multiplies the job's time by REFERENCE_PASS_S over the median time of the
passes just before and just after it (SpeedGauge).  A change of the
program moves the figures as it moves wall time; most of a change of host
speed cancels.  In two sets of ten 30-s runs per workload on the Xeon
host, the interquartile range of job_s_p50 over its median was 0.02 and
0.02 on circuit_newton, 0.09 and 0.09 on circuit_warmstart, 0.10 and 0.05
on pendulum_continuation; that of wall time was 0.12 and 0.10, 0.09 and
0.19, 0.19 and 0.28.  The wall-time figures are in the info line.

That default solve is the accuracy probe: every run makes it once before
the timed jobs.  It counts in ``attempted``, ``failed`` and ok_frac, not
in the job times.

``--trace 1`` reports per-layer metrics (spans.py) instead.  It runs each
round twice, traced and untraced in alternating order, and reports the
tracing overhead as the difference of the two job_s_p50 values.  Spans of
the traced jobs are written to ``.perfbench/spans-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from workloads import (NOT_APPLICABLE, PREDICTIONS, PROBE, WORKLOADS, check,
                       load_reference, rounds)

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10
# the unit of "seconds at reference speed": a typical median time of one
# reference pass on the 2-core Intel Xeon host the benchmark was tuned on
# (Python 3.11, numpy 2.4; 9-12 ms over 30 runs)
REFERENCE_PASS_S = 0.010
# reference passes run after every job and setup probe, for this share of
# its time
REFERENCE_SHARE = 0.15
_SMALL = np.linspace(-2.0, 2.0, 2000)
_LARGE = np.linspace(-2.0, 2.0, 100_000)

SETUP_CODE = """\
import os, sys, time
sys.path.insert(0, "src")
import limitcycle.cli
limitcycle.cli.main(["matrix", "--N", "3", "--out", os.devnull])
print(time.monotonic())
"""


def tail(times):
    """(percentile, value): the highest ladder percentile with at least
    MIN_BEYOND jobs beyond it, or the median when none has."""
    n = len(times)
    q = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= MIN_BEYOND),
             50.0)
    return q, float(np.percentile(times, q))


def reference_pass():
    """Fixed work of the kinds the jobs do, about 2 ms each: interpreted
    Python, scalar math, numpy element-wise ops on small arrays and on
    arrays larger than the core's cache.  Nothing of limitcycle, no BLAS."""
    total = 0
    for i in range(25000):
        total += i * i % 7
    v = 0.3
    for _ in range(15000):
        v = math.exp(-v) * 0.5 + math.sin(v)
    x = _SMALL
    for _ in range(75):
        x = np.sin(x) * 0.5 + np.exp(-x * x)
    y = np.sin(_LARGE) * 0.5 + np.exp(-_LARGE * _LARGE)
    return total, v, x, y


def reference_samples(seconds):
    """Times of reference passes run back to back for about ``seconds``
    (at least one pass)."""
    samples = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        reference_pass()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if t1 >= end:
            return samples


class SpeedGauge:
    """Converts wall times to seconds at reference speed.

    ``at_reference(seconds)`` is called right after each timed piece of
    work.  It times reference passes for REFERENCE_SHARE of ``seconds``
    and scales ``seconds`` by REFERENCE_PASS_S over the median time of the
    passes just before and just after that work.
    """

    def __init__(self):
        self.last = reference_samples(0.05)
        self.passes = list(self.last)

    def at_reference(self, seconds):
        after = reference_samples(REFERENCE_SHARE * seconds)
        around = statistics.median(self.last + after)
        self.last = after
        self.passes += after
        return seconds * REFERENCE_PASS_S / around


def summarize(rounds_run):
    """End-to-end job statistics of rounds of (seconds, Outcome) records.

    solves_per_s is the median over rounds of a round's converged solves
    per second of its summed job time; every round holds the workload's
    whole job mix, and the median resists bursts of host slowness.
    """
    records = [record for one_round in rounds_run for record in one_round]
    times = [seconds for seconds, _ in records]
    failed = sum(1 for _, outcome in records if not outcome.ok)
    q, tail_value = tail(times)
    return {
        "jobs": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "job_s_p50": statistics.median(times),
        "tail_percentile": q,
        "job_s_tail": tail_value,
        "solves_per_s": statistics.median(
            sum(o.solves for _, o in one_round if o.ok)
            / sum(seconds for seconds, _ in one_round)
            for one_round in rounds_run),
    }


def run_job(job, out_path, reference):
    """Run one CLI job in-process; (seconds, Outcome, csv bytes)."""
    import limitcycle.cli as cli

    argv = list(job.argv) + ["--out", out_path]
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            returncode = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a dead run
            returncode = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
    try:
        with open(out_path) as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    outcome = check(job, returncode, text, reference)
    if not outcome.ok:
        outcome.reason += f" [{' '.join(argv)}] {err.getvalue()[-300:]}"
    return seconds, outcome, len(text)


def setup_seconds(k, gauge):
    """Spawn-to-ready times of ``k`` fresh interpreters: wall seconds and
    seconds at reference speed."""
    samples, at_reference = [], []
    for _ in range(k):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(proc.stdout.split()[-1]) - t0)
        at_reference.append(gauge.at_reference(samples[-1]))
    return samples, at_reference


def _blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_facts():
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return (f"{info.get('name')} {info.get('version')}"
                f" ({info.get('openblas configuration', '')})")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "limitcycle", "__init__.py")):
        print(f"error: no limitcycle sources under {SRC}; run from the root"
              " of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import limitcycle

    if not os.path.abspath(limitcycle.__file__).startswith(SRC + os.sep):
        print(f"error: imported limitcycle from {limitcycle.__file__},"
              f" not from {SRC}", file=sys.stderr)
        return 2
    import limitcycle.cli  # noqa: F401

    os.makedirs(OUT_DIR, exist_ok=True)
    reference = load_reference()
    gauge = SpeedGauge()
    setup_wall, setup = setup_seconds(SETUP_PROBES, gauge)
    facts = machine_facts()

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out_path = os.path.join(tmp, "job.csv")
        probe_seconds, probe, _ = run_job(PROBE, out_path, reference)
        gen = rounds(args.workload, args.seed)
        # rounds of (seconds at reference speed, Outcome); wall_plain
        # holds the untraced rounds' wall seconds
        plain, traced, wall_plain, traced_bytes = [], [], [], 0
        tracer = None
        if args.trace:
            from spans import COMPUTED, Tracer
            tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        n_round = 0
        while time.perf_counter() < deadline:
            batch = next(gen)
            modes = (False,) if tracer is None else (
                (False, True) if n_round % 2 == 0 else (True, False))
            for with_trace in modes:
                done, wall = [], []
                for job in batch:
                    if with_trace:
                        with tracer.installed():
                            seconds, outcome, size = run_job(job, out_path,
                                                             reference)
                        traced_bytes += size
                    else:
                        seconds, outcome, _ = run_job(job, out_path,
                                                      reference)
                    wall.append((seconds, outcome))
                    done.append((gauge.at_reference(seconds), outcome))
                (traced if with_trace else plain).append(done)
                if not with_trace:
                    wall_plain.append(wall)
            n_round += 1

    jobs = [record for one_round in plain + traced for record in one_round]
    attempted = len(jobs) + 1
    failed = sum(1 for _, o in jobs if not o.ok) + (not probe.ok)
    wall_stats = summarize(wall_plain)
    stats = summarize(plain)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "setup_s_at_reference_speed": setup,
        "setup_s_wall": setup_wall,
        "reference_passes": len(gauge.passes),
        "reference_pass_s_median": statistics.median(gauge.passes),
        "wall": {key: wall_stats[key] for key in
                 ("job_s_p50", "job_s_tail", "solves_per_s")},
        "rounds": n_round,
        "jobs": stats["jobs"],
        "tail_percentile": stats["tail_percentile"],
        "probe_s": probe_seconds,
        "failures": [o.reason for _, o in jobs if not o.ok][:5]
        + ([] if probe.ok else [probe.reason]),
        "predictions": PREDICTIONS,
    }
    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "job_s_p50": _metric(stats["job_s_p50"], "s"),
            "job_s_tail": _metric(stats["job_s_tail"], "s"),
            "solves_per_s": _metric(stats["solves_per_s"], "1/s"),
            "ok_frac": _metric(1.0 - failed / attempted, "1"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
            "circuit_id_err": _metric(probe.extra.get("circuit_id_err", 0.0),
                                      "1"),
            "circuit_v0_err": _metric(probe.extra.get("circuit_v0_err", 0.0),
                                      "1"),
        }
    else:
        traced_stats = summarize(traced)
        overhead = traced_stats["job_s_p50"] - stats["job_s_p50"]
        metrics = tracer.layer_metrics(traced_stats["jobs"], traced_bytes)
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        metrics["trace.overhead_frac"] = _metric(
            overhead / stats["job_s_p50"], "1")
        info["not_applicable"] = NOT_APPLICABLE[args.workload]
        info["computed"] = COMPUTED
        info["traced_jobs"] = traced_stats["jobs"]
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(
            OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
            "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
