"""Benchmark workloads: seeded CLI job generators and per-job output checks.

Every job is one ``limitcycle`` command line (``solve`` or ``sweep``);
the program sees only these generated arguments.  A workload is an
endless sequence of *rounds*; the runner executes whole rounds until its
time is up, so every run keeps its workload's job mix.

Why each workload, and what it should show
------------------------------------------
``circuit_newton``
    The paper's headline job, all Newton: ``solve --model circuit
    --guess constant:0`` at N = 101, 251, 501 in equal shares, A_m in
    [3, 12] and R4 in [1, 3] (every corner converges cold in 3-4
    iterations).  rhs tables with the inner diode solve are O(N), the
    FD Jacobian assembly and dense LU are O(N^3) at sizes 303/753/1503,
    so an rhs change moves mostly job_s_p50 (the N=251 third) and an LU
    change mostly job_s_tail (the N=501 third).
``circuit_warmstart``
    ``solve --model circuit --N 251 --guess rk4:20`` with the same
    draws.  About 95% of the job is the RK4 warm start, which drives the
    same model rhs one state at a time; Newton is about 3%.  A change
    that batches rhs over nodes and speeds circuit_newton but slows
    single-state calls shows here ("RK4 must not regress").
``pendulum_continuation``
    ``sweep`` at N=101, a in [0.05, 0.15]: rounds of two inverted-branch
    sweeps (``--guess pi --sweep b=0:200:1``, zero Newton iterations)
    around one period-2 sweep (``--subharmonic 2 --param b=181 --guess
    sin:0.8 --sweep b=181:141:1``, analytic Jacobian, LU of size 202).
    Continuation, per-step problem rebuilds and extrema extraction
    dominate; LU, FD-Jacobian and diode changes should not move it.
    The period-2 sweep takes about a third of the inverted one; with
    equal shares the median job time would fall in the gap between the
    two kinds and swing with the slowest short and fastest long job,
    so the inverted sweeps are two thirds of the jobs and the median
    and tail fall among them.

Every run also makes one accuracy probe: the default-parameter N=251
cold circuit solve, compared with the frozen criterion-5 oracle in
``circuit_reference.csv`` (see make_reference.py).

Predictions: layer metric -> end-to-end metric -> workload
----------------------------------------------------------
See PREDICTIONS below; later changes cite it when they claim a gain.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

PREDICTIONS = {
    "cli": "cli.self_s -> job_s_p50 on all workloads",
    "continuation": "continuation.* -> job_s_p50, solves_per_s on"
                    " pendulum_continuation",
    "spectral": "spectral.trig_interpolate_* -> job_s_p50 on"
                " pendulum_continuation; spectral.diff_matrix_s also ->"
                " job_s_tail on circuit_newton",
    "solver": "solver.* -> job_s_tail, peak_rss_mb on circuit_newton;"
              " no change on the other two",
    "system": "system.residual_*, system.jacobian_* -> job_s_p50,"
              " job_s_tail on circuit_newton; system.build_* also ->"
              " pendulum_continuation",
    "models": "models.* -> job_s_p50 on circuit_newton and"
              " circuit_warmstart, in opposite directions if batching"
              " hurts single-state calls",
    "warmstart": "warmstart.* -> job_s_p50 on circuit_warmstart only",
}

# per-layer metrics that read 0 on a workload, and why
NOT_APPLICABLE = {
    "circuit_newton": {
        "continuation.*": "no sweep jobs",
        "models.jac_*": "the circuit has no analytic Jacobian",
        "warmstart.*": "cold guess, no transient",
    },
    "circuit_warmstart": {
        "continuation.*": "no sweep jobs",
        "models.jac_*": "the circuit has no analytic Jacobian",
    },
    "pendulum_continuation": {
        "models.diode_*": "no circuit jobs",
        "warmstart.*": "pi and sin guesses, no transient",
        "continuation.rejected_steps": "no step was rejected in any sweep"
                                       " tried; 0 is expected",
    },
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "circuit_reference.csv")
ID_ERR_LIMIT = 1e-2  # criterion 5: gap <= 1e-2 of the oracle's peak-to-peak
PI_TEXT = "%.17g" % math.pi


@dataclass(frozen=True)
class Job:
    """One CLI command; ``kind`` selects its output check."""

    kind: str  # "circuit", "inverted", "period2" or "probe"
    argv: tuple[str, ...]
    rows: int  # expected data rows: N, or the branch point count


@dataclass
class Outcome:
    """Checked result of one job."""

    ok: bool
    solves: int = 0
    reason: str = ""
    extra: dict = field(default_factory=dict)


def _circuit_job(N: int, guess: str, rng: random.Random) -> Job:
    a_m = rng.uniform(3.0, 12.0)
    r4 = rng.uniform(1.0, 3.0)
    return Job("circuit", ("solve", "--model", "circuit", "--N", str(N),
                           "--guess", guess,
                           "--param", f"A_m={a_m!r}", f"R4={r4!r}"), N)


def _inverted_job(rng: random.Random) -> Job:
    a = rng.uniform(0.05, 0.15)
    return Job("inverted", ("sweep", "--model", "pendulum", "--N", "101",
                            "--param", f"a={a!r}", "omega=17.5",
                            "--guess", "pi", "--sweep", "b=0:200:1"), 201)


def _period2_job(rng: random.Random) -> Job:
    a = rng.uniform(0.05, 0.15)
    return Job("period2", ("sweep", "--model", "pendulum", "--N", "101",
                           "--subharmonic", "2",
                           "--param", f"a={a!r}", "b=181", "omega=17.5",
                           "--guess", "sin:0.8", "--sweep", "b=181:141:1"),
               41)


PROBE = Job("probe", ("solve", "--model", "circuit", "--N", "251",
                      "--guess", "constant:0"), 251)


def _circuit_newton(rng):
    return [_circuit_job(N, "constant:0", rng) for N in (101, 251, 501)]


def _circuit_warmstart(rng):
    return [_circuit_job(251, "rk4:20", rng)]


def _pendulum_continuation(rng):
    return [_inverted_job(rng), _period2_job(rng), _inverted_job(rng)]


WORKLOADS = {
    "circuit_newton": _circuit_newton,
    "circuit_warmstart": _circuit_warmstart,
    "pendulum_continuation": _pendulum_continuation,
}


def rounds(workload: str, seed: int):
    """Endless rounds of jobs of ``workload``; the same seed, the same jobs."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


# ---------------------------------------------------------------------------
# output checks


def parse_csv(text: str):
    """Header dict and data rows (lists of tokens) of a CLI CSV."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key.strip()] = value.strip()
        elif line:
            rows.append(line.split(","))
    return header, rows


def load_reference(path: str = REFERENCE_PATH):
    """Frozen (phase, i_d, V0) columns of the criterion-5 oracle."""
    with open(path) as fh:
        _, rows = parse_csv(fh.read())
    return tuple([float(r[k]) for r in rows] for k in range(3))


def _column(header, rows, name):
    names = header.get("columns", "").split(",")
    if name not in names:
        raise KeyError(f"no {name} column")
    k = names.index(name)
    return [row[k] for row in rows]


def _gap(values, reference):
    p2p = max(reference) - min(reference)
    return max(abs(v - r) for v, r in zip(values, reference)) / p2p


def check(job: Job, returncode, text: str, reference=None) -> Outcome:
    """Check one job's exit code and CSV; count its converged solves.

    A solve counts one solve, a sweep one per branch point.  The probe
    also reports its gaps to ``reference`` as ``circuit_id_err`` and
    ``circuit_v0_err``; only the i_d gap is gated (criterion 5's clause
    that holds; the V0 clause is the known red).
    """
    if returncode != 0:
        return Outcome(False, reason=f"exit code {returncode}")
    try:
        return _check_output(job, text, reference)
    except (KeyError, IndexError, ValueError) as exc:
        return Outcome(False, reason=f"malformed output: {exc}")


def _check_output(job: Job, text: str, reference) -> Outcome:
    header, rows = parse_csv(text)
    if len(rows) != job.rows:
        return Outcome(False, reason=f"{len(rows)} rows, expected {job.rows}")
    if job.argv[0] == "solve":
        if header.get("converged") != "true":
            return Outcome(False, reason="converged flag is not true")
        if job.kind == "probe":
            return _check_probe(header, rows, reference)
        return Outcome(True, solves=1)

    if header.get("status") != "completed":
        return Outcome(False, reason=f"branch status {header.get('status')}")
    if any(flag != "1" for flag in _column(header, rows, "converged")):
        return Outcome(False, reason="a branch point is not converged")
    hi, lo = _column(header, rows, "max"), _column(header, rows, "min")
    if job.kind == "inverted":
        if any(v != PI_TEXT for v in hi + lo):
            return Outcome(False, reason="inverted extrema are not pi bitwise")
    elif float(hi[0]) - float(lo[0]) <= 1.0:
        return Outcome(False, reason="period-2 theta swing is not above 1 rad")
    return Outcome(True, solves=len(rows))


def _check_probe(header, rows, reference) -> Outcome:
    ref_phase, ref_id, ref_v0 = reference
    phase = [float(v) for v in _column(header, rows, "phase")]
    if phase != ref_phase:
        return Outcome(False, reason="solution grid differs from the"
                       " reference grid; regenerate with make_reference.py")
    id_err = _gap([float(v) for v in _column(header, rows, "i_d")], ref_id)
    v0_err = _gap([float(v) for v in _column(header, rows, "V0")], ref_v0)
    extra = {"circuit_id_err": id_err, "circuit_v0_err": v0_err}
    if not id_err <= ID_ERR_LIMIT:
        return Outcome(False, reason=f"i_d gap {id_err:.3e} of peak-to-peak"
                       f" exceeds {ID_ERR_LIMIT}", extra=extra)
    return Outcome(True, solves=1, extra=extra)
