"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import limitcycle.cli  # noqa: E402
import limitcycle.solver  # noqa: E402
import run  # noqa: E402
from run import SpeedGauge, run_job, summarize  # noqa: E402
from spans import SPAN_NAMES, Tracer, self_times  # noqa: E402
from workloads import PI_TEXT, WORKLOADS, Job, Outcome, check, rounds  # noqa: E402


def _argv(workload, seed, n_rounds=4):
    gen = rounds(workload, seed)
    return [job.argv for _ in range(n_rounds) for job in next(gen)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_job_arguments(workload):
    assert _argv(workload, 7) == _argv(workload, 7)
    assert _argv(workload, 7) != _argv(workload, 8)


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children [1, 3] and [4, 8]; [4, 8] has [5, 6];
    # a second root [20, 21] has no children
    name_id = [0, 1, 2, 1, 0]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 4.0, 5.0, 20.0]
    end = [10.0, 3.0, 8.0, 6.0, 21.0]
    calls, total, own = self_times(name_id, parent, start, end, 3)
    assert calls.tolist() == [2, 2, 1]
    assert total.tolist() == [11.0, 3.0, 4.0]
    # root self 10 - 2 - 4 = 4, plus the childless root's 1
    assert own.tolist() == [5.0, 3.0, 3.0]


def test_child_is_clipped_to_its_parent_interval():
    calls, total, own = self_times([0, 1], [-1, 0], [0.0, 3.0], [4.0, 6.0], 2)
    assert own.tolist() == [3.0, 3.0]


def _csv(converged="true", rows=3):
    lines = ["# model=linear", f"# converged={converged}",
             "# columns=phase,tau,x1"]
    lines += ["0,0,0"] * rows
    return "\n".join(lines) + "\n"


def test_failed_jobs_count_in_fail_frac_not_in_solves_per_s():
    job = Job("circuit", ("solve", "--model", "linear", "--N", "3"), 3)
    good = check(job, 0, _csv())
    exit_1 = check(job, 1, _csv())
    not_converged = check(job, 0, _csv(converged="false"))
    assert good.ok and good.solves == 1
    assert not exit_1.ok and not not_converged.ok
    stats = summarize([[(1.0, good), (1.0, exit_1), (2.0, not_converged)]])
    assert stats["failed"] == 2
    assert stats["fail_frac"] == pytest.approx(2 / 3)
    assert stats["solves_per_s"] == pytest.approx(1 / 4.0)
    stats = summarize([[(1.0, good)], [(2.0, good)], [(1.0, exit_1)]])
    assert stats["solves_per_s"] == pytest.approx(0.5)


def test_speed_gauge_scales_by_the_passes_around_each_time(monkeypatch):
    unit = run.REFERENCE_PASS_S
    passes = iter([[unit], [3 * unit, 3 * unit], [unit]])
    asked = []

    def fake_samples(seconds):
        asked.append(seconds)
        return next(passes)

    monkeypatch.setattr(run, "reference_samples", fake_samples)
    gauge = SpeedGauge()
    # passes around the first time: [1, 3, 3] units, median 3: a host
    # three times slower than the reference
    assert gauge.at_reference(6.0) == pytest.approx(2.0)
    # around the second: [3, 3, 1] units, median 3 again
    assert gauge.at_reference(1.5) == pytest.approx(0.5)
    assert asked[1:] == [run.REFERENCE_SHARE * 6.0,
                         run.REFERENCE_SHARE * 1.5]
    assert len(gauge.passes) == 4


def test_real_nonconverged_job_is_a_failure(tmp_path):
    job = Job("circuit", ("solve", "--model", "pendulum", "--N", "11",
                          "--param", "a=0.0", "b=500", "omega=2.0",
                          "--guess", "sin:2.5"), 11)
    seconds, outcome, size = run_job(job, str(tmp_path / "out.csv"), None)
    assert not outcome.ok and outcome.solves == 0
    assert "exit code 1" in outcome.reason
    assert seconds > 0 and size > 0


def test_sweep_checks():
    header = ["# status=completed", "# columns=parameter,component,max,min,"
              "iterations,converged"]
    inverted = Job("inverted", ("sweep",), 2)
    pi_rows = [f"{b},0,{PI_TEXT},{PI_TEXT},0,1" for b in (0, 1)]
    assert check(inverted, 0, "\n".join(header + pi_rows)).solves == 2
    off = repr(math.pi + 1e-15)
    bad = [f"0,0,{PI_TEXT},{PI_TEXT},0,1", f"1,0,{off},{PI_TEXT},0,1"]
    assert not check(inverted, 0, "\n".join(header + bad)).ok
    period2 = Job("period2", ("sweep",), 1)
    assert check(period2, 0, "\n".join(header + ["181,0,3.6,2.5,4,1"])).ok
    assert not check(period2, 0, "\n".join(header + ["181,0,3.4,2.5,4,1"])).ok


def test_tracer_records_nested_spans_and_restores_originals(tmp_path):
    original = limitcycle.solver.lu_factor
    tracer = Tracer()
    job = Job("circuit", ("solve", "--model", "linear", "--N", "11"), 11)
    with tracer.installed():
        _, outcome, size = run_job(job, str(tmp_path / "out.csv"), None)
    assert outcome == Outcome(True, solves=1)
    assert limitcycle.solver.lu_factor is original
    assert limitcycle.cli.main.__name__ == "main"
    name_id, parent, start, end = tracer.arrays()
    names = [SPAN_NAMES[i] for i in name_id]
    assert names[0] == "cli.main" and parent[0] == -1
    lu = names.index("solver.lu_factor")
    assert names[parent[lu]] == "solver.newton_solve"
    assert np.all(end >= start)
    metrics = tracer.layer_metrics(1, size)
    assert metrics["cli.jobs"]["value"] == 1
    assert metrics["solver.iterations"]["value"] == 1
    assert metrics["models.rhs_calls"]["value"] > 0
