import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import limitcycle.cli as cli
import limitcycle.models as models
import limitcycle.system
from limitcycle.cli import main
from limitcycle.continuation import extract_extrema, sweep
from limitcycle.models import (CircuitParams, PendulumParams, circuit_outputs,
                               circuit_system, pendulum_system)
from limitcycle.spectral import diff_matrix_equispaced, equispaced_nodes
from limitcycle.system import CollocationProblem


def _read(path):
    header = {}
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key.strip()] = value.strip()
        elif line:
            rows.append([float(tok) for tok in line.split(",")])
    return header, np.array(rows)


def _error_message(capsys):
    """The message of the one ``error: `` line that is all of stderr."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: "):-1]


_BAD_ROW = "# N=3\n# columns=phase,tau,x1\n1,2,3\nabc,2,3\n1,2,3\n"
# a solution file that is not UTF-8
_NOT_UTF8 = b"# N=3\n# columns=phase,tau,x1\n\xff\xfe,2,3\n"


class TestSolve:
    def test_linear_solution_matches_analytic(self, tmp_path):
        out = tmp_path / "lin.csv"
        rc = main(["solve", "--model", "linear", "--N", "3",
                   "--param", "p=1", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["converged"] == "true"
        assert header["columns"] == "phase,tau,x1"
        nodes = equispaced_nodes(3).nodes
        expect = 0.5 * (np.cos(nodes) + np.sin(nodes))
        assert np.max(np.abs(data[:, 2] - expect)) <= 1e-12

    def test_pendulum_pi_guess_is_exact(self, tmp_path):
        out = tmp_path / "pend.csv"
        rc = main(["solve", "--model", "pendulum", "--N", "11",
                   "--param", "a=0.1", "b=5", "omega=17.5",
                   "--guess", "pi", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["residual_norm"] == "0"
        assert np.all(data[:, 2] == np.pi)
        assert np.all(data[:, 3] == 0.0)

    def test_round_trip_file_guess_converges_immediately(self, tmp_path):
        first = tmp_path / "first.csv"
        main(["solve", "--model", "linear", "--N", "11", "--param", "p=1.5",
              "--out", str(first)])
        second = tmp_path / "second.csv"
        rc = main(["solve", "--model", "linear", "--N", "11",
                   "--param", "p=1.5", "--guess", f"file:{first}",
                   "--out", str(second)])
        assert rc == 0
        header, _ = _read(second)
        assert int(header["iterations"]) <= 2

    def test_output_is_byte_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["solve", "--model", "pendulum", "--N", "21",
                "--param", "a=0.1", "b=50", "omega=17.5", "--guess", "pi"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_nonconvergence_exits_1_with_flagged_header(self, tmp_path):
        out = tmp_path / "bad.csv"
        rc = main(["solve", "--model", "pendulum", "--N", "11",
                   "--param", "a=0.0", "b=500", "omega=2.0",
                   "--guess", "sin:2.5", "--out", str(out)])
        assert rc == 1
        header, data = _read(out)
        assert header["converged"] == "false"
        assert data.shape[0] == 11  # best iterate still written

    def test_header_reports_factorizations_after_iterations(self, tmp_path):
        out = tmp_path / "circuit.csv"
        assert main(["solve", "--model", "circuit", "--N", "251",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        at = lines.index("# iterations=3")
        assert lines[at + 1] == "# factorizations=1"

    def test_non_finite_jacobian_exits_2(self, capsys):
        # f is finite at the zero guess, but the Jacobian's 1/(C2*(R3+R4))
        # overflows
        assert main(["solve", "--model", "circuit", "--N", "11",
                     "--param", "C2=1e-320"]) == 2
        assert _error_message(capsys) == "Jacobian is not finite at node index 0"

    def test_misshapen_jacobian_exits_2(self, monkeypatch, capsys):
        # one (m, m) block where the contract asks for one per node
        monkeypatch.setattr(models, "_pendulum_jac",
                            lambda table, t, p: np.eye(2))
        assert main(["solve", "--model", "pendulum", "--N", "11",
                     "--guess", "sin:0.8"]) == 2
        assert (_error_message(capsys)
                == "jac returned shape (2, 2), expected (11, 2, 2)")

    def test_file_guess_rejects_node_mismatch(self, tmp_path):
        first = tmp_path / "first.csv"
        main(["solve", "--model", "linear", "--N", "11", "--out", str(first)])
        rc = main(["solve", "--model", "linear", "--N", "21",
                   "--guess", f"file:{first}"])
        assert rc == 2

    def test_file_guess_refuses_simulate_and_sweep_files(self, tmp_path,
                                                         capsys):
        # a transient has no node count; a sweep has N data rows, but no
        # phase column holding the nodes
        sim, swept = tmp_path / "sim.csv", tmp_path / "sweep.csv"
        assert main(["simulate", "--model", "circuit",
                     "--cycles", "1", "--steps", "50", "--out", str(sim)]) == 0
        assert main(["sweep", "--model", "linear", "--N", "11",
                     "--sweep", "p=0:10:1", "--out", str(swept)]) == 0
        capsys.readouterr()
        for model, N, path, named in [
            ("circuit", "51", sim, "solution file lacks the N header field"),
            ("linear", "11", swept,
             "solution file phases are not the equispaced nodes"),
        ]:
            assert main(["solve", "--model", model, "--N", N,
                         "--guess", f"file:{path}"]) == 2, path
            assert _error_message(capsys) == named

    def test_circuit_file_guess_takes_states_by_name(self, tmp_path):
        # the derived columns i_d and V0 follow x1..x3 and are not states
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["solve", "--model", "circuit", "--N", "51",
                     "--out", str(first)]) == 0
        assert main(["solve", "--model", "circuit", "--N", "51",
                     "--guess", f"file:{first}", "--out", str(second)]) == 0
        header, data = _read(second)
        assert header["iterations"] == "0"
        assert np.array_equal(data, _read(first)[1])

    def test_repeated_param_flags_merge(self, tmp_path):
        out = tmp_path / "pend.csv"
        assert main(["solve", "--model", "pendulum", "--N", "11",
                     "--param", "a=0.2", "--param", "b=5", "omega=3",
                     "--param", "omega=17.5", "--guess", "pi",
                     "--out", str(out)]) == 0
        header, _ = _read(out)
        assert header["param.a"] == "0.20000000000000001"
        assert header["param.b"] == "5"
        assert header["param.omega"] == "17.5"

    def test_invalid_inputs_exit_2(self, tmp_path, capsys):
        # argparse refuses a --model outside its choices, with its usage
        assert main(["solve", "--model", "nosuch", "--N", "3"]) == 2
        assert ("error: argument --model: invalid choice"
                in capsys.readouterr().err)
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text(_BAD_ROW)
        not_utf8 = tmp_path / "not_utf8.csv"
        not_utf8.write_bytes(_NOT_UTF8)
        nodes = equispaced_nodes(3).nodes
        four_rows = tmp_path / "four_rows.csv"
        four_rows.write_text("# N=3\n# columns=phase,tau,x1\n"
                             + f"{nodes[0]:.17g},2,3\n" * 4)
        two_columns = tmp_path / "two_columns.csv"
        two_columns.write_text("# N=3\n# columns=phase,tau\n"
                               + "".join(f"{t:.17g},2\n" for t in nodes))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2,3\n1,2\n1,2,3\n")
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("# N=3\n# columns=phase,tau,x1\n")
        ini = tmp_path / "nosuch.ini"
        ini.write_text("[run]\nmodel = nosuch\nn = 11\n")
        zero_n = tmp_path / "zero_n.ini"
        zero_n.write_text("[run]\nmodel = linear\nn = 0\n")
        cases = [
            (["--model", "linear", "--N", "4"], "odd number N >= 3"),
            # 0 is a node count the grid refuses, not a missing one
            (["--model", "linear", "--N", "0"],
             "odd number N >= 3 of points, got N=0"),
            (["--config", str(zero_n)], "odd number N >= 3 of points, got N=0"),
            (["--model", "linear", "--N", "3", "--param", "q=1"],
             "has no parameter(s) q"),
            (["--model", "linear", "--N", "3", "--param", "p"],
             "parameter override 'p' is not NAME=VALUE"),
            (["--model", "linear"], "no node count given"),
            (["--model", "linear", "--N", "3", "--guess", "bogus:1"],
             "unknown guess descriptor 'bogus:1'"),
            # pi takes no argument
            (["--model", "pendulum", "--N", "11", "--guess", "pi:garbage"],
             "unknown guess descriptor 'pi:garbage'"),
            (["--N", "3"], "no model given"),
            (["--model", "linear", "--N", "3", "--subharmonic", "0"],
             "subharmonic order must be a positive integer, got 0"),
            # the sin guess has two states; the circuit has three
            (["--model", "circuit", "--N", "3", "--guess", "sin:0.8"],
             "initial state has shape (6,), expected (9,)"),
            (["--config", str(ini)], "unknown model 'nosuch'"),
            # an --out path that cannot be opened is named
            (["--model", "linear", "--N", "3",
              "--out", str(tmp_path / "nodir" / "x.csv")],
             str(tmp_path / "nodir" / "x.csv")),
            (["--model", "linear", "--N", "3", "--out", str(tmp_path)],
             str(tmp_path)),
        ]
        for guess, named in [
            ("constant:abc", "constant guess 'abc'"),
            ("sin:", "sin guess size ''"),
            ("sin:x", "sin guess size 'x'"),
            ("sin:0.8,y", "sin guess harmonic 'y'"),
            ("sin:0.8,0", "harmonic must be >= 1, got 0"),
            ("rk4:x", "rk4 guess cycles 'x'"),
            ("rk4:0", "cycles must be >= 1, got 0"),
            (f"file:{bad_row}", "data value 'abc'"),
            (f"file:{not_utf8}", f"{str(not_utf8)!r}: 'utf-8' codec can't"),
            ("file:", "file guess needs a path"),
            (f"file:{four_rows}", "data does not match its header"),
            (f"file:{two_columns}", "lacks the x1 column"),
            (f"file:{ragged}", "has rows of unequal length"),
            (f"file:{header_only}", "has no data rows"),
        ]:
            model = "pendulum" if guess.startswith("sin") else "linear"
            cases.append((["--model", model, "--N", "3", "--guess", guess],
                          named))
        for args, named in cases:
            assert main(["solve"] + args) == 2, args
            assert named in _error_message(capsys), args

    @pytest.mark.parametrize("args", [
        ["--model", "pendulum", "--guess", "constant:inf"],
    ])
    def test_non_finite_initial_rhs_exits_2(self, args, capsys, recwarn):
        assert main(["solve", "--N", "11"] + args) == 2
        err = capsys.readouterr().err
        assert "error: rhs is not finite at node index 0" in err
        assert "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("args,named", [
        (["simulate", "--model", "pendulum", "--initial", "inf,0",
          "--cycles", "2"], "initial state value 'inf'"),
        (["simulate", "--model", "linear", "--param", "p=inf",
          "--cycles", "2"], "parameter 'p' 'inf'"),
        (["solve", "--N", "11", "--model", "linear", "--param", "p=inf",
          "--guess", "rk4:2"], "parameter 'p' 'inf'"),
        (["solve", "--N", "11", "--model", "linear", "--param", "p=inf"],
         "parameter 'p' 'inf'"),
    ], ids=["simulate-initial", "simulate-param", "solve-rk4-param",
            "solve-param"])
    def test_non_finite_numbers_exit_2(self, args, named, capsys):
        # refused where the CLI parses them, before any rhs evaluation
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {named} is not finite\n"

    @pytest.mark.parametrize("args,named", [
        (["simulate", "--param", "a=-100", "--cycles", "30"],
         "transient diverged (non-finite state) at step 5310"),
        (["solve", "--N", "11", "--param", "a=-100", "--guess", "rk4:30"],
         "transient diverged (non-finite state) at step 51850"),
        # resonant: the constant state where cos(theta - pi) = -omega**2,
        # so omega * D - P is singular at the first harmonic
        (["solve", "--N", "11", "--param", "a=0", "b=0", "omega=0.5",
          "--guess", "constant:1.3181160716528177"],
         "Jacobian numerically singular at Newton iteration 1"),
        # a stage state reaches inf and the rhs takes math.sin of it
        (["simulate", "--param", "a=-10", "--initial", "0,1e308",
          "--cycles", "1", "--steps", "8"],
         "transient diverged (non-finite state) at step 1"),
        (["sweep", "--N", "11", "--param", "a=0.0", "b=500", "omega=2.0",
          "--guess", "sin:2.5", "--sweep", "b=500:400:10"],
         "initial solve did not converge at parameter value 500.0"),
    ], ids=["simulate-diverges", "rk4-guess-diverges", "singular-jacobian",
            "simulate-stage-not-finite", "sweep-seed-fails"])
    def test_solver_failure_exits_1_without_traceback(self, args, named,
                                                      capsys):
        rc = main(args + ["--model", "pendulum"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {named}\n"
        assert "Traceback" not in err

    def test_badly_scaled_jacobian_exits_1_without_traceback(self, capsys):
        # J's entries reach 1e300 but it is not singular: no step from the
        # rk4 guess lowers the residual, so the solve is not converged
        rc = main(["solve", "--N", "11", "--model", "pendulum",
                   "--param", "b=1e300", "--guess", "rk4:2"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.endswith("converged=False\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("model,param,named", [
        ("pendulum", "omega=0", "forcing frequency"),
        ("circuit", "T_period=-1e-5", "T_period"),
        ("circuit", "T_period=0", "T_period"),
        ("circuit", "i_s=0", "i_s"),
        ("circuit", "eta=-0.9", "eta"),
        ("circuit", "T_abs=0", "T_abs"),
        ("circuit", "C1=0", "C1"),
        ("circuit", "C2=0", "C2"),
        ("circuit", "L=0", "L"),
        ("circuit", "R3=-2 R4=2", "R3 + R4"),
    ])
    def test_bad_model_parameters_exit_2(self, model, param, named, capsys):
        # i_s=0 would pass as converged with an inf residual, and the
        # scalar rhs of an rk4 guess or of simulate divides by C1, C2, L
        # and R3 + R4: each command must refuse the record up front
        for command in (["solve", "--N", "5"],
                        ["solve", "--N", "5", "--guess", "rk4:1"],
                        ["simulate", "--cycles", "1", "--steps", "40"]):
            assert main(command + ["--model", model,
                                   "--param", *param.split()]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err


class TestSweep:
    def test_linear_extrema_scale_with_parameter(self, tmp_path):
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--model", "linear", "--N", "11",
                   "--sweep", "p=0:2:0.5", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["status"] == "completed"
        assert data.shape == (5, 6)
        assert np.allclose(data[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert np.max(np.abs(data[:, 2] - data[:, 0] / np.sqrt(2.0))) <= 1e-12
        assert np.all(data[:, 5] == 1.0)

    def test_pendulum_constant_branch(self, tmp_path):
        out = tmp_path / "swp.csv"
        rc = main(["sweep", "--model", "pendulum", "--N", "21",
                   "--param", "a=0.1", "omega=17.5", "--guess", "pi",
                   "--sweep", "b=0:50:10", "--out", str(out)])
        assert rc == 0
        _, data = _read(out)
        assert np.all(data[:, 2] == np.pi)
        assert np.all(data[:, 3] == np.pi)

    def test_range_into_rejected_values_truncates(self, tmp_path):
        # omega <= 0 is rejected by the model: the branch stops short of
        # it instead of discarding the points already traced
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--model", "pendulum", "--N", "21", "--guess",
                   "pi", "--sweep", "omega=3:-1:1", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["status"] == "truncated"
        assert data[:3, 0].tolist() == [3.0, 2.0, 1.0]
        assert np.all(data[:, 0] > 0.0)

    def test_collapsed_period_two_branch_truncates_and_says_why(
            self, tmp_path, capsys):
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--model", "pendulum", "--N", "101",
                   "--subharmonic", "2", "--param", "a=0.1", "omega=17.5",
                   "--guess", "sin:0.8", "--sweep", "b=181:100:1",
                   "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["status"] == "truncated"
        assert data[-1, 0] == 141.0 and len(data) == 41
        assert capsys.readouterr().err == (
            "41 point(s), status=truncated (collapsed to a shorter period)\n")

    def test_range_through_zero_period_truncates(self, tmp_path):
        # the model rejects T_period = 0 (omega = 2*pi/T_period), so the
        # step halves toward it until the branch truncates at its floor
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--model", "circuit", "--N", "11", "--sweep",
                   "T_period=1e-5:0:5e-6", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["status"] == "truncated"
        assert data[:, 0].tolist() == [1e-5 * 0.5**k for k in range(8)]

    def test_step_floor_truncation_says_why(self, tmp_path, capsys):
        # L <= 0 is rejected by the model; the step halves toward 0 and
        # the branch ends at the floor, which the stderr line names
        out = tmp_path / "sw.csv"
        rc = main(["sweep", "--model", "circuit", "--N", "11", "--sweep",
                   "L=1e-5:-1e-5:1e-5", "--out", str(out)])
        assert rc == 0
        assert _read(out)[0]["status"] == "truncated"
        assert capsys.readouterr().err == (
            "7 point(s), status=truncated"
            " (solve failed at the step floor, step/64)\n")

    def test_inverted_branch_extrema_are_pi_in_every_cell(self, tmp_path):
        out = tmp_path / "inv.csv"
        rc = main(["sweep", "--model", "pendulum", "--N", "101",
                   "--param", "a=0.1", "omega=17.5", "--guess", "pi",
                   "--sweep", "b=0:200:1", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == 201
        pi_text = "%.17g" % np.pi
        assert all(row[2] == pi_text and row[3] == pi_text for row in rows)

    def test_period_2_extrema_match_per_point_extraction(self, tmp_path,
                                                         monkeypatch):
        branches = []

        def recording_sweep(*args, **kwargs):
            branches.append(sweep(*args, **kwargs))
            return branches[-1]

        monkeypatch.setattr(cli, "sweep", recording_sweep)
        out = tmp_path / "p2.csv"
        rc = main(["sweep", "--model", "pendulum", "--N", "101",
                   "--subharmonic", "2",
                   "--param", "a=0.1", "b=181", "omega=17.5",
                   "--guess", "sin:0.8", "--sweep", "b=181:171:1",
                   "--out", str(out)])
        assert rc == 0
        _, data = _read(out)
        (branch,) = branches
        assert data.shape == (len(branch.points), 6) == (11, 6)
        grid = equispaced_nodes(101)
        for row, (p, result) in zip(data, branch.points):
            hi, lo = extract_extrema(grid, result.X, 0)
            assert row[0] == p
            assert abs(row[2] - hi) <= 1e-14
            assert abs(row[3] - lo) <= 1e-14
        assert np.all(data[:, 2] - data[:, 3] > 1.0)

    @pytest.mark.parametrize("args, system_at", [
        # omega = 2*pi/T_period moves at every point; the model rejects
        # T_period = 0, so the branch ends truncated
        (["--model", "circuit", "--N", "11",
          "--sweep", "T_period=1e-5:0:5e-6"],
         lambda p: circuit_system(CircuitParams(T_period=p))),
        (["--model", "pendulum", "--N", "101", "--subharmonic", "2",
          "--param", "a=0.1", "omega=17.5", "--guess", "sin:0.8",
          "--sweep", "b=181:179:1"],
         lambda p: dataclasses.replace(
             pendulum_system(PendulumParams(a=0.1, b=p, omega=17.5)),
             subharmonic=2)),
    ], ids=["circuit_period", "pendulum_period_2"])
    def test_every_point_builds_a_fresh_problem(self, args, system_at,
                                                monkeypatch, tmp_path):
        built = []

        def recording_sweep(family, X0, cfg):
            def recording_family(p):
                built.append((p, family(p)))
                return built[-1][1]
            return sweep(recording_family, X0, cfg)

        monkeypatch.setattr(cli, "sweep", recording_sweep)
        out = tmp_path / "sw.csv"
        assert main(["sweep", *args, "--out", str(out)]) == 0
        status = _read(out)[0]["status"]
        circuit = args[1] == "circuit"
        assert status == ("truncated" if circuit else "completed")
        assert len({problem.omega_eff for _, problem in built}) == (
            len(built) if circuit else 1)
        plan = ("forcing_phases", "eval_nodes", "eval_phases")
        for p, problem in built:
            # the plan computed afresh, not taken from the cache
            limitcycle.system._eval_plan.cache_clear()
            fresh = CollocationProblem.build(system_at(p), problem.grid.size)
            assert problem.system.params == fresh.system.params
            assert problem.system.subharmonic == fresh.system.subharmonic
            assert problem.omega_eff == fresh.omega_eff
            for name in plan:
                shared = getattr(problem, name)
                np.testing.assert_array_equal(shared, getattr(fresh, name))
                assert shared is getattr(built[0][1], name)
                assert not shared.flags.writeable
            assert fresh.jump_nodes.size == (1 if circuit else 0)

    def test_guess_and_header_are_built_at_the_start_value(self, tmp_path):
        # the sweep overrides the swept parameter at every point, so its
        # configured value must not reach the warm start or the header
        args = ["sweep", "--model", "circuit", "--N", "101",
                "--guess", "rk4:20", "--sweep", "A_m=3:4:0.5"]
        plain, pinned = tmp_path / "plain.csv", tmp_path / "pinned.csv"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--param", "A_m=3", "--out", str(pinned)]) == 0
        assert plain.read_bytes() == pinned.read_bytes()
        assert "# param.A_m=3\n" in plain.read_text()

    def test_invalid_specs_exit_2(self, capsys):
        base = ["sweep", "--model", "linear", "--N", "11"]
        for args, named in [
            (["--sweep", "p=1:1:0.5"], "start equals end"),
            (["--sweep", "p=0:1:0"], "step must be positive"),
            (["--sweep", "p=0:nan:0.5"], "must be finite"),
            (["--sweep", "p=0:inf:0.5"], "must be finite"),
            (["--sweep", "p=0:x:0.5"], "sweep range entry 'x'"),
            (["--sweep", "p=0:1"], "is not START:END:STEP"),
            (["--sweep", "q=0:1:0.5"], "has no parameter(s) q"),
            (["--sweep", "p:0:1:0.5"], "is not NAME=START:END:STEP"),
            (["--sweep", "p=0:1:0.5", "--component", "3"],
             "component 3 out of range"),
        ]:
            assert main(base + args) == 2, args
            assert named in _error_message(capsys), args


class TestOutPath:
    @pytest.mark.parametrize("args,work", [
        (["solve", "--model", "linear", "--N", "3"], "newton_solve"),
        (["sweep", "--model", "pendulum", "--N", "101", "--subharmonic", "2",
          "--param", "a=0.1", "b=181", "omega=17.5", "--guess", "sin:0.8",
          "--sweep", "b=181:141:1"], "sweep"),
        (["simulate", "--model", "linear"], "rk4_transient"),
    ], ids=["solve", "sweep", "simulate"])
    def test_unwritable_out_exits_2_before_the_work(self, args, work,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        def never(*a, **k):
            raise AssertionError(f"{work} ran although --out is unwritable")

        monkeypatch.setattr(cli, work, never)
        for target in [tmp_path / "nodir" / "x.csv", tmp_path]:
            assert main(args + ["--out", str(target)]) == 2
            assert str(target) in _error_message(capsys)
        assert list(tmp_path.iterdir()) == []

    def test_symlink_into_a_missing_directory_exits_2_before_the_work(
            self, tmp_path, monkeypatch, capsys):
        def never(*a, **k):
            raise AssertionError("newton_solve ran although --out is unwritable")

        monkeypatch.setattr(cli, "newton_solve", never)
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "nodir" / "x.csv")
        assert main(["solve", "--model", "circuit", "--N", "251", "--guess",
                     "rk4:20", "--out", str(link)]) == 2
        assert _error_message(capsys) == (
            f"[Errno 2] No such file or directory: {str(link)!r}")
        assert link.is_symlink() and list(tmp_path.iterdir()) == [link]

    def test_symlink_into_a_directory_writes_the_target(self, tmp_path):
        # the check creates and removes the link's target, not the link
        (tmp_path / "real").mkdir()
        link, target = tmp_path / "link.csv", tmp_path / "real" / "out.csv"
        link.symlink_to(target)
        assert main(["solve", "--model", "linear", "--N", "11",
                     "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("# model=linear\n")
        assert sorted(tmp_path.rglob("*")) == [link, tmp_path / "real", target]

    @pytest.mark.parametrize("command,work", [
        (["interp", "--input", "sol.csv"], "trig_interpolate"),
        (["matrix", "--N", "1001"], "diff_matrix_equispaced"),
    ], ids=["interp", "matrix"])
    def test_interp_and_matrix_check_out_before_the_work(
            self, command, work, tmp_path, monkeypatch, capsys):
        def never(*a, **k):
            raise AssertionError(f"{work} ran although --out is unwritable")

        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--model", "linear", "--N", "11",
                     "--out", "sol.csv"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, work, never)
        target = tmp_path / "nodir" / "x.csv"
        assert main(command + ["--out", str(target)]) == 2
        assert str(target) in _error_message(capsys)

    def test_stdout_dev_null_and_blank_lines(self, tmp_path, capsys):
        args = ["solve", "--model", "linear", "--N", "11"]
        out = tmp_path / "lin.csv"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        # stdout is the default, and it gets what --out gets
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()
        assert main(args + ["--out", os.devnull]) == 0
        assert capsys.readouterr().out == ""
        # a blank line in a stored solution is skipped
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(out.read_text().replace("\n", "\n\n"))
        dense = []
        for path in (out, spaced):
            assert main(["interp", "--input", str(path), "--points", "11"]) == 0
            dense.append(capsys.readouterr().out)
        assert dense[0] == dense[1]

    @pytest.mark.parametrize("args,rc", [
        (["solve", "--model", "linear", "--N", "3", "--guess", "bogus:1"], 2),
        (["sweep", "--model", "pendulum", "--N", "11",
          "--param", "a=0.0", "b=500", "omega=2.0", "--guess", "sin:2.5",
          "--sweep", "b=500:400:10"], 1),
    ], ids=["invalid-guess", "sweep-seed-fails"])
    def test_failed_run_keeps_existing_file_and_leaves_no_new_one(
            self, args, rc, tmp_path, capsys):
        existing = tmp_path / "old.csv"
        existing.write_text("keep me\n")
        assert main(args + ["--out", str(existing)]) == rc
        assert existing.read_text() == "keep me\n"
        new = tmp_path / "new.csv"
        assert main(args + ["--out", str(new)]) == rc
        assert not new.exists()
        capsys.readouterr()


class TestInterp:
    def test_node_count_reproduces_stored_values(self, tmp_path):
        sol = tmp_path / "sol.csv"
        main(["solve", "--model", "linear", "--N", "11", "--param", "p=1",
              "--out", str(sol)])
        dense = tmp_path / "dense.csv"
        rc = main(["interp", "--input", str(sol), "--points", "11",
                   "--out", str(dense)])
        assert rc == 0
        _, stored = _read(sol)
        _, resampled = _read(dense)
        assert np.array_equal(resampled, stored)

    def test_dense_resampling_matches_analytic_curve(self, tmp_path):
        sol = tmp_path / "sol.csv"
        main(["solve", "--model", "linear", "--N", "11", "--param", "p=1",
              "--out", str(sol)])
        dense = tmp_path / "dense.csv"
        rc = main(["interp", "--input", str(sol), "--points", "97",
                   "--out", str(dense)])
        assert rc == 0
        _, data = _read(dense)
        ts = data[:, 0]
        expect = 0.5 * (np.cos(ts) + np.sin(ts))
        assert np.max(np.abs(data[:, 2] - expect)) <= 1e-10

    def test_period_2_node_count_rebuilds_phase_and_tau(self, tmp_path):
        # tau is not interpolated but rebuilt as s * t / omega
        sol = tmp_path / "p2.csv"
        assert main(["solve", "--model", "pendulum", "--N", "101",
                     "--subharmonic", "2",
                     "--param", "a=0.1", "b=181", "omega=17.5",
                     "--guess", "sin:0.8", "--out", str(sol)]) == 0
        dense = tmp_path / "dense.csv"
        assert main(["interp", "--input", str(sol), "--points", "101",
                     "--out", str(dense)]) == 0
        header, stored = _read(sol)
        _, resampled = _read(dense)
        assert header["columns"].split(",")[:2] == ["phase", "tau"]
        assert np.array_equal(resampled[:, :2], stored[:, :2])

    def test_missing_input_exits_2(self, tmp_path, capsys):
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text(_BAD_ROW)
        not_utf8 = tmp_path / "not_utf8.csv"
        not_utf8.write_bytes(_NOT_UTF8)
        even = tmp_path / "even.csv"
        even.write_text("# N=4\n# columns=phase,tau,x1\n"
                        + "1,2,3\n" * 4)
        nodes = equispaced_nodes(3).nodes
        rows = "".join(f"{t:.17g},{t:.17g},1\n" for t in nodes)
        no_n = tmp_path / "no_n.csv"
        no_n.write_text("# columns=phase,tau,x1\n" + rows)
        no_columns = tmp_path / "no_columns.csv"
        no_columns.write_text("# N=3\n" + rows)
        short = tmp_path / "short.csv"
        short.write_text("# N=3\n# columns=phase,tau,x1,x2\n" + rows)
        off_grid = tmp_path / "off_grid.csv"
        off_grid.write_text("# N=3\n# columns=phase,tau,x1\n" + "1,2,3\n" * 3)
        no_omega = tmp_path / "no_omega.csv"
        no_omega.write_text("# N=3\n# columns=phase,tau,x1\n" + rows)
        for path, named in [
            (tmp_path / "nope.csv", "cannot read solution file"),
            (bad_row, "data value 'abc'"),
            (not_utf8, f"{str(not_utf8)!r}: 'utf-8' codec can't"),
            (even, "odd number N >= 3 of points, got N=4"),
            (no_n, "lacks the N header field"),
            (no_columns, "lacks the columns header field"),
            (short, "data does not match its header"),
            (off_grid, "phases are not the equispaced nodes"),
            (no_omega, "no frequency in header"),
        ]:
            assert main(["interp", "--input", str(path)]) == 2, path
            assert named in _error_message(capsys), path
        assert main(["interp", "--input", str(no_omega), "--points", "0"]) == 2
        assert _error_message(capsys) == "points must be a positive integer"

    @pytest.mark.parametrize("fields, message", [
        ("omega=nan", "header omega nan is not finite"),
        ("omega=inf", "header omega inf is not finite"),
        ("omega=1\n# subharmonic=0",
         "header subharmonic 0 is not a positive integer"),
        ("omega=1\n# subharmonic=-2",
         "header subharmonic -2 is not a positive integer"),
    ], ids=["omega-nan", "omega-inf", "subharmonic-0", "subharmonic-minus-2"])
    def test_tau_from_a_bad_header_frequency_or_order_exits_2(
            self, tmp_path, capsys, fields, message):
        # tau = s * t / omega would be nan, -0/0, zero or negative
        nodes = equispaced_nodes(3).nodes
        sol, out = tmp_path / "bad.csv", tmp_path / "dense.csv"
        sol.write_text(f"# N=3\n# {fields}\n# columns=phase,tau,x1\n"
                       + "".join(f"{t:.17g},{t:.17g},1\n" for t in nodes))
        assert main(["interp", "--input", str(sol), "--out", str(out)]) == 2
        assert _error_message(capsys) == f"cannot rebuild tau: {message}"
        assert not out.exists()
        # without a tau column nothing is rebuilt from the header
        sol.write_text(f"# N=3\n# {fields}\n# columns=phase,x1\n"
                       + "".join(f"{t:.17g},1\n" for t in nodes))
        assert main(["interp", "--input", str(sol), "--out", str(out)]) == 0

    def test_repeated_column_name_exits_2(self, tmp_path, capsys):
        # a column is read by its name, so a name may appear only once
        nodes = equispaced_nodes(3).nodes
        twice = tmp_path / "twice.csv"
        twice.write_text("# N=3\n# columns=phase,x1,x1\n"
                         + "".join(f"{t:.17g},1,2\n" for t in nodes))
        for args in (["interp", "--input", str(twice)],
                     ["solve", "--model", "linear", "--N", "3",
                      "--guess", f"file:{twice}"]):
            assert main(args) == 2, args
            assert _error_message(capsys) == (
                "solution file data does not match its header")


class TestSimulate:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "tr.csv"
        rc = main(["simulate", "--model", "linear",
                   "--cycles", "2", "--steps", "64", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["columns"] == "tau,x1"
        assert data.shape == (2 * 64 + 1, 2)
        assert data[0, 0] == 0.0

    def test_circuit_outputs_match_the_per_state_rhs(self, tmp_path):
        out = tmp_path / "tr.csv"
        rc = main(["simulate", "--model", "circuit",
                   "--cycles", "2", "--steps", "64", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["columns"] == "tau,x1,x2,x3,i_d,V0"
        p = CircuitParams()
        system = circuit_system(p)
        states = data[:, 1:4].T
        phases = np.mod(system.omega * data[:, 0], 2.0 * np.pi)
        phases[phases > np.pi] -= 2.0 * np.pi
        xdot = np.column_stack([system.rhs(x, t, p)
                                for x, t in zip(states.T, phases)])
        for got, want in zip((data[:, 4], data[:, 5]),
                             circuit_outputs(states, xdot, p)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_initial_state_must_match_dimension(self, capsys):
        rc = main(["simulate", "--model", "pendulum",
                   "--cycles", "1", "--steps", "16", "--initial", "1.0"])
        assert rc == 2
        assert _error_message(capsys) == (
            "initial state has shape (1,), expected (2,)")
        base = ["simulate", "--model", "linear"]
        for args, named in [
            (["--initial", "a"], "initial state value 'a'"),
            (["--cycles", "0"], "cycles must be >= 1, got 0"),
        ]:
            assert main(base + args) == 2, args
            assert named in _error_message(capsys), args

    def test_runs_without_a_node_count(self, tmp_path):
        # no --N and no config n: a transient has no grid
        out = tmp_path / "tr.csv"
        assert main(["simulate", "--model", "linear", "--cycles", "1",
                     "--steps", "8", "--out", str(out)]) == 0
        header, data = _read(out)
        assert "N" not in header and "guess" not in header
        assert header["cycles"] == "1" and data.shape == (9, 2)

    @pytest.mark.parametrize("option", [["--N", "3"], ["--guess", "pi"]],
                             ids=["N", "guess"])
    def test_collocation_options_exit_2(self, option, capsys):
        # argparse refuses an option the command does not take
        assert main(["simulate", "--model", "linear"] + option) == 2
        assert (f"unrecognized arguments: {' '.join(option)}"
                in capsys.readouterr().err)

    def test_config_node_count_and_guess_are_ignored(self, tmp_path):
        # n is even and the guess unknown: solve refuses both, simulate
        # reads neither
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nmodel = linear\nn = 4\nguess = nosuch:1\n")
        out = tmp_path / "tr.csv"
        assert main(["simulate", "--config", str(ini), "--cycles", "1",
                     "--steps", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert not [line for line in lines
                    if line.startswith(("# N=", "# guess="))]
        assert main(["solve", "--config", str(ini)]) == 2

    def test_builds_no_collocation_problem(self, monkeypatch, tmp_path):
        def never(*a, **k):
            raise AssertionError("simulate built a collocation problem")

        monkeypatch.setattr(cli.CollocationProblem, "build", never)
        assert main(["simulate", "--model", "circuit", "--cycles", "1",
                     "--steps", "40", "--out", str(tmp_path / "tr.csv")]) == 0


class TestMatrix:
    def test_dump_matches_library_matrix(self, tmp_path):
        out = tmp_path / "D.csv"
        rc = main(["matrix", "--N", "5", "--out", str(out)])
        assert rc == 0
        _, data = _read(out)
        assert np.array_equal(data, diff_matrix_equispaced(5).entries)

    def test_even_n_exits_2(self, capsys):
        assert main(["matrix", "--N", "4"]) == 2
        assert _error_message(capsys) == (
            "the periodic grid needs an odd number N >= 3 of points, got N=4")


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[run]\nmodel = pendulum\nn = 11\nguess = pi\n\n"
            "[pendulum]\na = 0.1\nb = 50\nomega = 17.5\n"
        )
        out = tmp_path / "a.csv"
        rc = main(["solve", "--config", str(ini), "--out", str(out)])
        assert rc == 0
        header, _ = _read(out)
        assert header["param.b"] == "50"
        assert header["N"] == "11"

        out2 = tmp_path / "b.csv"
        rc = main(["solve", "--config", str(ini), "--param", "b=100",
                   "--out", str(out2)])
        assert rc == 0
        header2, _ = _read(out2)
        assert header2["param.b"] == "100"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        no_header = tmp_path / "no_header.ini"
        no_header.write_text("model = pendulum\nn = 11\n")
        duplicate = tmp_path / "duplicate.ini"
        duplicate.write_text("[run]\nmodel = pendulum\nmodel = linear\n")
        not_utf8 = tmp_path / "not_utf8.ini"
        not_utf8.write_bytes(b"\xff\xfe[run]\nmodel = pendulum\n")
        for path, named in [
            (tmp_path / "nope.ini", "not found"),
            (no_header, "no section headers"),
            (duplicate, "option 'model' in section 'run' already exists"),
            (not_utf8, f"{str(not_utf8)!r}: 'utf-8' codec can't"),
        ]:
            assert main(["solve", "--config", str(path)]) == 2, path
            assert named in _error_message(capsys), path

    def test_of_several_errors_the_first_in_order_is_reported(
            self, tmp_path, capsys):
        # the options are checked in the order N, params, out, subharmonic:
        # a malformed config subharmonic is reported only after the others
        no_n = tmp_path / "no_n.ini"
        no_n.write_text("[run]\nsubharmonic = x\n")
        with_n = tmp_path / "with_n.ini"
        with_n.write_text("[run]\nn = 11\nsubharmonic = x\n")
        out = tmp_path / "x.csv"
        missing = tmp_path / "nodir" / "x.csv"
        for ini, extra, message in [
            (no_n, ["--out", str(out)],
             "no node count given (flag --N or config [run] n)"),
            (with_n, ["--param", "zz", "--out", str(out)],
             "parameter override 'zz' is not NAME=VALUE"),
            (with_n, ["--out", str(missing)],
             f"[Errno 2] No such file or directory: {str(missing)!r}"),
        ]:
            assert main(["solve", "--model", "pendulum", "--config",
                         str(ini)] + extra) == 2, message
            assert _error_message(capsys) == message
            assert not out.exists() and not missing.exists()
        assert main(["solve", "--model", "pendulum", "--config", str(with_n),
                     "--out", str(out)]) == 2
        assert _error_message(capsys) == (
            "config value subharmonic 'x' is not a valid number")


class TestParserCache:
    def test_cached_parser_carries_no_state_between_calls(self, tmp_path,
                                                          capsys):
        """``cli._build_parser`` is cached: every ``main`` call in a process
        parses with the one parser, so a run must leave nothing in it for
        the next. Its subcommands stay bound to the ``cmd_*`` functions of
        the first build; nothing in tests/ or perfbench/ monkeypatches a
        ``cmd_*`` function, which would not reach the cached parser."""
        assert cli._build_parser() is cli._build_parser()
        assert main(["matrix", "--N", "5",
                     "--out", str(tmp_path / "D.csv")]) == 0
        # an argparse error after a --param: sweep lacks its --sweep
        assert main(["sweep", "--model", "pendulum", "--N", "21",
                     "--param", "a=0.3"]) == 2
        assert main(["--help"]) == 0
        assert main(["sweep", "--model", "pendulum", "--N", "21",
                     "--param", "a=0.2", "omega=17.5", "--guess", "pi",
                     "--sweep", "b=0:2:1",
                     "--out", str(tmp_path / "branch.csv")]) == 0
        capsys.readouterr()

        argv = ["solve", "--model", "pendulum", "--N", "21", "--guess", "pi"]
        here, fresh = tmp_path / "here.csv", tmp_path / "fresh.csv"
        assert main(argv + ["--out", str(here)]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"),
            env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "limitcycle.cli", *argv,
                        "--out", str(fresh)], env=env, check=True,
                       capture_output=True, timeout=120)
        assert here.read_bytes() == fresh.read_bytes()
        assert _read(here)[0]["param.a"] == "%.17g" % PendulumParams().a
