import numpy as np
import pytest

import limitcycle.cli as cli
from limitcycle.cli import main
from limitcycle.continuation import extract_extrema, sweep
from limitcycle.models import CircuitParams, circuit_outputs, circuit_system
from limitcycle.spectral import diff_matrix_equispaced, equispaced_nodes


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

    def test_file_guess_rejects_node_mismatch(self, tmp_path):
        first = tmp_path / "first.csv"
        main(["solve", "--model", "linear", "--N", "11", "--out", str(first)])
        rc = main(["solve", "--model", "linear", "--N", "21",
                   "--guess", f"file:{first}"])
        assert rc == 2

    def test_invalid_inputs_exit_2(self, tmp_path, capsys):
        # argparse refuses a --model outside its choices, with its usage
        assert main(["solve", "--model", "nosuch", "--N", "3"]) == 2
        assert ("error: argument --model: invalid choice"
                in capsys.readouterr().err)
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text(_BAD_ROW)
        not_utf8 = tmp_path / "not_utf8.csv"
        not_utf8.write_bytes(_NOT_UTF8)
        ini = tmp_path / "nosuch.ini"
        ini.write_text("[run]\nmodel = nosuch\nn = 11\n")
        cases = [
            (["--model", "linear", "--N", "4"], "odd number N >= 3"),
            (["--model", "linear", "--N", "3", "--param", "q=1"],
             "has no parameter(s) q"),
            (["--model", "linear", "--N", "3", "--guess", "bogus:1"],
             "unknown guess descriptor 'bogus:1'"),
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
        (["solve", "--model", "linear", "--param", "p=inf",
          "--guess", "rk4:2"], "parameter 'p' 'inf'"),
        (["solve", "--model", "linear", "--param", "p=inf"],
         "parameter 'p' 'inf'"),
    ], ids=["simulate-initial", "simulate-param", "solve-rk4-param",
            "solve-param"])
    def test_non_finite_numbers_exit_2(self, args, named, capsys):
        # refused where the CLI parses them, before any rhs evaluation
        assert main(args + ["--N", "11"]) == 2
        assert capsys.readouterr().err == f"error: {named} is not finite\n"

    @pytest.mark.parametrize("args,named", [
        (["simulate", "--param", "a=-100", "--cycles", "30"],
         "transient diverged (non-finite state) at step 5310"),
        (["solve", "--param", "a=-100", "--guess", "rk4:30"],
         "transient diverged (non-finite state) at step 51850"),
        (["solve", "--param", "b=1e300", "--guess", "rk4:2"],
         "Jacobian numerically singular at Newton iteration 1"),
        # a stage state reaches inf and the rhs takes math.sin of it
        (["simulate", "--param", "a=-10", "--initial", "0,1e308",
          "--cycles", "1", "--steps", "8"],
         "transient diverged (non-finite state) at step 1"),
        (["sweep", "--param", "a=0.0", "b=500", "omega=2.0",
          "--guess", "sin:2.5", "--sweep", "b=500:400:10"],
         "initial solve did not converge at parameter value 500.0"),
    ], ids=["simulate-diverges", "rk4-guess-diverges", "singular-jacobian",
            "simulate-stage-not-finite", "sweep-seed-fails"])
    def test_solver_failure_exits_1_without_traceback(self, args, named,
                                                      capsys):
        rc = main(args + ["--model", "pendulum", "--N", "11"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {named}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("model,param,named", [
        ("pendulum", "omega=0", "forcing frequency"),
        ("circuit", "T_period=-1e-5", "forcing frequency"),
        ("circuit", "i_s=0", "i_s"),
        ("circuit", "eta=-0.9", "eta"),
        ("circuit", "T_abs=0", "T_abs"),
    ])
    def test_bad_model_parameters_exit_2(self, model, param, named, capsys):
        # i_s=0 used to pass as converged with an inf residual
        assert main(["solve", "--model", model, "--N", "5",
                     "--param", param]) == 2
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

    def test_invalid_specs_exit_2(self, capsys):
        base = ["sweep", "--model", "linear", "--N", "11"]
        for args, named in [
            (["--sweep", "p=1:1:0.5"], "start equals end"),
            (["--sweep", "p=0:1:0"], "step must be positive"),
            (["--sweep", "p=0:nan:0.5"], "must be finite"),
            (["--sweep", "p=0:inf:0.5"], "must be finite"),
            (["--sweep", "p=0:x:0.5"], "sweep range entry 'x'"),
            (["--sweep", "p=0:1"], "is not START:END:STEP"),
            (["--sweep", "q=0:1:0.5"], "has no parameter 'q'"),
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
        (["simulate", "--model", "linear", "--N", "3"], "rk4_transient"),
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

    def test_missing_input_exits_2(self, tmp_path, capsys):
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text(_BAD_ROW)
        not_utf8 = tmp_path / "not_utf8.csv"
        not_utf8.write_bytes(_NOT_UTF8)
        even = tmp_path / "even.csv"
        even.write_text("# N=4\n# columns=phase,tau,x1\n"
                        + "1,2,3\n" * 4)
        for path, named in [
            (tmp_path / "nope.csv", "cannot read solution file"),
            (bad_row, "data value 'abc'"),
            (not_utf8, f"{str(not_utf8)!r}: 'utf-8' codec can't"),
            (even, "odd number N >= 3 of points, got N=4"),
        ]:
            assert main(["interp", "--input", str(path)]) == 2, path
            assert named in _error_message(capsys), path


class TestSimulate:
    def test_row_count_and_columns(self, tmp_path):
        out = tmp_path / "tr.csv"
        rc = main(["simulate", "--model", "linear", "--N", "3",
                   "--cycles", "2", "--steps", "64", "--out", str(out)])
        assert rc == 0
        header, data = _read(out)
        assert header["columns"] == "tau,x1"
        assert data.shape == (2 * 64 + 1, 2)
        assert data[0, 0] == 0.0

    def test_circuit_outputs_match_the_per_state_rhs(self, tmp_path):
        out = tmp_path / "tr.csv"
        rc = main(["simulate", "--model", "circuit", "--N", "3",
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
        rc = main(["simulate", "--model", "pendulum", "--N", "3",
                   "--cycles", "1", "--steps", "16", "--initial", "1.0"])
        assert rc == 2
        assert _error_message(capsys) == (
            "initial state has shape (1,), expected (2,)")
        base = ["simulate", "--model", "linear", "--N", "3"]
        for args, named in [
            (["--initial", "a"], "initial state value 'a'"),
            (["--cycles", "0"], "cycles must be >= 1, got 0"),
        ]:
            assert main(base + args) == 2, args
            assert named in _error_message(capsys), args


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
