import numpy as np
import pytest

import limitcycle.cli as cli
from limitcycle.cli import main
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

    def test_file_guess_rejects_node_mismatch(self, tmp_path):
        first = tmp_path / "first.csv"
        main(["solve", "--model", "linear", "--N", "11", "--out", str(first)])
        rc = main(["solve", "--model", "linear", "--N", "21",
                   "--guess", f"file:{first}"])
        assert rc == 2

    def test_invalid_inputs_exit_2(self, tmp_path):
        assert main(["solve", "--model", "linear", "--N", "4"]) == 2
        assert main(["solve", "--model", "linear", "--N", "3",
                     "--param", "q=1"]) == 2
        assert main(["solve", "--model", "nosuch", "--N", "3"]) == 2
        assert main(["solve", "--model", "linear", "--N", "3",
                     "--guess", "bogus:1"]) == 2
        assert main(["solve", "--N", "3"]) == 2
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text("# N=3\n# columns=phase,tau,x1\n"
                           "1,2,3\nabc,2,3\n1,2,3\n")
        for guess in ("constant:abc", "sin:x", "sin:0.8,y", "sin:0.8,0",
                      "rk4:x", "rk4:0", f"file:{bad_row}"):
            model = "pendulum" if guess.startswith("sin") else "linear"
            assert main(["solve", "--model", model, "--N", "3",
                         "--guess", guess]) == 2, guess

    @pytest.mark.parametrize("args", [
        ["--model", "pendulum", "--guess", "constant:inf"],
        ["--model", "linear", "--param", "p=inf"],
    ])
    def test_non_finite_initial_rhs_exits_2(self, args, capsys):
        assert main(["solve", "--N", "11"] + args) == 2
        err = capsys.readouterr().err
        assert "error: rhs is not finite at node index 0" in err
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

    def test_invalid_specs_exit_2(self):
        base = ["sweep", "--model", "linear", "--N", "11"]
        assert main(base + ["--sweep", "p=1:1:0.5"]) == 2
        assert main(base + ["--sweep", "p=0:1:0"]) == 2
        assert main(base + ["--sweep", "p=0:1"]) == 2
        assert main(base + ["--sweep", "q=0:1:0.5"]) == 2
        assert main(base + ["--sweep", "p=0:1:0.5", "--component", "3"]) == 2
        assert main(base + ["--sweep", "p=0:1:0.5", "--oversample", "2"]) == 2

    def test_small_oversample_exits_before_the_branch_is_traced(self, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        assert main(["sweep", "--model", "linear", "--N", "11",
                     "--sweep", "p=0:1:0.5", "--oversample", "3"]) == 2


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

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["interp", "--input", str(tmp_path / "nope.csv")]) == 2
        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text("# N=3\n# columns=phase,tau,x1\n"
                           "1,2,3\nabc,2,3\n1,2,3\n")
        assert main(["interp", "--input", str(bad_row)]) == 2


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

    def test_initial_state_must_match_dimension(self, tmp_path):
        rc = main(["simulate", "--model", "pendulum", "--N", "3",
                   "--cycles", "1", "--steps", "16", "--initial", "1.0"])
        assert rc == 2
        base = ["simulate", "--model", "linear", "--N", "3"]
        assert main(base + ["--initial", "a"]) == 2
        assert main(base + ["--cycles", "0"]) == 2


class TestMatrix:
    def test_dump_matches_library_matrix(self, tmp_path):
        out = tmp_path / "D.csv"
        rc = main(["matrix", "--N", "5", "--out", str(out)])
        assert rc == 0
        _, data = _read(out)
        assert np.array_equal(data, diff_matrix_equispaced(5).entries)

    def test_even_n_exits_2(self):
        assert main(["matrix", "--N", "4"]) == 2


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

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2
