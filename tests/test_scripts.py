"""Smoke test: the experiment script runs without a warning and writes
its CSV header."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _header(path):
    with open(path) as fh:
        return fh.readline().rstrip("\n")


def test_circuit_steady_state(tmp_path):
    out = tmp_path / "circuit.csv"
    proc = _run("circuit_steady_state.py", "--nodes", "51", "--cycles", "5",
                "--steps", "512", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert _header(out) == "phase,tau,x1,x2,x3,i_d,v_out,i_d_rk4,v_out_rk4"
