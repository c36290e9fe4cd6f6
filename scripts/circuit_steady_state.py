"""Steady state of the diode commutation circuit, collocation vs transient.

Solves the rectifier at N collocation nodes, warm-started from a settled
RK4 transient, then writes both solutions' diode current and output
voltage waveforms side by side and prints the mismatch per waveform.
"""

import argparse
from pathlib import Path

import numpy as np

from limitcycle.models import CircuitParams, circuit_outputs, circuit_system
from limitcycle.solver import newton_solve
from limitcycle.system import CollocationProblem, node_derivatives, unflatten
from limitcycle.warmstart import TransientConfig, rk4_transient


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("circuit_steady_state.csv"))
    ap.add_argument("--nodes", type=int, default=251,
                    help="collocation nodes N (odd, default 251)")
    ap.add_argument("--cycles", type=int, default=150,
                    help="transient settling cycles (default 150)")
    ap.add_argument("--steps", type=int, default=2500,
                    help="RK4 steps per cycle (default 2500)")
    args = ap.parse_args()

    params = CircuitParams()
    system = circuit_system(params)
    problem = CollocationProblem.build(system, args.nodes)
    N = args.nodes

    tcfg = TransientConfig(cycles=args.cycles, steps_per_cycle=args.steps,
                           initial_state=np.zeros(3))
    transient = rk4_transient(system, tcfg, grid=problem.grid)
    result = newton_solve(problem, transient.node_state)
    print(f"collocation: converged={result.converged} "
          f"iterations={result.iterations} residual={result.residual_norm:.3e}")

    table_rk = unflatten(transient.node_state, 3, N)
    xdot_rk = system.rhs_table(table_rk, problem.forcing_phases, params)
    id_rk, v0_rk = circuit_outputs(table_rk, xdot_rk, params)

    table = unflatten(result.X, 3, N)
    xdot = node_derivatives(problem, result.X)
    id_col, v0_col = circuit_outputs(table, xdot, params)

    tau = problem.grid.nodes / system.omega
    with args.out.open("w") as fh:
        fh.write("phase,tau,x1,x2,x3,i_d,v_out,i_d_rk4,v_out_rk4\n")
        for j in range(N):
            row = (problem.grid.nodes[j], tau[j], table[0, j], table[1, j],
                   table[2, j], id_col[j], v0_col[j], id_rk[j], v0_rk[j])
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")

    for label, a, b in (("i_d", id_col, id_rk), ("v_out", v0_col, v0_rk)):
        gap = np.max(np.abs(a - b))
        p2p = np.max(b) - np.min(b)
        print(f"{label}: max |collocation - rk4| = {gap:.3e} "
              f"({gap / p2p:.2%} of peak-to-peak {p2p:.4g})")


if __name__ == "__main__":
    main()
