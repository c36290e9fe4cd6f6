"""Regenerate the frozen circuit accuracy reference, circuit_reference.csv.

The reference is the criterion-5 oracle of the acceptance gate: a
150-cycle RK4 transient at 2500 steps per cycle from the zero state, at
default CircuitParams, sampled onto the N=251 equispaced grid; i_d and V0
come from the rhs at those sampled states.  The benchmark compares the
default-parameter N=251 collocation solution against it.  Generation
takes tens of seconds, so it is run once by hand, not per benchmark run:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from limitcycle.models import CircuitParams, circuit_outputs, circuit_system  # noqa: E402
from limitcycle.system import CollocationProblem, unflatten  # noqa: E402
from limitcycle.warmstart import TransientConfig, rk4_transient  # noqa: E402
from run import machine_facts  # noqa: E402

N = 251
CYCLES = 150
STEPS_PER_CYCLE = 2500
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "circuit_reference.csv")


def main() -> int:
    t0 = time.perf_counter()
    params = CircuitParams()
    system = circuit_system(params)
    problem = CollocationProblem.build(system, N)
    transient = rk4_transient(
        system,
        TransientConfig(cycles=CYCLES, steps_per_cycle=STEPS_PER_CYCLE,
                        initial_state=np.zeros(3)),
        grid=problem.grid,
    )
    table = unflatten(transient.node_state, 3, N)
    xdot = np.empty((3, N))
    for j, phase in enumerate(problem.forcing_phases):
        xdot[:, j] = system.rhs(table[:, j], phase, params)
    i_d, v0 = circuit_outputs(table, xdot, params)
    seconds = time.perf_counter() - t0

    lines = [
        "# criterion-5 oracle: rk4_transient from zeros, default CircuitParams",
        f"# N={N}",
        f"# cycles={CYCLES}",
        f"# steps_per_cycle={STEPS_PER_CYCLE}",
        f"# generation_s={seconds:.3f}",
        f"# machine={json.dumps(machine_facts(), sort_keys=True)}",
        "# columns=phase,i_d,V0",
    ]
    lines += ["%.17g,%.17g,%.17g" % row
              for row in zip(problem.grid.nodes, i_d, v0)]
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {OUT} in {seconds:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
