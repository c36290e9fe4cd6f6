"""Command-line front end.

Subcommands: ``solve`` (periodic steady state at nodes), ``sweep``
(branch continuation with per-point extrema), ``interp`` (dense
resampling of a stored solution), ``simulate`` (plain RK4 transient)
and ``matrix`` (dump the differentiation matrix).  All output is CSV
with a ``#``-prefixed header block; numbers carry 17 significant
digits so files round-trip bitwise.

Exit codes: 0 success, 1 solver did not converge, 2 invalid input.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from .continuation import (
    BranchSeedError,
    SweepConfig,
    extract_extrema,
    sweep,
)
from .models import (
    CircuitParams,
    LinearParams,
    PendulumParams,
    circuit_outputs,
    circuit_system,
    linear_system,
    pendulum_system,
)
from .solver import newton_solve
from .spectral import (
    diff_matrix_equispaced,
    equispaced_nodes,
    equispaced_phases,
    trig_interpolate,
)
from .system import (
    CollocationProblem,
    RhsEvaluationError,
    _wrap_phase,
    flatten,
    node_derivatives,
    unflatten,
)
from .warmstart import TransientConfig, guess_near_pi, rk4_transient

__all__ = ["main", "RunConfig"]

# model name -> (parameter record, name of its system factory in this
# module); the factory is looked up at call time, so that a replaced
# module-level factory applies
_MODELS = {
    "pendulum": (PendulumParams, "pendulum_system"),
    "linear": (LinearParams, "linear_system"),
    "circuit": (CircuitParams, "circuit_system"),
}


class _UsageError(ValueError):
    """Invalid configuration or arguments; maps to exit code 2.

    A ValueError, so that a sweep counts a rejected parameter as a failed step.
    """


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one CLI run (flags layered over config file)."""

    model: str
    N: int
    params: dict
    subharmonic: int = 1
    guess: str = "constant:0"
    out: str | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise _UsageError(f"unknown model {self.model!r}")
        if self.N < 3 or self.N % 2 == 0:
            raise _UsageError(f"N must be an odd integer >= 3, got {self.N}")
        if self.subharmonic < 1:
            raise _UsageError("subharmonic must be a positive integer")


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_number(text: str, cast, what: str):
    """cast(text), or a usage error naming the malformed value."""
    try:
        return cast(text)
    except ValueError:
        raise _UsageError(f"{what} {text!r} is not a valid number")


def _transient_config(cycles: int, steps: int, x0: np.ndarray) -> TransientConfig:
    try:
        return TransientConfig(cycles=cycles, steps_per_cycle=steps,
                               initial_state=x0)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _parse_param_items(items) -> dict:
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise _UsageError(f"parameter override {item!r} is not NAME=VALUE")
        out[name] = _parse_number(value, float, f"parameter {name!r}")
    return out


def _load_config_file(path: str):
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise _UsageError(f"config file {path!r} not found")
    run = dict(parser["run"]) if parser.has_section("run") else {}
    sections = {
        name: {k: v for k, v in parser[name].items()}
        for name in parser.sections()
        if name != "run"
    }
    return run, sections


def _resolve_config(args) -> RunConfig:
    """Layer command-line flags over the optional config file."""
    file_run: dict = {}
    file_params: dict = {}
    if getattr(args, "config", None):
        file_run, sections = _load_config_file(args.config)
        model = args.model or file_run.get("model")
        if model in sections:
            file_params = _parse_param_items(
                f"{k}={v}" for k, v in sections[model].items()
            )
    model = args.model or file_run.get("model")
    if not model:
        raise _UsageError("no model given (flag --model or config [run] model)")

    def _pick(flag, key, cast, default):
        if flag is not None:
            return flag
        if key in file_run:
            return _parse_number(file_run[key], cast, f"config value {key}")
        return default

    N = _pick(args.N, "n", int, 0)
    if N == 0:
        raise _UsageError("no node count given (flag --N or config [run] n)")
    params = dict(file_params)
    if args.param:
        params.update(_parse_param_items(args.param))
    return RunConfig(
        model=model,
        N=N,
        params=params,
        subharmonic=_pick(args.subharmonic, "subharmonic", int, 1),
        guess=_pick(args.guess, "guess", str, "constant:0"),
        out=_pick(args.out, "out", str, None),
    )


def _instantiate(cfg: RunConfig):
    """Build (params, system, problem) for a resolved config."""
    cls, factory = _MODELS[cfg.model]
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(cfg.params) - valid)
    if unknown:
        raise _UsageError(
            f"model {cfg.model!r} has no parameter(s) {', '.join(unknown)}"
        )
    try:
        params = cls(**cfg.params)
        system = dataclasses.replace(globals()[factory](params),
                                     subharmonic=cfg.subharmonic)
        problem = CollocationProblem.build(system, cfg.N)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return params, system, problem


def _read_solution(path: str):
    """Parse a solve CSV back into (header dict, data columns)."""
    header: dict = {}
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    key, sep, value = body.partition("=")
                    if sep:
                        header[key.strip()] = value.strip()
                else:
                    rows.append([_parse_number(tok, float, "data value")
                                 for tok in line.split(",")])
    except OSError as exc:
        raise _UsageError(f"cannot read solution file {path!r}: {exc}")
    if not rows:
        raise _UsageError(f"solution file {path!r} has no data rows")
    if len({len(row) for row in rows}) != 1:
        raise _UsageError(f"solution file {path!r} has rows of unequal length")
    return header, np.array(rows, dtype=float)


def _guess_from_file(path: str, m: int, N: int) -> np.ndarray:
    header, data = _read_solution(path)
    if "N" in header and _parse_number(header["N"], int, "header N") != N:
        raise _UsageError(
            f"solution file has N={header['N']}, run expects N={N}"
        )
    if data.shape[0] != N:
        raise _UsageError(
            f"solution file has {data.shape[0]} rows, run expects {N}"
        )
    if data.shape[1] < 2 + m:
        raise _UsageError(
            f"solution file has {data.shape[1]} columns, expected at least {2 + m}"
        )
    # columns are phase, tau, x1..xm, extras
    return flatten(data[:, 2:2 + m].T)


def _initial_guess(cfg: RunConfig, system, problem) -> np.ndarray:
    kind, _, rest = cfg.guess.partition(":")
    m, N = system.dim, cfg.N
    if kind == "constant":
        value = _parse_number(rest, float, "constant guess") if rest else 0.0
        table = np.zeros((m, N))
        table[0] = value
        return flatten(table)
    if kind == "pi":
        table = np.zeros((m, N))
        table[0] = np.pi
        return flatten(table)
    if kind == "sin":
        if m != 2:
            raise _UsageError("sin guess needs a two-component model")
        if not rest:
            raise _UsageError("sin guess needs a deviation size, e.g. sin:0.8")
        parts = rest.split(",")
        eps = _parse_number(parts[0], float, "sin guess size")
        harmonic = (_parse_number(parts[1], int, "sin guess harmonic")
                    if len(parts) > 1 else 1)
        try:
            return guess_near_pi(N, eps, harmonic, system.omega,
                                 system.subharmonic)
        except ValueError as exc:
            raise _UsageError(str(exc))
    if kind == "rk4":
        cycles = _parse_number(rest, int, "rk4 guess cycles") if rest else 20
        tcfg = _transient_config(cycles, max(8 * N, 2500), np.zeros(m))
        res = rk4_transient(system, tcfg, grid=problem.grid)
        return res.node_state
    if kind == "file":
        if not rest:
            raise _UsageError("file guess needs a path, e.g. file:solution.csv")
        return _guess_from_file(rest, m, N)
    raise _UsageError(f"unknown guess descriptor {cfg.guess!r}")


def _header_lines(cfg: RunConfig, params, system, result=None, extra=()):
    lines = [f"model={cfg.model}", f"N={cfg.N}", f"m={system.dim}",
             f"omega={_fmt(system.omega)}",
             f"subharmonic={cfg.subharmonic}", f"guess={cfg.guess}"]
    for field in sorted(f.name for f in dataclasses.fields(params)):
        lines.append(f"param.{field}={_fmt(getattr(params, field))}")
    if result is not None:
        lines.append(f"converged={'true' if result.converged else 'false'}")
        lines.append(f"iterations={result.iterations}")
        lines.append(f"residual_norm={_fmt(result.residual_norm)}")
    lines.extend(extra)
    return [f"# {line}" for line in lines]


def _write_csv(path, header_lines, column_names, columns):
    rows = len(columns[0])
    out_lines = list(header_lines)
    out_lines.append("# columns=" + ",".join(column_names))
    for i in range(rows):
        out_lines.append(",".join(_fmt(col[i]) for col in columns))
    text = "\n".join(out_lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _solution_columns(cfg: RunConfig, params, system, problem, X):
    """Column names/values of a node-wise solution table."""
    grid = problem.grid
    table = unflatten(X, system.dim, cfg.N)
    tau = cfg.subharmonic * grid.nodes / system.omega
    names = ["phase", "tau"] + [f"x{k + 1}" for k in range(system.dim)]
    cols = [grid.nodes, tau] + [table[k] for k in range(system.dim)]
    if cfg.model == "circuit":
        xdot = node_derivatives(problem, X)
        i_d, v_out = circuit_outputs(table, xdot, params)
        names += ["i_d", "V0"]
        cols += [i_d, v_out]
    return names, cols


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    params, system, problem = _instantiate(cfg)
    X0 = _initial_guess(cfg, system, problem)
    result = newton_solve(problem, X0)
    names, cols = _solution_columns(cfg, params, system, problem, result.X)
    _write_csv(cfg.out, _header_lines(cfg, params, system, result),
               names, cols)
    print(
        f"residual {result.residual_norm:.3e} after {result.iterations} "
        f"iteration(s), converged={result.converged}",
        file=sys.stderr,
    )
    return 0 if result.converged else 1


def _parse_sweep_spec(spec: str):
    name, sep, rng = spec.partition("=")
    if not sep or not name:
        raise _UsageError(f"sweep spec {spec!r} is not NAME=START:END:STEP")
    parts = rng.split(":")
    if len(parts) != 3:
        raise _UsageError(f"sweep range {rng!r} is not START:END:STEP")
    try:
        start, end, step = (float(tok) for tok in parts)
    except ValueError:
        raise _UsageError(f"sweep range {rng!r} has non-numeric entries")
    if start == end:
        raise _UsageError("sweep range is empty (start equals end)")
    if step <= 0.0:
        raise _UsageError("sweep step must be positive")
    return name, start, end, step


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    params, system, problem = _instantiate(cfg)
    name, start, end, step = _parse_sweep_spec(args.sweep)
    valid = {f.name for f in dataclasses.fields(params)}
    if name not in valid:
        raise _UsageError(f"model {cfg.model!r} has no parameter {name!r}")
    component = args.component
    if not 0 <= component < system.dim:
        raise _UsageError(
            f"component {component} out of range for {system.dim} states"
        )
    if args.oversample < 4:
        raise _UsageError("oversample must be at least 4")

    def family(p):
        run = dataclasses.replace(cfg, params={**cfg.params, name: p})
        _, _, prob = _instantiate(run)
        return prob

    X0 = _initial_guess(cfg, system, problem)
    try:
        branch = sweep(family, X0, SweepConfig(name, start, end, step))
    except BranchSeedError as exc:
        print(f"seed solve failed at {name}={exc.parameter}", file=sys.stderr)
        return 1

    grid = problem.grid
    values = np.empty((6, len(branch.points)))
    for i, (p, result) in enumerate(branch.points):
        hi, lo = extract_extrema(grid, result.X, component, args.oversample)
        values[:, i] = (p, component, hi, lo, result.iterations,
                        1.0 if result.converged else 0.0)
    extra = [f"sweep={args.sweep}", f"component={component}",
             f"status={branch.status}"]
    _write_csv(
        cfg.out,
        _header_lines(cfg, params, system, extra=extra),
        ["parameter", "component", "max", "min", "iterations", "converged"],
        list(values),
    )
    print(f"{len(branch.points)} point(s), status={branch.status}",
          file=sys.stderr)
    return 0 if branch.points else 1


def cmd_interp(args) -> int:
    header, data = _read_solution(args.input)
    for key in ("N", "columns"):
        if key not in header:
            raise _UsageError(f"solution file lacks the {key} header field")
    N = _parse_number(header["N"], int, "header N")
    columns = header["columns"].split(",")
    if data.shape[1] != len(columns) or data.shape[0] != N:
        raise _UsageError("solution file data does not match its header")
    M = args.points if args.points is not None else 8 * N
    if M < 1:
        raise _UsageError("points must be a positive integer")
    try:
        grid = equispaced_nodes(N)
    except ValueError as exc:
        raise _UsageError(str(exc))
    if not np.array_equal(data[:, 0], grid.nodes):
        raise _UsageError("solution file phases are not the equispaced nodes")

    # the grid's own construction, so M=N reproduces the node set bitwise
    ts = equispaced_phases(M)
    omega = _parse_number(header.get("omega", "0") or "0", float, "header omega")
    s = _parse_number(header.get("subharmonic", "1"), int, "header subharmonic")
    out_names = []
    out_cols = []
    for j, name in enumerate(columns):
        if name == "phase":
            out_names.append(name)
            out_cols.append(ts)
        elif name == "tau":
            if omega <= 0.0:
                raise _UsageError("cannot rebuild tau: no frequency in header")
            out_names.append(name)
            out_cols.append(s * ts / omega)
        else:
            out_names.append(name)
            out_cols.append(trig_interpolate(grid, data[:, j], ts))
    lines = [f"# {k}={v}" for k, v in header.items() if k != "columns"]
    lines.append(f"# points={M}")
    _write_csv(args.out, lines, out_names, out_cols)
    return 0


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    params, system, problem = _instantiate(cfg)
    cycles = args.cycles if args.cycles is not None else (
        150 if cfg.model == "circuit" else 20
    )
    steps = args.steps if args.steps is not None else (
        2500 if cfg.model == "circuit" else 256
    )
    if args.initial is not None:
        x0 = np.array([_parse_number(tok, float, "initial state value")
                       for tok in args.initial.split(",")])
        if x0.shape != (system.dim,):
            raise _UsageError(
                f"initial state needs {system.dim} comma-separated values"
            )
    else:
        x0 = np.zeros(system.dim)
    res = rk4_transient(system, _transient_config(cycles, steps, x0))
    names = ["tau"] + [f"x{k + 1}" for k in range(system.dim)]
    cols = [res.times] + [res.states[k] for k in range(system.dim)]
    if cfg.model == "circuit":
        phases = _wrap_phase(system.omega * res.times)
        xdot = system.rhs_table(res.states, phases, system.params)
        i_d, v_out = circuit_outputs(res.states, xdot, params)
        names += ["i_d", "V0"]
        cols += [i_d, v_out]
    extra = [f"cycles={cycles}", f"steps_per_cycle={steps}"]
    _write_csv(cfg.out, _header_lines(cfg, params, system, extra=extra),
               names, cols)
    return 0


def cmd_matrix(args) -> int:
    if args.N is None:
        raise _UsageError("matrix needs --N")
    try:
        D = diff_matrix_equispaced(args.N)
    except ValueError as exc:
        raise _UsageError(str(exc))
    lines = [f"# N={args.N}", "# kind=equispaced"]
    names = [f"c{j}" for j in range(args.N)]
    _write_csv(args.out, lines, names, list(D.entries.T))
    return 0


def _add_run_options(sp):
    sp.add_argument("--config", help="INI config file; flags override it")
    sp.add_argument("--model", choices=sorted(_MODELS))
    sp.add_argument("--N", type=int, help="odd number of nodes")
    sp.add_argument("--subharmonic", type=int)
    sp.add_argument("--param", nargs="*", metavar="NAME=VALUE")
    sp.add_argument("--guess",
                    help="constant:v | pi | sin:eps[,harmonic] | rk4:cycles"
                         " | file:path")
    sp.add_argument("--out", help="output CSV path (default: stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="limitcycle",
        description="Periodic steady states by trigonometric collocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve for a periodic steady state")
    _add_run_options(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="trace a branch over one parameter")
    _add_run_options(sp)
    sp.add_argument("--sweep", required=True, metavar="NAME=START:END:STEP")
    sp.add_argument("--component", type=int, default=0)
    sp.add_argument("--oversample", type=int, default=8)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("interp", help="densely resample a stored solution")
    sp.add_argument("--input", required=True, help="CSV written by solve")
    sp.add_argument("--points", type=int, help="dense sample count (default 8N)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("simulate", help="integrate a transient with RK4")
    _add_run_options(sp)
    sp.add_argument("--cycles", type=int)
    sp.add_argument("--steps", type=int, help="integration steps per cycle")
    sp.add_argument("--initial", help="comma-separated initial state")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("matrix", help="dump the differentiation matrix")
    sp.add_argument("--N", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (_UsageError, RhsEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
