"""Command-line front end.

Subcommands: ``solve`` (periodic steady state at nodes), ``sweep``
(branch continuation with per-point extrema), ``interp`` (dense
resampling of a stored solution), ``simulate`` (plain RK4 transient)
and ``matrix`` (dump the differentiation matrix).  All output is CSV
with a ``#``-prefixed header block; numbers carry 17 significant
digits so files round-trip bitwise.

Exit codes: 0 success; 1 the solver did not converge or failed (a
diverging transient, a singular Newton matrix, a sweep whose first point
fails); 2 invalid input: any argument the library rejects, with its
message, malformed or non-UTF-8 config and solution files, and an
``--out`` path that cannot be opened, found before any work.
:func:`main` alone turns exceptions into exit codes, each with one
``error:`` line.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import os
import sys
from typing import Callable, NamedTuple

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
from .solver import SingularJacobianError, newton_solve
from .spectral import (
    diff_matrix_equispaced,
    equispaced_nodes,
    equispaced_phases,
    trig_interpolate,
)
from .system import (
    CollocationProblem,
    PeriodicSystem,
    RhsEvaluationError,
    _wrap_phase,
    flatten,
    node_derivatives,
    unflatten,
)
from .warmstart import (
    TransientConfig,
    TransientDivergenceError,
    guess_near_pi,
    rk4_transient,
)

__all__ = ["main"]


class _Model(NamedTuple):
    """A model's parameter record, the name of its system factory in
    this module (looked up at call time, so that a replaced factory
    applies), simulate's default cycles and steps per cycle, and the
    derived columns ``outputs`` that ``derive(states, xdot, params)``
    computes."""

    params: type
    factory: str
    cycles: int = 20
    steps: int = 256
    outputs: tuple = ()
    derive: Callable | None = None


_MODELS = {
    "pendulum": _Model(PendulumParams, "pendulum_system"),
    "linear": _Model(LinearParams, "linear_system"),
    "circuit": _Model(CircuitParams, "circuit_system", 150, 2500,
                      ("i_d", "V0"), circuit_outputs),
}


# the [run] keys a config file may set, lower-cased: option -> (type, default)
_RUN_KEYS = {"N": (int, None), "out": (str, None), "subharmonic": (int, 1),
             "guess": (str, "constant:0")}


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_number(text: str, cast, what: str):
    """cast(text), or a ValueError naming the malformed value."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not a valid number")


def _parse_finite(text: str, what: str) -> float:
    """float(text), or a ValueError if it is malformed or not finite."""
    value = _parse_number(text, float, what)
    if not math.isfinite(value):
        raise ValueError(f"{what} {text!r} is not finite")
    return value


def _parse_param_items(items) -> dict:
    out = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"parameter override {item!r} is not NAME=VALUE")
        out[name] = _parse_finite(value, f"parameter {name!r}")
    return out


def _load_config_file(path: str) -> dict:
    """Section name -> {key: value} of an INI file."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ValueError(f"config file {path!r} not found")
        return {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # its messages span lines; the CLI reports one
        raise ValueError(f"malformed config file {path!r}: "
                         + " ".join(str(exc).split())) from None


def _fill(args, run: dict, *names) -> None:
    """Set each named option that the command has but its flag left unset
    from the config file's [run] section, or else from its default."""
    for name in names:
        (cast, default), key = _RUN_KEYS[name], name.lower()
        if name in args and getattr(args, name) is None:
            setattr(args, name, default if key not in run else
                    _parse_number(run[key], cast, f"config value {key}"))


def _resolve_config(args) -> None:
    """Layer the command-line flags over the optional config file, in
    place on ``args``, and set ``args.params``.  Of several errors the
    first in this order is reported: model, N, params, out, subharmonic."""
    sections = _load_config_file(args.config) if args.config else {}
    run = sections.get("run", {})
    args.model = args.model or run.get("model")
    if not args.model:
        raise ValueError("no model given (flag --model or config [run] model)")
    if args.model not in _MODELS:
        # --model is checked by its choices; a config file's is not
        raise ValueError(f"unknown model {args.model!r}")
    _fill(args, run, "N")
    if "N" in args and args.N is None:
        raise ValueError("no node count given (flag --N or config [run] n)")
    file_params = [f"{k}={v}" for k, v in sections.get(args.model, {}).items()]
    args.params = _parse_param_items(file_params + (args.param or []))
    _fill(args, run, "out")
    _check_writable(args.out)
    _fill(args, run, "subharmonic", "guess")


def _check_writable(path) -> None:
    """Raise the OSError of an output path that cannot be written, before
    the work instead of after it.  An existing file is opened for
    appending, which keeps its contents; a new one is created and
    removed again.  Pipes and devices are left to the write itself."""
    if path is None:
        return
    existed = os.path.exists(path)  # follows a symlink, as the write does
    if existed and not (os.path.isfile(path) or os.path.isdir(path)):
        return
    with open(path, "a"):
        pass
    if not existed:
        os.remove(os.path.realpath(path))  # the target, not the link


def _instantiate(args):
    """(params, system, problem) of a run; no node count, no problem."""
    model = _MODELS[args.model]
    valid = {f.name for f in dataclasses.fields(model.params)}
    unknown = sorted(set(args.params) - valid)
    if unknown:
        # the record's constructor would raise a TypeError
        raise ValueError(f"model {args.model!r} has no parameter(s) "
                         + ", ".join(unknown))
    params = model.params(**args.params)
    system = _system(args, params)
    return params, system, (CollocationProblem.build(system, args.N)
                            if "N" in args else None)


def _system(args, params):
    """The model's system at ``params``, of the run's subharmonic order."""
    system = globals()[_MODELS[args.model].factory](params)
    return (system if system.subharmonic == args.subharmonic else
            dataclasses.replace(system, subharmonic=args.subharmonic))


def _read_solution(path: str):
    """Parse a solve CSV into (header dict, node grid, {column: values}):
    its ``N`` and ``columns`` header fields, one row per node, and a first
    column ``phase`` that holds the grid's nodes bitwise."""
    header: dict = {}
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, sep, value = line[1:].partition("=")
                    if sep:
                        header[key.strip()] = value.strip()
                else:
                    rows.append([_parse_number(tok, float, "data value")
                                 for tok in line.split(",")])
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read solution file {path!r}: {exc}")
    if not rows:
        raise ValueError(f"solution file {path!r} has no data rows")
    if len({len(row) for row in rows}) != 1:
        raise ValueError(f"solution file {path!r} has rows of unequal length")
    for key in ("N", "columns"):
        if key not in header:
            raise ValueError(f"solution file lacks the {key} header field")
    N = _parse_number(header["N"], int, "header N")
    names = header["columns"].split(",")
    data = np.array(rows, dtype=float)
    if data.shape != (N, len(names)) or len(set(names)) != len(names):
        raise ValueError("solution file data does not match its header")
    grid = equispaced_nodes(N)
    if names[0] != "phase" or not np.array_equal(data[:, 0], grid.nodes):
        raise ValueError("solution file phases are not the equispaced nodes")
    return header, grid, dict(zip(names, data.T))


def _initial_guess(args, system, problem) -> np.ndarray:
    kind, _, rest = args.guess.partition(":")
    m, N = system.dim, args.N
    if kind == "constant" or args.guess == "pi":
        table = np.zeros((m, N))
        if kind == "pi":
            table[0] = np.pi
        elif rest:
            table[0] = _parse_number(rest, float, "constant guess")
        return flatten(table)
    if kind == "sin":
        # a two-state guess; newton_solve refuses it on any other model
        size, sep, harmonic = rest.partition(",")
        eps = _parse_number(size, float, "sin guess size")
        harmonic = (_parse_number(harmonic, int, "sin guess harmonic")
                    if sep else 1)
        return guess_near_pi(N, eps, harmonic, system.omega,
                             system.subharmonic)
    if kind == "rk4":
        cycles = _parse_number(rest, int, "rk4 guess cycles") if rest else 20
        tcfg = TransientConfig(cycles, max(8 * N, 2500), np.zeros(m))
        return rk4_transient(system, tcfg, grid=problem.grid).node_state
    if kind == "file":
        if not rest:
            raise ValueError("file guess needs a path, e.g. file:solution.csv")
        _, grid, columns = _read_solution(rest)
        if grid.size != N:
            raise ValueError(
                f"solution file has N={grid.size}, run expects N={N}")
        missing = [f"x{k + 1}" for k in range(m) if f"x{k + 1}" not in columns]
        if missing:
            raise ValueError(f"solution file lacks the {missing[0]} column")
        return flatten([columns[f"x{k + 1}"] for k in range(m)])
    raise ValueError(f"unknown guess descriptor {args.guess!r}")


def _header_lines(args, params, system, result=None, extra=()):
    lines = [f"model={args.model}", f"m={system.dim}",
             f"omega={_fmt(system.omega)}", f"subharmonic={args.subharmonic}"]
    if "N" in args:  # simulate has no node count and no guess
        lines.insert(1, f"N={args.N}")
        lines.append(f"guess={args.guess}")
    for field in sorted(f.name for f in dataclasses.fields(params)):
        lines.append(f"param.{field}={_fmt(getattr(params, field))}")
    if result is not None:
        lines.append(f"converged={'true' if result.converged else 'false'}")
        lines.append(f"iterations={result.iterations}")
        lines.append(f"factorizations={result.factorizations}")
        lines.append(f"residual_norm={_fmt(result.residual_norm)}")
    lines.extend(extra)
    return [f"# {line}" for line in lines]


def _write_csv(path, header_lines, column_names, columns):
    out_lines = [*header_lines, "# columns=" + ",".join(column_names)]
    # one format per row; tolist keeps the int columns ints, and %.17g of
    # an int or a float is the _fmt of it
    fmt = ",".join(["%.17g"] * len(columns))
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    out_lines += (fmt % row for row in rows)
    text = "\n".join(out_lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _state_columns(args, params, names, cols, states, xdot):
    """names and cols, then the states x1..xm, then the model's derived
    columns from ``xdot()``, which is called only if there are any."""
    model = _MODELS[args.model]
    names = names + [f"x{k + 1}" for k in range(len(states))]
    cols = cols + list(states)
    if model.derive is not None:
        names += model.outputs
        cols += model.derive(states, xdot(), params)
    return names, cols


def cmd_solve(args) -> int:
    _resolve_config(args)
    params, system, problem = _instantiate(args)
    X0 = _initial_guess(args, system, problem)
    result = newton_solve(problem, X0)
    nodes = problem.grid.nodes
    names, cols = _state_columns(
        args, params, ["phase", "tau"],
        [nodes, args.subharmonic * nodes / system.omega],
        unflatten(result.X, system.dim, args.N),
        lambda: node_derivatives(problem, result.X))
    _write_csv(args.out, _header_lines(args, params, system, result),
               names, cols)
    print(f"residual {result.residual_norm:.3e} after {result.iterations} "
          f"iteration(s), converged={result.converged}", file=sys.stderr)
    return 0 if result.converged else 1


def _parse_sweep_spec(spec: str) -> SweepConfig:
    name, sep, rng = spec.partition("=")
    if not sep:
        raise ValueError(f"sweep spec {spec!r} is not NAME=START:END:STEP")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep range {rng!r} is not START:END:STEP")
    start, end, step = (_parse_number(tok, float, "sweep range entry")
                        for tok in parts)
    if start == end:
        raise ValueError("sweep range is empty (start equals end)")
    return SweepConfig(name, start, end, step)


def cmd_sweep(args) -> int:
    _resolve_config(args)
    spec = _parse_sweep_spec(args.sweep)
    name = spec.parameter_name
    # the guess and the header are those of the sweep's first point
    args.params[name] = spec.start
    params, system, problem = _instantiate(args)
    component = args.component
    if not 0 <= component < system.dim:
        raise ValueError(
            f"component {component} out of range for {system.dim} states"
        )

    def family(p):
        # the names are checked: a point builds only its record and problem
        params_p = _MODELS[args.model].params(**{**args.params, name: p})
        return CollocationProblem.build(_system(args, params_p), args.N)

    branch = sweep(family, _initial_guess(args, system, problem), spec)
    results = [result for _, result in branch.points]
    hi, lo = extract_extrema(problem.grid, np.array([r.X for r in results]),
                             component)
    columns = [[p for p, _ in branch.points], [component] * len(results),
               hi, lo, [r.iterations for r in results],
               [1 if r.converged else 0 for r in results]]
    extra = [f"sweep={args.sweep}", f"component={component}",
             f"status={branch.status}"]
    _write_csv(args.out, _header_lines(args, params, system, extra=extra),
               ["parameter", "component", "max", "min", "iterations",
                "converged"], columns)
    why = f" ({branch.reason})" if branch.reason else ""
    print(f"{len(branch.points)} point(s), status={branch.status}{why}",
          file=sys.stderr)
    return 0


def cmd_interp(args) -> int:
    _check_writable(args.out)
    header, grid, columns = _read_solution(args.input)
    M = args.points if args.points is not None else 8 * grid.size
    if M < 1:
        raise ValueError("points must be a positive integer")

    # the grid's own construction, so M=N reproduces the node set bitwise
    ts = equispaced_phases(M)
    omega = _parse_number(header.get("omega", "0") or "0", float, "header omega")
    s = _parse_number(header.get("subharmonic", "1"), int, "header subharmonic")
    out_cols = []
    for name, values in columns.items():
        if name == "phase":
            out_cols.append(ts)
        elif name == "tau":
            try:  # the system's own rule for a response period
                PeriodicSystem(1, None, omega, subharmonic=s)
            except ValueError as exc:
                raise ValueError(f"cannot rebuild tau: header {exc}") from None
            out_cols.append(s * ts / omega)
        else:
            out_cols.append(trig_interpolate(grid, values, ts))
    lines = [f"# {k}={v}" for k, v in header.items() if k != "columns"]
    lines.append(f"# points={M}")
    _write_csv(args.out, lines, list(columns), out_cols)
    return 0


def cmd_simulate(args) -> int:
    _resolve_config(args)
    params, system, _ = _instantiate(args)
    model = _MODELS[args.model]
    cycles = args.cycles if args.cycles is not None else model.cycles
    steps = args.steps if args.steps is not None else model.steps
    x0 = (np.zeros(system.dim) if args.initial is None else
          np.array([_parse_finite(tok, "initial state value")
                    for tok in args.initial.split(",")]))
    res = rk4_transient(system, TransientConfig(cycles, steps, x0))
    names, cols = _state_columns(
        args, params, ["tau"], [res.times], res.states,
        lambda: system.rhs_table(res.states,
                                 _wrap_phase(system.omega * res.times),
                                 system.params))
    extra = [f"cycles={cycles}", f"steps_per_cycle={steps}"]
    _write_csv(args.out, _header_lines(args, params, system, extra=extra),
               names, cols)
    return 0


def cmd_matrix(args) -> int:
    _check_writable(args.out)
    D = diff_matrix_equispaced(args.N)
    lines = [f"# N={args.N}", "# kind=equispaced"]
    names = [f"c{j}" for j in range(args.N)]
    _write_csv(args.out, lines, names, list(D.entries.T))
    return 0


def _add_run_options(sp, collocation=True):
    sp.add_argument("--config", help="INI config file; flags override it")
    sp.add_argument("--model", choices=sorted(_MODELS))
    if collocation:  # a node grid and a Newton start
        sp.add_argument("--N", type=int, help="odd number of nodes")
        sp.add_argument("--guess",
                        help="constant:v | pi | sin:eps[,harmonic]"
                             " | rk4:cycles | file:path")
    sp.add_argument("--subharmonic", type=int)
    sp.add_argument("--param", nargs="*", action="extend",
                    metavar="NAME=VALUE")
    sp.add_argument("--out", help="output CSV path (default: stdout)")


@functools.cache  # one build per process: parse_args keeps no state in it
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
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("interp", help="densely resample a stored solution")
    sp.add_argument("--input", required=True, help="CSV written by solve")
    sp.add_argument("--points", type=int, help="dense sample count (default 8N)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_interp)

    sp = sub.add_parser("simulate", help="integrate a transient with RK4")
    _add_run_options(sp, collocation=False)
    sp.add_argument("--cycles", type=int)
    sp.add_argument("--steps", type=int, help="integration steps per cycle")
    sp.add_argument("--initial", help="comma-separated initial state")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("matrix", help="dump the differentiation matrix")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # the one place where an exception becomes an exit code
    try:
        return args.func(args)
    except (ValueError, RhsEvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TransientDivergenceError, SingularJacobianError,
            BranchSeedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
