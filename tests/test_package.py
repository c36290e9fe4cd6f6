"""Each module imports on its own and defines every name in its __all__.

The package ``__init__`` re-exports nothing, so a public name is declared
once, in its module's ``__all__``.  Each module is imported in a fresh
interpreter, where no sibling has been imported first, with warnings
turned into errors.  A fresh interpreter also shows when ``scipy.special``,
which only the circuit's diode needs, is first imported.  Every public
name has a consumer: the solver, the CLI or the acceptance gate.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spectral", "system", "solver", "continuation", "models",
           "warmstart", "cli"]


def _run_fresh(code, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_and_defines_its_all(module):
    _run_fresh(f"import limitcycle.{module} as m\n"
               "missing = [n for n in m.__all__ if not hasattr(m, n)]\n"
               "assert m.__all__ and not missing, missing\n")


def test_scipy_special_waits_for_the_first_circuit_evaluation(tmp_path):
    # only the circuit's diode needs scipy.special: pendulum and linear
    # runs, a CircuitParams record, its derived constants and a built
    # circuit system leave it unimported; the first rhs call imports it
    _run_fresh(
        "import sys\n"
        "from limitcycle.cli import main\n"
        "from limitcycle.models import CircuitParams, circuit_system\n"
        "assert main('solve --model pendulum --N 11 --guess pi "
        "--out p.csv'.split()) == 0\n"
        "assert main('solve --model linear --N 11 --out l.csv'.split()) == 0\n"
        "p = CircuitParams()\n"
        "system = circuit_system(p)\n"
        "assert p.derived.a > 0\n"
        "assert 'scipy.special' not in sys.modules\n"
        "system.rhs([1.0, 0.0, 0.5], 0.5, p)\n"
        "assert 'scipy.special' in sys.modules\n",
        cwd=tmp_path)


def _from_imports(path):
    """(module, name) of every ``from .module`` or ``from
    limitcycle.module`` import in the file at path."""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module if node.level else (
                node.module.partition("limitcycle.")[2])
            pairs.update((module, alias.name) for alias in node.names)
    return pairs


def test_every_public_name_has_a_consumer():
    # a name in __all__ is imported by the solver, the CLI or the
    # acceptance gate, is returned (by annotation) by a public callable
    # of its own module, or is the console script's entry point
    consumed = set()
    for path in [ROOT / "src" / "limitcycle" / "solver.py",
                 ROOT / "src" / "limitcycle" / "cli.py",
                 ROOT / "tests" / "test_acceptance.py"]:
        consumed |= _from_imports(path)
    # Python 3.10 has no tomllib
    script = re.search(r'^\[project\.scripts\]\n[\w-]+\s*=\s*'
                       r'"limitcycle\.(\w+):(\w+)"$',
                       (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert script, "no limitcycle entry under [project.scripts]"
    consumed.add(script.groups())
    unconsumed = []
    for module in MODULES:
        m = importlib.import_module(f"limitcycle.{module}")
        public = [inspect.unwrap(getattr(m, name)) for name in m.__all__]
        returned = {f.__annotations__.get("return") for f in public
                    if inspect.isfunction(f)}
        unconsumed += [f"{module}.{name}" for name in m.__all__
                       if (module, name) not in consumed
                       and name not in returned]
    assert unconsumed == []
