"""Each module imports on its own and defines every name in its __all__.

The package ``__init__`` re-exports nothing, so a public name is declared
once, in its module's ``__all__``.  Each module is imported in a fresh
interpreter, where no sibling has been imported first, with warnings
turned into errors.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest


ROOT = Path(__file__).resolve().parents[1]
MODULES = ["spectral", "system", "solver", "continuation", "models",
           "warmstart", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_and_defines_its_all(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = (f"import limitcycle.{module} as m\n"
            "missing = [n for n in m.__all__ if not hasattr(m, n)]\n"
            "assert m.__all__ and not missing, missing\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
