"""Import graph: each name has one home, and a module loads only what it uses.

Every check runs in a fresh interpreter, so that no module imported by an
earlier test hides what an import loads.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def _loaded_after(statement: str) -> list[str]:
    code = (
        f"import sys\n{statement}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'gravclock')))"
    )
    return _fresh_python(code).split()


def test_submodule_import_binds_the_module():
    assert _fresh_python("import gravclock.sweep as m; print(m.__name__)") == "gravclock.sweep"


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("gravclock", ["gravclock"]),
        ("gravclock.core", ["gravclock", "gravclock.core"]),
        ("gravclock.dephasing", ["gravclock", "gravclock.dephasing"]),
    ],
)
def test_leaf_modules_load_nothing_else(module, loaded):
    assert _loaded_after(f"import {module}") == loaded


def test_scenario_loads_no_domain_module():
    # The key table reads its defaults from core, so parsing a scenario loads
    # neither the solvers nor the budget.
    assert _loaded_after("import gravclock.scenario") == [
        "gravclock",
        "gravclock.core",
        "gravclock.dephasing",
        "gravclock.emit",
        "gravclock.scenario",
    ]


def test_thresholds_does_not_load_sweep():
    assert "gravclock.sweep" not in _loaded_after("import gravclock.thresholds")


def test_package_root_exports_only_the_version():
    public = _fresh_python(
        "import gravclock; print([n for n in vars(gravclock) if not n.startswith('_')])"
    )
    assert public == "[]"
    assert _fresh_python("import gravclock; print(gravclock.__version__)") == "0.1.0"
