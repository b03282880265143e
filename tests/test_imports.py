"""Import graph: importing one module loads only what it depends on, and
every module imports on its own in a fresh interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["base", "cli", "density", "draws", "errors", "gf", "linalg", "sections", "weier", "zeta"]


def _loaded_after(module: str) -> list[str]:
    """The `elldens` modules a fresh interpreter holds after importing one."""
    code = (f"import json, sys, elldens.{module}; "
            "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'elldens')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_modules_are_all_listed():
    assert sorted(p.stem for p in (SRC / "elldens").glob("*.py")
                  if not p.stem.startswith("_")) == MODULES


def test_gf_loads_alone():
    # the census set-up imports gf first; the package must not pull in the rest
    assert _loaded_after("gf") == ["elldens", "elldens.gf"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    assert f"elldens.{module}" in _loaded_after(module)
