"""Importing the CLI loads no heavy stdlib module, and the CLI still runs.

Every ``python -m bnseries.cli`` request pays for its imports, so the modules
below, which import in milliseconds each, stay off the import path of
``bnseries.cli``.  The package root exports nothing, so importing one module
loads only what that module imports.  The checks read ``sys.modules`` in a
fresh interpreter without ``site`` (``-S``), so nothing a start-up hook
imports can hide a regression; they do not time anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).parents[1] / "src")
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "typing", "importlib.resources")

LAYERS = {f"bnseries.{m}" for m in ("chains", "cli", "core", "elliptic", "gf", "oracle", "realize", "strata")}


def _fresh_import(module: str) -> tuple[set[str], list[str]]:
    """sys.modules and the package root's public names after ``import module`` in a fresh ``python -S``."""
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; loaded = sorted(sys.modules); "
        "public = [n for n in vars(sys.modules['bnseries']) if not n.startswith('_')]; "
        "import json; print(json.dumps([loaded, public]))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC], capture_output=True, text=True, check=True)
    loaded, public = json.loads(out.stdout)
    return set(loaded), public


def _package(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.split(".")[0] == "bnseries"}


def test_cli_import_loads_no_heavy_module():
    assert set(HEAVY) & _fresh_import("bnseries.cli")[0] == set()


def test_package_root_exports_nothing():
    assert _fresh_import("bnseries")[1] == []


def test_core_import_loads_no_other_layer():
    loaded, _ = _fresh_import("bnseries.core")
    assert {"json", "bnseries.oracle", "bnseries.chains"} & loaded == set()
    assert _package(loaded) == {"bnseries", "bnseries.core"}


def test_cli_import_loads_every_layer():
    assert _package(_fresh_import("bnseries.cli")[0]) == {"bnseries", *LAYERS}


def test_cli_help_still_works():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-m", "bnseries.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: bnseries")
