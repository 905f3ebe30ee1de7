"""Importing the CLI loads no heavy stdlib module, and the CLI still runs.

Every ``python -m bnseries.cli`` request pays for its imports, so the modules
below, which import in milliseconds each, stay off the import path of
``bnseries.cli``.  The check reads ``sys.modules`` in a fresh interpreter
without ``site`` (``-S``), so nothing a start-up hook imports can hide a
regression; it does not time anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).parents[1] / "src")
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "argparse", "typing", "importlib.resources")


def test_cli_import_loads_no_heavy_module():
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import bnseries.cli; "
        "print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC, *HEAVY], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []


def test_cli_help_still_works():
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-m", "bnseries.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: bnseries")
