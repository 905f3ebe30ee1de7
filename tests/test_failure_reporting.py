"""A failing property test is reported like any other test, and the run goes on.

On a failure the hypothesis plugin's report hook imports libcst, which warns
that mypy_extensions.TypedDict is deprecated.  Under this project's
filterwarnings = ["error"] that warning used to abort the whole run with an
INTERNALERROR, so no later test was reported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 5


def test_a_later_test():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    out = subprocess.run(
        [*command, "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
