"""Byte-exact CLI outputs pinned in ``golden_cli.json``.

Each entry holds a request (or an argv with optional stdin) and the exact
serialized response and exit code it produced before the CLI and the library
were refactored.  Diagnostic texts are part of the output, so any change to a
message, a key, an exit code or the set of command-line flags shows up here.
"""

import io
import json
import re
from pathlib import Path

import pytest

from bnseries.cli import _dump, iter_sweep, main, run

GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def _id(entry):
    return json.dumps(entry.get("request", entry.get("argv")))[:80]


@pytest.mark.parametrize("entry", GOLDEN["run"], ids=_id)
def test_run_output(entry, monkeypatch):
    for key, value in entry.get("env", {}).items():
        monkeypatch.setenv(key, value)
    response, code = run(entry["request"])
    assert (_dump(response), code) == (entry["output"], entry["code"])


@pytest.mark.parametrize("entry", GOLDEN["iter_sweep"], ids=lambda e: json.dumps(e["params"]))
def test_iter_sweep_lines(entry):
    assert [_dump(line) for line in iter_sweep(entry["params"])] == entry["lines"]


@pytest.mark.parametrize("entry", GOLDEN["main"], ids=_id)
def test_main_output(entry, tmp_path, monkeypatch, capsys):
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["stdin"] or ""))
    code = main(entry["argv"])
    assert (capsys.readouterr().out, code) == (entry["output"], entry["code"])


@pytest.mark.parametrize("command", sorted(GOLDEN["help"]))
def test_help_lists_same_flags(command, capsys):
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    tokens = sorted(set(re.findall(r"(?<![\w-])--[a-z0-9][a-z0-9-]*", text)))
    tokens += sorted(set(re.findall(r"\{[a-z,-]+\}", text)))
    assert tokens == GOLDEN["help"][command]
