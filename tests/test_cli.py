import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import bnseries
from bnseries.cli import iter_sweep, main, run

# the child process imports the same bnseries as this one, installed or not
SRC = str(Path(bnseries.__file__).resolve().parents[1])


def child_env(env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    full_env.update(env or {})
    return full_env


def invoke(argv, stdin=None, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "bnseries.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=child_env(env),
    )
    return proc


def test_check_payload():
    response, code = run({"command": "check", "params": {"g": 4, "r": 1, "d": 3}})
    assert code == 0
    assert response["status"] == "ok"
    assert response["payload"] == {"nonempty": True, "rho": 0}


def test_rho_command():
    response, code = run({"command": "rho", "params": {"g": 3, "r": 1, "d": 3}})
    assert (response["payload"], code) == ({"rho": 1}, 0)


def test_chain_build_and_verify_roundtrip():
    response, code = run({"command": "chain", "params": {"g": 3, "r": 1, "d": 3}})
    assert code == 0
    witness = response["payload"]
    assert len(witness["components"]) == 3
    verified, code = run(
        {
            "command": "chain",
            "params": {"g": 3, "r": 1, "d": 3, "verify": True, "witness": witness},
        }
    )
    assert code == 0
    assert verified["payload"] == {"valid": True, "violations": []}


def test_chain_verify_detects_tampering():
    response, _ = run({"command": "chain", "params": {"g": 2, "r": 1, "d": 3}})
    witness = response["payload"]
    witness["components"][0]["rho"] += 1
    verified, code = run(
        {
            "command": "chain",
            "params": {"g": 2, "r": 1, "d": 3, "verify": True, "witness": witness},
        }
    )
    assert code == 0
    assert not verified["payload"]["valid"]
    assert verified["payload"]["violations"]


def test_chain_empty_status():
    response, code = run(
        {"command": "chain", "params": {"g": 1, "r": 1, "d": 2, "alpha1": "0,1", "alpha2": "0,1"}}
    )
    assert code == 0
    assert response["status"] == "empty"
    assert response["payload"]["rho"] == -1


def test_invalid_alpha_is_exit_1():
    response, code = run(
        {"command": "check", "params": {"g": 2, "r": 1, "d": 3, "alpha1": "1,0"}}
    )
    assert code == 1
    assert response["status"] == "error"
    assert response["diagnostics"]


@pytest.mark.parametrize("command", ["frobnicate", ["rho"], {"rho": 1}])
def test_unknown_command_is_exit_1(command):
    response, code = run({"command": command, "params": {}})
    assert code == 1
    assert response["status"] == "error"
    assert response["diagnostics"] == [f"unknown command {command!r}"]


def test_strata_command():
    response, code = run({"command": "strata", "params": {"r": 1, "d": 3, "gy": 1, "gz": 2}})
    assert code == 0
    payload = response["payload"]
    assert payload["count"] == 6
    assert payload["glued_rho"] == 1
    assert payload["nonempty"]
    witness = next(e for e in payload["strata"] if e["alpha_y"] == [1, 1])
    assert witness["expected_dim"] == 1
    assert witness["y_nonempty"] and witness["z_nonempty"]


@pytest.mark.parametrize("key", ["alpha1", "alpha2"])
def test_strata_marked_ramification_needs_the_component_genera(key):
    # refused even when the sequence itself is invalid, rather than ignored
    for value in ([5, 5, 5], [0, 1]):
        response, code = run({"command": "strata", "params": {"r": 1, "d": 2, key: value}})
        assert code == 1
        assert response["diagnostics"] == [f"'{key}' needs the component genera 'gy' and 'gz'"]


def test_main_strata_marked_ramification_needs_the_component_genera(capsys):
    assert main(["strata", "--r", "1", "--d", "2", "--alpha1", "0,1"]) == 1
    response = json.loads(capsys.readouterr().out)
    assert response["diagnostics"] == ["'alpha1' needs the component genera 'gy' and 'gz'"]
    assert main(["strata", "--r", "1", "--d", "2", "--alpha1", "0,1", "--gy", "0", "--gz", "1"]) == 0


def test_realize_genus_1_at_degree_0_is_the_constant_section(capsys):
    # O is the one degree-0 bundle with a section, vanishing to order 0 at both points
    assert main(["check", "--g", "1", "--r", "0", "--d", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["nonempty"]
    assert main(["realize", "--genus", "1", "--r", "0", "--d", "0", "--a1", "0", "--a2", "0"]) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["status"] == "ok"
    assert response["payload"] == {
        "genus": 1,
        "descriptor": {"kind": "special", "a": 0, "d": 0},
        "vanishing_p1": [0],
        "vanishing_p2": [0],
    }


def test_oracle_verify_genus_1_at_degree_0_agrees_with_check(capsys):
    # h^0(O) = 1 at d = 0: one point over every field, a generic bundle has none
    assert main(["check", "--g", "1", "--r", "0", "--d", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["nonempty"]
    argv = ["oracle-verify", "--genus", "1", "--r", "0", "--d", "0", "--alpha1", "0", "--alpha2", "0"]
    assert main(argv) == 0
    response = json.loads(capsys.readouterr().out)
    assert response["status"] == "ok"
    payload = response["payload"]
    assert payload["criterion"] and payload["oracle_nonempty"] and payload["agree"]
    assert payload["descriptors"] == [
        {"bundle": "generic", "counts": [[2, 0], [3, 0], [4, 0]], "dim": None, "nonempty": False},
        {"bundle": "special(0)", "counts": [[2, 1], [3, 1], [4, 1]], "dim": 0, "nonempty": True},
    ]


def test_realize_commands():
    response, code = run(
        {"command": "realize", "params": {"genus": 0, "r": 1, "d": 3, "a1": "0,2", "a2": "0,1"}}
    )
    assert code == 0
    assert response["payload"]["basis"] == [[1, 0, 1, 0], [0, 0, 1, 1]]
    assert response["payload"]["vanishing_at_p1"] == [0, 2]
    response, code = run(
        {"command": "realize", "params": {"genus": 1, "r": 1, "d": 2, "a1": "0,2", "a2": "0,2"}}
    )
    assert code == 0
    assert response["status"] == "empty"


def test_oracle_verify_commands():
    response, code = run(
        {"command": "oracle-verify", "params": {"genus": 0, "r": 0, "d": 2, "a1": "1", "a2": "1"}}
    )
    assert code == 0
    assert response["payload"]["agree"]
    assert response["payload"]["richardson_dim"] == 0
    response, code = run(
        {
            "command": "oracle-verify",
            "params": {"genus": 1, "r": 1, "d": 3, "alpha1": "1,2", "alpha2": "0,0"},
        }
    )
    assert code == 0
    assert response["payload"]["agree"]
    assert response["payload"]["generality_ok"]


def test_oracle_verify_null_fixture_is_the_general_one():
    params = {"genus": 1, "r": 1, "d": 3, "alpha1": "1,2", "alpha2": "0,0"}
    absent = run({"command": "oracle-verify", "params": params})
    null = run({"command": "oracle-verify", "params": {**params, "fixture": None}})
    assert null == absent
    assert (null[1], null[0]["payload"]["fixture"]) == (0, "general")


def test_oracle_verify_holds_profile_tables_against_the_budget(monkeypatch):
    # r + 1 > n = d: no subspace to count, but d + 2 tables of (d + 1)^2 entries
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    start = time.perf_counter()
    response, code = run({"command": "oracle-verify", "params": {"genus": 1, "r": 320, "d": 320}})
    assert time.perf_counter() - start < 1
    assert code == 2
    size = 322 * 321**2
    assert response["diagnostics"] == [
        f"InfeasibleSize: enumeration of {size} profile table entries exceeds the budget of 10000000"
    ]


def test_oracle_verify_counts_a_full_rank_series_without_recursion(monkeypatch):
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    # k = n = 801 ranks deep: one subspace, the whole space, at every q
    full = list(range(801))
    params = {"genus": 0, "r": 800, "d": 800, "a1": full, "a2": full}
    response, code = run({"command": "oracle-verify", "params": params})
    assert code == 0, response
    assert response["payload"]["counts"] == [[2, 1], [3, 1], [4, 1]]


# Peak RSS is read from VmHWM, which exec resets; ru_maxrss would start at
# the resident size of the process that spawned the child.
_FULL_RANK_CHILD = """
import json, re, time
from pathlib import Path
from bnseries.cli import run
full = list(range(2001))
start = time.perf_counter()
response, code = run({"command": "oracle-verify", "params": {"genus": 0, "r": 2000, "d": 2000, "a1": full, "a2": full}})
elapsed = time.perf_counter() - start
status = Path("/proc/self/status")
peak = re.search(r"VmHWM:\\s+(\\d+) kB", status.read_text()) if status.exists() else None
print(json.dumps([code, response["payload"]["counts"], elapsed, peak and int(peak[1]) * 1024]))
"""


def test_oracle_verify_full_rank_at_n_2001_is_cheap():
    # k = n = 2001: the histogram needs only the n pairs (i, n - 1 - i), never
    # the 2002 x 2002 table they determine
    env = child_env()
    env.pop("BN_ENUM_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", _FULL_RANK_CHILD], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, counts, elapsed, peak_bytes = json.loads(proc.stdout)
    assert (code, counts) == (0, [[2, 1], [3, 1], [4, 1]])
    assert elapsed <= 2, elapsed
    assert peak_bytes is None or peak_bytes <= 40 * 2**20, peak_bytes  # None: no /proc to read


def test_sweep_streams_grid_in_order():
    points = list(iter_sweep({"g_max": 1, "r_max": 1, "d_max": 2}))
    assert [p["params"]["g"] for p in points] == sorted(p["params"]["g"] for p in points)
    fail = next(p for p in points if p["params"] == {"g": 1, "r": 1, "d": 1, "alpha1": [0, 0], "alpha2": [0, 0]})
    assert fail["payload"] == {"nonempty": False, "rho": -1}


def test_cli_process_roundtrip_and_determinism():
    build = invoke(["chain", "--g", "3", "--r", "1", "--d", "3"])
    assert build.returncode == 0
    build2 = invoke(["chain", "--g", "3", "--r", "1", "--d", "3"])
    assert build.stdout == build2.stdout  # byte-identical responses
    verify = invoke(
        ["chain", "--g", "3", "--r", "1", "--d", "3", "--verify"], stdin=build.stdout
    )
    assert verify.returncode == 0
    assert json.loads(verify.stdout)["payload"]["valid"]


def test_cli_witness_file(tmp_path):
    build = invoke(["chain", "--g", "2", "--r", "1", "--d", "3"])
    witness = json.loads(build.stdout)["payload"]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    verify = invoke(
        ["chain", "--g", "2", "--r", "1", "--d", "3", "--verify", "--witness-file", str(path)]
    )
    assert verify.returncode == 0
    assert json.loads(verify.stdout)["payload"]["valid"]


def test_cli_malformed_flag_value():
    proc = invoke(["check", "--g", "2", "--r", "1", "--d", "3", "--alpha1", "1,0"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "error"


def test_cli_json_request():
    proc = invoke(["--json", '{"command":"rho","params":{"g":3,"r":1,"d":3}}'])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"] == {"rho": 1}
    proc = invoke(["--json", "not json"])
    assert proc.returncode == 1


def test_cli_sweep_jsonl():
    proc = invoke(["sweep", "--g-max", "0", "--r-max", "1", "--d-max", "2"])
    assert proc.returncode == 0
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 5
    assert all("params" in line and "payload" in line for line in lines)


def test_enum_budget_env_var():
    proc = invoke(
        ["oracle-verify", "--genus", "0", "--r", "1", "--d", "5", "--a1", "0,1", "--a2", "0,1"],
        env={"BN_ENUM_BUDGET": "10"},
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["status"] == "error"
    assert any("InfeasibleSize" in d for d in body["diagnostics"])


def test_enum_budget_env_var_not_an_integer():
    proc = invoke(
        ["oracle-verify", "--genus", "0", "--r", "1", "--d", "5", "--a1", "0,1", "--a2", "0,1"],
        env={"BN_ENUM_BUDGET": "abc"},
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["status"] == "error"
    assert any("BN_ENUM_BUDGET" in d for d in body["diagnostics"])


def test_oracle_verify_refuses_before_counting(monkeypatch):
    from bnseries import oracle
    from bnseries.gf import gaussian_binomial

    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    budget = gaussian_binomial(5, 2, 3) + 1  # q = 4 is the first field over budget
    monkeypatch.setenv("BN_ENUM_BUDGET", str(budget))
    params = {"genus": 0, "r": 1, "d": 4, "a1": "0,1", "a2": "0,1"}
    response, code = run({"command": "oracle-verify", "params": params})
    assert code == 2
    size = gaussian_binomial(5, 2, 4)
    assert any(
        f"enumeration of {size} subspaces exceeds the budget of {budget}" in d
        for d in response["diagnostics"]
    )
    assert oracle._HIST_CACHE == {}


@pytest.mark.parametrize(
    "change",
    [
        lambda w: w["components"][0].update(rho=1.5),
        lambda w: w["components"][0].update(rho=True),
        lambda w: w["components"][0]["left"].__setitem__(0, 0.0),
        lambda w: w.update(total_rho=float(w["total_rho"])),
        lambda w: w["components"][0].update(rho=str(w["components"][0]["rho"])),
        lambda w: w["components"][0]["left"].__setitem__(0, "0"),
        lambda w: w.update(r="1"),
        lambda w: w.update(total_rho=str(w["total_rho"])),
        lambda w: w.update(
            {key: str(w[key]) for key in ("r", "d", "total_rho")},
            components=[
                {"genus": str(c["genus"]), "rho": str(c["rho"]),
                 "left": [str(a) for a in c["left"]], "right": [str(a) for a in c["right"]]}
                for c in w["components"]
            ],
        ),
    ],
    ids=["float-rho", "bool-rho", "float-left", "float-total-rho"]
    + ["string-rho", "string-left", "string-r", "string-total-rho", "all-strings"],
)
def test_witness_non_integers_are_malformed(change):
    params = {"g": 2, "r": 1, "d": 3}
    witness = run({"command": "chain", "params": params})[0]["payload"]
    change(witness)
    response, code = run(
        {"command": "chain", "params": {**params, "verify": True, "witness": witness}}
    )
    assert code == 1
    assert any("malformed chain witness" in d for d in response["diagnostics"])


@pytest.mark.parametrize(
    "params",
    [
        {"g": 2, "r": 1, "d": 3, "alpha1": [0.9, 1.2]},
        {"g": 1.7, "r": 1, "d": 3},
        {"g": True, "r": 1, "d": 3},
        {"g": 2, "r": 1, "d": 3, "alpha1": [True, True]},
        {"g": "3", "r": 1, "d": 3},
        {"g": 2, "r": 1, "d": 3, "alpha1": ["0", "1"]},
    ],
    ids=["float-alpha", "float-g", "bool-g", "bool-alpha", "string-g", "string-alpha"],
)
def test_non_integer_params_are_invalid(params):
    response, code = run({"command": "rho", "params": params})
    assert code == 1
    assert response["status"] == "error"
    assert response["payload"] == {}


@pytest.mark.parametrize(
    "entry, shown",
    [
        (1.7, "1.7"),
        (True, "true"),
        ("1", '"1"'),
        (Fraction(1, 2), '"Fraction(1, 2)"'),  # int() would read it as 0
        (Decimal("1.9"), '"Decimal(\'1.9\')"'),  # and this as 1
        (None, "null"),
        ([0], "[0]"),
    ],
)
def test_sequence_entries_are_exactly_ints(entry, shown):
    params = {"g": 2, "r": 1, "d": 3, "alpha1": [entry, 1]}
    response, code = run({"command": "rho", "params": params})
    assert (response["diagnostics"], code) == ([f"alpha1 must contain integers, got {shown}"], 1)


@pytest.mark.parametrize(
    "value, token",
    [
        ("0 1", "0 1"),  # spaces do not separate entries
        ("1 2", "1 2"),
        ("1,", ""),
        ("0,,1", ""),
        (",", ""),
        ("1_0", "1_0"),
        ("\u0661,\u0662", "\u0661"),  # Arabic-Indic digits
        ("+1", "+1"),
        ("1,-", "-"),
    ],
)
def test_comma_lists_refuse_anything_but_base_10_tokens(value, token, capsys):
    params = {"g": 1, "r": 0, "d": 20, "alpha1": value}
    message = f"alpha1 must contain integers: invalid literal for int() with base 10: {token!r}"
    response, code = run({"command": "rho", "params": params})
    assert (response["diagnostics"], code) == ([message], 1)
    assert main(["rho", "--g", "1", "--r", "0", "--d", "20", "--alpha1", value]) == 1
    assert json.loads(capsys.readouterr().out) == response


@pytest.mark.parametrize("value, entries", [(" 0, 1 ,2", [0, 1, 2]), ("", []), ("-1", [-1])])
def test_comma_lists_strip_spaces_around_each_entry(value, entries, capsys):
    params = {"g": 1, "r": max(len(entries) - 1, 0), "d": 20}
    expected = run({"command": "check", "params": {**params, "alpha1": entries}})
    assert run({"command": "check", "params": {**params, "alpha1": value}}) == expected
    argv = [f"--{key}={val}" for key, val in params.items()]
    assert main(["check", *argv, f"--alpha1={value}"]) == expected[1]
    assert json.loads(capsys.readouterr().out) == expected[0]


def test_main_returns_exit_code(capsys):
    assert main(["check", "--g", "4", "--r", "1", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["payload"]["nonempty"]


def _no_enumeration(r, d):
    raise AssertionError("strata enumerated past the budget check")


def test_strata_over_budget_is_refused_before_enumerating(monkeypatch):
    from bnseries import cli

    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    # C(5, 2) = 10 strata fit the budget exactly
    response, code = run({"command": "strata", "params": {"r": 1, "d": 4}})
    assert code == 0 and response["payload"]["count"] == 10
    monkeypatch.setattr(cli, "enumerate_refined_strata", _no_enumeration)
    for params in ({"r": 1, "d": 5}, {"r": 1, "d": 5, "gy": 1, "gz": 0}):
        response, code = run({"command": "strata", "params": params})
        assert code == 2
        assert response["diagnostics"] == [
            "InfeasibleSize: enumeration of 15 strata exceeds the budget of 10"
        ]


def test_strata_default_budget_refuses_r10_d40_at_once(monkeypatch):
    from bnseries import cli

    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(cli, "enumerate_refined_strata", _no_enumeration)
    response, code = run({"command": "strata", "params": {"r": 10, "d": 40}})
    assert code == 2
    assert response["diagnostics"] == [
        "InfeasibleSize: enumeration of 3159461968 strata exceeds the budget of 10000000"
    ]


def _no_sweep_enumeration(r, d):
    raise AssertionError("sweep enumerated past the budget check")


def test_sweep_over_budget_is_refused_before_enumerating(monkeypatch, capsys):
    from bnseries import cli

    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    # genera 0 and 1 at (r, d) = (0, 0) and (0, 1): 1 + 4 points each, 10 in all
    fits = {"g_max": 1, "r_max": 0, "d_max": 1, "command": "chain", "alphas": "all"}
    response, code = run({"command": "sweep", "params": fits})
    assert code == 0 and len(response["payload"]["points"]) == 10
    monkeypatch.setattr(cli, "_ram_entries", _no_sweep_enumeration)  # both grids enumerate through it
    refusal = ["InfeasibleSize: enumeration of 11 sweep points exceeds the budget of 10"]
    # 11 genera of one point each, and 11 contexts (0, d) of one zero point each
    for params in (
        {"g_max": 10, "r_max": 0, "d_max": 0, "command": "chain", "alphas": "all"},
        {"g_max": 0, "r_max": 0, "d_max": 10, "command": "chain", "alphas": "zero"},
    ):
        response, code = run({"command": "sweep", "params": params})
        assert (response["diagnostics"], code) == (refusal, 2)
        argv = ["sweep"] + [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["diagnostics"] == refusal


@pytest.mark.parametrize("alphas", ["zero", "all"])
def test_sweep_points_closed_form(alphas):
    from bnseries.cli import _sweep_points

    for g_max in range(3):
        for r_max in range(6):
            for d_max in range(8):
                want = (g_max + 1) * sum(
                    1 if alphas == "zero" else comb(d + 1, r + 1) ** 2
                    for d in range(d_max + 1)
                    for r in range(min(r_max, d) + 1)
                )
                assert _sweep_points(g_max, r_max, d_max, alphas) == want


@pytest.mark.parametrize("verify", ["no", "", 0, 1, [], {}], ids=["no", "empty", "0", "1", "list", "dict"])
def test_chain_verify_must_be_a_boolean(verify):
    params = {"g": 2, "r": 1, "d": 3}
    witness = run({"command": "chain", "params": params})[0]["payload"]
    response, code = run(
        {"command": "chain", "params": {**params, "verify": verify, "witness": witness}}
    )
    assert (response["diagnostics"], code) == (["parameter 'verify' must be true, false or null"], 1)


def test_chain_verify_true_false_or_null():
    params = {"g": 2, "r": 1, "d": 3}
    built = run({"command": "chain", "params": params})
    witness = built[0]["payload"]
    for verify in (False, None):
        assert run({"command": "chain", "params": {**params, "verify": verify, "witness": witness}}) == built
    verified, code = run({"command": "chain", "params": {**params, "verify": True, "witness": witness}})
    assert (verified["payload"], code) == ({"valid": True, "violations": []}, 0)


@pytest.mark.parametrize("params", ['"g_max"', "[1]", "5", "null"])
def test_main_sweep_checks_params_like_run(params, capsys):
    request = f'{{"command":"sweep","params":{params}}}'
    assert main(["--json", request]) == 1
    response = json.loads(capsys.readouterr().out)
    assert response == run(json.loads(request))[0]
    assert response["diagnostics"] == ["params must be a JSON object"]


def test_refusal_of_a_size_beyond_the_str_digit_limit_is_infeasible(monkeypatch):
    from bnseries import cli

    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(cli, "enumerate_refined_strata", _no_enumeration)
    monkeypatch.setattr(cli, "_ram_entries", _no_sweep_enumeration)
    strata = comb(15001, 7001)  # about 4,500 decimal digits
    requests = [
        ({"command": "strata", "params": {"r": 7000, "d": 15000}}, strata, "strata"),
        ({"command": "sweep", "params": {"g_max": 0, "r_max": 7000, "d_max": 15000, "alphas": "all"}},
         strata**2, "sweep points"),
    ]
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for request, size, unit in requests:
        response, code = run(request)
        assert code == 2
        (diagnostic,) = response["diagnostics"]
        assert diagnostic.startswith("InfeasibleSize: enumeration of at least ")
        assert diagnostic.endswith(f" {unit} exceeds the budget of 10000000")
        if 0 < digit_limit <= 4300:
            assert f" at least 2^{size.bit_length() - 1} {unit} " in diagnostic


def test_absurd_strata_and_sweep_sizes_are_refused_without_their_binomial(monkeypatch):
    # C(10^6 + 1, 5 * 10^5 + 1) alone takes seconds to compute, and has far too
    # many digits to print: the refusal names the lower bound (n / m)^m >= 2^m
    from bnseries import cli, strata

    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < digit_limit <= 4300:
        pytest.skip("the int-to-str digit limit is off or raised")
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(strata, "comb", _never)
    monkeypatch.setattr(cli, "comb", _never)
    requests = [
        ({"command": "strata", "params": {"r": 500000, "d": 1000000}}, "2^500000 strata"),
        ({"command": "sweep", "params": {"g_max": 0, "r_max": 500000, "d_max": 1000000, "alphas": "all"}},
         "2^1000000 sweep points"),
    ]
    for request, size in requests:
        assert run(request) == (
            {"status": "error", "payload": {},
             "diagnostics": [f"InfeasibleSize: enumeration of at least {size} exceeds the budget of 10000000"]},
            2,
        )


def _counting_comb(monkeypatch):
    from bnseries import cli

    calls = []

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(cli, "comb", counted)
    return calls


@pytest.mark.parametrize(
    "grid, floor",
    [
        ((0, 3000, 3000, "all"), comb(3001, 1500) ** 2),
        ((0, 200, 100000, "all"), comb(100001, 201) ** 2),
        ((4, 3, 12, "all"), 5 * comb(13, 4) ** 2),
    ],
    ids=["r3000-d3000", "r200-d100000", "g4-r3-d12"],
)
def test_sweep_far_over_budget_is_refused_by_one_binomial(grid, floor, monkeypatch):
    calls = _counting_comb(monkeypatch)
    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    params = dict(zip(("g_max", "r_max", "d_max", "alphas"), grid))
    response, code = run({"command": "sweep", "params": params})
    assert code == 2
    assert response["diagnostics"][0].startswith(f"InfeasibleSize: enumeration of at least {floor} sweep")
    assert len(calls) == 1


def test_zero_sweep_is_counted_in_closed_form(monkeypatch):
    calls = _counting_comb(monkeypatch)
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    n = 10**9
    params = {"g_max": 0, "r_max": n, "d_max": n, "alphas": "zero"}
    response, code = run({"command": "sweep", "params": params})
    want = (n + 1) * (n + 2) // 2
    assert (response["diagnostics"], code) == (
        [f"InfeasibleSize: enumeration of {want} sweep points exceeds the budget of 10000000"],
        2,
    )
    assert calls == []


class _PastTheBudgetCheck(Exception):
    pass


def _stop_enumeration(r, d):
    raise _PastTheBudgetCheck


def test_sweep_lower_bound_never_refuses_a_grid_within_budget(monkeypatch):
    from bnseries import cli

    monkeypatch.setattr(cli, "_ram_entries", _stop_enumeration)
    for g_max in range(3):
        for r_max in range(5):
            for d_max in range(7):
                params = {"g_max": g_max, "r_max": r_max, "d_max": d_max, "alphas": "all"}
                size = cli._sweep_points(g_max, r_max, d_max, "all")
                monkeypatch.setenv("BN_ENUM_BUDGET", str(size))
                with pytest.raises(_PastTheBudgetCheck):
                    next(iter_sweep(params))
                monkeypatch.setenv("BN_ENUM_BUDGET", str(size - 1))
                response, code = run({"command": "sweep", "params": params})
                assert code == 2 and "InfeasibleSize" in response["diagnostics"][0], params


def _never(*args, **kwargs):
    raise AssertionError("work started past the budget check")


@pytest.mark.parametrize(
    "params, n",
    [
        ({"genus": 0, "r": 0, "d": 3200, "a1": [0], "a2": [0]}, 3201),
        ({"genus": 1, "r": 0, "d": 200, "alpha1": [0], "alpha2": [0]}, 200),
    ],
)
def test_oracle_verify_over_budget_builds_no_profile(params, n, monkeypatch):
    from bnseries import oracle
    from bnseries.gf import gaussian_binomial

    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(oracle, "profile_complementary", _never)
    monkeypatch.setattr(oracle, "profile_g1", _never)
    response, code = run({"command": "oracle-verify", "params": params})
    size = gaussian_binomial(n, 1, 2)  # q = 2 is already over budget
    assert (response["diagnostics"], code) == (
        [f"InfeasibleSize: enumeration of {size} subspaces exceeds the budget of 10000000"],
        2,
    )


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="needs an int-to-str digit limit"
)
@pytest.mark.parametrize("r, d", [(1000, 2000), (3000, 6000)])
def test_oracle_verify_refuses_an_unprintable_count_without_computing_it(r, d, monkeypatch):
    # the top Schubert cell, 2^((r + 1)(d - r)) points at q = 2, is already
    # too large to print, so the exact Gaussian binomial is never computed
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    seq = list(range(r + 1))
    start = time.perf_counter()
    response, code = run({"command": "oracle-verify", "params": {"genus": 0, "r": r, "d": d, "a1": seq, "a2": seq}})
    elapsed = time.perf_counter() - start
    assert code == 2
    (diagnostic,) = response["diagnostics"]
    assert diagnostic.startswith("InfeasibleSize: enumeration of at least 2^")
    assert diagnostic.endswith(" subspaces exceeds the budget of 10000000")
    assert elapsed < 0.2


def test_closed_stdout_ends_quietly_with_exit_2():
    argv = ["sweep", "--g-max", "6", "--r-max", "2", "--d-max", "5", "--alphas", "all", "--command", "chain"]
    with subprocess.Popen(
        [sys.executable, "-m", "bnseries.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
    ) as proc:
        assert json.loads(proc.stdout.readline())["status"] == "ok"
        proc.stdout.close()  # about 1 MB is still to come, far more than a pipe buffers
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def test_every_input_form_runs_clean_in_dev_mode_with_warnings_as_errors(tmp_path):
    # -X dev shows ResourceWarnings and other runtime checks, -W error makes each one fatal;
    # the in-process tests' filterwarnings setting does not reach a child process
    python = [sys.executable, "-X", "dev", "-W", "error", "-m", "bnseries.cli"]
    params = {"g": 3, "r": 1, "d": 3}
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(run({"command": "chain", "params": params})[0]))
    request = json.dumps({"command": "check", "params": params})
    for argv, stdin in (
        (["check", "--g", "3", "--r", "1", "--d", "3"], None),
        (["--json", request], None),
        (["--json", "-"], request),
        (["chain", "--g", "3", "--r", "1", "--d", "3", "--verify", "--witness-file", str(witness)], None),
    ):
        proc = subprocess.run(python + argv, input=stdin, capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        assert json.loads(proc.stdout)["status"] == "ok", argv
    argv = ["sweep", "--g-max", "6", "--r-max", "2", "--d-max", "5", "--alphas", "all", "--command", "chain"]
    with subprocess.Popen(python + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        assert json.loads(proc.stdout.readline())["status"] == "ok"
        proc.stdout.close()  # the reader goes away with most of the sweep still to write
        stderr = proc.stderr.read().decode()
        assert (proc.wait(timeout=60), stderr) == (2, "")


@pytest.mark.parametrize(
    "request_, names, message",
    [
        ({"command": "chain", "params": {"g": 6, "r": 1, "d": 3}}, ["build_chain"], "12 chain entries"),
        (
            {"command": "chain", "params": {"g": 6, "r": 1, "d": 3, "verify": True, "witness": {}}},
            ["witness_from_dict", "chain_violations"],
            "12 chain entries",
        ),
        (
            {"command": "realize", "params": {"genus": 0, "r": 1, "d": 2, "a1": [0, 1], "a2": [0, 1]}},
            ["realize_g0", "g0_vanishing_check"],
            "12 elimination entries",
        ),
        (
            {"command": "realize", "params": {"genus": 1, "r": 0, "d": 6, "a1": [0], "a2": [0]}},
            ["realize_g1", "classify_g1_vanishing"],
            "12 vanishing orders",
        ),
    ],
)
def test_chain_and_realize_over_budget_are_refused_before_any_work(request_, names, message, monkeypatch):
    from bnseries import cli

    monkeypatch.setenv("BN_ENUM_BUDGET", "11")
    for name in names:
        monkeypatch.setattr(cli, name, _never)
    response, code = run(request_)
    assert (response["diagnostics"], code) == ([f"InfeasibleSize: enumeration of {message} exceeds the budget of 11"], 2)
    monkeypatch.undo()
    monkeypatch.setenv("BN_ENUM_BUDGET", "12")  # a budget of exactly the request's size admits it
    response, code = run(request_)
    assert code != 2, response


@pytest.mark.parametrize(
    "genus, r, d, size",
    [
        (0, 2000, 4000, "16020008001 elimination entries"),
        (0, 400, 800, "128801601 elimination entries"),
        (1, 0, 10**7, "20000000 vanishing orders"),
    ],
)
def test_large_realize_requests_are_refused_at_once(genus, r, d, size, monkeypatch):
    from bnseries import cli

    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    for name in ("realize_g0", "g0_vanishing_check", "realize_g1", "classify_g1_vanishing"):
        monkeypatch.setattr(cli, name, _never)
    seq = list(range(r + 1))
    response, code = run({"command": "realize", "params": {"genus": genus, "r": r, "d": d, "a1": seq, "a2": seq}})
    assert (response["diagnostics"], code) == ([f"InfeasibleSize: enumeration of {size} exceeds the budget of 10000000"], 2)
