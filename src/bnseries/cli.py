"""Command-line interface with JSON input/output and machine-readable exit codes.

Commands: rho, check, strata, chain (build / --verify), realize, oracle-verify,
sweep.  Every response is a single JSON document

    {"status": "ok" | "empty" | "error", "payload": ..., "diagnostics": [...]}

except sweep, which streams one JSON object per grid point.  Exit codes:
0 = decided (ok or empty), 1 = invalid input, 2 = internal failure such as
an exhausted enumeration budget.  Any command can also be driven by a single
request document via --json.  All output is byte-deterministic.
"""

import json
import os
import sys
from collections.abc import Iterator
from math import comb
from operator import getitem

from .chains import _chain_entries, build_chain, chain_violations, witness_from_dict, witness_to_dict
from .core import (
    BNProblem,
    VanishingSeq,
    _comb_floor_log2,
    _ram_entries,
    criterion_excess,
    criterion_table,
    nonempty_criterion,
    problem,
    refuse_over_budget,
    rho,
    rho_from_totals,
)
from .oracle import dim_fit, ec_descriptor_rows, g0_series_counts, is_general, load_fixture
from .realize import classify_g1_vanishing, g0_vanishing_check, realize_g0, realize_g1, richardson_dim
from .strata import enumerate_refined_strata, refuse_strata_over_budget


class InvalidRequest(ValueError):
    """Malformed request: bad JSON, unknown command, or invalid parameters."""


def _parse_seq(value, what: str) -> tuple[int, ...]:
    if isinstance(value, str):  # "" is the empty list; each token is -?[0-9]+ between spaces
        parts = [s.strip() for s in value.split(",")] if value.strip() else []
        bad = next((s for s in parts if not (s.removeprefix("-").isdigit() and s.isascii())), None)
        if bad is not None:
            raise InvalidRequest(f"{what} must contain integers: invalid literal for int() with base 10: {bad!r}")
        return tuple(map(int, parts))
    if not isinstance(value, (list, tuple)):
        raise InvalidRequest(f"{what} must be a comma-separated list of integers")
    bad = [x for x in value if type(x) is not int]  # as in _get_int: no bool, float, str or Fraction
    if bad:
        raise InvalidRequest(f"{what} must contain integers, got {json.dumps(bad[0], default=repr)}")
    return tuple(value)


def _get_int(params: dict, key: str) -> int:
    if key not in params or params[key] is None:
        raise InvalidRequest(f"missing required parameter '{key}'")
    value = params[key]
    if type(value) is not int:  # bool, float and integer strings too; flags arrive as int
        raise InvalidRequest(f"parameter '{key}' must be an integer")
    if value < 0:  # every integer parameter is nonnegative
        raise InvalidRequest(f"parameter '{key}' must be >= 0")
    return value


def _optional(params: dict, key: str, default):
    """params[key], or default when it is absent or null."""
    value = params.get(key)
    return default if value is None else value


def _build_problem(params: dict) -> BNProblem:
    g, r, d = (_get_int(params, key) for key in ("g", "r", "d"))
    alpha1, alpha2 = (
        None if params.get(key) is None else _parse_seq(params[key], key) for key in ("alpha1", "alpha2")
    )
    return problem(g, r, d, alpha1, alpha2)


def _vanishing(params: dict, key: str, r: int, d: int) -> VanishingSeq:
    if key not in params or params[key] is None:
        raise InvalidRequest(f"missing required parameter '{key}'")
    seq = VanishingSeq(_parse_seq(params[key], key), d)
    if seq.r != r:
        raise InvalidRequest(f"'{key}' must have length r+1 = {r + 1}")
    return seq


def _cmd_rho(params: dict):
    p = _build_problem(params)
    return "ok", {"rho": rho(p)}


def _check(nonempty: bool, rho_value: int):
    return "ok", {"nonempty": nonempty, "rho": rho_value}


def _empty(rho_value: int):
    return "empty", {"nonempty": False, "rho": rho_value}


def _cmd_check(params: dict):
    p = _build_problem(params)
    return _check(nonempty_criterion(p), rho(p))


def _cmd_strata(params: dict):
    r = _get_int(params, "r")
    d = _get_int(params, "d")
    if r > d:
        raise InvalidRequest("need r <= d")
    with_problem = params.get("gy") is not None or params.get("gz") is not None
    if with_problem:
        gy = _get_int(params, "gy")
        gz = _get_int(params, "gz")
        glued = _build_problem({**params, "g": gy + gz})
        alpha1, alpha2 = glued.alpha1.entries, glued.alpha2.entries
        glued_rho = rho(glued)
    else:
        for key in ("alpha1", "alpha2"):
            if params.get(key) is not None:
                raise InvalidRequest(f"'{key}' needs the component genera 'gy' and 'gz'")
    refuse_strata_over_budget(r, d)
    # refined strata only: fiber_bound is 0, and the node sequences sum to (r+1)(d-r),
    # so expected_dim is glued_rho; each entry's keys are written in sorted order
    if not with_problem:
        strata = [
            {"alpha_y": list(y), "alpha_z": list(z), "fiber_bound": 0, "refined": True}
            for y, z in enumerate_refined_strata(r, d)
        ]
        return "ok", {"count": len(strata), "d": d, "r": r, "strata": strata}
    # sum(ty[i][y[i]]) is criterion_excess(gy, r, d, alpha1, y), and tz is the same for (z, alpha2)
    ty, tz = criterion_table(gy, r, d, alpha1), criterion_table(gz, r, d, alpha2)
    strata = []
    nonempty = False
    for y, z in enumerate_refined_strata(r, d):
        y_ok, z_ok = sum(map(getitem, ty, y)) <= gy, sum(map(getitem, tz, z)) <= gz
        strata.append({"alpha_y": list(y), "alpha_z": list(z), "expected_dim": glued_rho, "fiber_bound": 0,
                       "refined": True, "y_nonempty": y_ok, "z_nonempty": z_ok})
        nonempty = nonempty or (y_ok and z_ok)
    return "ok", {
        "count": len(strata), "d": d, "glued_rho": glued_rho, "nonempty": nonempty, "r": r, "strata": strata
    }


def _cmd_chain(params: dict):
    p = _build_problem(params)
    verify = params.get("verify")
    if verify is not None and type(verify) is not bool:
        raise InvalidRequest("parameter 'verify' must be true, false or null")
    refuse_over_budget(p.g * (p.r + 1), "chain entries")  # g components of r + 1 entries a side
    if verify:
        witness_data = params.get("witness")
        if witness_data is None:
            raise InvalidRequest("verify mode needs a 'witness' object")
        if isinstance(witness_data, dict) and "payload" in witness_data:
            witness_data = witness_data["payload"]
        violations = chain_violations(witness_from_dict(witness_data), p)
        return "ok", {"valid": not violations, "violations": violations}
    w = build_chain(p)
    if w is None:
        return _empty(rho(p))
    return "ok", witness_to_dict(w)


def _cmd_realize(params: dict):
    genus = _get_int(params, "genus")
    r = _get_int(params, "r")
    d = _get_int(params, "d")
    if genus not in (0, 1):
        raise InvalidRequest("realize supports genus 0 or 1")
    if r > d:
        raise InvalidRequest("need r <= d")
    a1 = _vanishing(params, "a1", r, d)
    a2 = _vanishing(params, "a2", r, d)
    if genus == 0:
        # r + 1 rows of d + 1 integers, eliminated column by column against each other
        refuse_over_budget((r + 1) ** 2 * (d + 1), "elimination entries")
        series = realize_g0(r, d, a1, a2)
        if series is None:
            return "empty", {"genus": 0}
        at0, at_inf = g0_vanishing_check(series)
        return "ok", {
            "genus": 0,
            "d": d,
            "basis": [list(row) for row in series.basis],
            "vanishing_at_p1": list(at0.entries),
            "vanishing_at_p2": list(at_inf.entries),
        }
    refuse_over_budget(2 * d, "vanishing orders")  # d at each marked point
    bundle = realize_g1(r, d, a1, a2)
    if bundle is None:
        return "empty", {"genus": 1}
    return "ok", {
        "genus": 1,
        "descriptor": {
            "kind": "special" if bundle.is_special else "generic",
            "a": bundle.a,
            "d": d,
        },
        "vanishing_p1": list(classify_g1_vanishing(bundle, 1).entries),
        "vanishing_p2": list(classify_g1_vanishing(bundle, 2).entries),
    }


# what oracle-verify takes only at the other genus, by genus
_OTHER_GENUS_PARAMS = {0: ("alpha1", "alpha2", "fixture"), 1: ("a1", "a2")}


def _cmd_oracle_verify(params: dict):
    genus = _get_int(params, "genus")
    for key in _OTHER_GENUS_PARAMS.get(genus, ()):  # refused rather than ignored, as in strata
        if params.get(key) is not None:
            raise InvalidRequest(f"'{key}' is a genus-{1 - genus} parameter of oracle-verify")
    if genus == 0:
        r = _get_int(params, "r")
        d = _get_int(params, "d")
        if r > d:
            raise InvalidRequest("need r <= d")
        a1 = _vanishing(params, "a1", r, d)
        a2 = _vanishing(params, "a2", r, d)
        expected = richardson_dim(d, a1, a2)
        counts, coeffs = g0_series_counts(d, r, a1, a2)
        if expected is None:
            fitted, agree = None, not coeffs
        else:
            fitted = dim_fit(coeffs)
            agree = fitted == expected
        return ("empty" if expected is None else "ok"), {
            "genus": 0,
            "richardson_dim": expected,
            "counts": [list(c) for c in counts],
            "fitted_dim": fitted,
            "agree": agree,
        }
    if genus == 1:
        p = _build_problem({**params, "g": 1})
        fixture = _optional(params, "fixture", "general")
        try:
            model = load_fixture(str(fixture))
        except KeyError as exc:
            raise InvalidRequest(f"unknown fixture {fixture!r}") from exc
        descriptors, nonempty = [], False
        for bundle, _, counts, dim, found in ec_descriptor_rows(model, p):
            descriptors.append(
                {"bundle": bundle, "counts": [[q, n] for q, n in counts], "dim": dim, "nonempty": found}
            )
            nonempty = nonempty or found
        generality_ok = is_general(model, p.d)
        criterion = nonempty_criterion(p)
        payload = {
            "genus": 1,
            "fixture": fixture,
            "order_diff": model.order_diff,
            "generality_ok": generality_ok,
            "criterion": criterion,
            "oracle_nonempty": nonempty,
            "descriptors": descriptors,
        }
        if generality_ok:
            payload["agree"] = criterion == nonempty
        return ("ok" if nonempty else "empty"), payload
    raise InvalidRequest("oracle-verify supports genus 0 or 1")


def _sweep_points(g_max: int, r_max: int, d_max: int, alphas: str) -> int:
    """Grid size: the sum over (g, r, d) of C(d+1, r+1)^2 for 'all', of 1 for 'zero'.

    With m = min(r_max, d_max), a genus has (m + 1)(d_max + 1) - m(m + 1)/2
    'zero' points.  Summed over d = r..d_max, the 'all' terms of one r with
    k = r + 1 come to sum_j C(k, j)^2 C(d_max + 2 + j, 2k + 1), so the 'all'
    count takes O(m^2) steps whatever d_max is.
    """
    m = min(r_max, d_max)
    if alphas == "zero":
        return (g_max + 1) * ((m + 1) * (d_max + 1) - m * (m + 1) // 2)
    per_genus = 0
    for k in range(1, m + 2):
        per_genus += sum(comb(k, j) ** 2 * comb(d_max + 2 + j, 2 * k + 1) for j in range(k + 1))
    return (g_max + 1) * per_genus


def iter_sweep(params: dict) -> Iterator[dict]:
    """One result object per grid point, in grid order.

    A grid over the enumeration budget is refused before the first point.
    An 'all' grid is first held against its largest (r, d_max) slice, one
    binomial, where the exact count takes O(min(r_max, d_max)^2) of them.
    Each (r, d) context's sequences and their totals are enumerated once per
    genus, as ``core._ram_entries`` tuples that no ``RamSeq`` wraps; a point's
    criterion is a lookup in its alpha1's ``criterion_table``
    (``criterion_excess`` on 'zero' grids, one point per alpha1).  A nonempty
    ``chain`` point's chain is ``chains._chain_entries`` given the previous
    genus layer's chains, so at genus >= 2 it costs one split whenever its
    residual is on the grid; its line is ``witness_to_dict``, as for the
    ``chain`` command.  Lines share no mutable object.
    """
    g_max = _get_int(params, "g_max")
    r_max = _get_int(params, "r_max")
    d_max = _get_int(params, "d_max")
    command = _optional(params, "command", "check")
    if command not in ("check", "chain"):
        raise InvalidRequest("sweep command must be 'check' or 'chain'")
    alphas = _optional(params, "alphas", "zero")
    if alphas not in ("zero", "all"):
        raise InvalidRequest("alphas must be 'zero' or 'all'")
    if alphas == "all" and d_max > 0:  # at d_max = 0 that slice is the grid, counted exactly below
        k = min(r_max + 1, (d_max + 1) // 2)  # C(d_max + 1, k) is largest at k = (d_max + 1) // 2
        refuse_over_budget(lambda: (g_max + 1) * comb(d_max + 1, k) ** 2, "sweep points", at_least=True,
                           floor_log2=2 * _comb_floor_log2(d_max + 1, k))
    refuse_over_budget(_sweep_points(g_max, r_max, d_max, alphas), "sweep points")
    tails = {}  # the previous genus layer's chains, by their (d, alpha1, alpha2) entry tuples
    for g in range(g_max + 1):
        layer = {}
        for d in range(d_max + 1):
            for r in range(min(r_max, d) + 1):
                entries = _ram_entries(r, d)
                seqs = [next(entries)] if alphas == "zero" else list(entries)  # the first is (0, ..., 0)
                totals = list(map(sum, seqs))
                for e1, t1 in zip(seqs, totals):
                    # criterion_excess(g, r, d, e1, y) is sum(table[i][y[i]]), but not worth a table on 'zero' grids
                    table = criterion_table(g, r, d, e1) if len(seqs) > 1 else None
                    rho1 = rho_from_totals(g, r, d, t1, 0)  # a point's rho is rho1 - t2
                    for e2, t2 in zip(seqs, totals):
                        point = {"alpha1": [*e1], "alpha2": [*e2], "d": d, "g": g, "r": r}
                        excess = criterion_excess(g, r, d, e1, e2) if table is None else sum(map(getitem, table, e2))
                        nonempty, rho_value = excess <= g, rho1 - t2
                        if command == "check":
                            status, payload = _check(nonempty, rho_value)
                        elif not nonempty:
                            status, payload = _empty(rho_value)
                        else:
                            chain = layer[d, e1, e2] = _chain_entries(g, r, d, e1, e2, tails)
                            status, payload = "ok", witness_to_dict((r, d, chain, rho_value))
                        yield {"params": point, "payload": payload, "status": status}
        tails = layer


def _cmd_sweep(params: dict):
    return "ok", {"points": list(iter_sweep(params))}


# argparse keyword arguments of every flag; each command lists the flags it takes
_FLAGS = {
    **dict.fromkeys(("g", "r", "d", "gy", "gz", "genus", "g_max", "r_max", "d_max"), {"type": int}),
    **dict.fromkeys(("alpha1", "alpha2", "a1", "a2", "fixture", "command", "alphas"), {"type": str}),
    "witness_file": {"type": str, "help": "witness JSON path, or '-' for stdin"},
    "verify": {"action": "store_true"},
}
_PROBLEM = ("g", "r", "d", "alpha1", "alpha2")
_COMMANDS = {
    "rho": (_cmd_rho, _PROBLEM),
    "check": (_cmd_check, _PROBLEM),
    "strata": (_cmd_strata, ("r", "d", "gy", "gz", "alpha1", "alpha2")),
    "chain": (_cmd_chain, _PROBLEM + ("witness_file", "verify")),
    "realize": (_cmd_realize, ("genus", "r", "d", "a1", "a2")),
    "oracle-verify": (_cmd_oracle_verify, ("genus", "r", "d", "a1", "a2", "alpha1", "alpha2", "fixture")),
    "sweep": (_cmd_sweep, ("g_max", "r_max", "d_max", "command", "alphas")),
}


def _error(exc: Exception) -> tuple[dict, int]:
    """Error envelope and exit code: 1 for invalid input, 2 for any other failure."""
    invalid = isinstance(exc, ValueError)  # InvalidRequest included
    diagnostic = str(exc) if invalid else f"{type(exc).__name__}: {exc}"
    return {"status": "error", "payload": {}, "diagnostics": [diagnostic]}, 1 if invalid else 2


def _checked(request) -> tuple[str, dict]:
    """The command and params of a request document, both checked."""
    if not isinstance(request, dict):
        raise InvalidRequest("request must be a JSON object")
    command = request.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:  # a list would fail the lookup
        raise InvalidRequest(f"unknown command {command!r}")
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise InvalidRequest("params must be a JSON object")
    return command, params


def run(request: dict) -> tuple[dict, int]:
    """Execute a request document; returns (response, exit_code)."""
    try:
        command, params = _checked(request)
        status, payload = _COMMANDS[command][0](params)
        return {"status": status, "payload": payload, "diagnostics": []}, 0
    except Exception as exc:  # every failure, internal ones included, stays machine readable
        return _error(exc)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # json.dumps would build one per call


def _dump(obj) -> str:
    return _ENCODER.encode(obj)


def _build_parser():
    import argparse  # here, not at the top: only main() parses a command line
    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise InvalidRequest(message)

    parser = _Parser(prog="bnseries", description=__doc__)
    parser.add_argument(
        "--json",
        metavar="REQUEST",
        help="full request document as a JSON string, or '-' to read stdin",
    )
    sub = parser.add_subparsers(dest="cmd")
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(f"--{flag.replace('_', '-')}", **_FLAGS[flag])
    return parser


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an over-long integer, or deep nesting
        raise InvalidRequest(f"{what} is not valid JSON: {exc}") from exc


def _request_from_args(args) -> dict:
    if args.json is not None:
        return _load_json(sys.stdin.read() if args.json == "-" else args.json, "request")
    if args.cmd is None:
        raise InvalidRequest("no command given (see --help)")
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("cmd", "json") and v is not None and v is not False
    }
    if args.cmd == "chain":
        # --verify without --witness-file reads the witness from stdin
        path = params.pop("witness_file", "-" if args.verify else None)
        if path is not None:
            from pathlib import Path  # only this request reads a file
            try:
                text = sys.stdin.read() if path == "-" else Path(path).read_text()
            except OSError as exc:
                raise InvalidRequest(f"cannot read witness file: {exc}") from exc
            params["witness"] = _load_json(text, "witness")
    return {"command": args.cmd, "params": params}


def main(argv=None) -> int:
    try:
        code = _respond(argv)
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
        return code
    except BrokenPipeError:  # the reader is gone: stop writing, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit succeeds
        return 2


def _respond(argv) -> int:
    """Write the response to argv on stdout; the exit code."""
    try:
        request = _request_from_args(_build_parser().parse_args(argv))
        command, params = _checked(request)
        if command == "sweep":  # streamed, one line per grid point
            write = sys.stdout.write
            for line in iter_sweep(params):
                write(_dump(line) + "\n")
            return 0
        response, code = run(request)
    except BrokenPipeError:  # not a failure of the request
        raise
    except Exception as exc:  # same envelope and exit codes as run()
        response, code = _error(exc)
    print(_dump(response))
    return code


if __name__ == "__main__":
    sys.exit(main())
