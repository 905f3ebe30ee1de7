"""Request streams, their execution, and the correctness checks of each workload.

A stream depends only on the seed.  Each workload keeps the amount of work
fixed and lets the seed choose the order and the parameters that do not
change the cost (sequences, genera, request forms), so runs with different
seeds measure the same load.  Every answer is checked against facts the
benchmark derives on its own (the inequality, rho, binomial and Gaussian
binomial counts, exact row reduction), never against the code path it times.
"""

import hashlib
import json
import random
import subprocess
from array import array
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
from time import perf_counter_ns

import bnseries.chains
import bnseries.cli
import bnseries.core

def dump(obj):
    """The CLI's canonical JSON form of one document."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- facts the checks rely on, derived here independently ----------------------


def ram_seqs(r, d):
    return [list(s) for s in combinations_with_replacement(range(d - r + 1), r + 1)]


def van_seqs(r, d):
    return [[a + j for j, a in enumerate(s)] for s in ram_seqs(r, d)]


def rho(g, r, d, a1, a2):
    return (r + 1) * (d - r) - r * g - sum(a1) - sum(a2)


def criterion(g, r, d, a1, a2):
    return sum(max(0, a1[j] + a2[r - j] + r - d + g) for j in range(r + 1)) <= g


def gaussian_binomial(n, k, q):
    """k-subspaces of F_q^n, by the q-Pascal rule [m, j] = [m-1, j-1] + q^j [m-1, j]."""
    row = [1] + [0] * k
    for m in range(1, n + 1):
        for j in range(min(m, k), 0, -1):
            row[j] = row[j - 1] + q**j * row[j]
    return row[k]


def span_orders(rows):
    """Vanishing orders at x = 0 of the span of coefficient rows, or None if dependent."""
    rows = [[Fraction(c) for c in row] for row in rows]
    orders = []
    while rows:
        lows = [next((i for i, c in enumerate(row) if c), None) for row in rows]
        if None in lows:
            return None
        low = min(lows)
        pivot = rows.pop(lows.index(low))
        rows = [
            [c - row[low] / pivot[low] * p for c, p in zip(row, pivot)] if row[low] else row
            for row in rows
        ]
        orders.append(low)
    return sorted(orders)


def g1_vanishing(d, concentrated):
    return list(range(d - 1)) + [d] if concentrated else list(range(d))


# -- bookkeeping of one pass ---------------------------------------------------


class Recorder:
    """Latencies, output digest and failures of one pass over a stream."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        # Raw 8-byte slots, so the benchmark keeps no small objects alive
        # between the program's allocations and peak RSS does not depend on
        # the request order.
        self.latencies = array("q")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._digest = hashlib.sha256()
        self.output_bytes = 0

    def begin(self, index):
        if self.tracer is not None:
            self.tracer.request = index

    def done(self, ns, output, problems):
        """Record one request: its wall time, its output bytes, and any check failures."""
        self.attempted += 1
        self.latencies.append(ns)
        self._digest.update(output)
        self.output_bytes += len(output)
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problems[0])

    def output_digest(self):
        return self._digest.hexdigest()

    def checking(self):
        """Context in which bnseries calls are not traced (the untimed checks)."""
        return _Untraced(self.tracer)


class _Untraced:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.enabled = False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.enabled = True


def run_request(rec, request):
    """One in-process request: run() and the canonical dump of its response."""
    tracer = rec.tracer
    t0 = perf_counter_ns()
    if tracer is None:
        response, code = bnseries.cli.run(request)
        text = dump(response)
    else:
        response, code = tracer.call("cli.run", "cli", bnseries.cli.run, request)
        text = tracer.call("cli.serialize", "serialize", dump, response)
    return perf_counter_ns() - t0, response, code, text + "\n"


# -- sweep ---------------------------------------------------------------------

# Sub-grids of the researcher's sweep; every one reaches g >= 6 for long chains.
SWEEP_GRIDS = ((8, 2, 5), (9, 1, 6), (6, 3, 5), (7, 2, 4), (6, 1, 7))


def sweep_stream(rng):
    grids = list(SWEEP_GRIDS)
    rng.shuffle(grids)
    return [
        {"g_max": g, "r_max": r, "d_max": d, "command": "chain", "alphas": "all"}
        for g, r, d in grids
    ]


def sweep_points(params):
    return sum(
        comb(d + 1, r + 1) ** 2
        for g in range(params["g_max"] + 1)
        for d in range(params["d_max"] + 1)
        for r in range(min(params["r_max"], d) + 1)
    )


def check_sweep_point(line):
    point = line["params"]
    g, r, d, a1, a2 = (point[k] for k in ("g", "r", "d", "alpha1", "alpha2"))
    want_rho = rho(g, r, d, a1, a2)
    payload = line["payload"]
    if not criterion(g, r, d, a1, a2):
        if line["status"] != "empty" or payload != {"nonempty": False, "rho": want_rho}:
            return [f"sweep {point}: expected an empty answer with rho {want_rho}"]
        return []
    if line["status"] != "ok":
        return [f"sweep {point}: status {line['status']!r}, criterion holds"]
    if payload.get("total_rho") != want_rho:
        return [f"sweep {point}: total_rho {payload.get('total_rho')} != {want_rho}"]
    witness = bnseries.chains.witness_from_dict(payload)
    violations = bnseries.chains.chain_violations(witness, bnseries.core.problem(g, r, d, a1, a2))
    return [f"sweep {point}: {v}" for v in violations]


def execute_sweep(stream, rec, env):
    tracer = rec.tracer
    index = 0
    for params in stream:
        expected = sweep_points(params)
        seen = 0
        lines = bnseries.cli.iter_sweep(params)
        while True:
            rec.begin(index)
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    line = next(lines)
                    text = dump(line)
                else:
                    line = tracer.call("cli.iter_sweep", "cli", next, lines)
                    text = tracer.call("cli.serialize", "serialize", dump, line)
            except StopIteration:
                break
            ns = perf_counter_ns() - t0
            seen += 1
            index += 1
            with rec.checking():
                rec.done(ns, (text + "\n").encode(), check_sweep_point(line))
        if seen != expected:
            rec.failed += 1
            rec.failures.append(f"sweep {params}: {seen} points, expected {expected}")


# -- strata --------------------------------------------------------------------

# (r, d) contexts from a handful to thousands of strata; each runs once plain and
# once with a two-component problem.
STRATA_CONTEXTS = (
    (0, 6), (0, 12), (1, 5), (1, 9), (1, 14), (2, 6), (2, 8), (2, 10), (2, 12),
    (3, 7), (3, 9), (3, 11), (3, 13), (4, 8), (4, 10), (4, 12), (5, 9), (5, 11),
    (5, 12), (6, 10), (6, 12), (6, 13), (6, 14), (1, 3), (2, 4), (3, 5), (4, 6),
    (5, 7), (1, 7), (2, 5), (3, 6), (4, 7), (0, 3), (1, 4), (2, 7), (3, 8),
    (4, 9), (5, 10), (1, 11), (2, 9), (0, 9), (1, 6), (2, 11), (3, 10), (4, 11),
    (5, 8), (6, 11), (1, 12), (2, 13), (3, 12),
)


def strata_stream(rng):
    stream = []
    for r, d in STRATA_CONTEXTS:
        stream.append({"command": "strata", "params": {"r": r, "d": d}})
        seqs = ram_seqs(r, d)
        stream.append(
            {
                "command": "strata",
                "params": {
                    "r": r,
                    "d": d,
                    "gy": rng.randint(0, 4),
                    "gz": rng.randint(0, 4),
                    "alpha1": rng.choice(seqs),
                    "alpha2": rng.choice(seqs),
                },
            }
        )
    rng.shuffle(stream)
    return stream


def check_strata(params, response, code):
    r, d = params["r"], params["d"]
    if code != 0 or response["status"] != "ok":
        return [f"strata {params}: status {response['status']!r}, exit {code}"]
    payload = response["payload"]
    problems = []
    if payload["count"] != comb(d + 1, r + 1) or len(payload["strata"]) != payload["count"]:
        problems.append(f"strata {params}: count {payload['count']} != C({d + 1}, {r + 1})")
    glued = "gy" in params
    if glued:
        g = params["gy"] + params["gz"]
        a1, a2 = params["alpha1"], params["alpha2"]
        if payload["glued_rho"] != rho(g, r, d, a1, a2):
            problems.append(f"strata {params}: glued_rho {payload['glued_rho']}")
        if payload["nonempty"] != criterion(g, r, d, a1, a2):
            problems.append(f"strata {params}: nonempty disagrees with the glued criterion")
    for entry in payload["strata"]:
        y, z = entry["alpha_y"], entry["alpha_z"]
        complement = [d - r - y[r - j] for j in range(r + 1)]
        if not entry["refined"] or entry["fiber_bound"] != 0 or z != complement:
            problems.append(f"strata {params}: stratum {y}/{z} is not refined")
        if glued and entry["expected_dim"] + entry["fiber_bound"] != payload["glued_rho"]:
            problems.append(f"strata {params}: expected_dim + fiber_bound != glued_rho at {y}")
        if problems:
            break
    return problems


def execute_strata(stream, rec, env):
    for index, request in enumerate(stream):
        rec.begin(index)
        ns, response, code, text = run_request(rec, request)
        with rec.checking():
            rec.done(ns, text.encode(), check_strata(request["params"], response, code))


# -- oracle --------------------------------------------------------------------

# (genus, r, d, fixture): genus 0 up to k = r + 1 = 3, genus 1 on both fixtures.
ORACLE_POINTS = (
    (0, 1, 4, None),
    (0, 1, 5, None),
    (0, 2, 4, None),
    (1, 1, 4, "general"),
    (1, 2, 4, "general"),
    (1, 1, 4, "torsion2"),
    (1, 1, 3, "torsion2"),
)
FIXTURE_ORDERS = {"general": 6, "torsion2": 2}


def oracle_stream(rng):
    stream = []
    for genus, r, d, fixture in ORACLE_POINTS:
        for s1 in ram_seqs(r, d):
            for s2 in ram_seqs(r, d):
                v1 = [a + j for j, a in enumerate(s1)]
                v2 = [a + j for j, a in enumerate(s2)]
                if genus == 0:
                    verify = {"genus": 0, "r": r, "d": d, "a1": v1, "a2": v2}
                else:
                    verify = {"genus": 1, "r": r, "d": d, "alpha1": s1, "alpha2": s2, "fixture": fixture}
                stream.append({"command": "oracle-verify", "params": verify})
                stream.append(
                    {"command": "realize", "params": {"genus": genus, "r": r, "d": d, "a1": v1, "a2": v2}}
                )
    rng.shuffle(stream)
    return stream


def check_realize(p, response):
    genus, r, d, a1, a2 = (p[k] for k in ("genus", "r", "d", "a1", "a2"))
    sums = [a1[j] + a2[r - j] for j in range(r + 1)]
    status, payload = response["status"], response["payload"]
    where = f"realize {p}"
    if genus == 0:
        if max(sums) > d:
            return [] if status == "empty" else [f"{where}: expected empty"]
        basis = payload.get("basis") or []
        at0 = span_orders(basis)
        at_inf = span_orders([row[::-1] for row in basis])
        if status != "ok" or at0 != a1 or at_inf != a2:
            return [f"{where}: basis vanishes to {at0}/{at_inf}"]
        if payload["vanishing_at_p1"] != a1 or payload["vanishing_at_p2"] != a2:
            return [f"{where}: reported vanishing differs from the request"]
        return []
    equal_at = [j for j in range(r + 1) if sums[j] == d]
    if max(sums) > d or len(equal_at) >= 2:
        return [] if status == "empty" else [f"{where}: expected empty"]
    a = a1[equal_at[0]] if equal_at else None
    want = {"kind": "special" if equal_at else "generic", "a": a, "d": d}
    if status != "ok" or payload["descriptor"] != want:
        return [f"{where}: descriptor {payload.get('descriptor')} != {want}"]
    if payload["vanishing_p1"] != g1_vanishing(d, a == d) or payload["vanishing_p2"] != g1_vanishing(
        d, a == 0
    ):
        return [f"{where}: wrong vanishing of the complete series"]
    return []


def check_oracle_verify(p, response):
    status, payload = response["status"], response["payload"]
    r, d = p["r"], p["d"]
    where = f"oracle-verify {p}"
    if status not in ("ok", "empty"):
        return [f"{where}: status {status!r}: {response['diagnostics']}"]
    if p["genus"] == 0:
        a1, a2 = p["a1"], p["a2"]
        counts = payload["counts"]
        empty = any(a1[j] + a2[r - j] > d for j in range(r + 1))
        if (status == "empty") != empty or (status == "empty") != all(n == 0 for _, n in counts):
            return [f"{where}: emptiness disagrees with the counts {counts}"]
        if not payload["agree"]:
            return [f"{where}: oracle and formula disagree"]
        if not empty and payload["richardson_dim"] != sum(d - a1[j] - a2[r - j] for j in range(r + 1)):
            return [f"{where}: richardson_dim {payload['richardson_dim']}"]
        if a1 == list(range(r + 1)) == a2:
            want = [[q, gaussian_binomial(d + 1, r + 1, q)] for q in (2, 3, 4)]
            if counts != want:
                return [f"{where}: trivial counts {counts} != {want}"]
        return []
    a1, a2 = p["alpha1"], p["alpha2"]
    if payload["criterion"] != criterion(1, r, d, a1, a2):
        return [f"{where}: criterion {payload['criterion']}"]
    if (status == "ok") != payload["oracle_nonempty"]:
        return [f"{where}: status {status!r} but oracle_nonempty {payload['oracle_nonempty']}"]
    if payload["order_diff"] != FIXTURE_ORDERS[p["fixture"]]:
        return [f"{where}: order_diff {payload['order_diff']}"]
    if p["fixture"] == "general" and payload.get("agree") is not True:
        return [f"{where}: genus-1 oracle disagrees with the criterion"]
    if not any(a1) and not any(a2):
        want = [[q, gaussian_binomial(d, r + 1, q)] for q in (2, 3, 4)]
        for entry in payload["descriptors"]:
            if entry["counts"] != want:
                return [f"{where}: {entry['bundle']} trivial counts {entry['counts']} != {want}"]
    return []


def execute_oracle(stream, rec, env):
    for index, request in enumerate(stream):
        rec.begin(index)
        ns, response, code, text = run_request(rec, request)
        params = request["params"]
        with rec.checking():
            if code != 0:
                problems = [f"{request['command']} {params}: exit {code}: {response['diagnostics']}"]
            elif request["command"] == "realize":
                problems = check_realize(params, response)
            else:
                problems = check_oracle_verify(params, response)
            rec.done(ns, text.encode(), problems)


# -- cli -----------------------------------------------------------------------

# Cold oracle calls, each cheap enough that process start still matters, and how
# many of each.  The 16 genus-0 (1, 4) calls and the four largest sweeps make up
# about a fifth of the stream, so latency_p90_ms falls inside that group of
# similar requests rather than on the edge between it and the rest.
CLI_ORACLE_POINTS = (
    ((0, 1, 3, None), 2),
    ((0, 1, 4, None), 16),
    ((1, 1, 3, "general"), 4),
    ((1, 1, 3, "torsion2"), 4),
)
# (g_max, r_max, d_max, command, alphas) of the streamed sweeps.
CLI_SWEEPS = (
    (3, 1, 4, "check", "all"),
    (2, 2, 5, "check", "all"),
    (4, 1, 4, "chain", "all"),
    (6, 2, 6, "chain", "zero"),
    (5, 1, 5, "check", "zero"),
)


def _flag(value):
    return ",".join(str(x) for x in value) if isinstance(value, list) else str(value)


def cli_argv(request, form):
    """Command-line arguments for a request in 'flags', 'json' or 'stdin' form."""
    if form == "json":
        return ["--json", dump(request)], None
    if form == "stdin":
        return ["--json", "-"], dump(request)
    argv = [request["command"]]
    for key, value in request["params"].items():
        if value is True:
            argv.append(f"--{key}")
        else:
            argv += [f"--{key.replace('_', '-')}", _flag(value)]
    return argv, None


def _cli_problem(rng, g_max, need_nonempty=False):
    while True:
        r = rng.randint(0, 2)
        d = rng.randint(r, 6)
        g = rng.randint(0, g_max)
        params = {"g": g, "r": r, "d": d}
        if rng.random() < 0.7:
            params["alpha1"] = rng.choice(ram_seqs(r, d))
            params["alpha2"] = rng.choice(ram_seqs(r, d))
        a1 = params.get("alpha1", [0] * (r + 1))
        a2 = params.get("alpha2", [0] * (r + 1))
        if not need_nonempty or criterion(g, r, d, a1, a2):
            return params


def _cli_oracle_params(rng, genus, r, d, fixture):
    if genus == 0:
        return {"genus": 0, "r": r, "d": d, "a1": rng.choice(van_seqs(r, d)), "a2": rng.choice(van_seqs(r, d))}
    seqs = ram_seqs(r, d)
    return {"genus": 1, "r": r, "d": d, "alpha1": rng.choice(seqs), "alpha2": rng.choice(seqs), "fixture": fixture}


def cli_stream(rng):
    """102 CLI requests: every command, flag and --json forms, piped verification."""
    units = []
    forms = ("flags", "json", "stdin")

    def single(request):
        units.append([{"request": request, "form": rng.choice(forms)}])

    for command in ("rho", "check"):
        for _ in range(10):
            single({"command": command, "params": _cli_problem(rng, 6)})
    for i in range(12):
        r = rng.randint(0, 3)
        d = rng.randint(r, 8)
        params = {"r": r, "d": d}
        if i % 2:
            params.update(gy=rng.randint(0, 3), gz=rng.randint(0, 3))
            params.update(alpha1=rng.choice(ram_seqs(r, d)), alpha2=rng.choice(ram_seqs(r, d)))
        single({"command": "strata", "params": params})
    for _ in range(12):
        params = _cli_problem(rng, 6, need_nonempty=True)
        build = {"request": {"command": "chain", "params": params}, "form": rng.choice(forms)}
        verify = {"request": {"command": "chain", "params": {**params, "verify": True}}, "form": "pipe"}
        units.append([build, verify])
    for i in range(10):
        genus = i % 2
        r = rng.randint(0, 2)
        d = rng.randint(max(r, 1), 5)
        params = {"genus": genus, "r": r, "d": d, "a1": rng.choice(van_seqs(r, d)), "a2": rng.choice(van_seqs(r, d))}
        single({"command": "realize", "params": params})
    for (genus, r, d, fixture), count in CLI_ORACLE_POINTS:
        for _ in range(count):
            single({"command": "oracle-verify", "params": _cli_oracle_params(rng, genus, r, d, fixture)})
    for g, r, d, command, alphas in CLI_SWEEPS * 2:
        params = {"g_max": g, "r_max": r, "d_max": d, "command": command, "alphas": alphas}
        single({"command": "sweep", "params": params})
    rng.shuffle(units)
    return [item for unit in units for item in unit]


def expected_cli_outputs(stream):
    """Byte-exact stdout and exit code of each request, computed in-process."""
    expected = []
    for item in stream:
        request = item["request"]
        if request["command"] == "sweep":
            lines = bnseries.cli.iter_sweep(request["params"])
            expected.append(("".join(dump(line) + "\n" for line in lines), 0))
            continue
        if item["form"] == "pipe":
            witness = json.loads(expected[-1][0])
            request = {**request, "params": {**request["params"], "witness": witness}}
        response, code = bnseries.cli.run(request)
        expected.append((dump(response) + "\n", code))
    return expected


def execute_cli(stream, rec, env):
    """One `python -m bnseries.cli` process per request, closed loop.

    ``env`` carries the child environment, the interpreter and, in a traced
    pass, the file prefix under which each child writes its spans.
    """
    expected = expected_cli_outputs(stream)
    python, child_env = env["python"], env["env"]
    command = [python, "-m", "bnseries.cli"]
    warm = subprocess.run(command + ["check", "--g", "1", "--r", "1", "--d", "2"], env=child_env, capture_output=True, timeout=60)
    if warm.returncode != 0:
        raise RuntimeError(f"warm-up CLI call failed: {warm.stderr.decode()[-500:]}")
    previous = b""
    for index, (item, (want_text, want_code)) in enumerate(zip(stream, expected)):
        argv, stdin = cli_argv(item["request"], item["form"])
        if item["form"] == "pipe":
            argv, stdin = cli_argv(item["request"], "flags")[0], previous
        elif stdin is not None:
            stdin = stdin.encode()
        run_command = command
        if env.get("trace_prefix"):
            run_command = [python, env["child_script"], f"{env['trace_prefix']}-req{index:03d}"]
        t0 = perf_counter_ns()
        proc = subprocess.run(run_command + argv, input=stdin or b"", env=child_env, capture_output=True, timeout=60)
        ns = perf_counter_ns() - t0
        previous = proc.stdout
        problems = []
        if proc.returncode != want_code:
            problems.append(f"cli {argv}: exit {proc.returncode}, expected {want_code}: {proc.stderr.decode()[-300:]}")
        elif proc.stdout != want_text.encode():
            problems.append(f"cli {argv}: stdout differs from the in-process answer")
        rec.done(ns, proc.stdout, problems)


# -- entry points --------------------------------------------------------------

STREAMS = {"sweep": sweep_stream, "strata": strata_stream, "oracle": oracle_stream, "cli": cli_stream}
EXECUTORS = {"sweep": execute_sweep, "strata": execute_strata, "oracle": execute_oracle, "cli": execute_cli}


def make_stream(workload, seed):
    return STREAMS[workload](random.Random(f"{workload}:{seed}"))


def execute(workload, stream, rec, env):
    EXECUTORS[workload](stream, rec, env)
