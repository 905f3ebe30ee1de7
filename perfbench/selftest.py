"""The benchmark's own tests: deterministic streams, repeatable counts, work invariants.

usage: python3 perfbench/selftest.py      (from the root of a source checkout;
                                           about a minute on two cores)

Each workload runs twice traced and twice untraced with one seed, each pass
in a fresh interpreter as in a benchmark run.  Every count, the stream digest
and the output digest must repeat exactly, and the per-layer work counts must
match sizes the benchmark derives from the requests it generated.
"""

import os
import sys
import time
import unittest
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7
_passes = {}


def passes(workload):
    """Two untraced then two traced passes of the workload, run once per test run."""
    if workload not in _passes:
        env = run.child_env()
        deadline = time.perf_counter() + 600
        os.makedirs(run.OUT, exist_ok=True)
        _passes[workload] = [
            run.run_worker(env, deadline, workload, SEED, traced, index)
            for index, traced in enumerate((False, False, True, True))
        ]
    return _passes[workload]


def g1_profile(d, a, order):
    """The genus-1 flag profile h(k1, k2) of bundle O(a P1 + (d - a) P2) (a None: generic)."""
    rows = []
    for k1 in range(d + 1):
        row = []
        for k2 in range(d + 1):
            e = d - k1 - k2
            row.append(e if e > 0 else int(e == 0 and a is not None and (a - k1) % order == 0))
        rows.append(tuple(row))
    return tuple(rows)


class StreamTest(unittest.TestCase):
    def test_stream_depends_only_on_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.make_stream(workload, 11)
                self.assertEqual(first, workloads.make_stream(workload, 11))
                self.assertNotEqual(first, workloads.make_stream(workload, 12))

    def test_cli_stream_has_at_least_100_requests_and_every_command(self):
        stream = workloads.make_stream("cli", SEED)
        self.assertGreaterEqual(len(stream), 100)
        commands = {item["request"]["command"] for item in stream}
        self.assertEqual(commands, {"rho", "check", "strata", "chain", "realize", "oracle-verify", "sweep"})
        self.assertEqual({item["form"] for item in stream}, {"flags", "json", "stdin", "pipe"})

    def test_gaussian_binomial(self):
        self.assertEqual(workloads.gaussian_binomial(6, 3, 4), 376805)
        self.assertEqual(workloads.gaussian_binomial(7, 2, 4), 1490853)
        self.assertEqual(workloads.gaussian_binomial(5, 0, 3), 1)


class RepeatTest(unittest.TestCase):
    def test_digests_and_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                results = passes(workload)
                for result in results:
                    self.assertEqual(result["failed"], 0, result["failures"])
                for key in ("stream_digest", "output_digest", "output_bytes", "attempted"):
                    self.assertEqual(len({result[key] for result in results}), 1, key)
                traced = [result["layers"] for result in results[2:]]
                for name in spans.COUNTS:
                    self.assertEqual(traced[0][name], traced[1][name], name)
                self.assertEqual(traced[0]["cli.output_bytes"], results[0]["output_bytes"])


class InvariantTest(unittest.TestCase):
    def layers(self, workload):
        return passes(workload)[2]["layers"]

    def test_strata_scanned(self):
        stream = workloads.make_stream("strata", SEED)
        want = sum(comb(req["params"]["d"] + 1, req["params"]["r"] + 1) for req in stream)
        self.assertEqual(self.layers("strata")["strata.scanned"], want)

    def test_chain_splits_and_built(self):
        splits = built = 0
        for params in workloads.make_stream("sweep", SEED):
            for g in range(params["g_max"] + 1):
                for d in range(params["d_max"] + 1):
                    for r in range(min(params["r_max"], d) + 1):
                        seqs = workloads.ram_seqs(r, d)
                        nonempty = sum(workloads.criterion(g, r, d, a1, a2) for a1 in seqs for a2 in seqs)
                        built += nonempty
                        splits += nonempty * max(g - 1, 0)
        layers = self.layers("sweep")
        self.assertEqual(layers["chains.splits"], splits)
        self.assertEqual(layers["chains.built"], built)

    def test_gf_subspaces_match_histograms_built(self):
        keys = set()
        verify_calls = {0: 0, 1: 0}
        for request in workloads.make_stream("oracle", SEED):
            if request["command"] != "oracle-verify":
                continue
            p = request["params"]
            r, d = p["r"], p["d"]
            verify_calls[p["genus"]] += d + 2 if p["genus"] else 1
            for q in (2, 3, 4):
                if p["genus"] == 0:
                    n = d + 1
                    table = tuple(tuple(max(0, n - k1 - k2) for k2 in range(n + 1)) for k1 in range(n + 1))
                    keys.add((q, n, r + 1, table))
                else:
                    order = workloads.FIXTURE_ORDERS[p["fixture"]]
                    for a in [None, *range(d + 1)]:
                        keys.add((q, d, r + 1, g1_profile(d, a, order)))
        layers = self.layers("oracle")
        self.assertEqual(layers["oracle.histograms_built"], len(keys))
        self.assertEqual(
            layers["gf.subspaces"],
            sum(workloads.gaussian_binomial(n, k, q) for q, n, k, _ in keys),
        )
        self.assertEqual(layers["oracle.count_calls"], 3 * (verify_calls[0] + verify_calls[1]))
        self.assertEqual(layers["oracle.refusals"], 0)

    def test_layers_without_work_stay_idle(self):
        for workload in ("sweep", "strata"):
            layers = self.layers(workload)
            for name in ("gf.subspaces", "oracle.count_calls", "realize.calls", "elliptic.calls"):
                self.assertEqual(layers[name], 0, (workload, name))
        self.assertEqual(self.layers("sweep")["strata.scanned"], 0)
        self.assertEqual(self.layers("oracle")["chains.splits"], 0)


if __name__ == "__main__":
    unittest.main()
