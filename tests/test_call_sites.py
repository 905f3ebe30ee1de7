"""The library calls that the benchmark's tracer counts still happen, once each.

The tracer (``perfbench/spans.py``) replaces module globals such as
``cli.enumerate_refined_strata``, ``chains.split_once`` and
``oracle.dim_fit`` with counting wrappers, so a per-layer count reads 0
if a refactor stops calling one of them through that global.  These tests
install the same kind of wrapper and check the counts on one request of
each traced kind, and check that the tracer itself still installs.
"""

import importlib
import inspect
from math import comb
from pathlib import Path

import pytest

from bnseries import chains, cli, oracle
from bnseries.cli import iter_sweep, run


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_yields(monkeypatch, module, name):
    items = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        for item in original(*args, **kwargs):
            items.append(item)
            yield item

    monkeypatch.setattr(module, name, counted)
    return items


@pytest.mark.parametrize("params", [{"r": 2, "d": 6}, {"r": 2, "d": 6, "gy": 1, "gz": 2}])
def test_strata_yields_once_per_stratum(params, monkeypatch):
    strata = _count_yields(monkeypatch, cli, "enumerate_refined_strata")
    response, code = run({"command": "strata", "params": params})
    assert code == 0
    assert len(strata) == response["payload"]["count"] == comb(7, 3)


def test_strata_scan_stays_a_generator_function_the_tracer_counts(monkeypatch):
    # The tracer counts strata.scanned by the yields of a generator function.
    # A plain function returning an iterator (a zip, say) still passes
    # _count_yields, but the tracer would count no stratum.
    assert inspect.isgeneratorfunction(cli.enumerate_refined_strata)
    calls = _count_calls(monkeypatch, cli, "enumerate_refined_strata")
    response, code = run({"command": "strata", "params": {"r": 2, "d": 6, "gy": 1, "gz": 2}})
    assert code == 0 and calls == [(2, 6)]
    monkeypatch.undo()
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("spans").Tracer()
    tracer.install()
    try:
        traced, code = run({"command": "strata", "params": {"r": 2, "d": 6, "gy": 1, "gz": 2}})
    finally:
        tracer.uninstall()
    assert (traced, code) == (response, 0)
    assert tracer.raw()["scanned"] == comb(7, 3)


def test_sweep_splits_once_per_nonempty_point_of_genus_two_or_more(monkeypatch):
    splits = _count_calls(monkeypatch, chains, "split_once")
    built = _count_calls(monkeypatch, cli, "build_chain")
    lines = list(iter_sweep({"g_max": 4, "r_max": 1, "d_max": 4, "command": "chain", "alphas": "all"}))
    nonempty = [line["params"]["g"] for line in lines if line["status"] == "ok"]
    assert len(built) == len(nonempty)
    assert len(splits) == sum(g >= 2 for g in nonempty) > 0


@pytest.mark.parametrize(
    "params, profiles, built",
    [
        ({"genus": 0, "r": 1, "d": 3, "a1": [0, 1], "a2": [0, 2]}, 1, 1),
        ({"genus": 1, "r": 1, "d": 3, "alpha1": [0, 1], "alpha2": [0, 0]}, 3 + 2, 3 + 2),
        # ord(P1 - P2) = 2 makes special(0) and special(2) one profile
        ({"genus": 1, "r": 0, "d": 2, "alpha1": [1], "alpha2": [1], "fixture": "torsion2"}, 2 + 2, 3),
    ],
)
def test_oracle_builds_one_histogram_per_profile_and_reads_each_degree(params, profiles, built, monkeypatch):
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    histograms = _count_calls(monkeypatch, oracle, "_rank_count_histogram")
    fits = [_count_calls(monkeypatch, module, "dim_fit") for module in (cli, oracle)]
    response, code = run({"command": "oracle-verify", "params": params})
    assert code == 0, response
    assert len(histograms) == len({args[1].orders for args in histograms}) == built
    assert sum(map(len, fits)) == profiles


@pytest.mark.parametrize(
    "params",
    [
        {"genus": 0, "r": 1, "d": 3, "a1": [0, 1], "a2": [0, 2]},
        {"genus": 1, "r": 1, "d": 3, "alpha1": [0, 1], "alpha2": [0, 0]},
        {"genus": 1, "r": 0, "d": 0, "alpha1": [0], "alpha2": [0]},
    ],
)
def test_oracle_runs_the_subspace_gate_once_per_request(params, monkeypatch):
    gates = [
        _count_calls(monkeypatch, module, "refuse_subspaces_over_budget")
        for module in (cli, oracle)
        if hasattr(module, "refuse_subspaces_over_budget")
    ]
    response, code = run({"command": "oracle-verify", "params": params})
    assert code == 0, response
    assert sum(map(len, gates)) == 1


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    before = {name: getattr(oracle, name) for name in ("count_series", "dim_fit")}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert oracle.dim_fit is not before["dim_fit"]
        response, code = run({"command": "oracle-verify", "params": {"genus": 0, "r": 1, "d": 3}})
    finally:
        tracer.uninstall()
    assert {name: getattr(oracle, name) for name in before} == before
    assert (response, code) == run({"command": "oracle-verify", "params": {"genus": 0, "r": 1, "d": 3}})


def test_benchmark_tracer_counts_a_count_series_call(monkeypatch):
    # the tracer's count_series hook reads the profile's table, so this fails
    # when a refactor breaks the hook as well as when it stops the count
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        count = oracle.count_series(2, oracle.profile_complementary(3), 0, (1,), (1,))
    finally:
        tracer.uninstall()
    assert count == 1
    assert tracer.raw()["count_calls"] == 1
