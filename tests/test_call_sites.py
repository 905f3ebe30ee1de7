"""The library calls that the benchmark's tracer counts still happen, once each.

The tracer (``perfbench/spans.py``) replaces module globals such as
``cli.enumerate_refined_strata``, ``chains.split_once`` and
``oracle.count_series`` with counting wrappers, so a per-layer count reads 0
if a refactor stops calling one of them through that global.  These tests
install the same kind of wrapper and check the counts on one request of
each traced kind.
"""

from math import comb

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


def test_sweep_splits_once_per_nonempty_point_of_genus_two_or_more(monkeypatch):
    splits = _count_calls(monkeypatch, chains, "split_once")
    built = _count_calls(monkeypatch, cli, "build_chain")
    lines = list(iter_sweep({"g_max": 4, "r_max": 1, "d_max": 4, "command": "chain", "alphas": "all"}))
    nonempty = [line["params"]["g"] for line in lines if line["status"] == "ok"]
    assert len(built) == len(nonempty)
    assert len(splits) == sum(g >= 2 for g in nonempty) > 0


@pytest.mark.parametrize(
    "params, calls",
    [
        ({"genus": 0, "r": 1, "d": 3, "a1": [0, 1], "a2": [0, 2]}, 3),
        ({"genus": 1, "r": 1, "d": 3, "alpha1": [0, 1], "alpha2": [0, 0]}, 3 * (3 + 2)),
        ({"genus": 1, "r": 0, "d": 2, "alpha1": [1], "alpha2": [1], "fixture": "torsion2"}, 3 * (2 + 2)),
    ],
)
def test_oracle_counts_three_fields_per_profile(params, calls, monkeypatch):
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    counted = _count_calls(monkeypatch, oracle, "count_series")
    response, code = run({"command": "oracle-verify", "params": params})
    assert code == 0, response
    assert len(counted) == calls
    assert [args[0] for args in counted] == [2, 3, 4] * (calls // 3)
