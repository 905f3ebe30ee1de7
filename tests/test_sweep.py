"""``iter_sweep`` against a per-point reference, and the work a sweep does.

The reference answers each grid point on its own, as the ``check`` and
``chain`` commands do: ``problem()`` builds it and ``build_chain`` builds its
chain without tails.  The grids cover r = 1 over d = 2..6, where one entry
tuple is a valid sequence under several d, so chains looked up under a key
without d would come from the wrong context.
"""

from collections import Counter

import pytest

from bnseries import chains, core
from bnseries.chains import build_chain, tail_key, witness_to_dict
from bnseries.cli import iter_sweep
from bnseries.core import BNProblem, all_ram_seqs, nonempty_criterion, problem, rho, zero_ram

GRIDS = [{"g_max": 5, "r_max": 1, "d_max": 6}, {"g_max": 4, "r_max": 2, "d_max": 5}]


def grid_points(grid, alphas):
    for g in range(grid["g_max"] + 1):
        for d in range(grid["d_max"] + 1):
            for r in range(min(grid["r_max"], d) + 1):
                seqs = [zero_ram(r, d)] if alphas == "zero" else list(all_ram_seqs(r, d))
                for a1 in seqs:
                    for a2 in seqs:
                        yield {"g": g, "r": r, "d": d, "alpha1": list(a1), "alpha2": list(a2)}


def reference(point, command):
    p = problem(**point)
    if command == "check":
        return "ok", {"nonempty": nonempty_criterion(p), "rho": rho(p)}
    w = build_chain(p)
    if w is None:
        return "empty", {"nonempty": False, "rho": rho(p)}
    return "ok", witness_to_dict(w)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda grid: "-".join(map(str, grid.values())))
@pytest.mark.parametrize("alphas", ["zero", "all"])
@pytest.mark.parametrize("command", ["chain", "check"])
def test_sweep_matches_per_point_reference(grid, alphas, command):
    lines = list(iter_sweep({**grid, "command": command, "alphas": alphas}))
    assert [line["params"] for line in lines] == list(grid_points(grid, alphas))
    for line in lines:
        assert (line["status"], line["payload"]) == reference(line["params"], command)


def test_build_chain_on_tails_equals_build_chain():
    tails = {}
    for g in range(6):
        layer = {}
        for d in range(2, 7):
            for r in (0, 1):
                for a1 in all_ram_seqs(r, d):
                    for a2 in all_ram_seqs(r, d):
                        p = BNProblem(g, r, d, a1, a2)
                        w = build_chain(p, tails)
                        assert w == build_chain(p), p
                        if w is not None:
                            layer[tail_key(g, d, a1.entries, a2.entries)] = w.components
        tails = layer


def test_sweep_work_counts(monkeypatch):
    # Counts, not timings: a chain is one split on the previous genus's chain,
    # and only a nonempty point builds a BNProblem.
    counts = Counter()
    split_once = chains.split_once
    init = core.BNProblem.__init__

    def counted_split(p):
        counts["split_once"] += 1
        return split_once(p)

    def counted_init(self, *args):
        counts["BNProblem"] += 1
        init(self, *args)

    monkeypatch.setattr(chains, "split_once", counted_split)
    monkeypatch.setattr(core.BNProblem, "__init__", counted_init)
    params = {"g_max": 6, "r_max": 2, "d_max": 5, "command": "chain", "alphas": "all"}
    lines = list(iter_sweep(params))
    nonempty = [line["params"]["g"] for line in lines if line["status"] == "ok"]
    assert counts["split_once"] <= sum(g >= 2 for g in nonempty)
    assert counts["BNProblem"] <= len(nonempty) < len(lines) / 2
