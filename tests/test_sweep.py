"""``iter_sweep`` against a per-point reference, and the work a sweep does.

The reference answers each grid point on its own, as the ``check`` and
``chain`` commands do: ``problem()`` builds it and ``build_chain`` builds its
whole chain.  The grids cover r = 1 over d = 2..6, where one entry tuple is
a valid sequence under several d, so chains looked up under a key without d
would come from the wrong context.  The ``zero`` grids take the sweep's
``chains._chain_entries`` path for residuals off the grid.
"""

from collections import Counter

import pytest

from bnseries import chains, cli, core
from bnseries.chains import build_chain, witness_to_dict
from bnseries.cli import _dump, iter_sweep
from bnseries.core import all_ram_seqs, nonempty_criterion, problem, rho, zero_ram
from bnseries.strata import complement_entries

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


def test_a_chain_line_ends_with_the_line_of_its_residual_one_genus_earlier():
    # A genus-g chain is one genus-1 component and then the chain of the
    # residual problem (alpha_z, alpha2), which the previous genus layer of
    # the sweep has already answered.
    previous, layer, reused = {}, {}, 0
    for line in iter_sweep({"g_max": 5, "r_max": 1, "d_max": 6, "command": "chain", "alphas": "all"}):
        point = line["params"]
        g, d, r, alpha2 = point["g"], point["d"], point["r"], tuple(point["alpha2"])
        if (d, r) == (0, 0):  # the one point at d = 0 opens a genus layer
            previous, layer = layer, {}
        if line["status"] != "ok":
            continue
        first, *rest = components = line["payload"]["components"]
        layer[d, tuple(point["alpha1"]), alpha2] = components
        if g >= 2:
            alpha_z = complement_entries(tuple(first["right"]), d - r)
            assert rest == previous[d, alpha_z, alpha2], point
            assert first == witness_to_dict(build_chain(problem(**point)))["components"][0]
            reused += 1
    assert reused == 951


def _scramble(obj):
    """Change every list and dict inside obj, innermost first."""
    if isinstance(obj, dict):
        for value in obj.values():
            _scramble(value)
        obj["scrambled"] = True
    elif isinstance(obj, list):
        for value in obj:
            _scramble(value)
        obj.reverse()
        obj.append(-1)


@pytest.mark.parametrize("alphas", ["zero", "all"])
def test_lines_share_no_mutable_object(alphas):
    # a consumer may change a line it was given: no later line may change with it
    params = {"g_max": 5, "r_max": 2, "d_max": 5, "command": "chain", "alphas": alphas}
    fresh = [_dump(line) for line in iter_sweep(params)]
    seen = []
    for line in iter_sweep(params):
        seen.append(_dump(line))
        _scramble(line)
    assert seen == fresh


def test_sweep_work_counts(monkeypatch):
    # Counts, not timings, line by line: a nonempty point of genus g >= 2 is
    # one split, on the previous genus's chains, and no point builds a
    # problem, a component, a witness or a sequence.
    counts = Counter()
    split_once = chains.split_once

    def counted_split(*args):
        counts["split_once"] += 1
        return split_once(*args)

    monkeypatch.setattr(chains, "split_once", counted_split)
    for cls in (core.BNProblem, core.RamSeq, chains.ChainComponent, chains.ChainWitness):
        def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    params = {"g_max": 6, "r_max": 2, "d_max": 5, "command": "chain", "alphas": "all"}
    splits = 0
    for line in iter_sweep(params):
        want = line["status"] == "ok" and line["params"]["g"] >= 2
        assert counts == Counter(split_once=splits + want), line["params"]
        splits += want
    assert splits == 605


@pytest.mark.parametrize("command", ["check", "chain"])
def test_a_zero_sweep_does_constant_criterion_work_per_point(command, monkeypatch):
    # A 'zero' grid has one point per alpha1 row, so a criterion table of
    # (r + 1)(d - r + 1) entries per row would make this grid quadratic in d_max.
    work = Counter()
    gaps, table = core.gaps, core.criterion_table

    def counted_gaps(x, y, bound):
        work["gaps entries"] += len(x)
        return gaps(x, y, bound)

    def counted_table(*args):
        rows = table(*args)
        work["table entries"] += sum(map(len, rows))
        return rows

    monkeypatch.setattr(core, "gaps", counted_gaps)
    monkeypatch.setattr(cli, "criterion_table", counted_table)
    lines = list(iter_sweep({"g_max": 1, "r_max": 0, "d_max": 2000, "command": command, "alphas": "zero"}))
    assert len(lines) == 2 * 2001
    assert work == Counter({"gaps entries": len(lines)})
