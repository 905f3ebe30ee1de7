import math
from collections import Counter
from functools import cache
from itertools import product
from operator import add, and_, itemgetter

import pytest

from bnseries import core
from bnseries.cli import run
from bnseries.core import BNProblem, RamSeq, all_ram_seqs, nonempty_criterion, rho, zero_ram
from bnseries.strata import (
    Stratum,
    TwoComponentProblem,
    component_problems,
    eh_compatible,
    eh_nonempty_two_component,
    enumerate_refined_strata,
    fiber_dim_bound,
    glued_problem,
    refined_complement,
    stratum_expected_dim,
)


def test_compatibility_examples():
    assert eh_compatible(RamSeq((1, 1), 3), RamSeq((1, 1), 3))
    assert not eh_compatible(RamSeq((0, 0), 3), RamSeq((0, 0), 3))
    assert eh_compatible(RamSeq((1, 1), 3), RamSeq((1, 2), 3))


def test_refined_complement_examples():
    assert refined_complement(RamSeq((0, 1), 3)).entries == (1, 2)
    assert refined_complement(RamSeq((2, 2), 3)).entries == (0, 0)
    assert refined_complement(RamSeq((1, 1), 3)).entries == (1, 1)


def test_refined_complement_is_involution():
    for d in range(7):
        for r in range(0, min(2, d) + 1):
            for alpha in all_ram_seqs(r, d):
                assert refined_complement(refined_complement(alpha)) == alpha


def test_stratum_rejects_incompatible_pairs():
    with pytest.raises(ValueError):
        Stratum(RamSeq((0, 0), 3), RamSeq((0, 0), 3))


def test_refined_strata_counts():
    assert len(list(enumerate_refined_strata(1, 3))) == 6
    assert len(list(enumerate_refined_strata(0, 1))) == 2
    assert len(list(enumerate_refined_strata(3, 3))) == 1
    for d in range(7):
        for r in range(0, min(2, d) + 1):
            strata = list(enumerate_refined_strata(r, d))
            assert len(strata) == math.comb(d + 1, r + 1)
            for alpha_y, alpha_z in strata:
                s = Stratum(RamSeq(alpha_y, d), RamSeq(alpha_z, d))
                assert s.refined
                assert fiber_dim_bound(s) == 0


def test_enumerate_refined_strata_yields_complementary_entry_tuples():
    for d in range(9):
        for r in range(min(3, d) + 1):
            assert list(enumerate_refined_strata(r, d)) == [
                (a.entries, refined_complement(a).entries) for a in all_ram_seqs(r, d)
            ]


def test_fiber_bound_examples():
    assert fiber_dim_bound(Stratum(RamSeq((1, 1), 3), RamSeq((1, 2), 3))) == 1
    # excess 2 at each of the two indices
    assert fiber_dim_bound(Stratum(RamSeq((2, 2), 3), RamSeq((2, 2), 3))) == 4


def test_fiber_bound_positive_iff_not_refined():
    for d in range(6):
        for r in range(0, min(2, d) + 1):
            seqs = list(all_ram_seqs(r, d))
            for ay, az in product(seqs, repeat=2):
                if not eh_compatible(ay, az):
                    continue
                s = Stratum(ay, az)
                bound = fiber_dim_bound(s)
                assert bound >= 0
                assert (bound == 0) == s.refined


def test_stratum_expected_dim_example():
    p = TwoComponentProblem(1, 2, 1, 3, zero_ram(1, 3), zero_ram(1, 3))
    s = Stratum(RamSeq((1, 1), 3), RamSeq((1, 1), 3))
    p_y, p_z = component_problems(p, s)
    assert rho(p_y) == 1
    assert rho(p_z) == 0
    assert stratum_expected_dim(p, s) == 1
    # refined stratum: expected dim equals rho of the glued problem
    assert stratum_expected_dim(p, s) == rho(glued_problem(p))


def test_stratum_expected_dim_degenerate_range():
    # d = r: the zero pair is the only stratum and everything is rigid
    p = TwoComponentProblem(0, 0, 2, 2, zero_ram(2, 2), zero_ram(2, 2))
    ((alpha_y, alpha_z),) = enumerate_refined_strata(2, 2)
    s = Stratum(RamSeq(alpha_y, 2), RamSeq(alpha_z, 2))
    assert stratum_expected_dim(p, s) == 0


def test_bookkeeping_identity_small_grid():
    marked = {
        (1, 3): [((0, 0), (0, 0)), ((0, 1), (1, 1))],
        (0, 2): [((0,), (0,)), ((1,), (2,))],
    }
    for (r, d), pairs in marked.items():
        seqs = list(all_ram_seqs(r, d))
        for a1_entries, a2_entries in pairs:
            a1, a2 = RamSeq(a1_entries, d), RamSeq(a2_entries, d)
            for gy, gz in product(range(3), repeat=2):
                p = TwoComponentProblem(gy, gz, r, d, a1, a2)
                target = rho(glued_problem(p))
                for ay, az in product(seqs, repeat=2):
                    if eh_compatible(ay, az):
                        s = Stratum(ay, az)
                        assert stratum_expected_dim(p, s) + fiber_dim_bound(s) == target


def test_eh_nonempty_examples():
    # both-sided imposed ramification kills the glued genus-2 problem
    p = TwoComponentProblem(1, 1, 1, 2, RamSeq((0, 1), 2), RamSeq((0, 1), 2))
    assert not eh_nonempty_two_component(p, nonempty_criterion)
    assert not nonempty_criterion(glued_problem(p))

    p = TwoComponentProblem(1, 2, 1, 3, zero_ram(1, 3), zero_ram(1, 3))
    assert eh_nonempty_two_component(p, nonempty_criterion)
    # the witness stratum is the self-complementary one
    s = Stratum(RamSeq((1, 1), 3), RamSeq((1, 1), 3))
    p_y, p_z = component_problems(p, s)
    assert nonempty_criterion(p_y) and nonempty_criterion(p_z)


def test_eh_nonempty_zero_node_pair_incompatible():
    # maximal marked ramification forces zero node sequences on both sides,
    # which are incompatible as soon as d > r
    top = RamSeq((2, 2), 3)
    p = TwoComponentProblem(0, 0, 1, 3, top, top)
    assert not eh_compatible(zero_ram(1, 3), zero_ram(1, 3))
    assert not eh_nonempty_two_component(p, nonempty_criterion)
    # for d = r the zero pair is the unique (compatible) stratum
    assert eh_compatible(zero_ram(1, 1), zero_ram(1, 1))
    p_eq = TwoComponentProblem(0, 0, 1, 1, zero_ram(1, 1), zero_ram(1, 1))
    assert eh_nonempty_two_component(p_eq, nonempty_criterion)


def test_eh_nonempty_matches_glued_criterion():
    for gy, gz in product(range(3), repeat=2):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                seqs = list(all_ram_seqs(r, d))
                for a1 in seqs:
                    for a2 in seqs:
                        p = TwoComponentProblem(gy, gz, r, d, a1, a2)
                        assert eh_nonempty_two_component(
                            p, nonempty_criterion
                        ) == nonempty_criterion(glued_problem(p)), p


def test_injected_oracle_is_used():
    p = TwoComponentProblem(1, 2, 1, 3, zero_ram(1, 3), zero_ram(1, 3))
    assert not eh_nonempty_two_component(p, lambda _: False)
    assert eh_nonempty_two_component(p, lambda _: True)


def test_refined_is_exact_complementarity_on_every_compatible_pair():
    for d in range(6):
        for r in range(d + 1):
            seqs = list(all_ram_seqs(r, d))
            for ay, az in product(seqs, repeat=2):
                if eh_compatible(ay, az):
                    s = Stratum(ay, az)
                    assert s.refined == (s.alpha_z == refined_complement(s.alpha_y))


def _strata_requests():
    """Every r <= 3, d <= 8: plain, and with (gy, gz) in {0,1,2}^2 and the
    first, middle and last sequences as alpha1 and alpha2.  At r <= 2, d <= 5
    every pair of sequences, with (gy, gz) in {0,1,2,3}^2."""
    for d in range(9):
        for r in range(min(3, d) + 1):
            yield {"r": r, "d": d}
            seqs = list(all_ram_seqs(r, d))
            picks = sorted({seqs[0], seqs[len(seqs) // 2], seqs[-1]}, key=lambda a: a.entries)
            genera = range(3)
            if r <= 2 and d <= 5:
                picks, genera = seqs, range(4)
            for gy, gz in product(genera, repeat=2):
                for a1, a2 in product(picks, repeat=2):
                    yield {"r": r, "d": d, "gy": gy, "gz": gz, "alpha1": list(a1), "alpha2": list(a2)}


_BASE_KEYS = itemgetter("alpha_y", "alpha_z", "fiber_bound", "refined")


def test_strata_payload_matches_the_object_api():
    # The object API's answers are memoized per (r, d), per component side and
    # per glued problem, and each payload is compared a column at a time, so
    # the exhaustive pairs stay cheap.
    @cache
    def base(r, d):
        strata = [Stratum(a, refined_complement(a)) for a in all_ram_seqs(r, d)]
        rows = [(list(s.alpha_y), list(s.alpha_z), fiber_dim_bound(s), s.refined) for s in strata]
        return strata, rows

    @cache
    def side(g, alpha, on_y):  # Y's answers depend on (gy, alpha1) only, Z's on (gz, alpha2)
        r, d = alpha.r, alpha.d
        two = TwoComponentProblem(g, 0, r, d, alpha, alpha) if on_y else TwoComponentProblem(0, g, r, d, alpha, alpha)
        problems = [component_problems(two, s)[0 if on_y else 1] for s in base(r, d)[0]]
        return list(map(rho, problems)), list(map(nonempty_criterion, problems))

    @cache
    def glued(g, a1, a2):  # the glued problem depends on gy + gz only
        two = TwoComponentProblem(g, 0, a1.r, a1.d, a1, a2)
        p = glued_problem(two)
        assert stratum_expected_dim(two, base(a1.r, a1.d)[0][0]) == rho(p)
        return rho(p), nonempty_criterion(p)

    ram_seq = cache(RamSeq)
    for params in _strata_requests():
        response, code = run({"command": "strata", "params": params})
        assert code == 0, params
        payload = response["payload"]
        r, d = params["r"], params["d"]
        entries = payload["strata"]
        assert payload["count"] == len(entries) == math.comb(d + 1, r + 1)
        assert list(map(_BASE_KEYS, entries)) == base(r, d)[1], params
        if "gy" not in params:
            assert list(map(len, entries)) == [4] * len(entries)
            continue
        gy, gz = params["gy"], params["gz"]
        a1, a2 = ram_seq(tuple(params["alpha1"]), d), ram_seq(tuple(params["alpha2"]), d)
        (rho_y, y_ok), (rho_z, z_ok) = side(gy, a1, True), side(gz, a2, False)
        glued_rho, glued_nonempty = glued(gy + gz, a1, a2)
        assert payload["glued_rho"] == glued_rho
        assert list(map(len, entries)) == [7] * len(entries)
        assert list(map(itemgetter("expected_dim"), entries)) == list(map(add, rho_y, rho_z)), params
        assert list(map(itemgetter("y_nonempty"), entries)) == y_ok, params
        assert list(map(itemgetter("z_nonempty"), entries)) == z_ok, params
        assert payload["nonempty"] == any(map(and_, y_ok, z_ok)) == glued_nonempty


def _counter(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_strata_scan_work_counts(monkeypatch):
    # Counts, not timings: the scan reads entry tuples, so no stratum builds a
    # sequence, a Stratum or a BNProblem, and the rebuilds it once made cannot return.
    # Each component criterion is a lookup in one of two tables of d - r + 1
    # columns, one gaps call a column, so no stratum calls criterion_excess.
    from bnseries import cli

    built = Counter()

    def count(cls, method):
        original = getattr(cls, method)

        def counted(self, *args, **kwargs):
            built[cls.__name__] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    count(core._Seq, "__init__")
    count(BNProblem, "__init__")
    count(Stratum, "__init__")
    gaps = _counter(monkeypatch, core, "gaps")
    tables = _counter(monkeypatch, cli, "criterion_table")
    excess = [_counter(monkeypatch, module, "criterion_excess") for module in (core, cli)]
    params = {"r": 4, "d": 10, "gy": 1, "gz": 2, "alpha1": [0, 0, 1, 1, 2], "alpha2": [0, 1, 1, 2, 2]}
    response, code = run({"command": "strata", "params": params})
    assert code == 0
    strata = response["payload"]["count"]
    assert strata == math.comb(11, 5)
    # the request's alpha1 and alpha2 are the only sequences
    assert built["_Seq"] <= 2
    assert built["Stratum"] == 0
    # the glued problem, parsed once
    assert built["BNProblem"] == 1
    assert len(tables) == 2
    assert len(gaps) == 2 * (10 - 4 + 1)
    assert excess == [[], []]
    for r, d in ((0, 0), (1, 4), (2, 13), (6, 13)):
        del gaps[:], tables[:]
        params = {"r": r, "d": d, "gy": 3, "gz": 0, "alpha1": [0] * (r + 1), "alpha2": [d - r] * (r + 1)}
        response, code = run({"command": "strata", "params": params})
        assert code == 0 and response["payload"]["count"] == math.comb(d + 1, r + 1)
        assert (len(tables), len(gaps), excess) == (2, 2 * (d - r + 1), [[], []])
    # a request refused by the budget builds no table
    del gaps[:], tables[:]
    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    response, code = run({"command": "strata", "params": {"r": 1, "d": 5, "gy": 1, "gz": 1}})
    assert code == 2 and response["diagnostics"][0].startswith("InfeasibleSize")
    assert tables == gaps == []


def _no_strata(r, d):
    raise AssertionError("strata enumerated past the budget check")


def test_eh_nonempty_refuses_over_budget_before_the_first_stratum(monkeypatch):
    from bnseries import strata
    from bnseries.core import InfeasibleSize

    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    fits = TwoComponentProblem(1, 1, 1, 4, zero_ram(1, 4), zero_ram(1, 4))  # C(5, 2) = 10 strata
    assert eh_nonempty_two_component(fits, nonempty_criterion)
    monkeypatch.setattr(strata, "enumerate_refined_strata", _no_strata)
    over = TwoComponentProblem(1, 1, 1, 5, zero_ram(1, 5), zero_ram(1, 5))  # C(6, 2) = 15
    message = "enumeration of 15 strata exceeds the budget of 10"
    with pytest.raises(InfeasibleSize, match=message):
        eh_nonempty_two_component(over, nonempty_criterion)
    response, _ = run({"command": "strata", "params": {"r": 1, "d": 5, "gy": 1, "gz": 1}})
    assert response["diagnostics"] == [f"InfeasibleSize: {message}"]
