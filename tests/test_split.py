"""``split_once``: its choice against the candidate family it replaces, and its work.

``split_once`` returns the node's entry tuples, never ``RamSeq``s.  The
reference builds the whole family of node candidates, sorted and
deduplicated, and tests each on both sides with ``criterion_excess``: O(r)
candidates of O(r) entries each.  ``split_once`` must pick the same first
valid candidate from its O(r) scan.  The work tests count calls, not time,
and clear the memo first.
"""

from itertools import combinations_with_replacement, islice

import pytest

from bnseries import chains, core
from bnseries.chains import ConstructionFailed, split_once
from bnseries.cli import iter_sweep
from bnseries.core import RamSeq, criterion_excess, problem
from bnseries.strata import complement_entries

MEMOS = (chains._genus1_side,)


@pytest.fixture
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def reference_candidates(r, d, alpha1):
    """Node entry tuples alpha_y, lexicographically ordered.

    Family: per-slot base value d - r - 1 - alpha1[r - k] clamped to >= 0,
    plus the variants with exactly one slot raised to d - r - alpha1[r - k],
    each sorted into nondecreasing order.
    """
    base = [max(0, d - r - 1 - alpha1[r - k]) for k in range(r + 1)]
    family = {tuple(sorted(base))}
    for k in range(r + 1):
        raised = list(base)
        raised[k] = d - r - alpha1[r - k]
        family.add(tuple(sorted(raised)))
    return sorted(family)


def reference_split(g, r, d, alpha1, alpha2):
    """The entry tuples (alpha_y, alpha_z) of the first candidate valid on both sides."""
    for alpha_y in reference_candidates(r, d, alpha1):
        if criterion_excess(1, r, d, alpha1, alpha_y) > 1:
            continue
        alpha_z = complement_entries(alpha_y, d - r)
        if criterion_excess(g - 1, r, d, alpha_z, alpha2) <= g - 1:
            return alpha_y, alpha_z
    raise ConstructionFailed("no valid split")


def test_split_once_chooses_the_reference_split(cold_memos):
    checked = 0
    for g in range(2, 5):
        for d in range(9):
            for r in range(min(4, d) + 1):
                seqs = [RamSeq(e, d) for e in combinations_with_replacement(range(d - r + 1), r + 1)]
                for a1 in seqs:
                    for a2 in seqs:
                        if criterion_excess(g, r, d, a1.entries, a2.entries) > g:
                            continue
                        alpha_y, alpha_z = split_once(g, r, d, a1.entries, a2.entries)
                        want = reference_split(g, r, d, a1.entries, a2.entries)
                        assert (alpha_y, alpha_z) == want, (g, r, d, a1, a2)
                        assert (RamSeq(alpha_y, d).d, RamSeq(alpha_z, d).d) == (d, d)  # both valid in (r, d)
                        checked += 1
    assert checked == 12_849


@pytest.mark.parametrize("r_max, d_max, splits", [(3, 6, 1050), (chains._MEMO_R, chains._MEMO_R + 2, 4347)])
def test_split_once_returns_a_pair_of_entry_tuples(r_max, d_max, splits, cold_memos):
    # from _MEMO_R on the split reads no memo; the second grid covers both sides of it
    checked = 0
    for g in (2, 3):
        for d in range(d_max - 2, d_max + 1):
            for r in range(r_max - 3, min(r_max, d) + 1):
                seqs = list(islice(combinations_with_replacement(range(d - r + 1), r + 1), 40))
                for a1 in seqs:
                    for a2 in seqs:
                        if criterion_excess(g, r, d, a1, a2) > g:
                            continue
                        pair = split_once(g, r, d, a1, a2)
                        assert type(pair) is tuple and len(pair) == 2
                        alpha_y, alpha_z = pair
                        assert type(alpha_y) is tuple and type(alpha_z) is tuple
                        assert alpha_z == complement_entries(alpha_y, d - r), (g, r, d, a1, a2)
                        checked += 1
    assert checked == splits


def test_genus1_side_lists_the_reference_candidates_valid_against_alpha1(cold_memos):
    for d in range(9):
        for r in range(min(4, d) + 1):
            for alpha1 in combinations_with_replacement(range(d - r + 1), r + 1):
                base, gaps1, order = chains._genus1_side(alpha1, d)
                raised = [base if t is None else base[:t] + (base[t] + 1,) + base[t + 1:] for t in order]
                want = [y for y in reference_candidates(r, d, alpha1) if criterion_excess(1, r, d, alpha1, y) <= 1]
                assert raised == want, (d, alpha1)
                assert gaps1 == core.gaps(alpha1, base, d - r - 1)


def _count_work(monkeypatch):
    """Counts of core.gaps calls, through either module, and of RamSeq constructions."""
    calls = {"gaps": 0, "RamSeq": 0}
    original_gaps, original_init = core.gaps, RamSeq.__init__

    def counted_gaps(*args):
        calls["gaps"] += 1
        return original_gaps(*args)

    def counted_init(self, *args):
        calls["RamSeq"] += 1
        original_init(self, *args)

    monkeypatch.setattr(core, "gaps", counted_gaps)
    monkeypatch.setattr(chains, "gaps", counted_gaps)
    monkeypatch.setattr(RamSeq, "__init__", counted_init)
    return calls


@pytest.mark.parametrize("r", [3, 20_000])
def test_a_split_calls_gaps_at_most_twice_and_builds_at_most_two_sequences(r, cold_memos, monkeypatch):
    # the old family scan made r + 2 sorted candidates: O(r^2) at large r
    p = problem(2, r, 2 * r, alpha1=[0] * r + [1], alpha2=[0] * r + [1])
    calls = _count_work(monkeypatch)
    alpha_y, alpha_z = split_once(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)
    assert calls == {"gaps": 2, "RamSeq": 0}
    assert split_once(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries) == (alpha_y, alpha_z)
    if r < chains._MEMO_R:  # a repeat reads the memo: one gaps call, for the criterion of p
        assert calls == {"gaps": 3, "RamSeq": 0}
    monkeypatch.undo()
    assert alpha_z == complement_entries(alpha_y, r)
    assert criterion_excess(1, r, 2 * r, p.alpha1.entries, alpha_y) <= 1
    assert criterion_excess(1, r, 2 * r, alpha_z, p.alpha2.entries) <= 1


@pytest.mark.parametrize("p", [problem(1, 1, 3), problem(2, 1, 2, (0, 1), (0, 1))])
def test_a_refused_split_fills_no_memo(p, cold_memos):
    with pytest.raises(ValueError, match="split_once needs"):
        split_once(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)
    assert [memo.cache_info().currsize for memo in MEMOS] == [0]


def test_memos_are_bounded():
    for memo in MEMOS:
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 4096


def test_genus1_side_is_computed_once_per_alpha1_row(cold_memos, monkeypatch):
    rows = set()
    original = chains.split_once

    def counted(g, r, d, alpha1, alpha2):
        rows.add((alpha1, d))
        return original(g, r, d, alpha1, alpha2)

    monkeypatch.setattr(chains, "split_once", counted)
    lines = list(iter_sweep({"g_max": 4, "r_max": 2, "d_max": 5, "command": "chain", "alphas": "all"}))
    info = chains._genus1_side.cache_info()
    assert len(rows) > 1 and info.hits > 0
    assert info.misses == info.currsize == len(rows)
    assert info.hits + info.misses == sum(line["params"]["g"] >= 2 and line["status"] == "ok" for line in lines)
