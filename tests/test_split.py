"""``split_once``: its choice against the candidate family it replaces, and its work.

``split_once`` returns the node's entry tuples, never ``RamSeq``s.  The
reference builds the whole family of node candidates, sorted and
deduplicated, and tests each on both sides with ``criterion_excess``: O(r)
candidates of O(r) entries each.  ``split_once`` must pick the same first
valid candidate in its one O(r) pass.  The work tests count calls, not time.
"""

from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import given, settings, strategies as st

from bnseries import chains, core
from bnseries.chains import build_chain, chain_violations, split_once
from bnseries.core import RamSeq, criterion_excess, problem
from bnseries.strata import complement_entries


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
    raise AssertionError("no valid split")


def test_split_once_chooses_the_reference_split():
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


@pytest.mark.parametrize("r_max, d_max, splits", [(3, 6, 1050), (64, 66, 4347)])
def test_split_once_returns_a_pair_of_entry_tuples(r_max, d_max, splits):
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


@st.composite
def criterion_problems(draw):
    """(g, r, d, alpha1, alpha2) entry tuples passing the criterion by construction, tight about half the time.

    d - r starts a small slack above the largest entry and grows until the
    drawn sequences pass.  A tight draw then raises alpha2 entries one at a
    time, each where the raise keeps alpha2 sorted and its pairing gap is
    nonnegative when there is one, until the criterion sum is g.
    """
    g, r = draw(st.integers(2, 6)), draw(st.integers(0, 30))
    rows = st.lists(st.integers(0, 12), min_size=r + 1, max_size=r + 1).map(sorted)
    alpha1, alpha2 = tuple(draw(rows)), draw(rows)
    n = max(alpha1[-1], alpha2[-1]) + draw(st.sampled_from((0, 0, 1, 2)))  # n = d - r
    while criterion_excess(g, r, n + r, alpha1, tuple(alpha2)) > g:
        n += 1
    if draw(st.booleans()):
        while (total := criterion_excess(g, r, n + r, alpha1, tuple(alpha2))) < g:
            raisable = [k for k in range(r + 1) if alpha2[k] < (n if k == r else alpha2[k + 1])]
            paying = [k for k in raisable if alpha1[r - k] + alpha2[k] >= n - g]
            # with none, the top entry rises toward n, where its gap is alpha1[0] + g >= g
            alpha2[draw(st.sampled_from(paying)) if paying else r] += 1
        assert total == g
    return g, r, n + r, alpha1, tuple(alpha2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(criterion_problems())
def test_split_once_chooses_the_reference_split_up_to_r_30(case):
    g, r, d, alpha1, alpha2 = case
    assert split_once(g, r, d, alpha1, alpha2) == reference_split(g, r, d, alpha1, alpha2)


def test_a_tight_split_at_r_20000_raises_one_slot_of_the_lowered_complement():
    # d - r = 4 and g = 2; the gaps are positive at j = h (a run start of alpha1) and j = r only
    r, h = 20_000, 10_000
    alpha1 = (0,) * h + (2,) * (r - h) + (3,)
    alpha2 = (0,) * (r - h) + (1,) * (h + 1)
    p = problem(2, r, r + 4, alpha1, alpha2)
    assert criterion_excess(2, r, r + 4, alpha1, alpha2) == 2 and 4 not in alpha1 + alpha2
    alpha_y, _ = split_once(2, r, r + 4, alpha1, alpha2)
    lowered = [max(0, 3 - a) for a in reversed(alpha1)]
    assert [k for k in range(r + 1) if alpha_y[k] != lowered[k]] == [r - h]
    assert alpha_y[r - h] == lowered[r - h] + 1
    assert chain_violations(build_chain(p), p) == []


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
def test_a_split_calls_gaps_once_and_builds_no_sequence(r, monkeypatch):
    # the old family scan made r + 2 sorted candidates: O(r^2) at large r
    p = problem(2, r, 2 * r, alpha1=[0] * r + [1], alpha2=[0] * r + [1])
    calls = _count_work(monkeypatch)
    alpha_y, alpha_z = split_once(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)
    assert calls == {"gaps": 1, "RamSeq": 0}
    monkeypatch.undo()
    assert alpha_z == complement_entries(alpha_y, r)
    assert criterion_excess(1, r, 2 * r, p.alpha1.entries, alpha_y) <= 1
    assert criterion_excess(1, r, 2 * r, alpha_z, p.alpha2.entries) <= 1


@pytest.mark.parametrize("p", [problem(1, 1, 3), problem(2, 1, 2, (0, 1), (0, 1))])
def test_split_once_refuses_genus_below_2_and_a_failing_criterion(p):
    with pytest.raises(ValueError, match="split_once needs"):
        split_once(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)
