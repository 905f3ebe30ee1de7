import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from bnseries.core import (
    BNProblem,
    RamSeq,
    VanishingSeq,
    all_problems,
    all_ram_seqs,
    criterion_excess,
    criterion_sum,
    criterion_table,
    from_vanishing,
    nonempty_criterion,
    problem,
    rho,
    to_vanishing,
    zero_ram,
)


def test_to_vanishing_adds_index():
    assert to_vanishing(RamSeq((0, 0), 3)).entries == (0, 1)
    assert to_vanishing(RamSeq((0, 1), 3)).entries == (0, 2)
    assert to_vanishing(RamSeq((1, 2), 3)).entries == (1, 3)


def test_vanishing_roundtrip_exhaustive():
    for d in range(7):
        for r in range(d + 1):
            for alpha in all_ram_seqs(r, d):
                assert from_vanishing(to_vanishing(alpha)) == alpha


@given(st.data())
def test_vanishing_roundtrip_random(data):
    d = data.draw(st.integers(0, 12))
    r = data.draw(st.integers(0, d))
    entries = sorted(data.draw(st.lists(st.integers(0, d - r), min_size=r + 1, max_size=r + 1)))
    alpha = RamSeq(tuple(entries), d)
    assert from_vanishing(to_vanishing(alpha)) == alpha


def test_ramseq_validation():
    with pytest.raises(ValueError):
        RamSeq((1, 0), 3)  # decreasing
    with pytest.raises(ValueError):
        RamSeq((0, 3), 3)  # above d - r
    with pytest.raises(ValueError):
        RamSeq((0, 0, 0), 1)  # r > d
    with pytest.raises(ValueError):
        RamSeq((), 2)
    # d = r forces the all-zero sequence and nothing else
    assert list(all_ram_seqs(2, 2)) == [RamSeq((0, 0, 0), 2)]


def test_vanishing_validation():
    with pytest.raises(ValueError):
        VanishingSeq((0, 0), 3)  # not strictly increasing
    with pytest.raises(ValueError):
        VanishingSeq((0, 4), 3)  # above d


def test_problem_validation():
    with pytest.raises(ValueError):
        problem(-1, 1, 3)
    with pytest.raises(ValueError):
        problem(2, 4, 3)
    with pytest.raises(ValueError):
        BNProblem(2, 1, 3, RamSeq((0, 0), 2), zero_ram(1, 3))  # context mismatch


def test_rho_values():
    assert rho(problem(4, 1, 3)) == 0
    assert rho(problem(1, 1, 2, (0, 1), (0, 1))) == -1
    assert rho(problem(3, 1, 3)) == 1


def test_criterion_values():
    assert not nonempty_criterion(problem(1, 1, 2, (0, 1), (0, 1)))
    p = problem(2, 1, 3, (1, 1), (0, 0))
    assert criterion_sum(p) == 2
    assert nonempty_criterion(p)
    assert nonempty_criterion(problem(4, 1, 3))


def test_empty_index_set_is_trivially_nonempty():
    # r - d + g so negative that no index contributes
    p = problem(0, 1, 5)
    assert criterion_sum(p) == 0
    assert nonempty_criterion(p)


def test_criterion_implies_rho_nonnegative_small_grid():
    for g in range(5):
        for d in range(6):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    if nonempty_criterion(p):
                        assert rho(p) >= 0, p


def test_zero_ramification_criterion_matches_rho_sign():
    for g in range(7):
        for d in range(9):
            for r in range(0, min(3, d) + 1):
                p = problem(g, r, d)
                assert nonempty_criterion(p) == (rho(p) >= 0), p


def test_criterion_symmetric_in_marked_points():
    for g in range(4):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    swapped = BNProblem(p.g, p.r, p.d, p.alpha2, p.alpha1)
                    assert nonempty_criterion(p) == nonempty_criterion(swapped)


def test_criterion_table_sums_to_the_criterion_in_both_orders():
    cases = 0
    for g in range(4):
        for d in range(8):
            for r in range(min(3, d) + 1):
                seqs = list(combinations_with_replacement(range(d - r + 1), r + 1))
                for fixed in seqs:
                    t = criterion_table(g, r, d, fixed)
                    assert len(t) == r + 1 and {len(row) for row in t} == {d - r + 1}
                    for y in seqs:
                        excess = sum(t[i][y[i]] for i in range(r + 1))
                        assert excess == criterion_excess(g, r, d, fixed, y) == criterion_excess(g, r, d, y, fixed)
                        cases += 1
    assert cases == 52_216  # 4 genera times the sum of C(d+1, r+1)^2


def test_sequence_counts():
    for d in range(8):
        for r in range(d + 1):
            assert len(list(all_ram_seqs(r, d))) == math.comb(d + 1, r + 1)


def test_comb_floor_log2_is_a_lower_bound():
    from bnseries.core import _comb_floor_log2

    for n in range(80):
        for k in range(n + 1):
            assert 2 ** _comb_floor_log2(n, k) <= math.comb(n, k), (n, k)
    assert _comb_floor_log2(10**6 + 1, 5 * 10**5 + 1) == 5 * 10**5


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RamSeq((1.7, 1), 3), "ramification entry 0 must be an int, got 1.7"),
        (lambda: RamSeq((0, 1), 3.9), "d must be an int, got 3.9"),
        (lambda: problem(1.5, 1, 3), "g must be an int, got 1.5"),
        (lambda: problem(1, 1.5, 3), "r must be an int, got 1.5"),
        (lambda: zero_ram(True, 3), "r must be an int, got True"),
        (lambda: RamSeq((0, True), 3), "ramification entry 1 must be an int, got True"),
        (lambda: VanishingSeq((0, None), 3), "vanishing entry 1 must be an int, got None"),
        (lambda: VanishingSeq((0, 1), False), "d must be an int, got False"),
        (lambda: RamSeq((0, 1), "3"), "d must be an int, got '3'"),
        (lambda: RamSeq((0, float("inf")), 3), "ramification entry 1 must be an int, got inf"),
        (lambda: RamSeq((0, float("nan")), 3), "ramification entry 1 must be an int, got nan"),
        (lambda: VanishingSeq((0, 1), float("nan")), "d must be an int, got nan"),
        (lambda: BNProblem(1, 1.0, 3, zero_ram(1, 3), zero_ram(1, 3)), "r must be an int, got 1.0"),
        (lambda: BNProblem(1, 1, True, zero_ram(1, 1), zero_ram(1, 1)), "d must be an int, got True"),
    ],
)
def test_value_classes_refuse_non_integers(build, message):
    # nothing is coerced: a float, bool or string never stands for an int
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
