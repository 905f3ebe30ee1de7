import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from bnseries.core import VanishingSeq, nonempty_criterion, problem, rho, to_vanishing
from bnseries.oracle import load_fixture
from bnseries.realize import (
    DegenerateBasis,
    G0Series,
    LineBundleDescriptor,
    classify_g1_vanishing,
    g0_vanishing_check,
    realize_g0,
    realize_g1,
    richardson_dim,
)
from reference import all_problems, ec_descriptor_scan


def v(entries, d):
    return VanishingSeq(tuple(entries), d)


def all_vanishing(r, d):
    return [v(c, d) for c in combinations(range(d + 1), r + 1)]


def test_realize_g0_example():
    s = realize_g0(1, 3, v((0, 2), 3), v((0, 1), 3))
    assert s.basis == ((1, 0, 1, 0), (0, 0, 1, 1))  # 1 + x^2 and x^2 + x^3
    at0, at_inf = g0_vanishing_check(s)
    assert at0.entries == (0, 2)
    assert at_inf.entries == (0, 1)


def test_realize_g0_empty():
    assert realize_g0(1, 3, v((0, 3), 3), v((1, 3), 3)) is None


def test_realize_g0_single_monomial():
    s = realize_g0(0, 2, v((2,), 2), v((0,), 2))
    assert s.basis == ((0, 0, 1),)


def test_g0_vanishing_check_examples():
    s = G0Series(3, ((1, 0, 0, 0), (0, 0, 1, 0)))  # {1, x^2}
    at0, at_inf = g0_vanishing_check(s)
    assert at0.entries == (0, 2)
    assert at_inf.entries == (1, 3)

    full = G0Series(3, tuple(tuple(1 if i == j else 0 for i in range(4)) for j in range(4)))
    at0, at_inf = g0_vanishing_check(full)
    assert at0.entries == (0, 1, 2, 3)
    assert at_inf.entries == (0, 1, 2, 3)

    s = G0Series(3, ((0, 1, 1, 0), (0, 0, 1, 0)))  # {x + x^2, x^2}
    at0, _ = g0_vanishing_check(s)
    assert at0.entries == (1, 2)

    s = G0Series(2, ((2, 1, 0), (4, 2, 1)))  # the pivot 2 is not a unit of Z
    at0, at_inf = g0_vanishing_check(s)
    assert at0.entries == (0, 2)
    assert at_inf.entries == (0, 1)


def test_g0_vanishing_check_rejects_dependent():
    with pytest.raises(DegenerateBasis):
        g0_vanishing_check(G0Series(2, ((1, 1, 0), (2, 2, 0))))


def test_g0_vanishing_check_accepts_fractions():
    s = G0Series(2, ((Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0)))
    at0, at_inf = g0_vanishing_check(s)
    assert at0.entries == (0, 1)
    assert at_inf.entries == (1, 2)


def _orders_by_division(rows):
    """Vanishing orders at 0 of the span of integer rows, by elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    orders = []
    for col in range(len(rows[0])):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is not None:
            rows.remove(pivot)
            orders.append(col)
            rows = [[x - row[col] / pivot[col] * y for x, y in zip(row, pivot)] for row in rows]
    return orders


def test_g0_vanishing_check_dense_integer_basis():
    # Division-free elimination keeps integer rows primitive; without that
    # step the entries of a dense basis double in length with every pivot
    # and this basis would take minutes.
    n = 24
    rng = random.Random(3)
    rows = [[rng.randrange(10) for _ in range(n + 1)] for _ in range(n)]
    at0, at_inf = g0_vanishing_check(G0Series(n, rows))
    assert list(at0.entries) == _orders_by_division(rows)
    assert list(at_inf.entries) == _orders_by_division([row[::-1] for row in rows])


def test_g0_vanishing_check_dense_fraction_basis():
    # A row holding Fractions is scaled to ints by the lcm of its
    # denominators first; reduced as Fractions, this basis took over 100 ms.
    n = 16
    rng = random.Random(5)
    rows = [[Fraction(rng.randrange(10), rng.randrange(1, 5)) for _ in range(n + 1)] for _ in range(n)]
    start = time.perf_counter()
    at0, at_inf = g0_vanishing_check(G0Series(n, rows))
    assert time.perf_counter() - start < 0.05
    assert list(at0.entries) == _orders_by_division(rows)
    assert list(at_inf.entries) == _orders_by_division([row[::-1] for row in rows])


def test_realize_g0_exact_vanishing_grid():
    for d in range(1, 7):
        for r in range(0, min(2, d) + 1):
            for a1 in all_vanishing(r, d):
                for a2 in all_vanishing(r, d):
                    s = realize_g0(r, d, a1, a2)
                    feasible = all(a1[j] + a2[r - j] <= d for j in range(r + 1))
                    if not feasible:
                        assert s is None
                        continue
                    at0, at_inf = g0_vanishing_check(s)
                    assert at0 == a1
                    assert at_inf == a2


def test_classify_g1_vanishing():
    assert classify_g1_vanishing(LineBundleDescriptor(3, None), 1).entries == (0, 1, 2)
    assert classify_g1_vanishing(LineBundleDescriptor(3, 3), 1).entries == (0, 1, 3)
    assert classify_g1_vanishing(LineBundleDescriptor(3, 0), 1).entries == (0, 1, 2)
    assert classify_g1_vanishing(LineBundleDescriptor(3, 0), 2).entries == (0, 1, 3)
    assert classify_g1_vanishing(LineBundleDescriptor(3, 3), 2).entries == (0, 1, 2)
    # degree 0: only O has a section, the constant one
    assert classify_g1_vanishing(LineBundleDescriptor(0, 0), 1).entries == (0,)
    assert classify_g1_vanishing(LineBundleDescriptor(0, 0), 2).entries == (0,)
    with pytest.raises(ValueError, match="no sections"):
        classify_g1_vanishing(LineBundleDescriptor(0, None), 1)
    for d in range(1, 7):
        for bundle in [LineBundleDescriptor(d, a) for a in (None, *range(d + 1))]:
            for at in (1, 2):
                seq = classify_g1_vanishing(bundle, at)
                assert all(x < y for x, y in zip(seq.entries, seq.entries[1:]))
                assert seq.entries[-1] <= d


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: richardson_dim(3, v((0, 1), 3), v((0, 1, 2), 3)), "vanishing sequences must match the (r, d) context"),
        (lambda: classify_g1_vanishing(LineBundleDescriptor(3, None), 3), "marked point must be 1 or 2"),
        (lambda: ec_descriptor_scan(load_fixture("general"), problem(2, 1, 3)), "the descriptor scan is a genus-1 oracle"),
    ],
    ids=["richardson-context", "classify-point", "scan-genus"],
)
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message


def test_realize_g1_examples():
    b = realize_g1(1, 3, v((1, 3), 3), v((0, 1), 3))
    assert b == LineBundleDescriptor(3, 3)
    assert realize_g1(1, 2, v((0, 2), 2), v((0, 2), 2)) is None
    assert realize_g1(0, 1, v((0,), 1), v((0,), 1)) == LineBundleDescriptor(1, None)


def test_realize_g1_matches_criterion_emptiness():
    for d in range(1, 7):
        for r in range(0, min(2, d) + 1):
            for p in all_problems(1, r, d):
                bundle = realize_g1(r, d, to_vanishing(p.alpha1), to_vanishing(p.alpha2))
                assert (bundle is not None) == nonempty_criterion(p), p


def test_richardson_dim_examples():
    assert richardson_dim(4, v((0, 3), 4), v((1, 3), 4)) == 1
    # complementary sequences give a rigid intersection
    assert richardson_dim(3, v((1, 3), 3), v((0, 2), 3)) == 0
    # no conditions at all: the full Grassmannian
    assert richardson_dim(5, v((0, 1), 5), v((0, 1), 5)) == 2 * 4
    assert richardson_dim(3, v((0, 3), 3), v((1, 3), 3)) is None


def test_richardson_dim_is_genus0_rho():
    for d in range(9):
        for r in range(0, min(3, d) + 1):
            for p in all_problems(0, r, d):
                a1, a2 = to_vanishing(p.alpha1), to_vanishing(p.alpha2)
                expected = richardson_dim(d, a1, a2)
                if expected is not None:
                    assert expected == rho(p)
                else:
                    assert any(a1[j] + a2[r - j] > d for j in range(r + 1))
