from itertools import product

import pytest

from bnseries.gf import gaussian_binomial
from bnseries.realize import lead_positions
from gf_reference import GF, field_rows, rref_matrices


@pytest.mark.parametrize("q", [2, 3, 4])
def test_field_axioms_exhaustive(q):
    els = [GF(q, value) for value in range(q)]
    zero, one = els[0], els[1]
    for a, b in product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + -a == zero
        assert a - a == zero
        if a:
            assert a * (one / a) == one
    with pytest.raises(ZeroDivisionError):
        one / zero


def test_gf4_is_not_mod_4():
    x = GF(4, 2)
    assert GF(4, 1) + GF(4, 1) == GF(4, 0)  # characteristic 2
    assert x * x == GF(4, 3)  # x * x = x + 1
    assert x * GF(4, 3) == GF(4, 1)  # x * (x + 1) = 1


def test_unsupported_field_size():
    with pytest.raises(ValueError):
        GF(5, 0)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(6, 2, 4) == 93093
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 3, 2), (4, 3, 1), (2, 5, 3)])
def test_rref_enumeration_is_complete_and_canonical(q, n, k):
    seen = set()
    for pivots, rows in rref_matrices(q, n, k):
        key = tuple(tuple(row) for row in rows)
        assert key not in seen
        seen.add(key)
        for i, c in enumerate(pivots):
            assert rows[i][c] == 1
            assert all(rows[i][c2] == 0 for c2 in pivots if c2 != c)
    assert len(seen) == gaussian_binomial(n, k, q)


def test_lead_positions_examples():
    rows = field_rows(2, [[1, 0, 0], [0, 1, 0]])
    assert lead_positions(rows, [0, 1, 2]) == [0, 1]
    # scanning right to left, the leads move
    assert lead_positions(rows, [2, 1, 0]) == [1, 2]
    # dependent directions collapse after elimination
    rows = field_rows(2, [[1, 1, 0], [0, 1, 1]])
    assert lead_positions(rows, [0, 1, 2]) == [0, 1]
    # over F3, (1, 2, 0) = 2 * (2, 1, 0): the pivot 2 scales the other row before it subtracts
    rows = field_rows(3, [[2, 1, 0], [1, 2, 0]])
    assert lead_positions(rows, [0, 1, 2]) == [0]
