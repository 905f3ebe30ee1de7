"""Brute-force reference over F2, F3 and F4, which the library does not need.

GF elements take +, -, *, / and truth tests, so realize.lead_positions
eliminates over F_q as it does over the integers, and rref_matrices yields
every canonical basis of every k-subspace of F_q^n for the oracle to match.
rank is a separate elimination, with division, that shares no code with
lead_positions, so the oracle's reference tallies do not depend on it.
"""

from itertools import combinations, product

from bnseries.gf import FIELDS


class GF:
    """The element of F_q, q in FIELDS, with integer value 0..q-1.

    Addition is mod q for prime q and bitwise xor for q = 4, whose values are
    polynomials over F2 in x, reduced mod x^2 + x + 1.  The nonzero elements
    are the powers g^0..g^(q-2) of a generator g with value 2 (1 for q = 2),
    and g^i has value i + 1 (for q = 4, x^2 = x + 1 has value 3), so products
    and inverses add and negate i mod q - 1.
    """

    __slots__ = ("q", "value")

    def __init__(self, q: int, value: int):
        if q not in FIELDS:
            raise ValueError("supported field sizes are 2, 3 and 4")
        self.q, self.value = q, value

    def __add__(self, other):
        q = self.q
        return GF(q, self.value ^ other.value if q == 4 else (self.value + other.value) % q)

    def __neg__(self):
        return GF(self.q, self.value if self.q == 4 else -self.value % self.q)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not (self and other):
            return GF(self.q, 0)
        return GF(self.q, (self.value + other.value - 2) % (self.q - 1) + 1)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("no inverse of 0")
        return self * GF(self.q, (1 - other.value) % (self.q - 1) + 1)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        return (self.q, self.value) == (other.q, other.value)

    def __repr__(self):
        return f"GF({self.q}, {self.value})"


def field_rows(q: int, rows):
    """Rows of integer values as rows of F_q elements."""
    return [[GF(q, value) for value in row] for row in rows]


def rref_matrices(q: int, n: int, k: int):
    """All k x n reduced row echelon matrices of rank k over F_q.

    Yields (pivot columns, rows of integer values); each k-dimensional
    subspace of F_q^n has exactly one such canonical basis, so the iterator
    has gaussian_binomial(n, k, q) items.
    """
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[int(j == c) for j in range(n)] for c in pivots]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield pivots, rows


def rank(rows) -> int:
    """Rank of rows of F_q elements.

    Each row in turn is scaled to a leading 1 and cleared from the rows left.
    """
    work = list(rows)
    found = 0
    while work:
        row = work.pop()
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            continue
        found += 1
        row = [x / row[c] for x in row]
        work = [[x - other[c] * y for x, y in zip(other, row)] for other in work]
    return found
