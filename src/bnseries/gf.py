"""Arithmetic and subspace enumeration over the small fields F2, F3, F4.

Elements are the integers 0..q-1.  For prime q this is arithmetic mod q; for
q = 4 the two bits are the coefficients of a polynomial over F2 reduced mod
x^2 + x + 1.  Operations are table lookups, which keeps the subspace
enumeration loops cheap.
"""

from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

# the field sizes this module supports, and the ones the oracles count over
FIELDS = (2, 3, 4)


class GF:
    """The field with q elements, q in FIELDS, as lookup tables."""

    def __init__(self, q: int):
        if q not in FIELDS:
            raise ValueError("supported field sizes are 2, 3 and 4")
        self.q = q
        if q == 4:
            add = [[a ^ b for b in range(4)] for a in range(4)]
            mul = [[_gf4_mul(a, b) for b in range(4)] for a in range(4)]
        else:
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [next(b for b in range(q) if add[a][b] == 0) for a in range(q)]
        self.inv_table = [None] + [
            next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)
        ]

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self.inv_table[a]


def _gf4_mul(a: int, b: int) -> int:
    # carryless product of 2-bit polynomials, reduced mod x^2 + x + 1
    prod_bits = 0
    for shift in range(2):
        if (b >> shift) & 1:
            prod_bits ^= a << shift
    if prod_bits & 0b100:
        prod_bits ^= 0b111  # x^2 = x + 1
    return prod_bits & 0b11


@lru_cache(maxsize=None)
def gf(q: int) -> GF:
    return GF(q)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rref_matrices(q: int, n: int, k: int) -> Iterator[tuple[tuple[int, ...], list[list[int]]]]:
    """All k x n reduced row echelon matrices of rank k over F_q.

    Yields (pivot columns, rows); each k-dimensional subspace of F_q^n has
    exactly one such canonical basis, so the iterator has gaussian_binomial
    (n, k, q) items.
    """
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        template = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            template[i][c] = 1
        if not free:
            yield pivots, [row[:] for row in template]
            continue
        for values in product(range(q), repeat=len(free)):
            rows = [row[:] for row in template]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield pivots, rows


def echelon_insert(field: GF, basis: dict[int, list[int]], vec: list[int]) -> bool:
    """Add vec to an echelon basis, in place; True when it was independent.

    ``basis`` maps each pivot column to its row: the row's first nonzero
    entry is a 1 in that column.  vec is reduced against the rows in column
    order; a nonzero remainder joins the basis, scaled to a leading 1.
    """
    add, mul = field.add_table, field.mul_table
    vec = vec[:]
    for c, x in enumerate(vec):
        if x == 0:
            continue
        row = basis.get(c)
        if row is None:
            scale = mul[field.inv_table[x]]
            basis[c] = [scale[v] for v in vec]
            return True
        minus = mul[field.neg_table[x]]
        for j in range(c, len(vec)):
            if row[j]:
                vec[j] = add[vec[j]][minus[row[j]]]
    return False


def lead_positions(field: GF, rows: list[list[int]], col_order: list[int]) -> list[int]:
    """Leading-column positions (indices into col_order) after elimination.

    Scans columns in the given order, picking a pivot row for each column
    that is independent of the previous pivots, and eliminating it from the
    remaining rows.  Returns one position per nonzero row of the span.  The
    oracle tests compare the histograms against it, and
    realize.g0_vanishing_check reads vanishing orders with it over the
    rationals, through a field object with the same inv, mul and sub.
    """
    work = [row[:] for row in rows]
    leads = []
    used = [False] * len(work)
    for pos, col in enumerate(col_order):
        pivot = None
        for i in range(len(work)):
            if not used[i] and work[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        used[pivot] = True
        leads.append(pos)
        if len(leads) == len(work):
            break  # every row has its pivot; no later column can lead
        inv = field.inv(work[pivot][col])
        for i in range(len(work)):
            if i != pivot and not used[i] and work[i][col] != 0:
                factor = field.mul(work[i][col], inv)
                for c in range(len(work[i])):
                    work[i][c] = field.sub(
                        work[i][c], field.mul(factor, work[pivot][c])
                    )
    return leads
