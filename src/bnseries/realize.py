"""Explicit realizations of the genus-0 and genus-1 base cases.

Genus 0: series on the projective line with marked points 0 and infinity.
Sections of degree d are polynomials of degree <= d; vanishing order at 0 is
the lowest nonzero coefficient, vanishing order at infinity is the degree
drop d - deg.  A basis with exact vanishing (a1_j, a2_{r-j}) exists iff
a1_j + a2_{r-j} <= d for all j, and is built from x^{a1_j} * (1 + x^e) with
e = d - a1_j - a2_{r-j}.

Genus 1: the complete series of a degree-d line bundle L has h^0 = d, and its
vanishing sequence at a marked point P is 0, 1, ..., d-1 unless L = O(dP),
in which case it is 0, 1, ..., d-2, d.  Under the generality assumption that
the marked points do not differ by m-torsion for m <= d, a series with
vanishing (a1, a2) exists iff a1_j + a2_{r-j} <= d for all j with equality
for at most one j; equality at j forces L = O(a1_j P1 + a2_{r-j} P2).

All linear algebra is exact and division-free, so integer rows stay integer.
"""

import sys
from math import gcd, lcm

from .core import VanishingSeq, _refuse_non_ints, _set, _Value, gaps


class DegenerateBasis(ValueError):
    """The polynomial tuple is linearly dependent."""


class G0Series(_Value):
    """Basis of polynomials, each a coefficient vector c_0..c_d (low to high).

    Each coefficient is exactly an int or a ``fractions.Fraction``: a float,
    a bool or a string is refused.
    """

    __slots__ = _fields = ("d", "basis")

    def __init__(self, d, basis):
        try:
            basis = tuple(tuple(row) for row in basis)
        except TypeError:
            raise ValueError("basis must be a sequence of coefficient vectors") from None
        _set(self, "d", d)
        _set(self, "basis", basis)
        _set(self, "_key", (d, basis))
        if type(d) is not int:
            _refuse_non_ints({"d": d})
        for i, row in enumerate(basis):
            if len(row) != d + 1:
                raise ValueError(f"coefficient vectors must have length d+1={d + 1}")
            if not all(type(x) is int for x in row):
                fraction = getattr(sys.modules.get("fractions"), "Fraction", ())  # loaded if any entry is one
                for k, x in enumerate(row):
                    if type(x) is not int and not isinstance(x, fraction):
                        raise ValueError(f"basis[{i}][{k}] must be an int or a Fraction, got {x!r}")


class LineBundleDescriptor(_Value):
    """Degree-d line bundle on a genus-1 curve: O(a P1 + (d-a) P2) or generic.

    ``a is None`` means a bundle not of the form O(a P1 + (d-a) P2) for any a.
    """

    __slots__ = _fields = ("d", "a")

    def __init__(self, d, a):
        _set(self, "d", d)
        _set(self, "a", a)
        _set(self, "_key", (d, a))
        if type(d) is not int or not (a is None or type(a) is int):
            _refuse_non_ints({"d": d} if a is None else {"d": d, "a": a})
        if d < 0:
            raise ValueError("degree must be nonnegative")
        if a is not None and not 0 <= a <= d:
            raise ValueError(f"special descriptor needs 0 <= a <= d, got a={a}")

    @property
    def is_special(self) -> bool:
        return self.a is not None


def _excess(r: int, d: int, a1: VanishingSeq, a2: VanishingSeq) -> list[int]:
    """a1_j + a2_{r-j} - d for each j, after checking the (r, d) context."""
    if a1.r != r or a2.r != r or a1.d != d or a2.d != d:
        raise ValueError("vanishing sequences must match the (r, d) context")
    return gaps(a1.entries, a2.entries, d)


def realize_g0(r: int, d: int, a1: VanishingSeq, a2: VanishingSeq) -> G0Series | None:
    """Polynomial basis with exact vanishing a1_j at 0 and a2_{r-j} at infinity.

    Returns None when a1_j + a2_{r-j} > d for some j (no such series exists).
    """
    excess = _excess(r, d, a1, a2)
    if max(excess) > 0:
        return None
    rows = []
    for a, e in zip(a1.entries, excess):
        coeffs = [0] * (d + 1)
        coeffs[a] = 1
        if e < 0:
            coeffs[a - e] += 1
        rows.append(tuple(coeffs))
    return G0Series(d, tuple(rows))


def lead_positions(rows, col_order) -> list[int]:
    """Leading-column positions (indices into col_order) after elimination.

    Scans columns in the given order; the first remaining row nonzero in a
    column is its pivot, eliminated from the other remaining rows without
    division: row <- pivot[col] * row - row[col] * pivot.  Dependent rows get
    no position.  Entries need only *, - and truth tests; as pivot entries are
    nonzero, leads are those over any field holding them (F_q elements too).
    An updated row of ints is divided by its gcd, so it stays minor-sized.
    """
    work = [list(row) for row in rows]
    leads = []
    for pos, col in enumerate(col_order):
        for i, row in enumerate(work):
            if row[col]:
                break
        else:
            continue
        pivot = work.pop(i)
        leads.append(pos)
        if not work:
            break  # every row has its pivot; no later column can lead
        p = pivot[col]
        for row in work:
            f = row[col]
            if f:
                row[:] = [p * x - f * y for x, y in zip(row, pivot)]
                if all(type(x) is int for x in row) and (g := gcd(*row)) > 1:
                    row[:] = [x // g for x in row]
    return leads


def g0_vanishing_check(s: G0Series) -> tuple[VanishingSeq, VanishingSeq]:
    """Exact vanishing sequences of the span at 0 and infinity.

    Row-reduces the coefficient rows with lead_positions in increasing-power
    order for 0 and in decreasing-power order for infinity; the leads are the
    orders of an adapted basis.  A row holding a non-integral Fraction is
    first scaled to ints by the lcm of its denominators, which keeps its leads,
    so rows stay small.  Raises DegenerateBasis for dependent input.
    """
    rows = []
    for row in s.basis:
        m = lcm(*[x.denominator for x in row])  # 1 on an int row
        rows.append(row if m == 1 else [x.numerator * (m // x.denominator) for x in row])
    at0 = lead_positions(rows, range(s.d + 1))
    at_inf = lead_positions(rows, range(s.d, -1, -1))
    if len(at0) < len(s.basis) or len(at_inf) < len(s.basis):
        raise DegenerateBasis("basis polynomials are linearly dependent")
    return VanishingSeq(tuple(at0), s.d), VanishingSeq(tuple(at_inf), s.d)


def classify_g1_vanishing(bundle: LineBundleDescriptor, at: int) -> VanishingSeq:
    """Vanishing sequence of the complete series of ``bundle`` at marked point 1 or 2.

    Encodes the generic-position dichotomy: 0..d-1 in general, and
    0..d-2, d exactly when the bundle is O(d P) at the chosen point
    (a = d at point 1, a = 0 at point 2).  At d = 0 that is (0,) for O,
    the constant section; a generic degree-0 bundle has no sections.
    """
    if at not in (1, 2):
        raise ValueError("marked point must be 1 or 2")
    d = bundle.d
    concentrated = (bundle.a == d) if at == 1 else (bundle.a == 0)
    if d == 0 and not concentrated:
        raise ValueError("a generic degree-0 bundle has no sections")
    if concentrated:
        entries = tuple(range(d - 1)) + (d,)
    else:
        entries = tuple(range(d))
    return VanishingSeq(entries, d)


def realize_g1(r: int, d: int, a1: VanishingSeq, a2: VanishingSeq) -> LineBundleDescriptor | None:
    """Line bundle descriptor carrying a series with vanishing >= (a1, a2).

    None when some a1_j + a2_{r-j} > d or equality holds at two distinct j
    (excluded on a general pair of points).  Equality at exactly one j forces
    the special bundle O(a1_j P1 + a2_{r-j} P2); otherwise any generic bundle
    works.
    """
    excess = _excess(r, d, a1, a2)
    if max(excess) > 0 or excess.count(0) >= 2:
        return None
    if 0 in excess:
        return LineBundleDescriptor(d, a1[excess.index(0)])
    return LineBundleDescriptor(d, None)


def richardson_dim(d: int, a1: VanishingSeq, a2: VanishingSeq) -> int | None:
    """Expected dimension sum_j (d - a1_j - a2_{r-j}) of the genus-0 locus.

    None when the locus is empty (some a1_j + a2_{r-j} > d).  Equals rho of
    the corresponding genus-0 problem whenever defined.
    """
    excess = _excess(a1.r, d, a1, a2)
    if max(excess) > 0:
        return None
    return -sum(excess)
