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

All linear algebra is exact over the rationals.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .core import VanishingSeq, gaps
from .gf import lead_positions

# the field operations gf.lead_positions uses, over the rationals
_RATIONALS = SimpleNamespace(inv=lambda a: Fraction(1, a), mul=operator.mul, sub=operator.sub)


class DegenerateBasis(ValueError):
    """The polynomial tuple is linearly dependent."""


@dataclass(frozen=True)
class G0Series:
    """Basis of polynomials, each a coefficient vector c_0..c_d (low to high)."""

    d: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "basis", tuple(tuple(row) for row in self.basis)
        )
        for row in self.basis:
            if len(row) != self.d + 1:
                raise ValueError(f"coefficient vectors must have length d+1={self.d + 1}")


@dataclass(frozen=True)
class LineBundleDescriptor:
    """Degree-d line bundle on a genus-1 curve: O(a P1 + (d-a) P2) or generic.

    ``a is None`` means a bundle not of the form O(a P1 + (d-a) P2) for any a.
    """

    d: int
    a: int | None

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("degree must be nonnegative")
        if self.a is not None and not 0 <= self.a <= self.d:
            raise ValueError(f"special descriptor needs 0 <= a <= d, got a={self.a}")

    @property
    def is_special(self) -> bool:
        return self.a is not None


def generic_bundle(d: int) -> LineBundleDescriptor:
    return LineBundleDescriptor(d, None)


def special_bundle(d: int, a: int) -> LineBundleDescriptor:
    return LineBundleDescriptor(d, a)


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


def g0_vanishing_check(s: G0Series) -> tuple[VanishingSeq, VanishingSeq]:
    """Exact vanishing sequences of the span at 0 and infinity.

    Row-reduces the coefficient matrix over the rationals in increasing-power
    order for the point 0 and in decreasing-power order for infinity; the
    lead positions are the orders of an adapted basis.  Raises
    DegenerateBasis for dependent input.
    """
    rows = [list(row) for row in s.basis]
    at0 = lead_positions(_RATIONALS, rows, list(range(s.d + 1)))
    at_inf = lead_positions(_RATIONALS, rows, list(range(s.d, -1, -1)))
    if len(at0) < len(s.basis) or len(at_inf) < len(s.basis):
        raise DegenerateBasis("basis polynomials are linearly dependent")
    return VanishingSeq(tuple(at0), s.d), VanishingSeq(tuple(at_inf), s.d)


def classify_g1_vanishing(bundle: LineBundleDescriptor, at: int) -> VanishingSeq:
    """Vanishing sequence of the complete series of ``bundle`` at marked point 1 or 2.

    Encodes the generic-position dichotomy: 0..d-1 in general, and
    0..d-2, d exactly when the bundle is O(d P) at the chosen point
    (a = d at point 1, a = 0 at point 2).
    """
    if at not in (1, 2):
        raise ValueError("marked point must be 1 or 2")
    d = bundle.d
    if d < 1:
        raise ValueError("classification needs d >= 1")
    concentrated = (bundle.a == d) if at == 1 else (bundle.a == 0)
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
        return special_bundle(d, a1[excess.index(0)])
    return generic_bundle(d)


def richardson_dim(d: int, a1: VanishingSeq, a2: VanishingSeq) -> int | None:
    """Expected dimension sum_j (d - a1_j - a2_{r-j}) of the genus-0 locus.

    None when the locus is empty (some a1_j + a2_{r-j} > d).  Equals rho of
    the corresponding genus-0 problem whenever defined.
    """
    excess = _excess(a1.r, d, a1, a2)
    if max(excess) > 0:
        return None
    return -sum(excess)
