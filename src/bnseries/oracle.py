"""Brute-force verification oracles, independent of the combinatorial formulas.

Two ingredients:

* Flag profiles.  A pair of vanishing flags in an n-dimensional section
  space is recorded by its relative position: a coordinate model gives each
  basis vector a pair of vanishing orders (o1, o2), and both flags become
  spans of coordinate vectors.  The n pairs are built in closed form:
  (i, n - 1 - i) for complementary flags (the genus-0 case), a few swaps of
  that list for the Riemann-Roch rule h(k1, k2) = h^0(L - k1 P1 - k2 P2) of
  a degree-d bundle L at genus 1.  The table h of intersection dimensions
  is derived from the pairs on demand, never on the counting path.

* Point counting.  Subspaces with prescribed vanishing against both flags
  are counted exactly over F_q for q in gf.FIELDS, cell by cell: the
  choices of each row of a canonical basis are counted from the pivots and
  flag-2 leads of the rows below it, so nothing is enumerated and no field
  arithmetic is done.  The histogram of (flag-1, flag-2) sequence pairs is
  cached per (q, profile orders, rank) together with one slice per flag-1
  bound asked for: its entries that meet the bound, merged by flag-2
  sequence, so a repeated bound costs one scan of its slice.  The budget
  check still runs on every call, before any cache lookup.  The dimension
  of the locus is read off from the exact polynomial growth of the counts
  in q, fitted once per distinct count vector.

The elliptic model supplies the genus-1 generality certificate: a concrete
curve over a prime field with marked points whose difference has known group
order.  Orders above d certify the torsion condition; a small-order pair
reproduces the excluded degeneration where two special bundles coincide.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from operator import ge

from .core import BNProblem, VanishingSeq, refuse_over_budget, to_vanishing
from .elliptic import discriminant, ec_add, ec_neg, is_on_curve, is_prime, point_order
from .gf import FIELDS, gaussian_binomial, gf
from .realize import LineBundleDescriptor, generic_bundle, special_bundle

class NoFit(RuntimeError):
    """The point counts admit no verified exact polynomial fit."""


@dataclass(frozen=True)
class FlagProfile:
    """Relative position of two vanishing flags in dimension n.

    orders holds the n vanishing-order pairs (o1, o2) of a coordinate model,
    sorted by o1: distinct o1 values, distinct o2 values, all in [0, n].
    The table h(k1, k2) = #{i : o1_i >= k1, o2_i >= k2} of intersection
    dimensions is a derived view, built by ``profile.h`` and read one entry
    at a time by ``profile(k1, k2)``.
    """

    n: int
    orders: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, orders = self.n, tuple(sorted((o1, o2) for o1, o2 in self.orders))
        object.__setattr__(self, "orders", orders)
        if n < 0:
            raise ValueError("profile dimension must be >= 0")
        if len(orders) != n:
            raise ValueError(f"profile needs {n} vanishing-order pairs, got {len(orders)}")
        for side in (0, 1):
            values = {pair[side] for pair in orders}
            if len(values) != n or not values <= set(range(n + 1)):
                raise ValueError(f"flag-{side + 1} orders must be distinct integers in [0, {n}]")

    def __call__(self, k1: int, k2: int) -> int:
        return sum(o1 >= k1 and o2 >= k2 for o1, o2 in self.orders)

    @property
    def h(self) -> tuple[tuple[int, ...], ...]:
        """The (n+1) x (n+1) table of h(k1, k2), built upwards from row n."""
        o2_at = dict(self.orders)
        row, rows = (0,) * (self.n + 1), []
        for k1 in range(self.n, -1, -1):
            cut = o2_at.get(k1, -1) + 1
            row = tuple(v + 1 for v in row[:cut]) + row[cut:]
            rows.append(row)
        return tuple(reversed(rows))


def profile_complementary(n: int) -> FlagProfile:
    """Complementary flags: orders (i, n - 1 - i), so h(k1, k2) = max(0, n - k1 - k2)."""
    return FlagProfile(n, tuple((i, n - 1 - i) for i in range(n)))


def profile_g1(bundle: LineBundleDescriptor, diff_order: int | None = None) -> FlagProfile:
    """Genus-1 profile h(k1, k2) = h^0(L - k1 P1 - k2 P2), with n = h^0(L).

    The degree-e = d - k1 - k2 twist has h^0 = e for e >= 1 and 0 for e < 0.
    At e = 0 the space is one-dimensional exactly when the twist is the
    trivial class, i.e. when (a - k1)(P1 - P2) vanishes in the Jacobian:
    with ``diff_order = None`` (points in general position) this needs
    a = k1; a finite ``diff_order`` t relaxes it to a = k1 mod t.  So n = d
    for d >= 1, and at d = 0 n is 1 for O and 0 for a generic bundle.

    In orders, a generic bundle is complementary(d).  A special one adds 1 to
    h at each (s, d - s) with s = a (mod t): rows s - 1 and s of (i, d - 1 - i)
    swap their o2 values, or row 0 takes o2 = d (s = 0) and row d - 1 takes
    o1 = d (s = d).  At t = 1 (P1 = P2) every s is hit and no flags realize h.
    """
    if diff_order is not None and diff_order < 1:
        raise ValueError("diff_order must be a positive integer")
    d, a = bundle.d, bundle.a
    if a is None:
        return profile_complementary(d)
    if diff_order == 1:
        raise ValueError("diff_order 1 puts P1 = P2, where no special profile is realizable")
    if d == 0:
        return FlagProfile(1, ((0, 0),))
    orders = [[i, d - 1 - i] for i in range(d)]
    for s in range(a % diff_order, d + 1, diff_order) if diff_order else (a,):
        if s == 0:
            orders[0][1] = d
        elif s == d:
            orders[d - 1][0] = d
        else:
            orders[s - 1][1], orders[s][1] = orders[s][1], orders[s - 1][1]
    return FlagProfile(d, orders)


def refuse_subspaces_over_budget(n: int, k: int, profiles: int = 0) -> None:
    """Raise InfeasibleSize for the first q in gf.FIELDS with too many k-subspaces of F_q^n.

    The check needs only (n, k), so a request is refused before any profile
    is built.  With k > n there is nothing to count and nothing is checked.
    After it, (n + 1)^2 table entries for each of the ``profiles`` are held
    against the budget, k > n or not: no table is built any more, but the
    charge stays as policy, since its refusals are part of the interface.
    """
    if k <= n:
        for q in FIELDS:
            refuse_over_budget(gaussian_binomial(n, k, q), "subspaces")
    if profiles:
        refuse_over_budget(profiles * (n + 1) ** 2, "profile table entries")


# (joint tallies of vanishing-sequence pairs, {a1: slice}), by (q, profile.orders, k)
_HIST_CACHE: dict = {}


def _rank_count_histogram(q: int, profile: FlagProfile, k: int) -> dict:
    """The histogram, counted row by row from the leads of the rows below.

    Columns are taken in flag-1 order, so the pivots p0 < ... < p_{k-1} of a
    subspace's reduced echelon basis give its flag-1 sequence; a column's
    flag-2 position is its flag-2 order o2, a bit of a mask.  Rows 1..k-1
    span a (k-1)-subspace W of the columns after p0, with flag-2 lead
    positions T; call a position open when its column lies after p0 and it
    is not in T.  Row 0 ranges over e_{p0} + L, L spanned by the free
    columns after p0, and adds one lead t to T.  With C_t spanned by the
    columns at flag-2 positions >= t and U_t = W + C_t, that lead is >= t
    exactly when row 0 lies in U_t.  As L + W spans every column after p0,
    this holds for q^dim(L & U_t) choices when o2(p0) >= t and for none
    otherwise, and dim(L & U_t) is the number of open positions >= t.  So
    with f open positions above t, t = o2(p0) takes q^f choices, an open
    t < o2(p0) takes (q - 1) q^f, and no other t takes any.  The count
    depends on W only through its pivots and T, so W is counted the same
    way, tallied by its first column s one rank at a time.
    """
    n = profile.n
    o1_of_col = [o1 for o1, _ in profile.orders]  # the orders are sorted by o1
    o2_of_col = [o2 for _, o2 in profile.orders]
    after = [0] * n  # after[p]: bitmask of the flag-2 orders of the columns after p
    for p in range(n - 2, -1, -1):
        after[p] = after[p + 1] | 1 << o2_of_col[p + 1]

    # tallies[s] at rank m: {(flag-1 orders of the pivots, bitmask of flag-2
    # lead positions): count} over the m-subspaces with first pivot >= s.  It
    # is built one rank at a time, for the s that the next rank reads; rank k
    # needs s = 0 alone.
    tallies = {s: {((), 0): 1} for s in range(k, n + 1)}
    for m in range(1, k + 1):
        below, tallies = tallies, {}
        for s in range(k - m, (n - m if m < k else 0) + 1):
            out = tallies[s] = {}
            for p0 in range(s, n - m + 1):
                top = o2_of_col[p0]
                for (b1, leads), mult in below[p0 + 1].items():
                    opened = after[p0] & ~leads
                    f = (opened >> top).bit_count()
                    choices = [(top, q**f)]
                    opened &= (1 << top) - 1
                    while opened:  # the open positions below top, descending
                        t = opened.bit_length() - 1
                        opened ^= 1 << t
                        choices.append((t, (q - 1) * q**f))
                        f += 1
                    for t, ways in choices:
                        key = ((o1_of_col[p0],) + b1, leads | 1 << t)
                        out[key] = out.get(key, 0) + mult * ways

    hist = {}
    for (b1, leads), mult in tallies[0].items():
        b2 = tuple(t for t in range(n + 1) if leads >> t & 1)
        hist[b1, b2] = hist.get((b1, b2), 0) + mult
    return hist


def count_series(q, profile: FlagProfile, r, a1, a2) -> int:
    """Number of (r+1)-subspaces of F_q^n with vanishing >= a1, a2 at the flags.

    q must be in gf.FIELDS.  A subspace qualifies when its vanishing sequence
    against flag i dominates a_i componentwise.  The counts come from a
    histogram of (flag-1, flag-2) sequence pairs, cached by (q,
    profile.orders, r + 1) and counted row by row (see
    _rank_count_histogram), with no subspace enumerated.  Next to the
    histogram the cache keeps one slice per a1 asked for: the entries whose
    flag-1 sequence dominates a1, merged by flag-2 sequence, so a query
    only scans its slice for a2.  The budget
    (BN_ENUM_BUDGET, default 10^7 subspaces) is a policy on the size of the
    count, not on work done: it caps gaussian_binomial(n, r + 1, q) and
    raises InfeasibleSize beyond it before any cache lookup, cached
    histogram or not.
    """
    gf(q)  # rejects an unsupported field size
    n = profile.n
    k = r + 1
    want1 = VanishingSeq(a1, n).entries
    want2 = VanishingSeq(a2, n).entries
    for want in (want1, want2):
        if len(want) != k:
            raise ValueError(f"expected {k} vanishing orders, got {len(want)}")
    if k > n:
        return 0
    refuse_over_budget(gaussian_binomial(n, k, q), "subspaces")
    key = (q, profile.orders, k)
    cached = _HIST_CACHE.get(key)
    if cached is None:
        cached = _HIST_CACHE[key] = (_rank_count_histogram(q, profile, k), {})
    hist, slices = cached
    piece = slices.get(want1)
    if piece is None:
        merged = {}
        for (b1, b2), mult in hist.items():
            if all(map(ge, b1, want1)):
                merged[b2] = merged.get(b2, 0) + mult
        piece = slices[want1] = tuple(merged.items())
    return sum(mult for b2, mult in piece if all(map(ge, b2, want2)))


def series_counts(profile: FlagProfile, r, a1, a2) -> list:
    """[(q, count_series(q, profile, r, a1, a2)) for q in gf.FIELDS].

    Every field size is checked against the budget before any is counted, so
    an over-budget q costs no counting at the smaller ones; the refusal names
    the first such q, as counting in order would.  The bounds a1, a2 are
    validated by count_series.
    """
    refuse_subspaces_over_budget(profile.n, r + 1)
    return [(q, count_series(q, profile, r, a1, a2)) for q in FIELDS]


def _poly_eval(coeffs, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _digit_candidate(points):
    """Coefficients read as base-q digits at the largest q, or None."""
    q_top, n_top = points[-1]
    if n_top <= 0:
        return None
    digits = []
    value = n_top
    while value:
        digits.append(value % q_top)
        value //= q_top
    if all(_poly_eval(digits, q) == n for q, n in points[:-1]):
        return digits
    return None


def _newton_candidate(points):
    """Exact interpolant through all points, if its coefficients are counts."""
    xs = [Fraction(q) for q, _ in points]
    coeffs = [Fraction(n) for _, n in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * len(points)
    poly[0] = coeffs[-1]
    for i in range(len(points) - 2, -1, -1):
        for j in range(len(points) - 1, 0, -1):
            poly[j] = poly[j - 1] - xs[i] * poly[j]
        poly[0] = coeffs[i] - xs[i] * poly[0]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    if all(c.denominator == 1 and c >= 0 for c in poly):
        return [int(c) for c in poly]
    return None


def dim_fit(counts) -> int | None:
    """Dimension of a locus from exact point counts at >= 3 field sizes.

    Returns None when the counts are identically zero (empty locus).
    Otherwise finds a counting polynomial that reproduces every sample
    exactly, trying both the interpolant through all points and the
    base-q digit expansion at the largest q (which sees degrees beyond the
    sample size as long as coefficients stay below q).  Raises NoFit when no
    candidate fits or the verified candidates disagree on the degree.
    """
    points = sorted((int(q), int(n)) for q, n in counts)
    if len({q for q, _ in points}) != len(points):
        raise ValueError("counts must be at distinct field sizes")
    if len(points) < 3:
        raise ValueError("need counts at >= 3 distinct field sizes")
    if any(n < 0 for _, n in points):
        raise ValueError("counts must be nonnegative")
    if all(n == 0 for _, n in points):
        return None
    return _fitted_degree(tuple(points))


@lru_cache(maxsize=4096)
def _fitted_degree(points) -> int:
    """dim_fit's candidate fitting on checked, sorted points; NoFit is never cached."""
    degrees = set()
    for candidate in (_digit_candidate(points), _newton_candidate(points)):
        if candidate is not None:
            degrees.add(len(candidate) - 1)
    if len(degrees) != 1:
        raise NoFit(f"counts {list(points)} admit no unambiguous exact polynomial fit")
    return degrees.pop()


def dim_or_nofit(counts) -> int | str | None:
    """dim_fit, with "nofit" in place of the NoFit error (the reports' convention)."""
    try:
        return dim_fit(counts)
    except NoFit:
        return "nofit"


@dataclass(frozen=True)
class EllipticModel:
    """A curve y^2 = x^3 + a x + b over F_p with marked points P1, P2.

    ``order_diff`` records the group order of P1 - P2; it is stored with the
    fixture and checked against ec_order_diff when the model is built.
    """

    p: int
    a: int
    b: int
    p1: tuple[int, int]
    p2: tuple[int, int]
    order_diff: int

    def __post_init__(self):
        object.__setattr__(self, "p1", tuple(self.p1))
        object.__setattr__(self, "p2", tuple(self.p2))
        if self.p < 5 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime >= 5")
        if discriminant(self.p, self.a, self.b) == 0:
            raise ValueError("curve is singular")
        for pt in (self.p1, self.p2):
            if not is_on_curve(self.p, self.a, self.b, pt):
                raise ValueError(f"point {pt} is not on the curve")
        order = ec_order_diff(self)
        if self.order_diff != order:
            raise ValueError(f"stored order_diff {self.order_diff} != ord(P1 - P2) = {order}")


def ec_order_diff(m: EllipticModel) -> int:
    """Exact group order of P1 - P2, by the group law."""
    diff = ec_add(m.p, m.a, m.p1, ec_neg(m.p, m.p2))
    return point_order(m.p, m.a, diff)


def all_descriptors(d: int) -> list[LineBundleDescriptor]:
    """Every bundle class relevant at degree d: generic plus special(0..d)."""
    return [generic_bundle(d)] + [special_bundle(d, a) for a in range(d + 1)]


def ec_descriptor_scan(m: EllipticModel, p: BNProblem) -> dict:
    """Per-descriptor counting report for a genus-1 problem on the model.

    Uses the model's actual difference order, so a torsion pair makes
    coinciding special bundles (and their degenerate loci) visible.  Every
    profile has n = h^0(L) <= max(d, 1) (n = d for d >= 1), and there are
    d + 2 of them, so an over-budget request is refused before any is built.
    """
    if p.g != 1:
        raise ValueError("the descriptor scan is a genus-1 oracle")
    order = m.order_diff
    if order < 2:
        raise ValueError("marked points must be distinct (ord(P1 - P2) >= 2)")
    refuse_subspaces_over_budget(max(p.d, 1), p.r + 1, p.d + 2)  # all_descriptors(d)
    a1 = to_vanishing(p.alpha1).entries
    a2 = to_vanishing(p.alpha2).entries
    report = {"order_diff": order, "descriptors": []}
    for bundle in all_descriptors(p.d):
        profile = profile_g1(bundle, diff_order=order)
        counts = series_counts(profile, p.r, a1, a2)
        report["descriptors"].append(
            {
                "bundle": "generic" if bundle.a is None else f"special({bundle.a})",
                "a": bundle.a,
                "counts": counts,
                "dim": dim_or_nofit(counts),
                "nonempty": any(n > 0 for _, n in counts),
            }
        )
    report["nonempty"] = any(entry["nonempty"] for entry in report["descriptors"])
    return report


def ec_g1_nonempty(m: EllipticModel, p: BNProblem) -> bool:
    """Brute-force nonemptiness for g = 1, requiring ord(P1 - P2) > d."""
    if m.order_diff <= p.d:
        raise ValueError(
            "generality hypothesis violated: ord(P1 - P2) must exceed d"
        )
    return ec_descriptor_scan(m, p)["nonempty"]


@lru_cache(maxsize=None)
def load_fixture(name: str) -> EllipticModel:
    """Load a frozen curve model from the versioned fixture file.

    Models are cached by name; an unknown name raises KeyError on every call.
    """
    text = resources.files(__package__).joinpath("fixtures/elliptic_models.json").read_text()
    data = json.loads(text)
    entry = data["models"][name]
    return EllipticModel(
        entry["p"],
        entry["a"],
        entry["b"],
        tuple(entry["p1"]),
        tuple(entry["p2"]),
        entry["order_diff"],
    )
