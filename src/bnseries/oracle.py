"""Point-counting verification oracles, independent of the combinatorial formulas.

Two ingredients:

* Flag profiles.  A pair of vanishing flags in an n-dimensional section
  space is recorded by its relative position: a coordinate model gives each
  basis vector a pair of vanishing orders (o1, o2), and both flags become
  spans of coordinate vectors.  The n pairs are built in closed form:
  (i, n - 1 - i) for complementary flags (the genus-0 case), a few swaps of
  that list for the Riemann-Roch rule h(k1, k2) = h^0(L - k1 P1 - k2 P2) of
  a degree-d bundle L at genus 1.  The table h of intersection dimensions
  is derived from the pairs on demand, never on the counting path.  Only
  a request that counts (k <= n) keeps its profiles, in _PROFILES by n or
  by (d, ord(P1 - P2)), so the memo grows only with the histogram cache.

* Point counting.  Subspaces with prescribed vanishing against both flags
  are counted cell by cell: the choices of each row of a canonical basis
  are counted from the pivots and flag-2 leads of the rows below it, so
  nothing is enumerated and no field arithmetic is done.  Each count is a
  polynomial in q, a sum of cell sizes (q - 1)^a q^b, so the absolute
  values of its coefficients sum to at most its value at q = 3.  The
  histogram of (flag-1, flag-2) sequence pairs is therefore counted once,
  at a power of two X above twice the number of subspaces at q = 3, and
  a count read at X gives its exact coefficients back as balanced base-X
  digits (Kronecker substitution).  The histogram is cached per (profile
  orders, rank) together with one slice per flag-1 bound asked for: its
  entries that meet the bound, merged by flag-2 sequence, so a repeated
  bound costs one scan of its slice.  Every count passes one gate,
  refuse_subspaces_over_budget: each public entry point runs it once,
  reading the budget once, before any profile or cache is read or built,
  and checks its vanishing sequences once; count_series is series_counts
  read at one q.  The counts at q in gf.FIELDS are the polynomial's values
  and the locus dimension is its degree; _series_counts returns (counts,
  coefficients, nonempty), decoded once per value at X (_answer): counts
  repeat, since the d + 2 descriptors of one genus-1 request often share
  one and the pairs (a1, a2) at one point take few values.  The tests
  check the histograms against F_q enumeration.

The elliptic model supplies the genus-1 generality certificate: a concrete
curve over a prime field with marked points whose difference has known group
order.  Orders above d certify the torsion condition; a small-order pair
reproduces the excluded degeneration where two special bundles coincide.
"""

import json
import os
from functools import lru_cache
from operator import add, ge

from .core import (
    BNProblem, VanishingSeq, _enum_budget, _refuse_non_ints, _set, _too_long_to_print, _Value, refuse_over_budget,
)
from .elliptic import discriminant, ec_add, ec_neg, is_on_curve, is_prime, point_order
from .gf import FIELDS, gaussian_binomial
from .realize import LineBundleDescriptor


class FlagProfile(_Value):
    """Relative position of two vanishing flags in dimension n.

    orders holds the n vanishing-order pairs (o1, o2) of a coordinate model,
    sorted by o1: distinct o1 values, distinct o2 values, all in [0, n].
    The table h(k1, k2) = #{i : o1_i >= k1, o2_i >= k2} of intersection
    dimensions is a derived view, ``profile.h``, that no count reads.
    """

    __slots__ = _fields = ("n", "orders")

    def __init__(self, n, orders):
        try:  # checked before sorting, which a non-number would break
            pairs = [(o1, o2) for o1, o2 in orders]
        except (TypeError, ValueError):  # not iterable, or an item not a pair
            raise ValueError("orders must be a sequence of (o1, o2) pairs") from None
        if type(n) is not int or any(type(o) is not int for pair in pairs for o in pair):
            entries = {f"o{k + 1} of orders[{i}]": o for i, pair in enumerate(pairs) for k, o in enumerate(pair)}
            _refuse_non_ints({"n": n, **entries})
        orders = tuple(sorted(pairs))
        _set(self, "n", n)
        _set(self, "orders", orders)
        _set(self, "_key", (n, orders))
        if n < 0:
            raise ValueError("profile dimension must be >= 0")
        if len(orders) != n:
            raise ValueError(f"profile needs {n} vanishing-order pairs, got {len(orders)}")
        for side in (0, 1):
            values = {pair[side] for pair in orders}
            if len(values) != n or not values <= set(range(n + 1)):
                raise ValueError(f"flag-{side + 1} orders must be distinct integers in [0, {n}]")

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
    The top Schubert cell has q^(k(n - k)) points, a lower bound on the
    count.  When that bound is already too large to print at the smallest
    q, which k(n - k) and the digit limit decide, the refusal names it
    (core's floor_log2 path, which computes the bound only when it has fewer
    than 4 bits a digit) and the exact count is never computed.  After it,
    (n + 1)^2 table entries for each of the ``profiles`` are held against
    the budget, k > n or not: no table is built any more, but the charge
    stays as policy, since its refusals are part of the interface.  The
    budget is read once, and refuse_over_budget words the size that fails.
    """
    limit = _enum_budget() if k <= n or profiles else None  # read only when something is checked
    if k <= n:
        bits = k * (n - k)  # the top cell has 2^bits points at q = FIELDS[0] = 2
        if _too_long_to_print(bits):
            refuse_over_budget(lambda: FIELDS[0] ** bits, "subspaces", floor_log2=bits)
        for q in FIELDS:
            if (count := gaussian_binomial(n, k, q)) > limit:
                refuse_over_budget(count, "subspaces")
    if profiles and (entries := profiles * (n + 1) ** 2) > limit:
        refuse_over_budget(entries, "profile table entries")


# (X, joint tallies of vanishing-sequence pairs at q = X, {a1: slice}), by (profile.orders, k)
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


def _balanced_digits(value: int, x: int) -> tuple[int, ...]:
    """The digits of value in base x, each in (-x/2, x/2), lowest first."""
    digits = []
    while value:
        value, digit = divmod(value, x)
        if digit > x >> 1:  # a negative digit borrows one from the next
            digit -= x
            value += 1
        digits.append(digit)
    return tuple(digits)


def _poly_eval(coeffs, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _wanted(n: int, r, a1, a2) -> tuple:
    """(k, a1, a2 entries) for rank k = r + 1, with a1 and a2 checked as vanishing sequences of length k."""
    k = r + 1
    # a VanishingSeq of context d <= n passed the entry checks when it was built
    want1 = a1.entries if type(a1) is VanishingSeq and a1.d <= n else VanishingSeq(a1, n).entries
    want2 = a2.entries if type(a2) is VanishingSeq and a2.d <= n else VanishingSeq(a2, n).entries
    for want in (want1, want2):
        if len(want) != k:
            raise ValueError(f"expected {k} vanishing orders, got {len(want)}")
    return k, want1, want2


def count_series(q, profile: FlagProfile, r, a1, a2) -> int:
    """Number of (r+1)-subspaces of F_q^n with vanishing >= a1, a2 at the flags.

    q must be in gf.FIELDS; the count is the value at q that series_counts
    returns, behind the same budget gate, so a q under the budget is
    refused too when a larger field size is over it.
    """
    if q not in FIELDS:
        raise ValueError("supported field sizes are 2, 3 and 4")
    return dict(series_counts(profile, r, a1, a2)[0])[q]


def series_counts(profile: FlagProfile, r, a1, a2) -> tuple[list, tuple[int, ...]]:
    """([(q, count) for q in gf.FIELDS], coefficients) for the (r+1)-subspaces of F_q^n.

    A subspace counts when its vanishing sequence against flag i dominates
    a_i componentwise.  The coefficients, low to high, are those of the
    exact counting polynomial in q (see _series_counts), () for an
    empty locus, and the counts are its values, so no subspace is
    enumerated.  The budget (BN_ENUM_BUDGET, default 10^7 subspaces) is a
    policy on the size of the count, not on work done: it is checked for
    every field size before anything is validated, counted or looked up in
    a cache, so the refusal names the first q over it, as counting in order
    would.  Then a1 and a2 are checked once, and the polynomial is read from
    one slice sum.
    """
    refuse_subspaces_over_budget(profile.n, r + 1)
    counts, coeffs, _ = _series_counts(profile, *_wanted(profile.n, r, a1, a2))
    return list(counts), coeffs


@lru_cache(maxsize=1024)
def _answer(value: int, x: int) -> tuple[tuple, tuple[int, ...], bool]:
    """(counts at gf.FIELDS, coefficients, nonempty) of the count whose value at q = x is value."""
    coeffs = _balanced_digits(value, x)
    counts = tuple((q, _poly_eval(coeffs, q)) for q in FIELDS)
    return counts, coeffs, any(n > 0 for _, n in counts)


def _series_counts(profile: FlagProfile, k, want1, want2) -> tuple[tuple, tuple[int, ...], bool]:
    """The _answer for rank k and checked entry tuples, past the budget gate and the checks.

    The histogram is counted at q = X and cached with X and its slices.  A
    count is a sum of cell sizes (q - 1)^a q^b, whose coefficients have
    absolute values summing to 2^a <= 2^a 3^b, so those of any sum of
    entries sum to at most gaussian_binomial(n, k, 3) < X / 2.  Balanced
    base-X digits of the count at X are then its coefficients: () for an
    empty locus, and the last one is never 0.
    """
    if k > profile.n:  # nothing to count
        return _answer(0, 2)
    key = (profile.orders, k)
    cached = _HIST_CACHE.get(key)
    if cached is None:
        x = 2 ** (gaussian_binomial(profile.n, k, 3).bit_length() + 1)
        cached = _HIST_CACHE[key] = (x, _rank_count_histogram(x, profile, k), {})
    x, hist, slices = cached
    piece = slices.get(want1)
    if piece is None:
        merged = {}
        for (b1, b2), mult in hist.items():
            if all(map(ge, b1, want1)):
                merged[b2] = merged.get(b2, 0) + mult
        piece = slices[want1] = tuple(merged.items())
    return _answer(sum(mult for b2, mult in piece if all(map(ge, b2, want2))), x)


_PROFILES: dict = {}  # see the module docstring


def g0_series_counts(d: int, r, a1, a2) -> tuple[list, tuple[int, ...]]:
    """series_counts on the genus-0 profile, complementary(d + 1), gated before it is built."""
    refuse_subspaces_over_budget(d + 1, r + 1, 1)
    profile = _PROFILES.get(d + 1) or profile_complementary(d + 1)
    k, want1, want2 = _wanted(d + 1, r, a1, a2)
    if k <= d + 1:  # its histograms follow, so the memo holds no orders that _HIST_CACHE lacks
        _PROFILES[d + 1] = profile
    counts, coeffs, _ = _series_counts(profile, k, want1, want2)
    return list(counts), coeffs


def dim_fit(coeffs) -> int | None:
    """Dimension of a locus from its counting polynomial: the degree of coeffs.

    coeffs lists the coefficients low to high with a nonzero last one, as
    series_counts returns them; the empty locus has coeffs () and no
    dimension, None.
    """
    return len(coeffs) - 1 if coeffs else None


class EllipticModel(_Value):
    """A curve y^2 = x^3 + a x + b over F_p with marked points P1, P2.

    ``order_diff`` records the group order of P1 - P2; it is stored with the
    fixture and checked against ec_order_diff when the model is built.
    """

    __slots__ = _fields = ("p", "a", "b", "p1", "p2", "order_diff")

    def __init__(self, p, a, b, p1, p2, order_diff):
        points = []
        for name, point in (("p1", p1), ("p2", p2)):
            try:
                x, y = point
            except (TypeError, ValueError):  # not iterable, or not two coordinates
                raise ValueError(f"{name} must be an (x, y) pair") from None
            points.append((x, y))
        self._store((p, a, b, *points, order_diff))
        (x1, y1), (x2, y2) = points
        _refuse_non_ints({"p": p, "a": a, "b": b, "p1[0]": x1, "p1[1]": y1, "p2[0]": x2, "p2[1]": y2,
                          "order_diff": order_diff})
        if p < 5 or not is_prime(p):
            raise ValueError(f"{p} is not an odd prime >= 5")
        if discriminant(p, a, b) == 0:
            raise ValueError("curve is singular")
        for pt in (self.p1, self.p2):
            if not is_on_curve(p, a, b, pt):
                raise ValueError(f"point {pt} is not on the curve")
        order = ec_order_diff(self)
        if order_diff != order:
            raise ValueError(f"stored order_diff {order_diff} != ord(P1 - P2) = {order}")


def ec_order_diff(m: EllipticModel) -> int:
    """Exact group order of P1 - P2, by the group law."""
    diff = ec_add(m.p, m.a, m.p1, ec_neg(m.p, m.p2))
    return point_order(m.p, m.a, diff)


def is_general(m: EllipticModel, d: int) -> bool:
    """The generality hypothesis at degree d: ord(P1 - P2) > d, so no two special bundles coincide."""
    return m.order_diff > d


def all_descriptors(d: int) -> list[LineBundleDescriptor]:
    """Every bundle class relevant at degree d: generic plus special(0..d)."""
    return [LineBundleDescriptor(d, a) for a in (None, *range(d + 1))]


def ec_descriptor_rows(m: EllipticModel, p: BNProblem) -> list[tuple]:
    """(bundle, a, counts, dim, nonempty) for each descriptor of a genus-1 problem on the model.

    Uses the model's actual difference order, so a torsion pair makes
    coinciding special bundles (and their degenerate loci) visible.  Every
    profile has n = h^0(L) <= max(d, 1) (n = d for d >= 1), and there are
    d + 2 of them, so one gate refuses an over-budget request before any is
    built.  Rows follow all_descriptors(d), counts as in series_counts.
    """
    if p.g != 1:
        raise ValueError("the descriptor scan is a genus-1 oracle")
    order = m.order_diff
    if order < 2:
        raise ValueError("marked points must be distinct (ord(P1 - P2) >= 2)")
    k = p.r + 1
    refuse_subspaces_over_budget(max(p.d, 1), k, p.d + 2)  # all_descriptors(d)
    # p's RamSeqs were checked when built, so a_j = alpha_j + j lies in [0, d], and d <= n
    a1 = tuple(map(add, p.alpha1.entries, range(k)))
    a2 = tuple(map(add, p.alpha2.entries, range(k)))
    named = _PROFILES.get((p.d, order)) or tuple(
        ("generic" if b.a is None else f"special({b.a})", b.a, profile_g1(b, order)) for b in all_descriptors(p.d)
    )
    if k <= max(p.d, 1):  # kept only when histograms follow, as in g0_series_counts
        _PROFILES[p.d, order] = named
    rows = []
    for bundle, a, profile in named:
        counts, coeffs, nonempty = _series_counts(profile, k, a1, a2)
        rows.append((bundle, a, counts, dim_fit(coeffs), nonempty))
    return rows


@lru_cache(maxsize=None)
def load_fixture(name: str) -> EllipticModel:
    """Load a frozen curve model from the versioned fixture file.

    Models are cached by name; an unknown name raises KeyError on every call.
    """
    path = os.path.join(os.path.dirname(__file__), "fixtures", "elliptic_models.json")
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    entry = data["models"][name]
    return EllipticModel(
        entry["p"],
        entry["a"],
        entry["b"],
        tuple(entry["p1"]),
        tuple(entry["p2"]),
        entry["order_diff"],
    )
