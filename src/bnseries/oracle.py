"""Brute-force verification oracles, independent of the combinatorial formulas.

Two ingredients:

* Flag profiles.  A pair of vanishing flags in an n-dimensional section
  space is recorded by the table h(k1, k2) = dim of the intersection of the
  two steps.  Complementary flags (the genus-0 case) have
  h = max(0, n - k1 - k2); genus-1 profiles follow the Riemann-Roch rule
  h = h^0(L - k1 P1 - k2 P2) for a degree-d bundle L.  Any profile emitted
  here is realized by a coordinate model: each basis vector gets a pair of
  vanishing orders, and both flags become spans of coordinate vectors.

* Point counting.  Subspaces with prescribed vanishing against both flags
  are counted exactly over F_q for q in gf.FIELDS, by plain linear algebra:
  the canonical bases are enumerated without their first row, and the
  choices of that row are counted per flag-2 lead from ranks of one
  incremental elimination.  The dimension of the locus is read off from the
  exact polynomial growth of the counts in q.

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

from .core import BNProblem, VanishingSeq, refuse_over_budget, to_vanishing
from .elliptic import discriminant, ec_add, ec_neg, is_on_curve, is_prime, point_order
from .gf import FIELDS, echelon_insert, gaussian_binomial, gf, rref_matrices
from .realize import LineBundleDescriptor, generic_bundle, special_bundle

class NoFit(RuntimeError):
    """The point counts admit no verified exact polynomial fit."""


@dataclass(frozen=True)
class FlagProfile:
    """Intersection-dimension table of two vanishing flags in dimension n.

    h is an (n+1) x (n+1) tuple of tuples with h[0][0] = n, nonincreasing
    with unit steps in each argument.  (For complementary flags additionally
    h[k][0] = h[0][k] = n - k; the degenerate genus-1 profiles where the
    bundle concentrates at one point keep a one-dimensional tail instead.)
    """

    n: int
    h: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(tuple(row) for row in self.h))
        n, h = self.n, self.h
        if n < 1:
            raise ValueError("profile dimension must be >= 1")
        if len(h) != n + 1 or any(len(row) != n + 1 for row in h):
            raise ValueError(f"profile table must be {n + 1} x {n + 1}")
        if h[0][0] != n:
            raise ValueError("h(0, 0) must equal the ambient dimension")
        for k1 in range(n + 1):
            for k2 in range(n + 1):
                if h[k1][k2] < 0:
                    raise ValueError("profile entries must be nonnegative")
                if k1 < n and h[k1][k2] - h[k1 + 1][k2] not in (0, 1):
                    raise ValueError(f"non-unit step in k1 at ({k1}, {k2})")
                if k2 < n and h[k1][k2] - h[k1][k2 + 1] not in (0, 1):
                    raise ValueError(f"non-unit step in k2 at ({k1}, {k2})")

    def __call__(self, k1: int, k2: int) -> int:
        return self.h[k1][k2]


def profile_complementary(n: int) -> FlagProfile:
    """Profile of two complementary flags: h(k1, k2) = max(0, n - k1 - k2)."""
    table = tuple(
        tuple(max(0, n - k1 - k2) for k2 in range(n + 1)) for k1 in range(n + 1)
    )
    return FlagProfile(n, table)


def profile_g1(bundle: LineBundleDescriptor, diff_order: int | None = None) -> FlagProfile:
    """Genus-1 profile h(k1, k2) = h^0(L - k1 P1 - k2 P2), with n = d.

    The degree-e = d - k1 - k2 twist has h^0 = e for e >= 1 and 0 for e < 0.
    At e = 0 the space is one-dimensional exactly when the twist is the
    trivial class, i.e. when (a - k1)(P1 - P2) vanishes in the Jacobian:
    with ``diff_order = None`` (points in general position) this needs
    a = k1; a finite ``diff_order`` t relaxes it to a = k1 mod t.
    """
    d = bundle.d
    if d < 1:
        raise ValueError("profile needs d >= 1")
    if diff_order is not None and diff_order < 1:
        raise ValueError("diff_order must be a positive integer")
    rows = []
    for k1 in range(d + 1):
        row = []
        for k2 in range(d + 1):
            e = d - k1 - k2
            if e >= 1:
                row.append(e)
            elif e < 0:
                row.append(0)
            elif bundle.a is None:
                row.append(0)
            else:
                delta = bundle.a - k1
                trivial = delta == 0 if diff_order is None else delta % diff_order == 0
                row.append(1 if trivial else 0)
        rows.append(tuple(row))
    return FlagProfile(d, tuple(rows))


def basis_orders(profile: FlagProfile) -> tuple[tuple[int, int], ...]:
    """Vanishing-order pairs (o1, o2) of a coordinate model realizing the profile.

    The multiplicity of the pair (k1, k2) is the second difference of the
    table; it must be nonnegative with total n for the profile to come from
    an actual pair of flags.
    """
    n = profile.n

    def h(k1, k2):
        return profile.h[k1][k2] if k1 <= n and k2 <= n else 0

    orders = []
    for k1 in range(n + 1):
        for k2 in range(n + 1):
            mult = h(k1, k2) - h(k1 + 1, k2) - h(k1, k2 + 1) + h(k1 + 1, k2 + 1)
            if mult < 0:
                raise ValueError(f"profile not realizable: negative mass at ({k1}, {k2})")
            orders.extend([(k1, k2)] * mult)
    if len(orders) != n:
        raise ValueError("profile not realizable: total mass != n")
    return tuple(orders)


def refuse_subspaces_over_budget(n: int, k: int) -> None:
    """Raise InfeasibleSize for the first q in gf.FIELDS with too many k-subspaces of F_q^n.

    The check needs only (n, k), so a request is refused before any profile
    is built.  With k > n there is nothing to count and nothing is checked.
    """
    if k <= n:
        for q in FIELDS:
            refuse_over_budget(gaussian_binomial(n, k, q), "subspaces")


_HIST_CACHE: dict = {}  # joint tallies of vanishing-sequence pairs, by (q, profile table, k)


def _rank_count_histogram(q: int, profile: FlagProfile, k: int) -> dict:
    """The histogram by rank counting.

    Columns are taken in flag-1 order, so the pivots p0 < ... < p_{k-1} of a
    subspace's reduced echelon basis give its flag-1 sequence.  Rows 1..k-1
    span a (k-1)-subspace W of the columns after p0, and these are
    enumerated.  Row 0 ranges over the affine space a + L (a = e_{p0}, L
    spanned by its free columns) and is counted instead: with C_t spanned by
    the columns at flag-2 positions >= t and U_t = W + C_t, the subspace has
    a flag-2 lead at position >= t outside W's leads exactly when row 0 lies
    in U_t.  That holds for q^dim(L & U_t) choices of row 0 when a is in
    L + U_t, and for none otherwise.  One sweep t = n-1 .. 0 grows echelon
    bases of U_t, L + U_t and L + U_t + a; the differences of the counts
    tally row 0's lead, and W's own leads are the positions where U_t does
    not grow.
    """
    n = profile.n
    orders = basis_orders(profile)
    by1 = sorted(range(n), key=lambda i: orders[i][0])
    o1_of_col = [orders[i][0] for i in by1]
    o2_of_col = [orders[i][1] for i in by1]
    cols_by_o2 = sorted(range(n), key=lambda pos: o2_of_col[pos])
    o2_at = [o2_of_col[c] for c in cols_by_o2]
    unit = [[int(j == c) for j in range(n)] for c in range(n)]
    field = gf(q)
    hist: dict = {}
    for p0 in range(n - k + 1):
        before = [0] * (p0 + 1)
        for w_pivots, w_rows in rref_matrices(q, n - 1 - p0, k - 1):
            pivots = (p0,) + tuple(p0 + 1 + c for c in w_pivots)
            b1 = tuple(o1_of_col[c] for c in pivots)
            u = {c: before + row for c, row in zip(pivots[1:], w_rows)}
            free = [c for c in range(p0 + 1, n) if c not in pivots]
            lu = dict(u)
            for c in free:
                echelon_insert(field, lu, unit[c])
            lua = dict(lu)
            echelon_insert(field, lua, unit[p0])
            everything = q ** len(free)  # the number of choices of row 0
            w_leads = []
            row0_leads = []  # (t, number of row-0 choices whose lead is t)
            above = 0  # row-0 choices with lead > t
            for t in range(n - 1, -1, -1):
                e = unit[cols_by_o2[t]]
                if not echelon_insert(field, u, e):
                    w_leads.append(t)
                echelon_insert(field, lu, e)
                echelon_insert(field, lua, e)
                at_least = q ** (len(free) + len(u) - len(lu)) if len(lua) == len(lu) else 0
                if at_least != above:
                    row0_leads.append((t, at_least - above))
                    above = at_least
                if above == everything and len(w_leads) == k - 1:
                    break  # every lead is placed
            for t, mult in row0_leads:
                b2 = tuple(o2_at[pos] for pos in sorted(w_leads + [t]))
                pair = (b1, b2)
                hist[pair] = hist.get(pair, 0) + mult
    return hist


def count_series(q, profile: FlagProfile, r, a1, a2) -> int:
    """Number of (r+1)-subspaces of F_q^n with vanishing >= a1, a2 at the flags.

    q must be in gf.FIELDS.  A subspace qualifies when its vanishing sequence
    against flag i dominates a_i componentwise.  Counting is by rank
    computations over F_q (see _rank_count_histogram): canonical bases are
    enumerated without their first row, whose choices are counted.  A hard
    budget (BN_ENUM_BUDGET, default 10^7 subspaces) caps
    gaussian_binomial(n, r + 1, q) and raises InfeasibleSize beyond it, cached
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
    key = (q, profile.h, k)
    hist = _HIST_CACHE.get(key)
    if hist is None:
        hist = _HIST_CACHE[key] = _rank_count_histogram(q, profile, k)
    total = 0
    for (b1, b2), mult in hist.items():
        if all(b1[j] >= want1[j] for j in range(k)) and all(
            b2[j] >= want2[j] for j in range(k)
        ):
            total += mult
    return total


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
    degrees = set()
    for candidate in (_digit_candidate(points), _newton_candidate(points)):
        if candidate is not None:
            degrees.add(len(candidate) - 1)
    if len(degrees) != 1:
        raise NoFit(f"counts {points} admit no unambiguous exact polynomial fit")
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
    profile has n = d, so an over-budget request is refused before any is
    built.
    """
    if p.g != 1:
        raise ValueError("the descriptor scan is a genus-1 oracle")
    order = m.order_diff
    if order < 2:
        raise ValueError("marked points must be distinct (ord(P1 - P2) >= 2)")
    refuse_subspaces_over_budget(p.d, p.r + 1)
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
def load_fixture(name: str = "general") -> EllipticModel:
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
