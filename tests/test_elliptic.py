from itertools import product

from bnseries.elliptic import (
    discriminant,
    ec_add,
    ec_neg,
    is_on_curve,
    is_prime,
    point_order,
)
from bnseries.oracle import load_fixture
from reference import curve_points, ec_mul

P, A, B = 53, 0, 1  # the fixture curve y^2 = x^3 + 1 over F_53


def test_discriminant():
    assert discriminant(P, A, B) != 0
    assert discriminant(P, 0, 0) == 0


def test_points_are_on_curve():
    pts = list(curve_points(P, A, B))
    assert pts
    for pt in pts:
        assert is_on_curve(P, A, B, pt)


def test_group_law_spot_checks():
    pts = sorted(curve_points(P, A, B))[:8] + [None]
    for p1, p2 in product(pts, repeat=2):
        s = ec_add(P, A, p1, p2)
        assert is_on_curve(P, A, B, s)
        assert s == ec_add(P, A, p2, p1)
    for p1, p2, p3 in product(pts[:5], repeat=3):
        left = ec_add(P, A, ec_add(P, A, p1, p2), p3)
        right = ec_add(P, A, p1, ec_add(P, A, p2, p3))
        assert left == right
    for pt in pts:
        assert ec_add(P, A, pt, None) == pt
        assert ec_add(P, A, pt, ec_neg(P, pt)) is None


def test_scalar_multiplication_matches_repeated_addition():
    pt = sorted(curve_points(P, A, B))[0]
    acc = None
    for n in range(12):
        assert ec_mul(P, A, pt, n) == acc
        acc = ec_add(P, A, acc, pt)
    assert ec_mul(P, A, pt, -1) == ec_neg(P, pt)


def test_point_order_properties():
    assert point_order(P, A, None) == 1
    group_size = len(list(curve_points(P, A, B))) + 1
    for pt in sorted(curve_points(P, A, B))[:10]:
        order = point_order(P, A, pt)
        assert ec_mul(P, A, pt, order) is None
        assert group_size % order == 0


def test_is_prime_below_60():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    assert {n for n in range(-3, 60) if is_prime(n)} == primes


def test_fixtures_follow_their_selection_rule():
    # The rule in the fixture file's comment: the first nonsingular curve over
    # the first prime >= 50; P2 its first affine point in sorted order (for
    # torsion2, the first whose order is not 2); P1 - P2 the first point, in
    # sorted order, of order >= 5 (general), >= 7 (general27) or exactly 2
    # (torsion2), with P1 = P2 + (P1 - P2) not at infinity.
    assert (P, A, B) == (next(p for p in range(50, 60) if is_prime(p)), 0, 1)
    assert discriminant(P, 0, 0) == 0  # (a, b) = (0, 1) is the first nonsingular pair
    points = sorted(curve_points(P, A, B))
    order = {pt: point_order(P, A, pt) for pt in points}

    def pick(p2, hit):
        diff = next(pt for pt in points if hit(order[pt]) and ec_add(P, A, p2, pt) is not None)
        return ec_add(P, A, p2, diff), p2, order[diff]

    models = {name: load_fixture(name) for name in ("general", "general27", "torsion2")}
    assert {(m.p, m.a, m.b) for m in models.values()} == {(P, A, B)}
    assert {name: (m.p1, m.p2, m.order_diff) for name, m in models.items()} == {
        "general": pick(points[0], lambda o: o >= 5),
        "general27": pick(points[0], lambda o: o >= 7),
        "torsion2": pick(next(pt for pt in points if order[pt] != 2), lambda o: o == 2),
    }
