import json
from importlib import resources
from itertools import product

from bnseries.elliptic import (
    curve_points,
    discriminant,
    ec_add,
    ec_mul,
    ec_neg,
    find_general_model,
    find_torsion_model,
    is_on_curve,
    is_prime,
    point_order,
)

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


def test_model_search_reproduces_fixtures():
    text = resources.files("bnseries").joinpath("fixtures/elliptic_models.json").read_text()
    models = json.loads(text)["models"]
    assert find_general_model() == models["general"]
    assert find_general_model(min_order=7) == models["general27"]
    assert find_torsion_model() == models["torsion2"]
