"""Short Weierstrass group law over a prime field, for torsion certificates.

Curves are y^2 = x^3 + a*x + b over F_p with p >= 5 and nonzero discriminant.
Points are (x, y) pairs of integers mod p; None is the point at infinity.
Everything here is brute-force exact arithmetic at desk scale: point orders
are found by repeated addition, and fixture models by direct search.
"""

from math import isqrt
from typing import Iterator

Point = tuple[int, int] | None


def discriminant(p: int, a: int, b: int) -> int:
    return (-16 * (4 * a * a * a + 27 * b * b)) % p


def is_on_curve(p: int, a: int, b: int, pt: Point) -> bool:
    if pt is None:
        return True
    x, y = pt
    return (y * y - (x * x * x + a * x + b)) % p == 0


def ec_neg(p: int, pt: Point) -> Point:
    if pt is None:
        return None
    x, y = pt
    return (x, (-y) % p)


def ec_add(p: int, a: int, pt1: Point, pt2: Point) -> Point:
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    y3 = (slope * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_mul(p: int, a: int, pt: Point, n: int) -> Point:
    if n < 0:
        return ec_mul(p, a, ec_neg(p, pt), -n)
    result = None
    addend = pt
    while n:
        if n & 1:
            result = ec_add(p, a, result, addend)
        addend = ec_add(p, a, addend, addend)
        n >>= 1
    return result


def point_order(p: int, a: int, pt: Point) -> int:
    """Order of a point in the group, by repeated addition."""
    order = 1
    current = pt
    while current is not None:
        current = ec_add(p, a, current, pt)
        order += 1
        if order > p + 1 + 2 * isqrt(p) + 2:
            raise RuntimeError("point order exceeded the Hasse bound; bad curve data")
    return order if pt is not None else 1


def curve_points(p: int, a: int, b: int) -> Iterator[tuple[int, int]]:
    """All affine points, by scanning x against a table of squares."""
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in roots.get(rhs, ()):
            yield (x, y)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def _find_model(p_min: int, pick) -> dict:
    """First curve, over primes p >= p_min and then (a, b), where ``pick`` finds a pair.

    ``pick(p, a, points)`` gets the sorted affine points and returns
    (P1, P2, ord(P1 - P2)) or None; the hit comes back in the fixture's shape.
    """
    p = p_min
    while True:
        if is_prime(p):
            for a in range(p):
                for b in range(p):
                    if discriminant(p, a, b) == 0:
                        continue
                    hit = pick(p, a, sorted(curve_points(p, a, b)))
                    if hit is not None:
                        p1, p2, order = hit
                        return {
                            "p": p,
                            "a": a,
                            "b": b,
                            "p1": list(p1),
                            "p2": list(p2),
                            "order_diff": order,
                        }
        p += 1


def find_general_model(p_min: int = 50, min_order: int = 5) -> dict:
    """Smallest-prime search for a curve and point pair with ord(P1 - P2) >= min_order.

    Deterministic: P2 is the first point and P1 - P2 the first point, in
    sorted order, of order >= min_order that does not put P1 at infinity.
    """

    def pick(p, a, points):
        for diff in points:
            order = point_order(p, a, diff)
            if order >= min_order:
                p1 = ec_add(p, a, points[0], diff)
                if p1 is not None:
                    return p1, points[0], order
        return None

    return _find_model(p_min, pick)


def find_torsion_model(p_min: int = 50, torsion: int = 2) -> dict:
    """Search for a curve and point pair whose difference has the exact given order."""

    def pick(p, a, points):
        diff = next((pt for pt in points if point_order(p, a, pt) == torsion), None)
        if diff is None:
            return None
        p2 = next(pt for pt in points if point_order(p, a, pt) != torsion)
        return ec_add(p, a, p2, diff), p2, torsion

    return _find_model(p_min, pick)
